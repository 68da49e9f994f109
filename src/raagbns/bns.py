"""Excluded-subspace arrangements in character space for a RAAG, its
pure symmetric automorphism group and their outer quotient, plus the
degree-one homology witness extracted from a support-graph loop.

Characters live in Q^N.  For the RAAG itself N is the vertex count and
the arrangement has one coordinate subspace per maximal vertex subset
inducing a disconnected subgraph.  For the automorphism groups N is the
number of standard generators; maximal p-sets contribute coordinate
subspaces, maximal delta-p-sets contribute difference subspaces, and the
outer quotient lives in the subspace W where each multiplier's
coordinates sum to zero.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, admit
from .graphs import complement_components, memoised, support_graph
from .homology import Arrangement, build_chain_complex, betti_numbers, maximal_filter
from .linalg import Subspace, intersect
from .words import standard_generators


def generator_symbol(gen):
    a, comp = gen
    return f"{a}[{','.join(comp)}]"


@dataclass(frozen=True)
class CharacterBasis:
    """Coordinate order for Q^N: one axis per standard generator (or per
    vertex, for the RAAG itself)."""

    labels: tuple

    @property
    def dim(self):
        return len(self.labels)

    def index(self, label):
        return self.labels.index(label)

    def unit(self, label):
        v = [0] * self.dim
        v[self.index(label)] = 1
        return v


def generator_basis(g):
    return CharacterBasis(tuple(standard_generators(g)))


def _neighbour_masks(items, joined):
    """Bit of each item (by position) -> bits of the other items it is
    joined to."""
    bits = [1 << i for i in range(len(items))]
    return {
        bits[i]: sum(bits[j] for j, y in enumerate(items) if j != i and joined(x, y))
        for i, x in enumerate(items)
    }


def _component(s, neighbours):
    """Bitmask of the component, inside bitmask s, of the least member
    of s; `neighbours` maps each member's bit to its neighbours' bits."""
    comp = frontier = s & -s
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= neighbours[low]
            frontier ^= low
        frontier = grow & s & ~comp
        comp |= frontier
    return comp


def _members_of(members, s):
    return tuple(m for i, m in enumerate(members) if s >> i & 1)


def maximal_disconnected_subsets(g, cap=None):
    """All vertex subsets inducing a disconnected subgraph and maximal
    with that property.  A subset fails maximality iff some single added
    vertex keeps it disconnected."""
    vs = sorted(g.vertices)
    n = len(vs)
    admit(2 ** n, cap, f"disconnected-subset enumeration over {n} vertices would scan {2 ** n} subsets")
    adjacency = _neighbour_masks(vs, g.adjacent)
    disconnected = {s for s in range(1 << n) if _component(s, adjacency) != s}
    return sorted(
        _members_of(vs, s)
        for s in disconnected
        if not any(s | b in disconnected for b in adjacency if not s & b)
    )


def raag_arrangement(g, cap=None):
    vs = sorted(g.vertices)
    basis = CharacterBasis(tuple(vs))
    subs = []
    for subset in maximal_disconnected_subsets(g, cap):
        subs.append(Subspace.from_vectors(basis.dim, [basis.unit(v) for v in subset]))
    return Arrangement(basis.dim, tuple(subs))


@dataclass(frozen=True)
class PSet:
    members: tuple
    partition: tuple


@dataclass(frozen=True)
class DeltaPSet:
    members: tuple
    partition: tuple


def _pset_cross_ok(x, y):
    (a, k), (b, l) = x, y
    return a in l and b in k


def _delta_cross_ok(x, y):
    (a, k), (b, l) = x, y
    return a in l or b in k or k == l


def _per_multiplier_options(g, arity):
    """For each vertex: the ways to pick no, one, or a pair of its
    components, per the requested arity set."""
    options = []
    for a in sorted(g.vertices):
        comps = complement_components(g, a)
        choices = [()]
        if 1 in arity:
            choices.extend(((a, k),) for k in comps)
        if 2 in arity:
            choices.extend(
                ((a, k1), (a, k2)) for k1, k2 in itertools.combinations(comps, 2)
            )
        options.append(choices)
    return options


def _choice_tree_size(options):
    """Nodes of the choice tree that picks one option per multiplier in
    turn: the root plus, at each depth, the product of the option counts
    above it."""
    nodes = level = 1
    for choices in options:
        level *= len(choices)
        nodes += level
    return nodes


def _unions(option_masks):
    out = [0]
    for choices in option_masks:
        out = [s | c for s in out for c in choices]
    return out


def _maximal_valid(g, arity, cross_ok, name, cap):
    """(members, witness) of every inclusion-maximal valid set among the
    choice tree's leaves, sorted by members.  The tree's size is admitted
    against `cap` on every call; the sets are found once per graph."""
    nodes = _choice_tree_size(_per_multiplier_options(g, arity))
    admit(nodes, cap, f"{name} enumeration would visit {nodes} choice-tree nodes")
    return _maximal_sets(g, frozenset(arity), cross_ok)


@memoised
def _maximal_sets(g, arity, cross_ok):
    """The enumeration behind `_maximal_valid`.

    A valid set is non-maximal iff one option at one unused multiplier
    extends it to a valid set: if T > S is valid with sides A | B, either
    S meets both sides and any added option keeps them apart, or S lies
    in A and the option holding a member of B does.
    """
    options = _per_multiplier_options(g, arity)
    members = sorted({m for choices in options for choice in choices for m in choice})
    bit = {m: 1 << i for i, m in enumerate(members)}
    failure = _neighbour_masks(members, lambda x, y: not cross_ok(x, y))
    option_masks = [[sum(bit[m] for m in choice) for choice in choices] for choices in options]
    # leaves are unions of a head over the first half of the multipliers
    # and a tail over the rest, so only the halves are ever listed
    half = len(option_masks) // 2
    tails = _unions(option_masks[half:])
    valid = {}
    for head in _unions(option_masks[:half]):
        for tail in tails:
            s = head | tail
            comp = _component(s, failure)
            if comp != s:
                valid[s] = comp
    # (bits of a multiplier's members, its non-empty options)
    extensions = [
        (sum({bit[m] for choice in choices for m in choice}), choice_masks[1:])
        for choices, choice_masks in zip(options, option_masks)
    ]
    out = [
        (_members_of(members, s), (_members_of(members, comp), _members_of(members, s & ~comp)))
        for s, comp in valid.items()
        if not any(s | c in valid for used, choices in extensions if not s & used for c in choices)
    ]
    out.sort(key=lambda mw: mw[0])
    return out


def maximal_psets(g, cap=None):
    return [PSet(m, w) for m, w in _maximal_valid(g, {1}, _pset_cross_ok, "p-set", cap)]


def maximal_delta_psets(g, cap=None):
    return [DeltaPSet(m, w) for m, w in _maximal_valid(g, {2}, _delta_cross_ok, "delta-p-set", cap)]


def _pset_subspace(basis, members):
    return Subspace.from_vectors(basis.dim, [basis.unit(m) for m in members])


def _delta_subspace(basis, members):
    by_multiplier = {}
    for a, k in members:
        by_multiplier.setdefault(a, []).append((a, k))
    vectors = []
    for a in sorted(by_multiplier):
        first, second = sorted(by_multiplier[a])
        v = basis.unit(first)
        w = basis.unit(second)
        vectors.append([x - y for x, y in zip(v, w)])
    return Subspace.from_vectors(basis.dim, vectors)


def psa_arrangement(g, cap=None):
    """Coordinate subspaces of the maximal p-sets, then difference
    subspaces of the maximal delta-p-sets."""
    basis = generator_basis(g)
    subs = [_pset_subspace(basis, p.members) for p in maximal_psets(g, cap)]
    subs += [_delta_subspace(basis, d.members) for d in maximal_delta_psets(g, cap)]
    return Arrangement(basis.dim, tuple(subs))


def pso_hom_space(g):
    """Characters of the outer group: each multiplier's coordinates sum
    to zero.  The basis is written down, not computed: a multiplier's
    generators take consecutive coordinates i..j, and its RREF rows are
    e_t - e_j for i <= t < j, already primitive."""
    labels = generator_basis(g).labels
    rows, start = [], 0
    for _, gens in itertools.groupby(labels, key=lambda gen: gen[0]):
        last = start + len(list(gens)) - 1
        for t in range(start, last):
            row = [0] * len(labels)
            row[t], row[last] = 1, -1
            rows.append(row)
        start = last + 1
    return Subspace.from_rref(len(labels), rows)


def pso_arrangement(g, cap=None):
    """(W, arrangement in W coordinates, delta-p-sets in matching order).

    The arrangement is deliberately unfiltered so that subspace indices
    line up with the delta-p-set list; homology callers apply
    maximal_filter themselves.
    """
    deltas = maximal_delta_psets(g, cap)
    return (*_pso_arrangement(g, tuple(deltas)), deltas)


@memoised
def _pso_arrangement(g, deltas):
    basis = generator_basis(g)
    w = pso_hom_space(g)
    subs = []
    for d in deltas:
        rows = []
        for v in _delta_subspace(basis, d.members).rows:
            coords = w.coordinates(v)
            if coords is None:
                raise InvariantViolation("delta-p-set subspace escapes the outer character space")
            rows.append(coords)
        subs.append(Subspace.from_vectors(w.dim, rows))
    return w, Arrangement(w.dim, tuple(subs))


@dataclass(frozen=True)
class H1Witness:
    loop: object
    chain: tuple  # (arrangement index, ambient character vector) pairs
    cocycle_support: tuple
    pairing_value: Fraction


def h1_witness(g, loop, cap=None):
    """Build the degree-one homology certificate attached to a loop in a
    support graph: a 1-cycle supported on one delta-p-set per loop edge,
    plus a cocycle pairing nontrivially with it."""
    a = loop.owner
    nodes = list(loop.nodes)
    n = len(nodes)
    if n < 3 or len(set(nodes)) != n:
        raise InvariantViolation("loop witness must have >= 3 distinct nodes")
    basis = generator_basis(g)
    w, arrangement, deltas = pso_arrangement(g, cap)
    member_sets = [frozenset(d.members) for d in deltas]

    chosen = []
    for i in range(n):
        pair = {(a, nodes[i]), (a, nodes[(i + 1) % n])}
        containing = [j for j, s in enumerate(member_sets) if pair <= s]
        if not containing:
            raise InvariantViolation(
                f"no maximal delta-p-set contains the consecutive pair {sorted(pair)}"
            )
        chosen.append(containing[0])

    # the 1-chain: difference character on each chosen summand
    chain = []
    for i, j in enumerate(chosen):
        v1 = basis.unit((a, nodes[i]))
        v2 = basis.unit((a, nodes[(i + 1) % n]))
        chain.append((j, tuple(x - y for x, y in zip(v1, v2))))

    total = [0] * basis.dim
    for _, vec in chain:
        total = [x + y for x, y in zip(total, vec)]
    if any(x != 0 for x in total):
        raise InvariantViolation("witness chain components do not sum to zero")

    # degree-one boundaries are inclusions, so d_1 of the chain is the sum
    # over its components of local coordinates times summand basis rows
    boundary = [0] * w.dim
    for j, vec in chain:
        sub = arrangement.subspaces[j]
        in_w = w.coordinates(list(vec))
        if in_w is None:
            raise InvariantViolation("chain component escapes the outer character space")
        local = sub.coordinates(in_w)
        if local is None:
            raise InvariantViolation("chain component escapes its summand")
        boundary = [x + y for x, y in zip(boundary, _from_coordinates(sub, local))]
    if any(boundary):
        raise InvariantViolation("witness chain is not a cycle of the complex")

    # cocycle: the (a, K_1) coordinate functional on every delta-p-set
    # containing the first consecutive pair, zero elsewhere
    first_pair = {(a, nodes[0]), (a, nodes[1])}
    support = tuple(j for j, s in enumerate(member_sets) if first_pair <= s)
    functional_index = basis.index((a, nodes[0]))
    for i, j in itertools.combinations(range(len(deltas)), 2):
        in_i, in_j = i in support, j in support
        if in_i == in_j:
            continue
        meet = intersect([arrangement.subspaces[i], arrangement.subspaces[j]])
        for row in meet.rows:
            ambient = _from_coordinates(w, row)
            if ambient[functional_index] != 0:
                raise InvariantViolation("cocycle patching fails on a pairwise intersection")

    pairing = Fraction(0)
    for j, vec in chain:
        if j in support:
            pairing += vec[functional_index]
    if pairing != 1:
        raise InvariantViolation(f"witness pairing is {pairing}, expected 1")
    return H1Witness(loop, tuple(chain), support, pairing)


def _from_coordinates(s, coords):
    """The vector of subspace s with RREF coordinates `coords`: ints while
    the coordinates are ints and each pivot entry met is 1."""
    out = [0] * s.ambient_dim
    for c, row, p in zip(coords, s.rows, s.pivots):
        if c:
            c = c if row[p] == 1 else Fraction(c, row[p])
            out = [x + c * y for x, y in zip(out, row)]
    return out


def euler_report(g, cap=None):
    """Betti profiles for the three groups' arrangements."""
    raag = betti_numbers(build_chain_complex(maximal_filter(raag_arrangement(g, cap)), cap))
    psa = betti_numbers(build_chain_complex(maximal_filter(psa_arrangement(g, cap)), cap))
    _, pso_arr, _ = pso_arrangement(g, cap)
    pso = betti_numbers(build_chain_complex(maximal_filter(pso_arr), cap))
    return {"raag": raag, "psa": psa, "pso": pso}


def has_sil(g):
    return any(not support_graph(g, a).is_discrete() for a in g.vertices)
