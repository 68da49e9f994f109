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

Every subspace is handed to `homology.line_arrangement` as its lines,
with no elimination: its rows are units e_K and differences e_K - e_L,
K < L, as {coordinate: entry} maps with disjoint supports and pivot
entry 1.  So every arrangement here is block-line, with
b = (n - r, m - r, 0, ...) for its m lines of rank r in Q^n, and its
line masks come from the maps.  No dense row is written until a
subspace is read, and only the `bns` command's output reads one.  The
witness reads line masks alone: each component of its chain is looked
up as a line, and two delta-subspaces meet in the lines they share.
"""

import itertools
from math import comb
from typing import NamedTuple

from .errors import InvariantViolation, admit
from .graphs import complement_components, component, members_of
from .homology import arrangement_homology, line_arrangement, maximal_filter
from .linalg import Subspace
from .words import standard_generators


def generator_symbol(gen):
    a, comp = gen
    return f"{a}[{','.join(comp)}]"


def maximal_disconnected_subsets(g, cap=None):
    """All vertex subsets inducing a disconnected subgraph and maximal
    with that property.  A subset fails maximality iff some single added
    vertex keeps it disconnected."""
    vs, adjacency = g.masks
    n = len(vs)
    admit(2 ** n, cap, f"disconnected-subset enumeration over {n} vertices would scan {2 ** n} subsets")
    disconnected = {s for s in range(1 << n) if component(s & -s, s, adjacency) != s}
    return sorted(
        members_of(vs, s)
        for s in disconnected
        if not any(s | b in disconnected for b in adjacency if not s & b)
    )


def raag_arrangement(g, cap=None):
    at = {v: i for i, v in enumerate(sorted(g.vertices))}
    return line_arrangement(len(at), [[{at[v]: 1} for v in subset] for subset in maximal_disconnected_subsets(g, cap)])


def _per_multiplier_options(g, size):
    """For each vertex: the ways to pick none, or `size`, of its
    components."""
    return [
        [()] + [tuple((a, k) for k in ks) for ks in itertools.combinations(complement_components(g, a), size)]
        for a in sorted(g.vertices)
    ]


def _option_counts(g, size):
    """How many options `_per_multiplier_options` gives each vertex, from
    its component count alone."""
    return [1 + comb(len(comps), size) for comps in g.component_table.values()]


def _choice_tree_size(counts):
    """Nodes of the choice tree that picks one of counts[i] options at
    multiplier i in turn: the root plus, at each depth, the product of
    the option counts above it."""
    nodes = level = 1
    for count in counts:
        level *= count
        nodes += level
    return nodes


def _maximal_valid(g, size, name, cap):
    """The members of every inclusion-maximal valid set among the choice
    tree's leaves, each a sorted tuple, in sorted order.  The tree's size
    is admitted against `cap` on every call, from the component counts
    taken largest first: the most nodes any order of the multipliers
    gives, so the admission does not depend on the labels.  The options
    are built, and the sets found, once per graph and kept in g's
    instance dict under `name`, one key per family."""
    nodes = _choice_tree_size(sorted(_option_counts(g, size), reverse=True))
    admit(nodes, cap, f"{name} enumeration would visit {nodes} choice-tree nodes")
    store = vars(g)
    if name not in store:
        store[name] = _maximal_sets(_per_multiplier_options(g, size), size == 2)
    return store[name]


def _pass_table(members, delta):
    """Bit of each member (a, K), by position in `members`, -> bits of
    the other members it passes with, read off masks as `_maximal_sets`
    says."""
    inside, at, same = {}, {}, {}
    for i, (a, k) in enumerate(members):
        b = 1 << i
        at[a] = at.get(a, 0) | b
        same[k] = same.get(k, 0) | b
        for v in k:
            inside[v] = inside.get(v, 0) | b
    table = {}
    for i, (a, k) in enumerate(members):
        b, at_k = 1 << i, 0
        for v in k:
            at_k |= at.get(v, 0)
        table[b] = (inside.get(a, 0) | at_k | same[k]) & ~b if delta else inside.get(a, 0) & at_k
    return table


def _maximal_sets(options, delta):
    """The enumeration behind `_maximal_valid`, in time that follows the
    output rather than the choice tree.  `delta` picks the family.  Its
    pass table is read off masks, in O(members * vertices) bit operations
    (`_pass_table`).  Write IN[v] for the members (b, L) having v in L,
    AT[K] for those whose multiplier lies in K and SAME[K] for those with
    component K.  The p-set rule passes (a, K) and (b, L) when a is in L
    and b in K, so (a, K) passes IN[a] & AT[K]; the delta rule when a is
    in L, b is in K or K = L, so (a, K) passes IN[a] | AT[K] | SAME[K],
    less itself.

    An option is a non-empty choice at one multiplier.  Its members fail
    the rule with each other, so a leaf (at most one option per
    multiplier) is valid iff its options split into non-empty sides A | B
    with every cross pair compatible: the multipliers differ and every
    member of one option passes with every member of the other.  Write
    N(X) for the options compatible with all of X.  If A' | B' is a
    maximal valid leaf, then B' lies in N(A') and A' in N(N(A')), and
    the leaf holds an option at every multiplier of the biclique
    (N(N(A')), N(A')): an option at a multiplier it misses would join the
    side it is compatible with and give a larger valid leaf.  So the leaf
    is a full transversal of that biclique, one option per multiplier
    present, and every such transversal is a valid leaf.  Close-by-One
    (Kuznetsov, 1993) lists each closed A = N(N(A)) with N(A) non-empty
    once, over option bitmasks, with an explicit stack; the
    inclusion-maximal transversals of the bicliques (A, N(A)) are then
    the maximal valid leaves.
    """
    members = sorted({m for choices in options for choice in choices for m in choice})
    bit = {m: 1 << i for i, m in enumerate(members)}
    every = (1 << len(members)) - 1
    passes = _pass_table(members, delta)
    # option bit -> (multiplier, bits of its members, bits of the members
    # that pass with all of them); member bit -> bits of the options
    # holding it
    flat, holders = {}, {}
    for i, choices in enumerate(options):
        for choice in choices[1:]:
            option, mask, ok = 1 << len(flat), 0, every
            for m in choice:
                mask |= bit[m]
                ok &= passes[bit[m]]
                holders[bit[m]] = holders.get(bit[m], 0) | option
            flat[option] = (i, mask, ok)
    # the options compatible with one are among the holders of its `ok`
    compatible = {}
    for option, (i, _, ok) in flat.items():
        near, rest = 0, ok
        while rest:
            low = rest & -rest
            near |= holders[low]
            rest ^= low
        out = 0
        while near:
            o = near & -near
            j, mask, _ = flat[o]
            if j != i and not mask & ~ok:
                out |= o
            near ^= o
        compatible[option] = out
    full = (1 << len(flat)) - 1

    def common(s):
        """N(s): the options compatible with every option in bitmask s."""
        out = full
        while s:
            o = s & -s
            out &= compatible[o]
            s ^= o
        return out

    leaves = set()
    top = common(common(0))
    stack = [(top, common(top), 1)]
    while stack:
        extent, intent, first = stack.pop()
        # each biclique is listed as (A, N(A)) and as (N(A), A); take it once
        if extent and intent and extent & -extent < intent & -intent:
            by_multiplier = {}
            rest = extent | intent
            while rest:
                o = rest & -rest
                i, mask, _ = flat[o]
                by_multiplier.setdefault(i, []).append(mask)
                rest ^= o
            partial = [0]
            for masks in by_multiplier.values():
                partial = [t | m for t in partial for m in masks]
            leaves.update(partial)
        # only an option compatible with some option of the intent keeps
        # it non-empty; `first` is the lowest option bit still to add
        reach, rest = 0, intent
        while rest:
            o = rest & -rest
            reach |= compatible[o]
            rest ^= o
        rest = reach & ~extent & -first
        while rest:
            o = rest & -rest
            rest ^= o
            narrowed = intent & compatible[o]
            closed = common(narrowed)
            if closed & (o - 1) == extent & (o - 1):
                stack.append((closed, narrowed, o << 1))
    # a leaf is maximal iff no larger leaf holds it; any larger leaf lies
    # in a maximal one, and those come first in order of size
    maximal = []
    for s in sorted(leaves, key=int.bit_count, reverse=True):
        if not any(s & t == s for t in maximal):
            maximal.append(s)
    return tuple(sorted(members_of(members, s) for s in maximal))


def maximal_psets(g, cap=None):
    return list(_maximal_valid(g, 1, "p-set", cap))


def maximal_delta_psets(g, cap=None):
    return list(_maximal_valid(g, 2, "delta-p-set", cap))


def _pairs(members):
    """Each multiplier's pair (a, K) < (a, L) of a delta-p-set, in
    multiplier order.  Members come sorted, so each pair is adjacent."""
    return zip(members[::2], members[1::2])


def psa_arrangement(g, cap=None):
    """Coordinate subspaces of the maximal p-sets, then difference
    subspaces of the maximal delta-p-sets, as lines: the members come in
    generator order, and the rows have disjoint supports and pivot
    entry 1."""
    at = {gen: i for i, gen in enumerate(standard_generators(g))}
    units = [[{at[m]: 1} for m in p] for p in maximal_psets(g, cap)]
    differences = [[{at[k]: 1, at[l]: -1} for k, l in _pairs(d)] for d in maximal_delta_psets(g, cap)]
    return line_arrangement(len(at), units + differences)


def pso_hom_space(g):
    """Characters of the outer group: each multiplier's coordinates sum
    to zero.  The basis is written down, not computed: a multiplier's
    generators take consecutive coordinates i..j, and its RREF rows are
    e_t - e_j for i <= t < j, already primitive."""
    labels = standard_generators(g)
    rows, pivots, start = [], [], 0
    for _, gens in itertools.groupby(labels, key=lambda gen: gen[0]):
        last = start + len(list(gens)) - 1
        for t in range(start, last):
            row = [0] * len(labels)
            row[t], row[last] = 1, -1
            rows.append(row)
            pivots.append(t)
        start = last + 1
    return Subspace.from_rref(len(labels), rows, pivots)


def pso_arrangement(g, cap=None):
    """(W, arrangement in W coordinates, delta-p-sets in matching order).

    The arrangement is deliberately unfiltered so that subspace indices
    line up with the delta-p-set list; homology callers apply
    maximal_filter themselves.  Each delta-p-set row e_K - e_L lies in W
    when K and L share their multiplier, and is written in W's
    coordinates, its entries at W's pivots: e_K - e_L again, or e_K when
    L is its multiplier's last.
    """
    deltas = maximal_delta_psets(g, cap)
    labels = standard_generators(g)
    # W's pivots: every generator but its multiplier's last
    at = {gen: i for i, gen in enumerate(gen for gen, after in zip(labels, labels[1:]) if gen[0] == after[0])}
    if any(k[0] != l[0] for d in deltas for k, l in _pairs(d)):
        raise InvariantViolation("delta-p-set subspace escapes the outer character space")
    subs = [[{at[k]: 1, at[l]: -1} if l in at else {at[k]: 1} for k, l in _pairs(d)] for d in deltas]
    return pso_hom_space(g), line_arrangement(len(at), subs), deltas


class H1Witness(NamedTuple):
    loop: object
    chain: tuple  # (arrangement index, ambient character vector) pairs
    cocycle_support: tuple
    pairing_value: int


def h1_witness(g, loop, cap=None):
    """Build the degree-one homology certificate attached to a loop in a
    support graph: a 1-cycle supported on one delta-p-set per loop edge,
    plus a cocycle pairing nontrivially with it."""
    a = loop.owner
    nodes = list(loop.nodes)
    n = len(nodes)
    if n < 3 or len(set(nodes)) != n:
        raise InvariantViolation("loop witness must have >= 3 distinct nodes")
    at = {gen: i for i, gen in enumerate(standard_generators(g))}
    w, arrangement, deltas = pso_arrangement(g, cap)
    member_sets = [frozenset(d) for d in deltas]

    # the 1-chain: for each consecutive pair (a, K), (a, L), the difference
    # character e_K - e_L on the first delta-p-set holding both
    chain = []
    for i in range(n):
        k, l = (a, nodes[i]), (a, nodes[(i + 1) % n])
        containing = [j for j, s in enumerate(member_sets) if k in s and l in s]
        if not containing:
            raise InvariantViolation(f"no maximal delta-p-set contains the consecutive pair {sorted([k, l])}")
        chain.append((containing[0], tuple(1 if c == at[k] else -1 if c == at[l] else 0 for c in range(len(at)))))

    total = [0] * len(at)
    for _, vec in chain:
        total = [x + y for x, y in zip(total, vec)]
    if any(x != 0 for x in total):
        raise InvariantViolation("witness chain components do not sum to zero")

    # degree-one boundaries are inclusions, so d_1 of the chain is the sum
    # of its components in W's coordinates.  Each component is e_K - e_L,
    # which W writes as one unit or difference row, a line in one block;
    # a block-line subspace meets each block in its own line or in 0, so
    # the component lies in its summand exactly when that line, signed so
    # its first entry is positive, is a bit of the summand's mask
    masks, supports, _ = arrangement.lines
    line_bit = {tuple(sup.items()): 1 << i for i, sup in enumerate(supports)}
    boundary = [0] * w.dim
    for j, vec in chain:
        in_w = w.coordinates(list(vec))
        if in_w is None:
            raise InvariantViolation("chain component escapes the outer character space")
        sign = next((x for x in in_w if x), 1)
        if not masks[j] & line_bit.get(tuple((c, x * sign) for c, x in enumerate(in_w) if x), 0):
            raise InvariantViolation("chain component escapes its summand")
        boundary = [x + y for x, y in zip(boundary, in_w)]
    if any(boundary):
        raise InvariantViolation("witness chain is not a cycle of the complex")

    # cocycle: the (a, K_1) coordinate functional on every delta-p-set
    # containing the first consecutive pair, zero elsewhere.  It patches
    # unless a subspace in the support and one outside meet in a line the
    # functional sees, taken back to the generators' coordinates; two
    # subspaces of a block-line arrangement meet in the lines they share
    first_pair = {(a, nodes[0]), (a, nodes[1])}
    support = tuple(j for j, s in enumerate(member_sets) if first_pair <= s)
    functional_index = at[a, nodes[0]]
    on_w = [row[functional_index] for row in w.rows]  # the functional in W's coordinates
    touching = sum(1 << i for i, sup in enumerate(supports) if sum(x * on_w[c] for c, x in sup.items()))
    for i, j in itertools.combinations(range(len(deltas)), 2):
        if (i in support) != (j in support) and masks[i] & masks[j] & touching:
            raise InvariantViolation("cocycle patching fails on a pairwise intersection")

    pairing = sum(vec[functional_index] for j, vec in chain if j in support)
    if pairing != 1:
        raise InvariantViolation(f"witness pairing is {pairing}, expected 1")
    return H1Witness(loop, tuple(chain), support, pairing)


def euler_report(g, cap=None):
    """Betti profiles for the three groups' arrangements."""
    _, raag = arrangement_homology(maximal_filter(raag_arrangement(g, cap)), cap)
    _, psa = arrangement_homology(maximal_filter(psa_arrangement(g, cap)), cap)
    _, pso_arr, _ = pso_arrangement(g, cap)
    _, pso = arrangement_homology(maximal_filter(pso_arr), cap)
    return {"raag": raag, "psa": psa, "pso": pso}


def has_sil(g):
    return bool(g.sil_rows)
