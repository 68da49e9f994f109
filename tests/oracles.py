"""Brute-force oracles shared by the unit and acceptance suites."""

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import networkx as nx

from raagbns.bns import _per_multiplier_options, raag_arrangement
from raagbns.errors import CapExceeded, InvariantViolation, MalformedInput
from raagbns.graphs import (
    ForestData,
    LoopWitness,
    PairClassification,
    SimpleGraph,
    SupportGraph,
    _canonical_cycle,
    bits,
    classify_pair,
    complement_components,
    component,
    members_of,
    neighbour_masks,
)
from raagbns import bns, homology, linalg
from raagbns.linalg import QMatrix, parse_rational
from raagbns.presentations import (
    EdgeGen,
    GeneratorDictionary,
    TreeGen,
    _commutator,
    checked_presentation,
    pso_presentation,
)
from raagbns.words import inverse, reduce, standard_generators


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


def delta_subspace(basis, members):
    """The difference subspace of a delta-p-set, by elimination: one
    vector e_K - e_L per multiplier's pair of members (a, K) < (a, L)."""
    by_multiplier = {}
    for a, k in members:
        by_multiplier.setdefault(a, []).append((a, k))
    vectors = []
    for a in sorted(by_multiplier):
        first, second = sorted(by_multiplier[a])
        vectors.append([x - y for x, y in zip(basis.unit(first), basis.unit(second))])
    return linalg.Subspace(basis.dim, vectors)


def read_back(a):
    """The stored rows of arrangement `a`, read back as {coordinate:
    entry} maps: the argument `homology._line_masks` takes."""
    return [[{c: x for c, x in enumerate(row) if x} for row in s.rows] for s in a.subspaces]


def eliminated(a):
    """The subspaces of arrangement `a` made from its row maps by the
    checked elimination: `linalg.Subspace` of each one's dense rows."""
    n = a.ambient_dim
    return [linalg.Subspace(n, [[row.get(c, 0) for c in range(n)] for row in rows]) for rows in a.row_maps]


def meet_cocycle_check(g, loop):
    """`bns.h1_witness`'s cocycle check as it was before line masks, with
    its message: each pair of delta-subspaces, one in the cocycle's
    support and one not, is met with `linalg.intersect`, and every row of
    the meet, taken back to the generators' coordinates, must vanish at
    the (a, K_1) coordinate."""
    a, nodes = loop.owner, loop.nodes
    functional_index = standard_generators(g).index((a, nodes[0]))
    w, arrangement, deltas = bns.pso_arrangement(g)
    first_pair = {(a, nodes[0]), (a, nodes[1])}
    support = {j for j, d in enumerate(deltas) if first_pair <= set(d.members)}
    for i, j in itertools.combinations(range(len(deltas)), 2):
        if (i in support) != (j in support):
            meet = linalg.intersect([arrangement.subspaces[i], arrangement.subspaces[j]])
            if any(bns._from_coordinates(w, row)[functional_index] for row in meet.rows):
                raise InvariantViolation("cocycle patching fails on a pairwise intersection")


def coordinate_supports(a):
    """Each subspace's support mask when every stored row of arrangement
    `a` is a unit vector, else None.  RREF rows vanish at the other rows'
    pivots, so that is when each support has dim bits."""
    masks = [sum(1 << c for c in {c for row in s.rows for c, x in enumerate(row) if x}) for s in a.subspaces]
    return masks if all(m.bit_count() == s.dim for m, s in zip(masks, a.subspaces)) else None


def rewriting_closure(g, word):
    """Every word reachable from `word` by adjacent commuting swaps and
    deletions of adjacent inverse pairs.  All members are equal in the
    group; the shortest members are exactly the reduced forms."""
    start = tuple(word)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            (u, e), (v, f) = w[i], w[i + 1]
            if u == v and e == -f:
                shrunk = w[:i] + w[i + 2:]
                if shrunk not in seen:
                    seen.add(shrunk)
                    stack.append(shrunk)
            elif u != v and g.adjacent(u, v):
                swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    stack.append(swapped)
    return seen


def _lex_least_shortest(closure):
    shortest = min(len(w) for w in closure)
    return min(w for w in closure if len(w) == shortest)


def per_word_closure_normal_form(g, word):
    """Lex-least shortest member of the word's own rewriting closure."""
    return _lex_least_shortest(rewriting_closure(g, word))


# the latest graph closure_normal_form saw, and its labelled words
_closure_labels = {"graph": None, "answers": {}}


def closure_normal_form(g, word):
    """Lex-least shortest member of the rewriting closure.

    Every member of a closure has the closure's answer: its own closure
    reaches the same reduced forms, and those are all swap-equivalent.
    So each closure built labels all of its members, and a word's closure
    is built at most once per graph.  Only the latest graph's labels are
    kept."""
    if _closure_labels["graph"] is not g:
        _closure_labels["graph"], _closure_labels["answers"] = g, {}
    answers = _closure_labels["answers"]
    word = tuple(word)
    if word not in answers:
        closure = rewriting_closure(g, word)
        answers.update(dict.fromkeys(closure, _lex_least_shortest(closure)))
    return answers[word]


def _cancel_pass(g, word):
    out = []
    for v, e in word:
        j = len(out) - 1
        placed = False
        while j >= 0:
            u, f = out[j]
            if u == v:
                if f == -e:
                    del out[j]
                    placed = True
                break
            if not g.adjacent(u, v):
                break
            j -= 1
        if not placed:
            out.append((v, e))
    return out


def _lex_shuffle(g, letters):
    remaining = list(letters)
    result = []
    while remaining:
        best = None
        for i, (v, e) in enumerate(remaining):
            if any(not g.adjacent(u, v) for u, _ in remaining[:i]):
                continue
            if best is None or (v, e) < remaining[best]:
                best = i
        result.append(remaining.pop(best))
    return tuple(result)


def shuffle_normal_form(g, word):
    """The normal form as reduce() used to compute it, in quadratic time
    and worse: one backward-scanning cancellation pass with list
    deletions, then a greedy shuffle that rescans every remaining prefix
    for the lex-least letter commuting with all letters before it."""
    return _lex_shuffle(g, _cancel_pass(g, word))


def _stack_cancel(neighbors, word):
    """The word with its cancelling pairs removed, found with one stack of
    live positions per vertex: a letter scans the top of every stack for
    the latest live letter it does not commute with."""
    live, dead = {}, set()
    for i, (v, e) in enumerate(word):
        nbrs = neighbors.get(v, ())
        top = -1
        for u, stack in live.items():
            if stack[-1] > top and u not in nbrs:
                top = stack[-1]
        if top >= 0 and word[top] == (v, -e):
            stack = live[v]
            stack.pop()
            if not stack:
                del live[v]
            dead.update((top, i))
        elif v in live:
            live[v].append(i)
        else:
            live[v] = [i]
    return [x for i, x in enumerate(word) if i not in dead] if dead else word


def _kahn_shuffle(neighbors, letters):
    """Kahn's algorithm on the heap of pieces, lex-least ready letter
    first: each letter waits on the last earlier letter of every vertex it
    does not commute with."""
    waits, later, last, ready = [], [], {}, {}
    for i, (v, _) in enumerate(letters):
        nbrs = neighbors.get(v, ())
        count = 0
        for u, j in last.items():
            if u not in nbrs:
                later[j].append(i)
                count += 1
        if not count:
            ready[v] = i
        waits.append(count)
        later.append([])
        last[v] = i
    out = []
    while ready:
        i = ready.pop(min(ready))
        out.append(letters[i])
        for j in later[i]:
            waits[j] -= 1
            if not waits[j]:
                ready[letters[j][0]] = j
    return tuple(out)


def stack_normal_form(g, word):
    """The normal form as reduce() computed it before it kept one column
    per vertex: a free reduction, then two linear passes, per-vertex
    cancellation stacks and Kahn's lex-least shuffle, each scanning every
    live vertex for every letter."""
    free = []
    for v, e in word:
        if free and free[-1] == (v, -e):
            free.pop()
        else:
            free.append((v, e))
    if len(free) < 2:
        return tuple(free)
    letters = _stack_cancel(g.neighbors, free)
    if len(letters) < 2:
        return tuple(letters)
    return _kahn_shuffle(g.neighbors, letters)


def word_eq(g, u, v):
    return reduce(g, u) == reduce(g, v)


def enumerate_reduced_words(g, max_len):
    """All group elements of reduced length <= max_len, one normal form
    each, in a deterministic order."""
    letters = sorted((v, e) for v in g.vertices for e in (1, -1))
    seen = {(): None}
    frontier = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for letter in letters:
                grown = reduce(g, w + (letter,))
                if len(grown) == len(w) + 1 and grown not in seen:
                    seen[grown] = None
                    nxt.append(grown)
                    yield grown
        frontier = nxt


# The word-level automorphism layer: partial conjugations act letterwise,
# the generator with multiplier a and component K sending x to a x a^-1
# for x in K and fixing every other vertex.


def apply_partial_conjugation(g, moves, word):
    """Apply a product of (signed) partial conjugations to a word.

    moves is a sequence of ((multiplier, component), exponent) pairs, or
    a single (multiplier, component) pair; the leftmost move is the
    outermost automorphism, so the rightmost acts first.
    """
    moves = _as_moves(moves)
    current = tuple(word)
    for (a, component), exp in reversed(moves):
        k = set(component)
        image = []
        for v, e in current:
            if v in k:
                image.extend([(a, exp), (v, e), (a, -exp)])
            else:
                image.append((v, e))
        current = tuple(image)
    return reduce(g, current)


def _as_moves(moves):
    if isinstance(moves, tuple) and len(moves) == 2 and isinstance(moves[0], str):
        return [((moves[0], tuple(moves[1])), 1)]
    out = []
    for m in moves:
        if len(m) == 2 and isinstance(m[0], str):
            out.append(((m[0], tuple(m[1])), 1))
        else:
            (a, comp), exp = m
            if exp not in (1, -1):
                raise ValueError("move exponents must be +1 or -1")
            out.append(((a, tuple(comp)), exp))
    return out


def automorphism_table(g, moves):
    """Vertex-image table of a product of partial conjugations."""
    return {v: apply_partial_conjugation(g, moves, ((v, 1),)) for v in g.vertices}


def table_is_identity(g, table):
    return all(table[v] == ((v, 1),) for v in g.vertices)


def commutator_moves(p, q):
    return [(p, 1), (q, 1), (p, -1), (q, -1)]


def commutator_trivial_in_aut(g, p, q):
    """Word-level check that the commutator of two partial conjugations
    fixes every vertex."""
    table = automorphism_table(g, commutator_moves(p, q))
    return table_is_identity(g, table)


def commutator_class_out(g, p, q):
    """Outer-class verdict for the commutator of two partial conjugations:
    "nontrivial" iff no relator schema makes them commute and their
    multipliers share a component, else "trivial"."""
    if _commuting_schema(g, p, q) or not classify_pair(g, p[0], q[0]).shared:
        return "trivial"
    return "nontrivial"


def is_inner_bounded(g, table, max_len):
    """Search for a conjugator h with table(v) = h v h^-1 for all v, over
    all reduced words of length <= max_len.  Returns the word or None;
    None is not a proof that the table is non-inner."""
    for h in enumerate_reduced_words(g, max_len):
        h_inv = inverse(h)
        if all(
            reduce(g, h + ((v, 1),) + h_inv) == table[v] for v in g.vertices
        ):
            return h
    return None


def all_words(g, length):
    letters = sorted((v, e) for v in g.vertices for e in (1, -1))
    return itertools.product(letters, repeat=length)


def brute_force_partition_witness(members, cross_ok):
    """Try every 2-partition of `members`; return one whose cross pairs
    all satisfy cross_ok, or None."""
    members = sorted(members)
    n = len(members)
    for mask in range(1, 2 ** (n - 1)):
        side1 = [m for i, m in enumerate(members) if mask & (1 << i)]
        side2 = [m for i, m in enumerate(members) if not mask & (1 << i)]
        if not side1 or not side2:
            continue
        if all(cross_ok(x, y) for x in side1 for y in side2):
            return side1, side2
    return None


def zmatrix(m):
    """The QMatrix times the LCM of its denominators, as a ZMatrix."""
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    return linalg.ZMatrix(
        m.rows, [{i: int(row[j] * scale) for i, row in enumerate(m.entries) if row[j]} for j in range(m.cols)]
    )


def rref_rank(m):
    """Rank of a QMatrix read off its dense Fraction RREF."""
    return rref(m)[1]


def dense_product_is_zero(a, b):
    """Whether the dense Fraction product of two QMatrix values is zero."""
    return all(x == 0 for row in a.mul(b).entries for x in row)


def dense_chain_complex(a):
    """(dims, boundaries) of the chain complex of arrangement `a`, with
    each boundary d_k a dense QMatrix of Fractions, unscaled: the same
    summands and bases as homology.build_chain_complex, computed with the
    Fraction Subspace and intersect below."""
    subs = [Subspace(s.ambient_dim, s.basis) for s in a.subspaces]
    levels = []
    level = [((i,), s) for i, s in enumerate(subs) if s.dim > 0]
    while level:
        levels.append(level)
        level = [
            (idx + (j,), meet)
            for idx, space in level
            for j in range(idx[-1] + 1, len(subs))
            if subs[j].dim > 0 and (meet := intersect([space, subs[j]])).dim > 0
        ]
    dims = [a.ambient_dim] + [sum(s.dim for _, s in lv) for lv in levels]
    offsets = []
    for lv in levels:
        offs, run = {}, 0
        for idx, s in lv:
            offs[idx] = run
            run += s.dim
        offsets.append(offs)
    boundaries = [QMatrix([], cols=a.ambient_dim)]
    for k, lv in enumerate(levels, start=1):
        parent = dict(levels[k - 2]) if k >= 2 else {}
        cells = [[Fraction(0)] * dims[k] for _ in range(dims[k - 1])]
        col = 0
        for idx, space in lv:
            for v in space.basis.entries:
                if k == 1:
                    for r, x in enumerate(v):
                        cells[r][col] = x
                else:
                    for i in range(k):
                        target = idx[:i] + idx[i + 1:]
                        coords = parent[target].coordinates(v)
                        for r, x in enumerate(coords):
                            cells[offsets[k - 2][target] + r][col] += (-1) ** i * x
                col += 1
        boundaries.append(QMatrix(cells, cols=dims[k]))
    return tuple(dims), boundaries


def arrangement_betti(a, filter_maximal=True):
    """Betti profile of an arrangement, via the chain complex."""
    if filter_maximal:
        a = homology.maximal_filter(a)
    return homology.betti_numbers(homology.build_chain_complex(a))


def refusal(compute, *args):
    """The CapExceeded message of compute(*args), or None if it is admitted."""
    try:
        compute(*args)
    except CapExceeded as exc:
        return str(exc)
    return None


def dense_betti(dims, boundaries):
    """Betti numbers from dense_chain_complex output, by rref ranks."""
    ranks = [rref_rank(b) for b in boundaries] + [0]
    return tuple(dims[k] - ranks[k] - ranks[k + 1] for k in range(len(dims)))


def connected(g, subset):
    """Whether `subset` induces a connected subgraph (the empty set does),
    by breadth-first search."""
    subset = set(subset)
    if not subset:
        return True
    root = min(subset)
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.neighbors[u]:
            if w in subset and w not in seen:
                seen.add(w)
                queue.append(w)
    return seen == subset


def pset_cross_ok(x, y):
    """The p-set rule, pair by pair: (a, K) and (b, L) pass when a is in L
    and b is in K."""
    (a, k), (b, l) = x, y
    return a in l and b in k


def delta_cross_ok(x, y):
    """The delta-p-set rule, pair by pair: (a, K) and (b, L) pass when a is
    in L, b is in K or K = L."""
    (a, k), (b, l) = x, y
    return a in l or b in k or k == l


def pairwise_pass_table(members, cross_ok):
    """`bns._pass_table` as it was before masks: bit of each member -> bits
    of the members it passes with, `cross_ok` called on every pair."""
    return neighbour_masks(members, [p for p in itertools.combinations(members, 2) if cross_ok(*p)])


def line_masks(subspaces):
    """`homology._line_masks` as it was before each row was keyed once:
    every row keyed twice, the blocks found over a star of joins per row
    on the sorted used coordinates, and "graphic" read off each row's
    sorted values."""
    bit = {k: 1 << i for i, k in enumerate(dict.fromkeys(tuple(row.items()) for rows in subspaces for row in rows))}
    supports = [dict(key) for key in bit]
    used = sorted({c for sup in supports for c in sup})
    at = {c: 1 << i for i, c in enumerate(used)}
    joins = neighbour_masks(used, [(min(sup), c) for sup in supports for c in sup])
    block, rest = {}, (1 << len(used)) - 1
    while rest:
        comp = component(rest & -rest, rest, joins)
        block.update(dict.fromkeys(bits(comp), comp))
        rest &= ~comp
    held = [block[at[min(sup)]] for sup in supports]
    masks = []
    for rows in subspaces:
        rows = [bit[tuple(row.items())] for row in rows]
        if len({held[b.bit_length() - 1] for b in rows}) < len(rows):
            return None
        masks.append(sum(rows))
    graphic = all(sorted(sup.values()) in ([1], [-1, 1]) for sup in supports)
    grounded = {b for b, sup in zip(held, supports) if len(sup) == 1}
    return masks, supports, len(used) - len(set(block.values()) - grounded) if graphic else None


def partition_witness(members, cross_ok):
    """Split the failure graph's components in two, the component of the
    least member first; None when it is connected (then no valid
    2-partition exists).  Breadth-first search over all member pairs."""
    members = sorted(members)
    if len(members) < 2:
        return None
    adj = {m: [] for m in members}
    for x, y in itertools.combinations(members, 2):
        if not cross_ok(x, y):
            adj[x].append(y)
            adj[y].append(x)
    seen = set()
    components = []
    for root in members:
        if root in seen:
            continue
        comp = []
        queue = deque([root])
        seen.add(root)
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        components.append(sorted(comp))
    if len(components) < 2:
        return None
    side1 = tuple(components[0])
    side2 = tuple(m for comp in components[1:] for m in comp)
    return side1, tuple(sorted(side2))


def walk_valid(g, size, cross_ok, cap=float("inf")):
    """(valid (members, witness) pairs, nodes visited) of the unpruned
    walk over the per-multiplier choice tree; CapExceeded once it passes
    `cap` nodes."""
    options = _per_multiplier_options(g, size)
    valid = []
    nodes = 0

    def walk(i, chosen):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise CapExceeded(f"walk passed {cap} nodes")
        if i == len(options):
            if len(chosen) >= 2:
                witness = partition_witness(chosen, cross_ok)
                if witness is not None:
                    valid.append((tuple(chosen), witness))
            return
        for choice in options[i]:
            walk(i + 1, chosen + list(choice))

    walk(0, [])
    return valid, nodes


def walk_maximal(g, size, cross_ok):
    """Inclusion-maximal valid sets of the walk, sorted by members, each
    checked against every other."""
    valid, _ = walk_valid(g, size, cross_ok)
    keyed = {frozenset(members): (members, witness) for members, witness in valid}
    out = []
    for key, (members, witness) in keyed.items():
        if any(other > key for other in keyed):
            continue
        out.append((members, witness))
    out.sort(key=lambda mw: mw[0])
    return out



def _unions(option_masks):
    out = [0]
    for choices in option_masks:
        out = [s | c for s in out for c in choices]
    return out


def leaf_maximal_sets(g, size, cross_ok):
    """`bns._maximal_sets` as it was before Close-by-One: every leaf of the
    choice tree is listed and bitmask-checked.

    A valid set is non-maximal iff one option at one unused multiplier
    extends it to a valid set: if T > S is valid with sides A | B, either
    S meets both sides and any added option keeps them apart, or S lies
    in A and the option holding a member of B does.
    """
    options = _per_multiplier_options(g, size)
    members = sorted({m for choices in options for choice in choices for m in choice})
    bit = {m: 1 << i for i, m in enumerate(members)}
    failure = neighbour_masks(members, [p for p in itertools.combinations(members, 2) if not cross_ok(*p)])
    option_masks = [[sum(bit[m] for m in choice) for choice in choices] for choices in options]
    # leaves are unions of a head over the first half of the multipliers
    # and a tail over the rest, so only the halves are ever listed
    half = len(option_masks) // 2
    tails = _unions(option_masks[half:])
    valid = {}
    for head in _unions(option_masks[:half]):
        for tail in tails:
            s = head | tail
            comp = component(s & -s, s, failure)
            if comp != s:
                valid[s] = comp
    # (bits of a multiplier's members, its non-empty options)
    extensions = [
        (sum({bit[m] for choice in choices for m in choice}), choice_masks[1:])
        for choices, choice_masks in zip(options, option_masks)
    ]
    out = [
        (members_of(members, s), (members_of(members, comp), members_of(members, s & ~comp)))
        for s, comp in valid.items()
        if not any(s | c in valid for used, choices in extensions if not s & used for c in choices)
    ]
    out.sort(key=lambda mw: mw[0])
    return out


def parse_qmatrix(text):
    """Rows of whitespace-separated "p/q" tokens, one row per line."""
    rows = []
    for line in text.splitlines():
        if line.strip():
            rows.append([parse_rational(tok) for tok in line.split()])
    return QMatrix(rows)


def span_sum(subspaces, ambient_dim=None):
    """Sum of subspaces; ambient_dim is required when the list is empty."""
    subspaces = list(subspaces)
    ambient_dim = _check_common_ambient(subspaces, ambient_dim)
    rows = []
    for s in subspaces:
        rows.extend(s.basis.entries)
    return linalg.Subspace(ambient_dim, rows)


def h0_dim(a):
    """Codimension of the joint span: dim of degree-zero homology."""
    return a.ambient_dim - span_sum(a.subspaces, ambient_dim=a.ambient_dim).dim


def atlas_up_to_six():
    """The 208 graphs of networkx's atlas with one to six vertices."""
    return atlas(208)


def atlas(count=1252):
    """The first `count` graphs of networkx's atlas after the empty one, in
    its order: by vertex count, then edge count.  All 1,252 are every
    graph with one to seven vertices, up to isomorphism."""
    out = []
    for G in nx.graph_atlas_g()[1:count + 1]:
        names = {v: "abcdefg"[i] for i, v in enumerate(sorted(G.nodes()))}
        out.append(SimpleGraph(sorted(names.values()), [(names[u], names[w]) for u, w in G.edges()]))
    return out


def link(g, v):
    """Vertices adjacent to v."""
    if not g.has_vertex(v):
        raise MalformedInput(f"unknown vertex {v!r}")
    return set(g.neighbors[v])


def star(g, v):
    return link(g, v) | {v}


def nx_components(g, nodes):
    """Components of the subgraph of g (a graph or a support graph)
    induced on `nodes`, found by networkx, as sorted tuples in lex order."""
    nxg = nx.Graph()
    nxg.add_nodes_from(nodes)
    nxg.add_edges_from((u, w) for u, w in g.edges if u in nodes and w in nodes)
    return sorted(tuple(sorted(c)) for c in nx.connected_components(nxg))


def support_components(d):
    """Connected components of a support graph, as sorted node tuples."""
    return tuple(nx_components(d, d.nodes))


# The per-graph functions of graphs, words and presentations written
# from the definitions with networkx, without the cached tables or the
# SIL table: the differential oracle of the tables each graph keeps
# (immutable tuples) and of the functions built on them.


def plain_complement_components(g, a):
    return tuple(nx_components(g, set(g.vertices) - star(g, a)))


def plain_classify_pair(g, a, b):
    if a == b or g.adjacent(a, b):
        raise ValueError(f"classify_pair needs a nonadjacent distinct pair, got {a!r},{b!r}")
    comps_a = plain_complement_components(g, a)
    comps_b = plain_complement_components(g, b)
    dom_a = next(c for c in comps_a if b in c)
    dom_b = next(c for c in comps_b if a in c)
    common = set(comps_a) & set(comps_b)
    shared = tuple(c for c in comps_a if c in common)
    sub_a = tuple(c for c in comps_a if c != dom_a and c not in common)
    sub_b = tuple(c for c in comps_b if c != dom_b and c not in common)
    return PairClassification(a, b, dom_a, dom_b, sub_a, sub_b, shared)


def plain_sil_rows(g):
    """The SIL table from plain_classify_pair on every ordered pair."""
    vs = sorted(g.vertices)
    return tuple(
        (a, b, cls.dominating_a, cls.dominating_b, l)
        for a in vs
        for b in vs
        if a != b and not g.adjacent(a, b)
        for cls in [plain_classify_pair(g, a, b)]
        for l in cls.shared
    )


def plain_support_graph(g, a):
    nodes = plain_complement_components(g, a)
    edges = set()
    for k in nodes:
        for b in k:
            shared = plain_classify_pair(g, a, b).shared
            for l in shared:
                edges.add((min(k, l), max(k, l)))
    return SupportGraph(a, tuple(nodes), tuple(sorted(edges)))


def plain_standard_generators(g):
    return tuple((a, k) for a in sorted(g.vertices) for k in plain_complement_components(g, a))


def _commuting_schema(g, x, y):
    """The commutation rule on sets: partial conjugations x and y commute
    in the automorphism group exactly when one of R1-R3 applies."""
    (a, k), (b, l) = x, y
    if a == b or g.adjacent(a, b):
        return True
    if not set(k) & set(l) and b not in k and a not in l:
        return True
    return set((a,) + k) <= set(l) or set((b,) + l) <= set(k)


def plain_psa_presentation(g):
    gens = plain_standard_generators(g)
    relators = []
    seen = set()

    def emit(word):
        if word not in seen:
            seen.add(word)
            relators.append(word)

    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            if _commuting_schema(g, x, y):
                emit(_commutator(x, y))
    vs = sorted(g.vertices)
    for a in vs:
        for b in vs:
            if a == b or g.adjacent(a, b):
                continue
            cls = plain_classify_pair(g, a, b)
            k = cls.dominating_a
            for l in cls.shared:
                emit((
                    ((a, k), 1), ((a, l), 1), ((b, l), 1),
                    ((a, l), -1), ((a, k), -1), ((b, l), -1),
                ))
    return checked_presentation(tuple(gens), tuple(relators), "psa")


def is_sil_pair_by_links(g, a, b):
    """Independent route: some component of the graph minus the common
    link of a and b contains neither a nor b."""
    if a == b or g.adjacent(a, b):
        return False
    allowed = set(g.vertices) - (link(g, a) & link(g, b))
    return any(a not in c and b not in c for c in nx_components(g, allowed))


# The support-graph certificate and the presentation graph's commutation
# test as they were before both ran on bitmasks: a BFS for a loop from
# every root of every support graph, and a pair test over all records.


def _cycle_through(adj, root):
    """Shortest cycle met while BFS-ing from root, or None."""
    parent = {root: None}
    depth = {root: 0}
    queue = deque([root])
    best = None
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in depth:
                parent[w] = u
                depth[w] = depth[u] + 1
                queue.append(w)
            elif w != parent[u]:
                pu, pw = u, w
                while depth[pu] > depth[pw]:
                    pu = parent[pu]
                while depth[pw] > depth[pu]:
                    pw = parent[pw]
                while pu != pw:
                    pu, pw = parent[pu], parent[pw]
                lca = pu
                side_u = []
                x = u
                while x != lca:
                    side_u.append(x)
                    x = parent[x]
                side_w = []
                x = w
                while x != lca:
                    side_w.append(x)
                    x = parent[x]
                cycle = side_u + [lca] + list(reversed(side_w))
                if best is None or len(cycle) < len(best):
                    best = cycle
    return best


def all_roots_forest_certificate(d):
    """A shortest loop over the BFS from every root, else the forest."""
    adj = {n: [] for n in d.nodes}
    for u, w in d.edges:
        adj[u].append(w)
        adj[w].append(u)
    for n in adj:
        adj[n].sort()
    best = None
    for root in d.nodes:
        cycle = _cycle_through(adj, root)
        if cycle is not None:
            cand = _canonical_cycle(cycle)
            key = (len(cand), cand)
            if best is None or key < best:
                best = key
    if best is not None:
        return LoopWitness(d.owner, best[1])
    return ForestData(d.owner, support_components(d))


def edge_gens_commute(g, x, y):
    a, b = x.owner, y.owner
    if a == b or g.adjacent(a, b):
        return True
    cls = classify_pair(g, a, b)
    for l in cls.shared:
        e = tuple(sorted((cls.dominating_a, l)))
        f = tuple(sorted((cls.dominating_b, l)))
        if x.edge == e and y.edge == f:
            return False
    return True


def pairwise_presentation_edges(g, th):
    """The edges of th's defining graph by the pair test over its records:
    a tree generator is joined to everything, two edge generators when
    `edge_gens_commute` holds."""
    records = th.records()
    edges = []
    for i, x in enumerate(records):
        for y in records[i + 1:]:
            if isinstance(x, TreeGen) or isinstance(y, TreeGen) or edge_gens_commute(g, x, y):
                edges.append((x.symbol, y.symbol))
    return SimpleGraph([r.symbol for r in records], edges).edges


# The generator dictionary as it was before each tree was hung from its
# basepoint: a flood fill per edge for its far side, and a search over
# the far sides for the edge toward the basepoint.  The lookups it made
# on PresentationGraph are scans over th's rows.


def _tree_of(th, owner, node):
    return next(t for o, t, _ in th.basepoints if o == owner and node in t)


def _basepoint(th, owner, tree):
    return next(n for o, t, n in th.basepoints if o == owner and t == tree)


def _edges_of(th, owner):
    return tuple(r.edge for r in th.edge_gens if r.owner == owner)


def edge_far_side(th, edge_gen):
    """Nodes of the subtree piece cut off by the edge that misses the
    basepoint; the product of their partial conjugations is the element
    the edge generator names."""
    owner, cut = edge_gen.owner, edge_gen.edge
    tree = _tree_of(th, owner, cut[0])
    base = _basepoint(th, owner, tree)
    kept = [e for e in _edges_of(th, owner) if e[0] in tree and e != cut]
    every = (1 << len(tree)) - 1
    far = every & ~component(1 << tree.index(base), every, neighbour_masks(tree, kept))
    assert far, "edge does not separate its subtree"
    return members_of(tree, far)


def far_side_psi_word(th, gen, far):
    """The word in symbols for a standard generator; `far` maps each edge
    generator to its far side."""
    a, k = gen
    tree = _tree_of(th, a, k)
    base = _basepoint(th, a, tree)
    pref = dict(th.preferred).get(a)
    incident = sorted(e for e in _edges_of(th, a) if k in e)
    word = []
    if k != base:
        # the incident edge whose cut leaves the basepoint on the far side
        toward = next(e for e in incident if k in far[EdgeGen.of(a, e)])
        word.append((EdgeGen.of(a, toward).symbol, 1))
        word.extend((EdgeGen.of(a, e).symbol, -1) for e in incident if e != toward)
    elif k != pref:
        word.append((TreeGen.of(a, tree).symbol, 1))
        word.extend((EdgeGen.of(a, e).symbol, -1) for e in incident)
    else:
        word.extend((t.symbol, -1) for t in th.tree_gens if t.owner == a)
        word.extend((EdgeGen.of(a, e).symbol, -1) for e in incident)
    return tuple(word)


def far_side_dictionary(g, th):
    """th's generator dictionary from `edge_far_side` and
    `far_side_psi_word`."""
    far = {r: edge_far_side(th, r) for r in th.edge_gens}
    to_standard = tuple(
        (r.symbol, tuple(((r.owner, k), 1) for k in (r.tree if isinstance(r, TreeGen) else far[r])))
        for r in th.records()
    )
    from_standard = tuple((gen, far_side_psi_word(th, gen, far)) for gen in standard_generators(g))
    return GeneratorDictionary(to_standard, from_standard)


def least_shortest_cycle(d):
    """The least cycle of least length in support graph d, each cycle
    taken in its least rotation or reflection, by listing every cycle of
    length up to 3, 4, ... until some exist; None for a forest."""
    nxg = nx.Graph(list(d.edges))
    for bound in range(3, len(d.nodes) + 1):
        cycles = list(nx.simple_cycles(nxg, length_bound=bound))
        if cycles:
            return min(
                tuple(turn[i:] + turn[:i]) for c in cycles for turn in (c, c[::-1]) for i in range(len(c))
            )
    return None


# Naturality of Σ¹ (Bieri–Neumann–Strebel, Invent. Math. 90, 1987): an
# isomorphism of groups carries one excluded-subspace arrangement onto
# the other's.


def pulled_back_raag_arrangement(g, th, d):
    """The subspaces of raag_arrangement(Δ), Δ = th's defining graph,
    pulled back to the standard generators' coordinates through d's
    from_standard table, as a set: a character ψ of A_Δ becomes the
    character whose value on a standard generator is ψ summed over the
    exponents of its word.  On a forest-side graph PΣO ≅ A_Δ, so this is
    the maximal-filtered PSO arrangement in ambient coordinates."""
    symbols = sorted(th.graph.vertices)
    exponents = []
    for _, word in d.from_standard:
        sums = dict.fromkeys(symbols, 0)
        for sym, e in word:
            sums[sym] += e
        exponents.append(sums)
    return {
        linalg.Subspace(len(exponents), [[sums[symbols[p]] for sums in exponents] for p in s.pivots])
        for s in raag_arrangement(th.graph).subspaces
    }


def commutation_graph(g):
    """Θ: one vertex per standard generator, two joined when
    `_commuting_schema` says they commute.  The i-th generator is labelled
    by i zero-padded, so sorted labels keep generator order and
    raag_arrangement(Θ) lives in generator_basis(g)'s coordinates.  On a
    graph without an SIL, PΣAut(A_Γ) is the RAAG on Θ (Charney, Ruane,
    Stambaugh and Vijayan, Illinois J. Math. 54, 2010)."""
    gens = standard_generators(g)
    labels = [f"{i:03d}" for i in range(len(gens))]
    return SimpleGraph(
        labels,
        [(labels[i], labels[j]) for i, j in itertools.combinations(range(len(gens)), 2) if _commuting_schema(g, gens[i], gens[j])],
    )


def raag_presentation(graph):
    """Graphical presentation: one generator per vertex, one expanded
    commutator per edge."""
    gens = tuple(graph.vertices)
    relators = tuple(
        _commutator(u, w) for u, w in sorted(graph.edges)
    )
    return checked_presentation(gens, relators, "raag")


def _exponent_matrix(row_labels, columns):
    index = {label: i for i, label in enumerate(row_labels)}
    cols = []
    for _, word in columns:
        col = [0] * len(row_labels)
        for sym, exp in word:
            col[index[sym]] += exp
        cols.append(col)
    return QMatrix(
        tuple(
            tuple(Fraction(col[i]) for col in cols) for i in range(len(row_labels))
        ),
        cols=len(cols),
    )


def dictionary_matrices(g, th, d):
    """(standard x symbol, symbol x standard) exponent-sum matrices of the
    two tables of a generator dictionary, as QMatrix values."""
    symbols = [r.symbol for r in th.records()]
    gens = standard_generators(g)
    return _exponent_matrix(gens, d.to_standard), _exponent_matrix(symbols, d.from_standard)


def full_relators_killed(g, th, d):
    """`verify_relators_killed` before it formed only the relators that
    hold live letters: the image of every relator of the whole outer
    presentation, reduced in the graphical group."""
    image = {}
    for gen, word in d.from_standard:
        image[gen, 1], image[gen, -1] = word, inverse(word)
    for relator in pso_presentation(g).relators:
        word = []
        for letter in relator:
            word += image[letter]
        if reduce(th.graph, tuple(word)):
            return False
    return True


def pso_relator_matrix(g):
    """One row per multiplier with components: ones on its generators'
    coordinates.  Its kernel is the outer character space W."""
    basis = generator_basis(g)
    rows = []
    for a in sorted(g.vertices):
        comps = complement_components(g, a)
        if not comps:
            continue
        row = [Fraction(0)] * basis.dim
        for k in comps:
            row[basis.index((a, k))] = Fraction(1)
        rows.append(row)
    return QMatrix(rows, cols=basis.dim)


# The Fraction subspace code that raagbns.linalg replaced with integer
# rows, kept as the differential oracle: rref, pivot_columns, Subspace,
# kernel_basis, _check_common_ambient, intersect and subspace_leq, with
# QMatrix.stack as the function `stack`.


def stack(a, b):
    """QMatrix.stack of the Fraction code: rows of a, then rows of b."""
    if b.rows and a.rows and a.cols != b.cols:
        raise ValueError("dimension mismatch in row stack")
    return QMatrix(a.entries + b.entries, cols=max(a.cols, b.cols))


def rref(m):
    """Reduced row-echelon form with zero rows dropped; returns (QMatrix, rank)."""
    work = [list(row) for row in m.entries]
    nrows, ncols = len(work), m.cols
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, nrows):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                prow = work[pivot_row]
                work[r] = [x - factor * y for x, y in zip(work[r], prow)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return QMatrix(work[:pivot_row], cols=ncols), pivot_row


def pivot_columns(reduced):
    """Pivot column indices of a matrix already in RREF."""
    pivots = []
    for row in reduced.entries:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return pivots


class Subspace:
    """A subspace of Q^n held as an RREF basis (zero rows dropped).

    Two Subspace values describe the same subspace exactly when their
    stored bases are identical, so == and hash are structural.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        reduced, _ = rref(basis)
        if reduced.cols not in (0, ambient_dim) or (reduced.rows and reduced.cols != ambient_dim):
            raise ValueError("basis width disagrees with ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = QMatrix(reduced.entries, cols=ambient_dim)

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        return cls(ambient_dim, QMatrix(list(vectors), cols=ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def pivots(self):
        return pivot_columns(self.basis)

    def reduce_vector(self, v):
        """Remainder of v after elimination against the RREF basis."""
        v = [Fraction(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        for row, p in zip(self.basis.entries, self.pivots()):
            if v[p] != 0:
                c = v[p]
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def contains_vector(self, v):
        return all(x == 0 for x in self.reduce_vector(v))

    def coordinates(self, v):
        """Coefficients of v in the RREF basis; None if v lies outside.

        Because the basis is in RREF, the coefficient on row i is just
        the entry of v at that row's pivot column.
        """
        v = [Fraction(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        coords = [v[p] for p in self.pivots()]
        residue = list(v)
        for c, row in zip(coords, self.basis.entries):
            if c != 0:
                residue = [x - c * y for x, y in zip(residue, row)]
        if any(x != 0 for x in residue):
            return None
        return coords

    def annihilator(self):
        """Matrix whose kernel is exactly this subspace."""
        return kernel_basis(self.basis).basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m):
    """Null space {x : m x = 0} of a matrix acting on column vectors."""
    reduced, _ = rref(m)
    pivots = pivot_columns(reduced)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for row, p in zip(reduced.entries, pivots):
            v[p] = -row[j]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def _check_common_ambient(subspaces, ambient_dim):
    for s in subspaces:
        if ambient_dim is None:
            ambient_dim = s.ambient_dim
        elif s.ambient_dim != ambient_dim:
            raise ValueError("mismatched ambient dimensions")
    if ambient_dim is None:
        raise ValueError("ambient dimension unknown for an empty list")
    return ambient_dim


def intersect(subspaces):
    """Intersection of a nonempty list of subspaces of one ambient space.

    Each subspace is cut out by its annihilator rows; the intersection is
    the kernel of all the rows stacked together.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("intersect needs at least one subspace")
    ambient_dim = _check_common_ambient(subspaces, None)
    if len(subspaces) == 1:
        return subspaces[0]
    constraints = QMatrix([], cols=ambient_dim)
    for s in subspaces:
        constraints = stack(constraints, s.annihilator())
    return kernel_basis(constraints)


def subspace_leq(a, b):
    """True iff a is contained in b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("mismatched ambient dimensions")
    return all(b.contains_vector(row) for row in a.basis.entries)


def maximal_filter(subspaces):
    """homology.maximal_filter on a list of Fraction subspaces: drop
    duplicates and subspaces strictly contained in another."""
    unique = []
    for s in subspaces:
        if s not in unique:
            unique.append(s)
    return [s for s in unique if not any(t is not s and subspace_leq(s, t) for t in unique)]


def maximal_filter_bases(a):
    """The RREF bases of the subspaces of the raagbns arrangement a that
    maximal_filter above keeps, in its order."""
    return [s.basis for s in maximal_filter([Subspace(s.ambient_dim, s.basis) for s in a.subspaces])]
