"""Finite presentations for the pure symmetric automorphism group of a
RAAG and its outer quotient, and the graphical presentation of the outer
quotient available when every support graph is a forest.

Relator schemas for the automorphism group (commutators stored expanded):

  R1  [pi^a_K, pi^b_L] = 1 when a = b or a, b adjacent
  R2  [pi^a_K, pi^b_L] = 1 when K and L are disjoint, b not in K, a not in L
  R3  [pi^a_K, pi^b_L] = 1 when {a} u K lies inside L, or {b} u L inside K
  R4  [pi^a_K pi^a_L, pi^b_L] = 1 when b in K and a not in L

The outer quotient adds, per vertex a, the product of all partial
conjugations with multiplier a (R5).

When each support graph is a forest the outer quotient is a RAAG.  Its
defining graph has a vertex per support-graph edge plus a vertex per
non-preferred maximal subtree, and the two generator dictionaries
translate between this generating set and the standard one.
"""

from collections import defaultdict
from typing import NamedTuple

from .bns import h1_witness
from .errors import InvariantViolation, MalformedInput, RaagBnsError
from .graphs import (
    LoopWitness,
    SimpleGraph,
    center_rank,
    forest_certificate,
    support_graph,
)
from .words import inverse, reduce, standard_generators


class NotAForest(RaagBnsError):
    """Some support graph contains a loop, so no graphical presentation
    of the outer quotient exists along this route."""

    def __init__(self, owner, loop):
        super().__init__(f"the support graph of {owner!r} contains a loop")
        self.owner = owner
        self.loop = loop


class GroupPresentation(NamedTuple):
    generators: tuple
    relators: tuple  # words over the generators, exponents +1/-1
    kind: str  # psa, pso or raag


def checked_presentation(generators, relators, kind):
    """The presentation, once every relator letter is checked to be a
    declared generator with exponent +1 or -1."""
    declared = set(generators)
    for word in relators:
        for sym, exp in word:
            if sym not in declared:
                raise InvariantViolation(f"relator uses undeclared generator {sym!r}")
            if exp not in (1, -1):
                raise InvariantViolation("relator exponents must be +1 or -1")
    return GroupPresentation(generators, relators, kind)


def _commutator(x, y):
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def _commutators(g, live=None):
    """R1-R3: the commutator of each pair of standard generators, in order,
    that commute by a test on masks (a's bit, K's mask and a's
    neighbours' mask for generator (a, K)); only pairs of `live`
    generators when that set is given."""
    labels, masks = g.masks
    table = g.component_table
    keys = [((a, k), 1 << i, s, masks[1 << i]) for i, a in enumerate(labels) for s, k in table[a]
            if live is None or (a, k) in live]
    relators = []
    for i, (x, p, k, adj) in enumerate(keys):
        for y, q, l, _ in keys[i + 1:]:
            if (p == q or q & adj  # R1
                    or not (k & l or q & k or p & l)  # R2
                    or not (p | k) & ~l or not (q | l) & ~k):  # R3
                relators.append(_commutator(x, y))
    return relators


def _r4(g):
    return [(((a, k), 1), ((a, l), 1), ((b, l), 1), ((a, l), -1), ((a, k), -1), ((b, l), -1))
            for a, b, k, _, l in g.sil_rows]


def _r5(g):
    return [tuple(((a, k), 1) for _, k in comps) for a, comps in g.component_table.items() if comps]


def psa_presentation(g):
    """R1-R3 for each pair of generators in order, then R4 for each SIL
    row; no two pairs or rows give one relator."""
    return checked_presentation(standard_generators(g), tuple(_commutators(g) + _r4(g)), "psa")


def pso_presentation(g):
    """The PSA relators and R5, validated once, as one presentation."""
    return checked_presentation(standard_generators(g), tuple(_commutators(g) + _r4(g) + _r5(g)), "pso")


class EdgeGen(NamedTuple):
    owner: str
    edge: tuple  # sorted pair of support-graph nodes
    symbol: str  # owner[K|L], formatted once by `of`

    @classmethod
    def of(cls, owner, edge):
        return cls(owner, edge, owner + "[" + "|".join(",".join(n) for n in edge) + "]")


class TreeGen(NamedTuple):
    owner: str
    tree: tuple  # sorted tuple of support-graph nodes
    symbol: str  # owner{K;L;...}, formatted once by `of`

    @classmethod
    def of(cls, owner, tree):
        return cls(owner, tree, owner + "{" + ";".join(",".join(n) for n in tree) + "}")


class PresentationGraph(NamedTuple):
    """Defining graph of the outer quotient's graphical presentation.

    Vertices are the symbols of the tree generators (one per maximal
    subtree of a support graph other than the preferred one) followed by
    the edge generators (one per support-graph edge).  Tree generators
    are adjacent to everything; two edge generators are non-adjacent
    exactly when their owners form an SIL-pair and the edges are the
    dominating-shared pairs of one common shared component.
    """

    graph: SimpleGraph
    tree_gens: tuple
    edge_gens: tuple
    basepoints: tuple  # (owner, tree, basepoint node) rows
    preferred: tuple  # (owner, preferred basepoint node) rows

    def records(self):
        return self.tree_gens + self.edge_gens


def _resolve_basepoints(owner, trees, override):
    chosen = {}
    for raw in override:
        if not isinstance(raw, (list, tuple)) or not all(isinstance(v, str) for v in raw):
            raise MalformedInput("basepoint nodes must be lists of vertices")
        node = tuple(raw)
        home = next((t for t in trees if node in t), None)
        if home is None:
            raise MalformedInput(
                f"{node!r} is not a component left by removing the star of {owner!r}"
            )
        if home in chosen:
            raise MalformedInput(
                f"two basepoints requested in one subtree of the support graph of {owner!r}"
            )
        chosen[home] = node
    return chosen


def presentation_graph(g, basepoints=None):
    """Build the defining graph, or raise NotAForest carrying a shortest
    loop of the offending support graph.

    `basepoints` optionally maps a vertex to a list of support-graph
    nodes; each named node becomes the basepoint of its subtree and the
    first one marks the preferred subtree.  The default picks the
    lexicographically least node of each subtree, preferring the subtree
    holding the least node overall.
    """
    overrides = dict(basepoints or {})
    unknown = sorted(set(overrides) - set(g.vertices))
    if unknown:
        raise MalformedInput(f"basepoint key {unknown[0]!r} names no vertex of the graph")
    # owners, their trees and their edges all come in order, so both
    # generator lists are sorted
    tree_gens = []
    edge_gens = []
    basepoint_rows = []
    preferred_rows = []
    support = g.support_edges
    for a, comps in g.component_table.items():
        edges = support[a]
        # an edgeless support graph is a tree per node, as forest_certificate says
        cert = forest_certificate(support_graph(g, a)) if edges else None
        if isinstance(cert, LoopWitness):
            raise NotAForest(a, cert)
        trees = cert.trees if cert else tuple((k,) for _, k in comps)
        if not trees:
            continue
        chosen = _resolve_basepoints(a, trees, overrides[a]) if a in overrides else {}
        for t in trees:
            basepoint_rows.append((a, t, chosen.get(t, t[0])))
        # the first override's tree, else the tree of the least node
        pref_tree = next(iter(chosen), trees[0])
        preferred_rows.append((a, chosen.get(pref_tree, pref_tree[0])))
        tree_gens.extend(TreeGen.of(a, t) for t in trees if t != pref_tree)
        edge_gens.extend(EdgeGen.of(a, e) for e in edges)
    # each SIL row (a, b, K_a, K_b, L) parts a's edge {K_a, L} from b's
    # edge {K_b, L}; the rows come in both orders, so `apart` is symmetric
    symbol = {(r.owner, r.edge): r.symbol for r in edge_gens}
    apart = {}
    for a, b, ka, kb, l in g.sil_rows:
        x = symbol[a, (min(ka, l), max(ka, l))]
        apart.setdefault(x, []).append(symbol[b, (min(kb, l), max(kb, l))])
    symbols = [r.symbol for r in tree_gens + edge_gens]
    everyone = frozenset(symbols)
    if len(everyone) < len(symbols):
        raise MalformedInput("duplicate vertex labels")
    neighbors = {x: everyone.difference((x,), apart.get(x, ())) for x in symbols}
    return PresentationGraph(
        SimpleGraph._trusted(symbols, neighbors),
        tuple(tree_gens),
        tuple(edge_gens),
        tuple(basepoint_rows),
        tuple(preferred_rows),
    )


def _hang(th):
    """Hang each tree of th from its basepoint by one BFS.  Returns
    `place`, mapping (owner, node) to the node's tree, the edge generator
    above it (None at the basepoint) and its edge generators in order,
    and `below`, mapping (owner, edge) to the sorted nodes below that
    edge: the far side whose partial conjugations multiply to the edge
    generator."""
    edges = {}
    for r in th.edge_gens:  # sorted, so each node's edges come in order
        for n in r.edge:
            edges.setdefault((r.owner, n), []).append(r)
    place, below = {}, {}
    for a, tree, base in th.basepoints:
        place[a, base] = (tree, None, edges.get((a, base), []))
        order = [(base, None)]  # (node, the node above it), in BFS order
        for u, _ in order:
            for r in place[a, u][2]:
                w = r.edge[1] if r.edge[0] == u else r.edge[0]
                if (a, w) not in place:
                    place[a, w] = (tree, r, edges.get((a, w), []))
                    order.append((w, u))
        subtree = {w: [w] for w, _ in order}
        for w, u in reversed(order[1:]):
            subtree[u] += subtree[w]
            below[a, place[a, w][1].edge] = tuple(sorted(subtree[w]))
    return place, below


def _psi_word(th, gen, place, preferred):
    """The word in symbols for the standard generator gen = (a, k): the
    edge above k (or, at a basepoint, a tree generator or the inverses of
    the other trees' generators) times the inverses of k's other edges."""
    a, k = gen
    tree, up, incident = place[gen]
    rest = tuple((r.symbol, -1) for r in incident if r is not up)
    if up is not None:
        return ((up.symbol, 1),) + rest
    if k != preferred[a]:
        return ((next(t.symbol for t in th.tree_gens if t.owner == a and t.tree == tree), 1),) + rest
    return tuple((t.symbol, -1) for t in th.tree_gens if t.owner == a) + rest


class GeneratorDictionary(NamedTuple):
    """Both translation tables between the standard generating set and
    the graphical one."""

    to_standard: tuple  # (symbol, word in standard generators) rows
    from_standard: tuple  # (standard generator, word in symbols) rows


def generator_dictionary(g, th):
    gens = standard_generators(g)
    place, below = _hang(th)
    to_standard = []
    for r in th.records():
        members = r.tree if isinstance(r, TreeGen) else below[r.owner, r.edge]
        to_standard.append((r.symbol, tuple(((r.owner, k), 1) for k in members)))
    preferred = dict(th.preferred)
    from_standard = [(gen, _psi_word(th, gen, place, preferred)) for gen in gens]
    d = GeneratorDictionary(tuple(to_standard), tuple(from_standard))
    _check_round_trips(gens, d)
    return d


def _composed_sums(word, table):
    """Exponent sums of `word` after each letter is replaced by its word
    in `table`: the abelianized composite of the two translations."""
    sums = defaultdict(int)
    for letter, exp in word:
        for x, e in table[letter]:
            sums[x] += exp * e
    return sums


def _check_round_trips(gens, d):
    """Abelianized, symbols -> standard -> symbols is the identity, and
    standard -> symbols -> standard is the identity up to one value per
    multiplier (a multiple of the product relation).  Only the non-zero
    sums are read: a multiplier's generators share one value when none
    of them has a non-zero sum, or all of them have the same one."""
    phi, psi = dict(d.to_standard), dict(d.from_standard)
    for sym, word in d.to_standard:
        back = _composed_sums(word, psi)
        back[sym] -= 1
        if any(back.values()):
            raise InvariantViolation("abelianized round trip on symbols is not the identity")
    size, known = defaultdict(int), set(gens)
    for a, _ in gens:
        size[a] += 1
    for gen, word in d.from_standard:
        back = _composed_sums(word, phi)
        back[gen] -= 1
        residue = {}
        for x, v in back.items():
            if v and x in known:
                residue.setdefault(x[0], []).append(v)
        if any(len(vals) != size[a] or len(set(vals)) > 1 for a, vals in residue.items()):
            raise InvariantViolation(
                "abelianized round trip on standard generators is not the identity "
                "modulo the per-multiplier product relations"
            )


def verify_relators_killed(g, th, d):
    """True iff the image of every relator of the outer quotient reduces
    to the empty word in the graphical group.  A standard generator is
    live when its image is not empty; a dead one drops out of every
    image, so a commutator with a dead generator maps to w w^-1 and a
    relator of dead letters to the empty word.  Only the commutators of
    two live generators and the R4 and R5 relators holding a live letter
    are formed, validated and reduced."""
    live = {gen for gen, word in d.from_standard if word}
    if not live:
        return True
    image = {}
    for gen, word in d.from_standard:
        image[gen, 1], image[gen, -1] = word, inverse(word)
    relators = _commutators(g, live) + [r for r in _r4(g) + _r5(g) if not live.isdisjoint(x for x, _ in r)]
    for relator in checked_presentation(standard_generators(g), tuple(relators), "pso").relators:
        word = []
        for letter in relator:
            word += image[letter]
        if reduce(th.graph, tuple(word)):
            return False
    return True


class RaagVerdict(NamedTuple):
    presentation_graph: PresentationGraph
    dictionary: GeneratorDictionary
    center_rank: int


class ObstructionVerdict(NamedTuple):
    owner: str
    loop: LoopWitness
    homology_witness: object


def classify_pso(g, basepoints=None, cap=None):
    """Decide whether the outer quotient is a RAAG.  Forest case: the
    defining graph with its generator dictionary.  Loop case: the vertex
    owning the loop, a shortest loop, and the degree-one homology
    certificate it produces."""
    try:
        th = presentation_graph(g, basepoints)
    except NotAForest as err:
        return ObstructionVerdict(err.owner, err.loop, h1_witness(g, err.loop, cap))
    return RaagVerdict(th, generator_dictionary(g, th), center_rank(th.graph))
