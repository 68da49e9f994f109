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

The relator check maps every relator of the outer quotient into the
graphical group and asks that it be 1 there.  It reads each standard
generator's image once into masks over the defining graph: S, the bits
of its symbols; C, the bits that commute with or equal each of them;
and its exponent sum on each symbol, counted letter by letter (a letter
may repeat, so its sign does not give its sum).  Vertex generators of a
RAAG that pairwise commute generate a free abelian group (Servatius,
"Automorphisms of graph groups", J. Algebra 126, 1989), so a product of
images whose symbols pairwise commute is 1 exactly when every summed
exponent is 0, and otherwise commutes with whatever commutes with its
symbols of non-zero sum.  Hence:

  R1-R3  [x, y] is 1 when S_y lies in C_x;
  R4     [x y, z] is 1 when S_z lies in C_x & C_y, or when the symbols
         of x and y pairwise commute and those of non-zero summed
         exponent lie in C_z;
  R5     when the symbols of a's images pairwise commute, the product
         is 1 exactly when every summed exponent is 0.

Any relator these rules leave open has its image formed and reduced to
the normal form of `words.reduce`, which decides it.
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
    """R1-R3: each pair (x, y) of standard generators, in order, that
    commute by a test on masks (a's bit, K's mask and a's neighbours'
    mask for generator (a, K)); only pairs of `live` generators when that
    set is given."""
    labels, masks = g.masks
    table = g.component_table
    keys = [((a, k), 1 << i, s, masks[1 << i]) for i, a in enumerate(labels) for s, k in table[a]
            if live is None or (a, k) in live]
    for i, (x, p, k, adj) in enumerate(keys):
        for y, q, l, _ in keys[i + 1:]:
            if (p == q or q & adj  # R1
                    or not (k & l or q & k or p & l)  # R2
                    or not (p | k) & ~l or not (q | l) & ~k):  # R3
                yield x, y


def _r4(row):
    """The R4 relator [pi^a_K pi^a_L, pi^b_L] of SIL row (a, b, K, K_b, L)."""
    a, b, k, _, l = row
    return (((a, k), 1), ((a, l), 1), ((b, l), 1), ((a, l), -1), ((a, k), -1), ((b, l), -1))


def _r5(a, comps):
    """The R5 relator of multiplier a: its partial conjugations in order."""
    return tuple(((a, k), 1) for _, k in comps)


def _psa_relators(g):
    return ([_commutator(x, y) for x, y in _commutators(g)]
            + [_r4(row) for row in g.sil_rows])


def psa_presentation(g):
    """R1-R3 for each pair of generators in order, then R4 for each SIL
    row; no two pairs or rows give one relator."""
    return checked_presentation(standard_generators(g), tuple(_psa_relators(g)), "psa")


def pso_presentation(g):
    """The PSA relators and R5, validated once, as one presentation."""
    r5 = [_r5(a, comps) for a, comps in g.component_table.items() if comps]
    return checked_presentation(standard_generators(g), tuple(_psa_relators(g) + r5), "pso")


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
    for a, comps in g.component_table.items():
        # no support edge: a lone component is its own tree and basepoint
        if len(comps) < 2 and a not in overrides:
            basepoint_rows += [(a, (k,), k) for _, k in comps]
            preferred_rows += [(a, k) for _, k in comps]
            continue
        edges = g.support_edges[a] if len(comps) > 1 else ()
        # an edgeless support graph is a tree per node, as forest_certificate says
        cert = forest_certificate(support_graph(g, a)) if edges else None
        if isinstance(cert, LoopWitness):
            raise NotAForest(a, cert)
        trees = cert.trees if cert else tuple((k,) for _, k in comps)
        chosen = _resolve_basepoints(a, trees, overrides[a]) if a in overrides else {}
        if not trees:
            continue
        for t in trees:
            basepoint_rows.append((a, t, chosen.get(t, t[0])))
        # the first override's tree, else the tree of the least node
        pref_tree = next(iter(chosen), trees[0])
        preferred_rows.append((a, chosen.get(pref_tree, pref_tree[0])))
        tree_gens.extend(TreeGen.of(a, t) for t in trees if t != pref_tree)
        edge_gens.extend(EdgeGen.of(a, e) for e in edges)
    symbols = [r.symbol for r in tree_gens + edge_gens]
    labels = tuple(sorted(symbols))
    bit = {x: 1 << i for i, x in enumerate(labels)}
    if len(bit) < len(labels):
        raise MalformedInput("duplicate vertex labels")
    # every symbol is adjacent to every other, except that each SIL row
    # (a, b, K_a, K_b, L) parts a's edge {K_a, L} from b's edge {K_b, L};
    # the rows come in both orders, so the masks stay symmetric
    masks = {b: ((1 << len(labels)) - 1) ^ b for b in bit.values()}
    at = {(r.owner, r.edge): bit[r.symbol] for r in edge_gens}
    for a, b, ka, kb, l in g.sil_rows if edge_gens else ():
        masks[at[a, (min(ka, l), max(ka, l))]] &= ~at[b, (min(kb, l), max(kb, l))]
    return PresentationGraph(
        SimpleGraph._trusted(symbols, labels, masks),
        tuple(tree_gens),
        tuple(edge_gens),
        tuple(basepoint_rows),
        tuple(preferred_rows),
    )


def _hang(th, owners):
    """Hang each tree of th that one of the `owners` has from its
    basepoint by one BFS.  Returns `place`, mapping (owner, node) to the
    node's tree, the edge generator above it (None at the basepoint) and
    its edge generators in order, and `below`, mapping (owner, edge) to
    the sorted nodes below that edge: the far side whose partial
    conjugations multiply to the edge generator."""
    edges = {}
    for r in th.edge_gens:  # sorted, so each node's edges come in order
        for n in r.edge:
            edges.setdefault((r.owner, n), []).append(r)
    place, below = {}, {}
    for a, tree, base in (row for row in th.basepoints if row[0] in owners):
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
    owners = {r.owner for r in th.records()}  # the multipliers with two or more components
    place, below = _hang(th, owners) if owners else ({}, {})
    to_standard = []
    for r in th.records():
        members = r.tree if isinstance(r, TreeGen) else below[r.owner, r.edge]
        to_standard.append((r.symbol, tuple(((r.owner, k), 1) for k in members)))
    preferred = dict(th.preferred)
    psi = {gen: _psi_word(th, gen, place, preferred) for gen in gens if gen[0] in owners}
    d = GeneratorDictionary(tuple(to_standard), tuple((gen, psi.get(gen, ())) for gen in gens))
    # a multiplier owning no symbol has at most one generator, of empty image and in no
    # symbol's word: its round trip is -1 on it alone, which its product relation absorbs
    if psi:
        _check_round_trips(list(psi), d._replace(from_standard=tuple(psi.items())))
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


def _image_masks(bit, masks, word):
    """(S, C, sums) of a word over the defining graph: the bits of its
    symbols, the bits commuting with or equal to each of them, and its
    exponent sum on each symbol's bit, counted letter by letter."""
    symbols, commuting, sums = 0, -1, {}
    for sym, exp in word:
        try:
            b = bit[sym]
        except KeyError:
            raise MalformedInput(f"unknown vertex {sym!r} in word") from None
        symbols |= b
        commuting &= masks[b] | b
        sums[b] = sums.get(b, 0) + exp
    return symbols, commuting, sums


def _abelian_support(images):
    """When the symbols of these images pairwise commute, they generate a
    free abelian group, so the product of the images is the product of
    its symbols raised to their summed exponents: the bits of the symbols
    whose sum is not 0.  None when two of the symbols do not commute."""
    symbols, commuting, sums = 0, -1, {}
    for s, c, _ in images:
        symbols |= s
        commuting &= c
    if symbols & ~commuting:
        return None
    for _, _, image_sums in images:
        for b, e in image_sums.items():
            sums[b] = sums.get(b, 0) + e
    support = 0
    for b, e in sums.items():
        if e:
            support |= b
    return support


def _masks_kill_commutator(x, y):
    """Whether the masks of the images x and y show that [x, y] is 1:
    every symbol of y commutes with every symbol of x."""
    return not y[0] & ~x[1]


def _masks_kill_r4(x, y, z):
    """Whether the masks of the images x, y and z show that [x y, z] is
    1: every symbol of z commutes with every symbol of x and of y, or x y
    is a commuting product whose symbols of non-zero sum commute with
    every symbol of z."""
    if not z[0] & ~(x[1] & y[1]):
        return True
    support = _abelian_support((x, y))
    return support is not None and not support & ~z[1]


def _masks_decide_r5(images):
    """Whether the product of the images is 1, when their symbols
    pairwise commute: exactly when every summed exponent is 0.  None
    when two symbols do not commute."""
    support = _abelian_support(images)
    return None if support is None else not support


def verify_relators_killed(g, th, d):
    """True iff the image of every relator of the outer quotient reduces
    to the empty word in the graphical group.  A standard generator is
    live when its image is not empty; a dead one drops out of every
    image, so a commutator with a dead generator maps to w w^-1.  Each
    relator is decided on the masks of its letters' images (see the
    module docstring); only one the masks cannot decide has its image
    formed and reduced."""
    live = {gen for gen, word in d.from_standard if word}
    if not live:
        return True
    labels, masks = th.graph.masks
    bit = {sym: 1 << i for i, sym in enumerate(labels)}
    image = dict(d.from_standard)
    table = {gen: _image_masks(bit, masks, word) for gen, word in d.from_standard}

    def reduces_to_one(relator):
        word = []
        for gen, exp in relator:
            word += image[gen] if exp == 1 else inverse(image[gen])
        return not reduce(th.graph, tuple(word))

    for x, y in _commutators(g, live):
        if not (_masks_kill_commutator(table[x], table[y]) or reduces_to_one(_commutator(x, y))):
            return False
    for row in g.sil_rows:
        a, b, k, _, l = row
        if not (_masks_kill_r4(table[a, k], table[a, l], table[b, l]) or reduces_to_one(_r4(row))):
            return False
    for a, comps in g.component_table.items():
        # a dead generator adds no symbol and no exponent
        killed = _masks_decide_r5([table[a, k] for _, k in comps if (a, k) in live])
        if killed is False or killed is None and not reduces_to_one(_r5(a, comps)):
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
