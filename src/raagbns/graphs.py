"""Finite simple graphs and the combinatorics driving everything else:
components of the star complement of a vertex, the
dominating/subordinate/shared classification for a nonadjacent pair
(an SIL-pair is one with a shared component), and per-vertex support
graphs with forest or shortest-loop certificates.

A graph keeps the tables derived from it as cached attributes, found
on first read.  `g.component_table` maps each sorted vertex to its
star-complement components as (mask, members) pairs in lex order, a
mask numbering the sorted vertices by position;
`complement_components` and the standard generators read it.

`g.sil_rows`, the SIL table, has a row (a, b, K_a, K_b, L) per ordered
nonadjacent pair and component L they share, K_a being the component
of a's star complement holding b.  It is built from the masks alone,
and the support graphs, `has_sil`, the R4 relators and the outer
quotient's defining graph all read it.

Every component search is one flood fill, `component`, over bitmasks
that number the members of a sorted sequence by position.

A "component" is represented throughout as a sorted tuple of vertex
labels; all sequences of components are ordered lexicographically.
"""

import json
from collections import deque
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .errors import MalformedInput


# characters that delimit vertex labels inside generator symbols and words
_RESERVED = set(",[]|{};^")


def _checked_labels(labels):
    """Labels read from a file, refused when empty or when they hold
    whitespace or a reserved character, which would make two generator
    symbols print alike."""
    labels = [str(v) for v in labels]
    for v in labels:
        if not v or any(c.isspace() or c in _RESERVED for c in v):
            raise MalformedInput(
                f"vertex label {v!r} is empty or holds whitespace or one of , [ ] | {{ }} ; ^"
            )
    return labels


class SimpleGraph:
    """Undirected simple graph with string vertex labels; `neighbors` maps
    each vertex to the frozenset of vertices adjacent to it.  A graph is
    never changed after it is built, so its instance dict is the one
    store of what is derived from it: the cached attributes `masks`,
    `component_table`, `sil_rows` and `support_edges`, and the maximal
    (Δ-)p-sets that `bns` keeps there.  Each is an immutable value that
    every reader shares, and a read that raises stores nothing."""

    __slots__ = ("vertices", "edges", "neighbors", "__dict__")

    def __init__(self, vertices, edges):
        vertices = tuple(str(v) for v in vertices)
        if len(set(vertices)) != len(vertices):
            raise MalformedInput("duplicate vertex labels")
        vset = set(vertices)
        adj = {v: set() for v in vertices}
        canon = set()
        for u, w in edges:
            u, w = str(u), str(w)
            if u == w:
                raise MalformedInput(f"self-loop at {u!r}")
            if u not in vset or w not in vset:
                raise MalformedInput(f"edge {u!r}-{w!r} uses an undeclared vertex")
            canon.add((min(u, w), max(u, w)))
            adj[u].add(w)
            adj[w].add(u)
        self.vertices = vertices
        self.edges = frozenset(canon)
        self.neighbors = {v: frozenset(s) for v, s in adj.items()}

    @classmethod
    def _trusted(cls, vertices, neighbors):
        """The graph on these vertices with these neighbour frozensets,
        taken as given: nothing checks that they are symmetric and loop-free."""
        g = cls.__new__(cls)
        g.vertices, g.neighbors = tuple(vertices), neighbors
        g.edges = frozenset((u, w) for u in g.vertices for w in neighbors[u] if u < w)
        return g

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or not isinstance(data.get("vertices"), list):
            raise MalformedInput('graph JSON needs {"vertices": [...], "edges": [...]}')
        edges = data.get("edges", [])
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise MalformedInput("graph JSON edges must be a list of two-vertex lists")
        for label in data["vertices"] + [v for e in edges for v in e]:
            if not isinstance(label, str):
                raise MalformedInput(
                    f"graph JSON vertex labels and edge endpoints must be strings, not {json.dumps(label)}"
                )
        return cls(_checked_labels(data["vertices"]), edges)

    @classmethod
    def from_text(cls, text):
        """Edge list, one "u v" per line; isolated vertices go on a
        "vertices:" header line."""
        vertices, edges = [], []
        seen = set()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("vertices:"):
                for v in line[len("vertices:"):].split():
                    if v not in seen:
                        seen.add(v)
                        vertices.append(v)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MalformedInput(f"bad edge line {line!r}")
            for v in parts:
                if v not in seen:
                    seen.add(v)
                    vertices.append(v)
            edges.append(tuple(parts))
        return cls(_checked_labels(vertices), edges)

    def to_json(self):
        return {
            "vertices": sorted(self.vertices),
            "edges": [list(e) for e in sorted(self.edges)],
        }

    def has_vertex(self, v):
        return v in self.neighbors

    def adjacent(self, u, v):
        return v in self.neighbors.get(u, ())

    def __eq__(self, other):
        return (
            isinstance(other, SimpleGraph)
            and sorted(self.vertices) == sorted(other.vertices)
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((tuple(sorted(self.vertices)), self.edges))

    def __repr__(self):
        return f"SimpleGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    @cached_property
    def masks(self):
        """The sorted labels, and a read-only map from each one's bit to
        its neighbours' bits."""
        labels = tuple(sorted(self.vertices))
        return labels, MappingProxyType(neighbour_masks(labels, self.edges))

    @cached_property
    def component_table(self):
        """A read-only map from each sorted vertex a to the components of
        the graph minus the closed star of a, as (mask, members) pairs in
        lex order."""
        labels, masks = self.masks
        full = (1 << len(labels)) - 1
        return MappingProxyType({
            a: tuple(_split(labels, full & ~(1 << i) & ~masks[1 << i], masks)) for i, a in enumerate(labels)
        })

    @cached_property
    def sil_rows(self):
        """The SIL table, in (a, b) label order, then in a's component
        order, read off the component table's masks.  For a nonadjacent
        pair (a, b), K_a is a's component whose mask holds b's bit, and
        the shared components are the masks both sides list.  They are
        the same for (a, b) and (b, a), so each unordered pair is taken
        once and gives the rows of both orders; sorting the rows puts
        them in table order.  A shared component is never K_a, which
        holds b, so a pair is skipped unless both sides have two
        components."""
        labels, masks = self.masks
        table = self.component_table
        rows = []
        for i, a in enumerate(labels):
            comps_a = table[a]
            if len(comps_a) < 2:
                continue
            for j in range(i + 1, len(labels)):
                b, comps_b = labels[j], table[labels[j]]
                if masks[1 << i] >> j & 1 or len(comps_b) < 2:
                    continue
                dom_a = next(k for s, k in comps_a if s >> j & 1)
                dom_b = next(k for s, k in comps_b if s >> i & 1)
                common = {s for s, _ in comps_b}
                for s, l in comps_a:
                    if s in common:
                        rows += ((a, b, dom_a, dom_b, l), (b, a, dom_b, dom_a, l))
        return tuple(sorted(rows))

    @cached_property
    def support_edges(self):
        """A read-only map from each vertex to its support graph's edges,
        in order, from one pass over the SIL table."""
        edges = {a: set() for a in self.vertices}
        for a, _, k, _, l in self.sil_rows:
            edges[a].add((min(k, l), max(k, l)))
        return MappingProxyType({a: tuple(sorted(e)) for a, e in edges.items()})


def bits(s):
    """The set bits of bitmask s, lowest first, each as a power of two."""
    while s:
        low = s & -s
        yield low
        s ^= low


def members_of(members, s):
    """The members whose positions are the set bits of s, in order."""
    out = []
    while s:
        low = s & -s
        out.append(members[low.bit_length() - 1])
        s ^= low
    return tuple(out)


def neighbour_masks(items, pairs):
    """Bit of each item (by position) -> bits of the items that `pairs`
    joins it to."""
    bit = {x: 1 << i for i, x in enumerate(items)}
    masks = dict.fromkeys(bit.values(), 0)
    for x, y in pairs:
        masks[bit[x]] |= bit[y]
        masks[bit[y]] |= bit[x]
    return masks


def component(seed, s, neighbours):
    """Bitmask of the members of bitmask s joined to the bits of `seed`
    inside s; `neighbours` maps each member's bit to its neighbours'
    bits."""
    comp = frontier = seed
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= neighbours[low]
            frontier ^= low
        frontier = grow & s & ~comp
        comp |= frontier
    return comp


def _split(members, s, neighbours):
    """The components inside bitmask s, as (mask, sorted member tuple)
    pairs in lex order (`members` sorted, bits by position)."""
    out = []
    while s:
        comp = component(s & -s, s, neighbours)
        out.append((comp, members_of(members, comp)))
        s &= ~comp
    return out


def complement_components(g, a):
    """Components of the graph minus the closed star of a, a tuple in lex
    order."""
    if not g.has_vertex(a):
        raise MalformedInput(f"unknown vertex {a!r}")
    return tuple(k for _, k in g.component_table[a])


class PairClassification(NamedTuple):
    """Component trichotomy for a nonadjacent pair (a, b).

    dominating_a is the component of the star complement of a that
    contains b (and symmetrically); shared components are components of
    both star complements verbatim; every other component of a's side is
    subordinate, i.e. contained in dominating_b (and symmetrically).
    """

    a: str
    b: str
    dominating_a: tuple
    dominating_b: tuple
    subordinate_a: tuple
    subordinate_b: tuple
    shared: tuple


def classify_pair(g, a, b):
    if a == b or g.adjacent(a, b):
        raise ValueError(f"classify_pair needs a nonadjacent distinct pair, got {a!r},{b!r}")
    comps_a = complement_components(g, a)
    comps_b = complement_components(g, b)
    dom_a = next(c for c in comps_a if b in c)
    dom_b = next(c for c in comps_b if a in c)
    common = set(comps_a) & set(comps_b)
    shared = tuple(c for c in comps_a if c in common)
    sub_a = tuple(c for c in comps_a if c != dom_a and c not in common)
    sub_b = tuple(c for c in comps_b if c != dom_b and c not in common)
    return PairClassification(a, b, dom_a, dom_b, sub_a, sub_b, shared)


class SupportGraph(NamedTuple):
    """Per-vertex graph: one node per component of the star complement of
    `owner`, an edge {K, L} whenever some b in K makes L a shared
    component for the pair (owner, b)."""

    owner: str
    nodes: tuple
    edges: tuple


def support_graph(g, a):
    return SupportGraph(a, complement_components(g, a), g.support_edges[a])


class ForestData(NamedTuple):
    owner: str
    trees: tuple  # each tree is a sorted tuple of nodes


class LoopWitness(NamedTuple):
    owner: str
    nodes: tuple  # cycle K_1..K_n, consecutive (and wraparound) edges


def _closed_walks(neighbours, root):
    """The closed walks u -> root -> w, one for each non-tree edge u-w
    (each way round) of the BFS from bit root, as lists of bits;
    `neighbours` maps each bit to its neighbours' bits."""
    path = {root: (root,)}  # each reached bit's tree path from the root
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in bits(neighbours[u]):
            if w not in path:
                path[w] = path[u] + (w,)
                queue.append(w)
            elif path[u][-2:-1] != (w,):
                yield [*reversed(path[u]), *path[w][1:]]


def _canonical_cycle(nodes):
    """Rotate/reflect so the cycle starts at its least node and moves
    toward its lesser neighbor."""
    i = nodes.index(min(nodes))
    rotated = nodes[i:] + nodes[:i]
    return min(tuple(rotated), (rotated[0], *rotated[:0:-1]))


def forest_certificate(d):
    """ForestData when the support graph is a forest, else a LoopWitness
    holding the least canonical shortest cycle.  A graph is a forest iff
    |edges| + |trees| = |nodes|; an edgeless one is a tree per node, and
    only a graph with a loop is searched.

    The search takes the closed walks from every root and keeps the least
    canonical one of least length g.  A walk whose two tree paths share
    more than the root holds a shorter cycle, so no walk is shorter than
    the girth and each walk of length g is a shortest cycle.  Let C be
    the least canonical shortest cycle and m its least node.  The nodes
    of C nearer m than g/2 have one shortest path from m each, along C;
    when g is odd, that holds for both ends of C's far edge.  BFS in bit
    order gives every node its lexicographically least shortest path, so
    when g is even the path to C's far node runs along C's lesser side:
    a lesser one would close a lesser cycle with the other side.  So C
    is a walk from root m.  The first walk of length g from m need not
    be C, so every such walk is compared.
    """
    nodes = sorted(d.nodes)
    if not d.edges:
        return ForestData(d.owner, tuple((n,) for n in nodes))
    masks = neighbour_masks(nodes, d.edges)
    trees = [t for _, t in _split(nodes, (1 << len(nodes)) - 1, masks)]
    if len(d.edges) + len(trees) == len(nodes):
        return ForestData(d.owner, tuple(trees))
    walks = [w for root in masks for w in _closed_walks(masks, root)]
    girth = min(map(len, walks))
    # bits follow the sorted nodes, so cycles of bits order as cycles of nodes
    best = min(_canonical_cycle(w) for w in walks if len(w) == girth)
    return LoopWitness(d.owner, tuple(nodes[b.bit_length() - 1] for b in best))


def center_rank(g):
    """Number of vertices adjacent to every other vertex."""
    n = len(g.vertices)
    return sum(1 for v in g.vertices if len(g.neighbors[v]) == n - 1)


def graph_from_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise MalformedInput(f"unreadable graph file: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, too deep, or an integer past the digit limit
            raise MalformedInput(f"bad graph JSON: {exc}") from exc
        return SimpleGraph.from_json(data)
    return SimpleGraph.from_text(text)
