"""Finite simple graphs and the combinatorics driving everything else:
links and stars, components of the star complement of a vertex, the
dominating/subordinate/shared classification for a nonadjacent pair
(an SIL-pair is one with a shared component), and per-vertex support
graphs with forest or shortest-loop certificates.

A "component" is represented throughout as a sorted tuple of vertex
labels; all sequences of components are ordered lexicographically.
"""

import functools
import json
from collections import deque
from dataclasses import dataclass

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
    never changed after it is built, so `_memo` holds what the
    `memoised` functions computed from it."""

    __slots__ = ("vertices", "edges", "neighbors", "_memo")

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
        self._memo = {}

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


def memoised(fn):
    """Compute fn(g, *args) once per graph object and keep it in g's memo.
    A list result is kept as a tuple and every call gets a fresh list, so
    no caller can change what the next one sees; other results must be
    immutable."""

    @functools.wraps(fn)
    def cached(g, *args):
        key = (fn, args)
        hit = g._memo.get(key)
        if hit is None:
            value = fn(g, *args)
            hit = g._memo[key] = (tuple(value), list) if isinstance(value, list) else (value, None)
        value, fresh = hit
        return fresh(value) if fresh else value

    return cached


def link(g, v):
    """Vertices adjacent to v."""
    if not g.has_vertex(v):
        raise MalformedInput(f"unknown vertex {v!r}")
    return set(g.neighbors[v])


def star(g, v):
    return link(g, v) | {v}


def components(nodes, neighbours):
    """Connected components of the graph on `nodes` that joins each node u
    to the members of `nodes` among neighbours[u].  Each component is a
    sorted tuple; roots are taken in sorted order, so the list is in lex
    order."""
    nodes = set(nodes)
    seen = set()
    out = []
    for root in sorted(nodes):
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for u in comp:
            for w in neighbours[u]:
                if w in nodes and w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(tuple(sorted(comp)))
    return out


@memoised
def complement_components(g, a):
    """Components of the graph minus the closed star of a, lex ordered."""
    return components(set(g.vertices) - star(g, a), g.neighbors)


@dataclass(frozen=True)
class PairClassification:
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


@memoised
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


@dataclass(frozen=True)
class SupportGraph:
    """Per-vertex graph: one node per component of the star complement of
    `owner`, an edge {K, L} whenever some b in K makes L a shared
    component for the pair (owner, b)."""

    owner: str
    nodes: tuple
    edges: tuple

    def is_discrete(self):
        return not self.edges


@memoised
def support_graph(g, a):
    nodes = complement_components(g, a)
    edges = set()
    for k in nodes:
        for b in k:
            shared = classify_pair(g, a, b).shared
            for l in shared:
                edges.add((min(k, l), max(k, l)))
    return SupportGraph(a, tuple(nodes), tuple(sorted(edges)))


@dataclass(frozen=True)
class ForestData:
    owner: str
    trees: tuple  # each tree is a sorted tuple of nodes


@dataclass(frozen=True)
class LoopWitness:
    owner: str
    nodes: tuple  # cycle K_1..K_n, consecutive (and wraparound) edges


def _adjacency(d):
    adj = {n: [] for n in d.nodes}
    for u, w in d.edges:
        adj[u].append(w)
        adj[w].append(u)
    for n in adj:
        adj[n].sort()
    return adj


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
                # non-tree edge: climb to the meeting point
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


def _canonical_cycle(nodes):
    """Rotate/reflect so the cycle starts at its least node and moves
    toward its lesser neighbor."""
    n = len(nodes)
    i = nodes.index(min(nodes))
    rotated = nodes[i:] + nodes[:i]
    forward = tuple(rotated)
    backward = tuple([rotated[0]] + list(reversed(rotated[1:])))
    return min(forward, backward)


def forest_certificate(d):
    """ForestData when the support graph is a forest, else a shortest
    LoopWitness (>= 3 distinct nodes, consecutive edges closing up)."""
    adj = _adjacency(d)
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


def support_components(d):
    """Connected components of a support graph, as sorted node tuples."""
    return tuple(components(d.nodes, _adjacency(d)))


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
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"bad graph JSON: {exc}") from exc
        return SimpleGraph.from_json(data)
    return SimpleGraph.from_text(text)
