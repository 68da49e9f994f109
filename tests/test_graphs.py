import sys
from types import MappingProxyType

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PlainGraph,
    atlas,
    atlas_up_to_six,
    is_sil_pair_by_links,
    least_shortest_cycle,
    link,
    neighbors,
    plain_classify_pair,
    plain_complement_components,
    plain_sil_rows,
    plain_support_graph,
    star,
    support_components,
)

from raagbns import cli
from raagbns.bns import has_sil, maximal_delta_psets
from raagbns.errors import CapExceeded, MalformedInput
from raagbns.graphs import (
    _BAD_CHARACTER,
    _JSON_START,
    ForestData,
    LoopWitness,
    SimpleGraph,
    SupportGraph,
    _split,
    center_rank,
    classify_pair,
    complement_components,
    forest_certificate,
    neighbour_masks,
    support_graph,
)


def edgeless(n):
    return SimpleGraph("abcdefgh"[:n], [])


def complete(n):
    vs = "abcdefgh"[:n]
    return SimpleGraph(vs, [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]])


def path(labels):
    return SimpleGraph(labels, list(zip(labels, labels[1:])))


def test_rejects_self_loop():
    with pytest.raises(MalformedInput):
        SimpleGraph("ab", [("a", "a")])


def test_rejects_unknown_endpoint():
    with pytest.raises(MalformedInput):
        SimpleGraph("ab", [("a", "c")])


def test_text_format():
    g = SimpleGraph.from_text("vertices: d\na b\nb c\n")
    assert sorted(g.vertices) == ["a", "b", "c", "d"]
    assert g.edges == frozenset({("a", "b"), ("b", "c")})


def test_json_round_trip():
    g = path("abc")
    assert SimpleGraph.from_json(g.to_json()) == g


@pytest.mark.parametrize("label", ["", "a b", "x,y", "a[", "b]", "p|q", "c{", "d}", "e;f", "g^2", "t\tu"])
def test_json_rejects_ambiguous_labels(label):
    with pytest.raises(MalformedInput, match="vertex label"):
        SimpleGraph.from_json({"vertices": ["a", label], "edges": []})


@pytest.mark.parametrize("label", ["x,y", "a[b]", "p|q", "{c}", "e;f", "g^2"])
def test_text_rejects_ambiguous_labels(label):
    with pytest.raises(MalformedInput, match="vertex label"):
        SimpleGraph.from_text(f"a {label}\n")


def test_constructor_keeps_symbol_labels():
    # presentation graphs are built from generator symbols directly
    g = SimpleGraph(["a[b|c]", "a{b;c}"], [("a[b|c]", "a{b;c}")])
    assert g.adjacent("a[b|c]", "a{b;c}")


def test_link_edgeless():
    assert link(edgeless(3), "a") == set()


def test_link_path_middle():
    assert link(path("abc"), "b") == {"a", "c"}


def test_link_complete():
    assert link(complete(4), "b") == {"a", "c", "d"}


def test_complement_components_edgeless():
    assert complement_components(edgeless(3), "a") == (("b",), ("c",))


def test_complement_components_complete():
    assert complement_components(complete(4), "a") == ()


def test_complement_components_path5():
    g = path("axbyc")
    assert complement_components(g, "a") == (("b", "c", "y"),)


def test_classify_pair_edgeless3():
    cls = classify_pair(edgeless(3), "a", "b")
    assert cls.dominating_a == ("b",)
    assert cls.dominating_b == ("a",)
    assert cls.shared == (("c",),)
    assert cls.subordinate_a == () and cls.subordinate_b == ()


def test_classify_pair_edgeless4():
    cls = classify_pair(edgeless(4), "a", "b")
    assert cls.shared == (("c",), ("d",))


def test_classify_pair_subordinate():
    # path c-v-a plus isolated b: {c} is a component of the a-side lying
    # strictly inside b's dominating component
    g = SimpleGraph("abcv", [("c", "v"), ("v", "a")])
    cls = classify_pair(g, "a", "b")
    assert cls.dominating_a == ("b",)
    assert cls.dominating_b == ("a", "c", "v")
    assert cls.subordinate_a == (("c",),)
    assert cls.shared == ()


def test_classify_pair_rejects_adjacent():
    with pytest.raises(ValueError):
        classify_pair(path("ab"), "a", "b")


def test_sil_pair_edgeless3():
    assert classify_pair(edgeless(3), "a", "b").shared == (("c",),)


def test_sil_pair_path():
    assert classify_pair(path("axb"), "a", "b").shared == ()
    assert not is_sil_pair_by_links(path("axb"), "a", "b")


def test_sil_pair_adjacent_false():
    assert not is_sil_pair_by_links(path("ab"), "a", "b")
    assert not is_sil_pair_by_links(path("ab"), "a", "a")
    assert support_graph(path("ab"), "a").edges == ()


def test_support_graph_edgeless3():
    d = support_graph(edgeless(3), "a")
    assert d.nodes == (("b",), ("c",))
    assert d.edges == ((("b",), ("c",)),)


def test_support_graph_edgeless4_triangle():
    d = support_graph(edgeless(4), "a")
    assert len(d.nodes) == 3
    assert len(d.edges) == 3


def test_support_graph_complete():
    d = support_graph(complete(4), "a")
    assert d.nodes == () and d.edges == ()


def test_forest_certificate_single_edge():
    d = support_graph(edgeless(3), "a")
    cert = forest_certificate(d)
    assert isinstance(cert, ForestData)
    assert cert.trees == ((("b",), ("c",)),)


def test_forest_certificate_triangle():
    d = support_graph(edgeless(4), "a")
    cert = forest_certificate(d)
    assert isinstance(cert, LoopWitness)
    assert len(cert.nodes) == 3
    assert len(set(cert.nodes)) == 3
    edge_set = set(d.edges)
    cyc = list(cert.nodes)
    for u, w in zip(cyc, cyc[1:] + cyc[:1]):
        assert (min(u, w), max(u, w)) in edge_set


def test_forest_certificate_empty():
    d = support_graph(complete(3), "a")
    assert forest_certificate(d) == ForestData("a", ())


# atlas graphs with one to seven vertices that are not forests
LOOP_GRAPHS = 1173


def test_forest_certificate_loop_is_the_least_shortest_cycle():
    # every atlas graph taken as a support graph, in three labellings
    cases = []
    for names in ("abcdefg", "gfedcba", "dagcfbe"):
        name = dict(zip("abcdefg", names))
        for g in atlas():
            edges = tuple(sorted(tuple(sorted((name[u], name[w]))) for u, w in g.edges))
            cases.append(SupportGraph("o", tuple(sorted(name[v] for v in g.vertices)), edges))
    # From every root here the first 4-cycle a BFS closes is not a-d-e-h
    # (from root a it is a-g-c-h), yet a-d-e-h is the least 4-cycle.
    edges = ("ad", "ag", "ah", "bd", "bf", "cg", "ch", "de", "ef", "eh")
    cases.append(SupportGraph("o", tuple("abcdefgh"), tuple(tuple(e) for e in edges)))
    loops = 0
    for d in cases:
        cert = forest_certificate(d)
        want = least_shortest_cycle(d)
        assert (cert.nodes if isinstance(cert, LoopWitness) else None) == want, d.edges
        loops += want is not None
    assert want == tuple("adeh") and loops == 3 * LOOP_GRAPHS + 1


def test_center_rank():
    assert center_rank(complete(4)) == 4
    assert center_rank(edgeless(3)) == 0
    g = SimpleGraph("cabd", [("c", "a"), ("c", "b"), ("c", "d")])
    assert center_rank(g) == 1


def graphs(min_n=2, max_n=6):
    def build(n, bits):
        vs = "abcdefgh"[:n]
        pairs = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]]
        edges = [p for k, p in enumerate(pairs) if bits & (1 << k)]
        return SimpleGraph(vs, edges)

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.integers(0, 2 ** (n * (n - 1) // 2) - 1).map(lambda b: build(n, b))
    )


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_partition_property(g):
    for a in g.vertices:
        pieces = complement_components(g, a)
        union = set().union(*map(set, pieces)) if pieces else set()
        assert union | star(g, a) == set(g.vertices)
        assert not union & star(g, a)
        assert sum(len(p) for p in pieces) == len(union)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_classification_cross_containment(g):
    for a in g.vertices:
        for b in g.vertices:
            if a == b or g.adjacent(a, b):
                continue
            cls = classify_pair(g, a, b)
            comps_a = set(complement_components(g, a))
            comps_b = set(complement_components(g, b))
            assert set((cls.dominating_a,)) | set(cls.subordinate_a) | set(cls.shared) == comps_a
            for s in cls.subordinate_a:
                assert set(s) <= set(cls.dominating_b)
            for s in cls.subordinate_b:
                assert set(s) <= set(cls.dominating_a)
            for s in cls.shared:
                assert s in comps_a and s in comps_b


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=150, deadline=None)
def test_sil_routes_agree(g):
    for a in g.vertices:
        for b in g.vertices:
            if a == b or g.adjacent(a, b):
                assert not is_sil_pair_by_links(g, a, b)
            else:
                assert bool(classify_pair(g, a, b).shared) == is_sil_pair_by_links(g, a, b)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_star_lemma(g):
    for a in g.vertices:
        d = support_graph(g, a)
        comp_of = {}
        for tree in support_components(d):
            for node in tree:
                comp_of[node] = tree
        for b in g.vertices:
            if a == b or g.adjacent(a, b):
                continue
            cls = classify_pair(g, a, b)
            dom = cls.dominating_a
            edge_set = set(d.edges)
            for s in cls.shared:
                assert comp_of[s] == comp_of[dom]
                assert (min(s, dom), max(s, dom)) in edge_set


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_no_sil_iff_all_support_graphs_discrete(g):
    sil = any(
        is_sil_pair_by_links(g, a, b) for a in g.vertices for b in g.vertices if a != b
    )
    all_discrete = all(not support_graph(g, a).edges for a in g.vertices)
    assert sil == (not all_discrete)
    assert has_sil(g) == sil


@given(graphs(min_n=0, max_n=8), st.data())
@settings(max_examples=200, deadline=None)
def test_components_match_networkx(g, data):
    nodes = data.draw(st.sets(st.sampled_from(sorted(g.vertices))) if g.vertices else st.just(set()))
    nxg = nx.Graph()
    nxg.add_nodes_from(g.vertices)
    nxg.add_edges_from(g.edges)
    expected = sorted(tuple(sorted(c)) for c in nx.connected_components(nxg.subgraph(nodes)))
    labels = sorted(g.vertices)
    s = sum(1 << labels.index(v) for v in nodes)
    assert [k for _, k in _split(labels, s, neighbour_masks(labels, g.edges))] == expected


def test_graph_functions_match_plain_bodies_on_atlas():
    graphs = atlas_up_to_six()
    assert len(graphs) == 208
    for g in graphs:
        for _ in range(2):  # the first read fills the cached tables, the second reads them
            assert g.sil_rows == plain_sil_rows(g), g.edges
            for a in g.vertices:
                assert complement_components(g, a) == plain_complement_components(g, a), (g.edges, a)
                assert support_graph(g, a) == plain_support_graph(g, a), (g.edges, a)
                for b in g.vertices:
                    if a != b and not g.adjacent(a, b):
                        assert classify_pair(g, a, b) == plain_classify_pair(g, a, b), (g.edges, a, b)


def mutable_parts(value):
    """The lists, dicts and sets anywhere inside a stored value:
    tuples (records among them), frozensets and read-only maps are
    walked."""
    if isinstance(value, (list, dict, set)):
        return [value]
    if isinstance(value, MappingProxyType):
        value = tuple(value.items())
    if isinstance(value, (tuple, frozenset)):
        return [part for item in value for part in mutable_parts(item)]
    return []


def test_memo_holds_only_immutable_values_after_corpus_checks(monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(10 ** 8))  # edgeless(6)'s choice tree is past the default
    for g in atlas_up_to_six():
        cli._corpus_checks(g)
        # the support edges are read only when some star complement has two or more components
        searched = any(len(comps) > 1 for comps in g.component_table.values())
        # the masks are a slot, built with the graph; no view of them is read
        tables = {"component_table", "sil_rows", "p-set", "delta-p-set"}
        assert set(vars(g)) == tables | ({"support_edges"} if searched else set())
        for key, value in [("masks", g.masks), *vars(g).items()]:
            assert not mutable_parts(value), (g.edges, key)


def test_equal_graphs_do_not_share_memo_entries():
    g1, g2 = edgeless(3), edgeless(3)
    assert g1 == g2 and g1 is not g2
    rows = g1.sil_rows
    assert rows and g1.sil_rows is rows
    assert vars(g2) == {}
    assert g2.sil_rows == rows
    assert g2.sil_rows is not rows


def test_sil_rows_read_masks_without_classify_pair_on_atlas(monkeypatch):
    def refuse(g, a, b):
        raise AssertionError("sil_rows called classify_pair")

    monkeypatch.setattr("raagbns.graphs.classify_pair", refuse)
    graphs = atlas()
    assert len(graphs) == 1252
    for g in graphs:
        assert g.sil_rows == plain_sil_rows(g), g.edges


def test_memo_keeps_no_failed_call():
    g = SimpleGraph("abc", [("a", "b")])
    for _ in range(2):
        with pytest.raises(ValueError):
            classify_pair(g, "a", "b")
        with pytest.raises(MalformedInput):
            complement_components(g, "z")
    assert vars(g) == {}
    # a cached table whose build raises stores nothing: b's bit has no mask
    trusted = SimpleGraph._trusted("ab", ("a", "b"), {1: 0})
    for _ in range(2):
        with pytest.raises(KeyError):
            trusted.component_table
    assert vars(trusted) == {}
    # a refused enumeration stores no Δ-p-sets, only the table it read
    with pytest.raises(CapExceeded):
        maximal_delta_psets(g, cap=1)
    assert set(vars(g)) == {"component_table"}


# --- intake: the masks built with the checks, against `PlainGraph`, the
# constructor that built neighbour sets first and the masks from the edges

def intake(cls, read, source):
    """The graph `cls` reads from `source` ("json", "text" or a
    (vertices, edges) pair for the constructor), or the refusal message."""
    try:
        if read == "json":
            return cls.from_json(source)
        if read == "text":
            return cls.from_text(source)
        return cls(*source)
    except MalformedInput as err:
        return f"refused: {err}"


def assert_same_intake(read, sources):
    """Both constructors read each source alike: the same refusal, or the
    same vertices, views, masks and JSON; and == and hash agree."""
    new = [intake(SimpleGraph, read, s) for s in sources]
    old = [intake(PlainGraph, read, s) for s in sources]
    for g, p, s in zip(new, old, sources):
        if isinstance(p, str):
            assert g == p, s
            continue
        assert g.vertices == p.vertices and g.edges == p.edges, s
        assert list(neighbors(g).items()) == list(p.neighbors.items()), s
        assert g.masks == p.masks and list(g.masks[1].items()) == list(p.masks[1].items()), s
        assert g.to_json() == p.to_json(), s
    read_ok = [(g, p) for g, p in zip(new, old) if not isinstance(p, str)]
    for g, p in read_ok:
        for h, q in read_ok:
            assert (g == h) == (p == q)
            assert g != h or hash(g) == hash(h)


POOL = ["a", "b", "c", "d", "ab", "é", "1"]
BAD_TEXT = ["", "a b", "x,y", "[", "^", "{", "p　q", ";", "z|"]
NON_STRINGS = [1, 0.5, True, None, ["a"], {"a": 1}]
JUNK_LABELS = st.sampled_from(POOL + BAD_TEXT + NON_STRINGS)


@st.composite
def graph_sources(draw):
    """A valid graph's JSON, with an equal copy (vertices and edges
    shuffled, endpoints swapped) and a copy less one edge; or one
    malformed document of any shape."""
    if draw(st.booleans()):
        vertices = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=6))
        pairs = [[u, w] for i, u in enumerate(vertices) for w in vertices[i + 1:]]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
        same = {
            "vertices": draw(st.permutations(vertices)),
            "edges": [e[::-1] if draw(st.booleans()) else e for e in draw(st.permutations(edges))],
        }
        less = {"vertices": vertices, "edges": [e for e in edges if e != edges[0]]} if edges else {"vertices": []}
        return [{"vertices": vertices, "edges": edges}, same, less]
    label = st.one_of(st.sampled_from(POOL), JUNK_LABELS)
    edge = st.lists(label, min_size=1, max_size=3)
    return [draw(st.one_of(
        st.fixed_dictionaries({"vertices": st.lists(label, max_size=6)}, optional={"edges": st.lists(edge, max_size=5)}),
        st.fixed_dictionaries({"vertices": label, "edges": st.lists(edge, max_size=2)}),
        st.fixed_dictionaries({"vertices": st.lists(label, max_size=3), "edges": label}),
        st.lists(label, max_size=3),
        label,
    ))]


def as_text(doc):
    """The edge-list text of a graph document whose labels are all strings."""
    lines = [f"# {len(doc['vertices'])} vertices", "vertices: " + " ".join(doc["vertices"])]
    return "\n".join(lines + [" ".join(e) for e in doc.get("edges", [])]) + "\n"


@settings(max_examples=400, deadline=None)
@given(graph_sources())
def test_intake_matches_the_plain_constructor_on_json(sources):
    assert_same_intake("json", sources)
    # the constructor takes what passes the JSON shape check, labels of any type
    shaped = [
        (s["vertices"], [tuple(e) for e in s.get("edges", [])])
        for s in sources
        if isinstance(s, dict) and isinstance(s.get("vertices"), list) and isinstance(s.get("edges", []), list)
        and all(isinstance(e, list) and len(e) == 2 for e in s.get("edges", []))
    ]
    assert_same_intake("constructor", shaped)


TOKENS = st.sampled_from(POOL + ["a,b", "x^", "{", "[c]", "#", "vertices:", "a b", " "])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=6).map("\n".join), st.lists(
    st.tuples(st.one_of(st.integers(0, 3), st.sampled_from(POOL)), st.one_of(st.integers(0, 3), st.sampled_from(POOL))),
    max_size=5,
))
def test_intake_matches_the_plain_constructor_on_text_and_mixed_labels(text, edges):
    assert_same_intake("text", [text, "vertices: " + text])
    # the constructor reads every label through str: 1 and "1" collide
    for vertices in ([0, 1, 2, 3], [0, 1, "1"], ["a", "b", "c", "d", "ab", "é", 0, 1]):
        assert_same_intake("constructor", [(vertices, edges)])


def test_intake_matches_the_plain_constructor_on_atlas():
    graphs = []
    for G in nx.graph_atlas_g()[1:1253]:
        names = dict(zip(sorted(G.nodes()), "gfedcba"[-len(G):]))  # vertices declared in reverse order
        doc = {"vertices": list(names.values()), "edges": [[names[u], names[w]] for u, w in G.edges()]}
        assert_same_intake("json", [doc])
        assert_same_intake("text", [as_text(doc)])
        graphs.append(SimpleGraph.from_json(doc))
        assert SimpleGraph.from_text(as_text(doc)) == graphs[-1]
    assert len(set(graphs)) == len(graphs) == 1252


def test_label_pattern_is_whitespace_or_a_reserved_character_on_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert _BAD_CHARACTER.findall(every) == [c for c in every if c.isspace() or c in ",[]|{};^"]
    # a file is read as JSON when its first character past whitespace is
    # "{", as when the file's text was stripped on the left to find it
    for tail in ("{", "x"):
        assert [c for c in every if _JSON_START.match(c + tail)] == [
            c for c in every if (c + tail).lstrip().startswith("{")
        ]


def test_views_are_read_only_and_built_when_first_read():
    g = SimpleGraph.from_text("vertices: d\nb a\nc b\n")
    assert vars(g) == {} and g.masks == (("a", "b", "c", "d"), {1: 2, 2: 5, 4: 2, 8: 0})
    assert g.to_json() == {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"]]}
    assert vars(g) == {}
    assert list(neighbors(g)) == ["d", "b", "a", "c"] and neighbors(g)["b"] == {"a", "c"}
    assert vars(g) == {}
    assert g.edges == {("a", "b"), ("b", "c")} and set(vars(g)) == {"edges"}
    with pytest.raises(TypeError):
        g.masks[1][8] = 1
    assert center_rank(g) == 0 and center_rank(SimpleGraph.from_text("a b\nb c\n")) == 1
    assert g.adjacent("c", "b") and not g.adjacent("a", "c") and not g.adjacent("a", "z")
    assert g.has_vertex("d") and not g.has_vertex("e") and repr(g) == "SimpleGraph(4 vertices, 2 edges)"
