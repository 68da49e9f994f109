from collections import Counter
from functools import cache

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    atlas,
    atlas_up_to_six,
    automorphism_table,
    dictionary_matrices,
    full_relators_killed,
    is_inner_bounded,
    plain_psa_presentation,
    plain_standard_generators,
    raag_presentation,
    support_components,
)

from raagbns import presentations
from raagbns.errors import InvariantViolation, MalformedInput
from raagbns.graphs import SimpleGraph, support_graph
from raagbns.linalg import QMatrix
from raagbns.presentations import (
    EdgeGen,
    NotAForest,
    ObstructionVerdict,
    RaagVerdict,
    TreeGen,
    classify_pso,
    generator_dictionary,
    presentation_graph,
    psa_presentation,
    pso_presentation,
    verify_relators_killed,
)
from raagbns.words import inverse, standard_generators


def edgeless(n):
    return SimpleGraph("abcde"[:n], [])


def complete(n):
    vs = "abcde"[:n]
    return SimpleGraph(vs, [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]])


F3, F4 = edgeless(3), edgeless(4)
PATH3 = SimpleGraph("axb", [("a", "x"), ("x", "b")])
PATH5 = SimpleGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
STAR3 = SimpleGraph("abcx", [("a", "x"), ("b", "x"), ("c", "x")])
K33 = SimpleGraph("abcxyz", [(u, w) for u in "abc" for w in "xyz"])


def gen(a, *comp):
    return (a, tuple(sorted(comp)))


def test_psa_f3_relator_census():
    p = psa_presentation(F3)
    assert len(p.generators) == 6
    assert p.kind == "psa"
    by_len = Counter(len(r) for r in p.relators)
    # same-multiplier commutators for each vertex, one SIL relator per
    # ordered nonadjacent pair
    assert by_len == {4: 3, 6: 6}
    assert (
        (gen("a", "b"), 1), (gen("a", "c"), 1), (gen("b", "c"), 1),
        (gen("a", "c"), -1), (gen("a", "b"), -1), (gen("b", "c"), -1),
    ) in p.relators


def test_psa_complete_empty():
    p = psa_presentation(complete(4))
    assert p.generators == ()
    assert p.relators == ()


def test_psa_no_sil_graph_has_only_commutators():
    for g in (PATH3, PATH5):
        p = psa_presentation(g)
        assert all(len(r) == 4 for r in p.relators)


def test_pso_f3_adds_three_product_relators():
    p = pso_presentation(F3)
    assert p.kind == "pso"
    extras = [r for r in p.relators if r not in psa_presentation(F3).relators]
    assert extras == [
        ((gen("a", "b"), 1), (gen("a", "c"), 1)),
        ((gen("b", "a"), 1), (gen("b", "c"), 1)),
        ((gen("c", "a"), 1), (gen("c", "b"), 1)),
    ]


def test_pso_path_product_relators_skip_the_star_vertex():
    p = pso_presentation(PATH3)
    products = [r for r in p.relators if len(r) != 4]
    # the middle vertex dominates the whole graph, so it owns no generators
    assert products == [((gen("a", "b"), 1),), ((gen("b", "a"), 1),)]


def test_pso_presentation_validates_each_relator_once(monkeypatch):
    # the PSA relators and R5 go into one presentation, checked once
    built = []
    real = presentations.checked_presentation
    monkeypatch.setattr(presentations, "checked_presentation", lambda gens, rels, kind: built.append(kind) or real(gens, rels, kind))
    pso_presentation(F3)
    assert built == ["pso"]


def test_an_r5_relator_with_an_undeclared_generator_is_refused(monkeypatch):
    # planted fault: edgeless(2) has no PSA relators, so with its last
    # generator left undeclared only an R5 relator names it
    real = presentations.standard_generators
    monkeypatch.setattr(presentations, "standard_generators", lambda g: real(g)[:-1])
    assert psa_presentation(edgeless(2)).relators == ()
    with pytest.raises(InvariantViolation, match="relator uses undeclared generator"):
        pso_presentation(edgeless(2))


def test_a_relator_exponent_of_two_is_refused():
    # planted fault: one letter of a real PSA relator squared
    p = psa_presentation(F3)
    (sym, _), *rest = p.relators[0]
    relators = (((sym, 2), *rest),) + p.relators[1:]
    with pytest.raises(InvariantViolation) as err:
        presentations.checked_presentation(p.generators, relators, "psa")
    assert str(err.value) == "relator exponents must be +1 or -1"


def test_oracle_presentations_are_checked(monkeypatch):
    # planted fault: the oracles' commutator squares its first letter, so
    # both oracle builds go through the same relator check as src/
    monkeypatch.setattr(oracles, "_commutator", lambda x, y: ((x, 2), (y, 1), (x, -1), (y, -1)))
    for build, g in ((raag_presentation, PATH3), (plain_psa_presentation, F3)):
        with pytest.raises(InvariantViolation) as err:
            build(g)
        assert str(err.value) == "relator exponents must be +1 or -1"


def test_raag_presentation():
    p = raag_presentation(PATH3)
    assert p.kind == "raag"
    assert p.generators == ("a", "x", "b")
    assert len(p.relators) == 2


def test_presentation_graph_f3():
    th = presentation_graph(F3)
    assert th.tree_gens == ()
    assert [r.symbol for r in th.edge_gens] == ["a[b|c]", "b[a|c]", "c[a|b]"]
    assert th.graph.edges == frozenset()
    assert th.preferred == (("a", ("b",)), ("b", ("a",)), ("c", ("a",)))


def test_presentation_graph_f4_raises():
    with pytest.raises(NotAForest) as info:
        presentation_graph(F4)
    assert info.value.owner == "a"
    assert info.value.loop.nodes == (("b",), ("c",), ("d",))


def test_presentation_graph_path5():
    th = presentation_graph(PATH5)
    assert th.edge_gens == ()
    assert [r.symbol for r in th.tree_gens] == ["c{e}"]
    assert th.graph.vertices == ("c{e}",)
    assert ("c", (("a",),), ("a",)) in th.basepoints


def test_presentation_graph_complete():
    th = presentation_graph(complete(3))
    assert th.graph.vertices == ()
    assert th.records() == ()


def test_basepoint_override_swaps_psi_cases():
    default = generator_dictionary(F3, presentation_graph(F3))
    assert dict(default.from_standard)[gen("a", "b")] == (("a[b|c]", -1),)
    assert dict(default.from_standard)[gen("a", "c")] == (("a[b|c]", 1),)
    th = presentation_graph(F3, {"a": [("c",)]})
    moved = generator_dictionary(F3, th)
    assert dict(moved.from_standard)[gen("a", "c")] == (("a[b|c]", -1),)
    assert dict(moved.from_standard)[gen("a", "b")] == (("a[b|c]", 1),)
    assert dict(moved.to_standard)["a[b|c]"] == ((gen("a", "b"), 1),)


def test_basepoint_override_rejects_strangers():
    with pytest.raises(MalformedInput):
        presentation_graph(F3, {"a": [("a",)]})
    with pytest.raises(MalformedInput):
        presentation_graph(F3, {"a": [("b",), ("c",)]})


@pytest.mark.parametrize("nodes", [["e"], {"e": 0}, "e", [[1]]])
def test_basepoint_nodes_must_be_lists_of_vertices(nodes):
    # a bare string, or a dict's keys, used to be read as the node ("e",)
    with pytest.raises(MalformedInput, match="basepoint nodes must be lists of vertices"):
        presentation_graph(SimpleGraph("abe", []), {"a": nodes})


def test_dictionary_f3():
    th = presentation_graph(F3)
    d = generator_dictionary(F3, th)
    assert dict(d.to_standard)["a[b|c]"] == ((gen("a", "c"), 1),)
    to_standard_matrix, from_standard_matrix = dictionary_matrices(F3, th, d)
    assert from_standard_matrix.mul(to_standard_matrix) == QMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_dictionary_empty_theta():
    path4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    th = presentation_graph(path4)
    assert th.records() == ()
    d = generator_dictionary(path4, th)
    assert all(word == () for _, word in d.from_standard)
    assert verify_relators_killed(path4, th, d)


def test_psi_multiplier_columns_sum_to_zero():
    for g in (F3, PATH5, STAR3, K33):
        th = presentation_graph(g)
        d = generator_dictionary(g, th)
        gens = standard_generators(g)
        _, from_standard_matrix = dictionary_matrices(g, th, d)
        for a in sorted(g.vertices):
            cols = [j for j, x in enumerate(gens) if x[0] == a]
            if not cols:
                continue
            for row in from_standard_matrix.entries:
                assert sum(row[j] for j in cols) == 0


def test_verify_relators_killed_corpus():
    for g in (F3, PATH3, PATH5, STAR3, K33, complete(4)):
        th = presentation_graph(g)
        d = generator_dictionary(g, th)
        assert verify_relators_killed(g, th, d)


def test_corrupted_dictionary_fails_verification():
    th = presentation_graph(F3)
    d = generator_dictionary(F3, th)
    rows = list(d.from_standard)
    target, word = rows[0]
    rows[0] = (target, tuple((sym, -exp) for sym, exp in word))
    bad = d._replace(from_standard=tuple(rows))
    assert not verify_relators_killed(F3, th, bad)


@cache
def forest_atlas():
    """(g, th, d) for each atlas graph on the forest side."""
    out = []
    for g in atlas():
        try:
            th = presentation_graph(g)
        except NotAForest:
            continue
        out.append((g, th, generator_dictionary(g, th)))
    return out


def holds_live_letters(relator, live):
    """A commutator [x, y] needs both x and y live to be formed; an R4 or
    R5 relator needs one live letter."""
    letters = [x for x, _ in relator]
    if len(relator) == 4 and relator[2][1] == -1:
        return letters[0] in live and letters[1] in live
    return any(x in live for x in letters)


def test_relator_check_forms_the_live_relators_and_matches_the_oracle_on_atlas(monkeypatch):
    # the relators formed are the outer presentation's relators that hold
    # live letters, in its order, and the verdict is the full oracle's
    assert len(forest_atlas()) == 1016
    formed = []
    real = presentations.checked_presentation
    monkeypatch.setattr(presentations, "checked_presentation", lambda gens, rels, kind: formed.append(rels) or real(gens, rels, kind))
    skipped = 0
    for g, th, d in forest_atlas():
        full = pso_presentation(g).relators
        formed.clear()
        assert verify_relators_killed(g, th, d) is True, g.edges
        live = {gen for gen, word in d.from_standard if word}
        expected = tuple(r for r in full if holds_live_letters(r, live))
        assert formed == ([expected] if live else []), g.edges
        skipped += len(full) - len(expected)
        assert full_relators_killed(g, th, d) is True, g.edges
    assert skipped > 0


def planted_fault(data, th, word):
    """One fault in a dictionary word: a letter dropped, inverted or
    doubled, or the whole word inverted, doubled or emptied; an empty
    word, a dead generator's, gets a non-empty word over the symbols."""
    if not word:
        letters = st.tuples(st.sampled_from(th.graph.vertices), st.sampled_from((1, -1)))
        return tuple(data.draw(st.lists(letters, min_size=1, max_size=3)))
    i = data.draw(st.integers(0, len(word) - 1))
    sym, exp = word[i]
    return data.draw(st.sampled_from((
        word[:i] + word[i + 1:],
        word[:i] + ((sym, -exp),) + word[i + 1:],
        word[:i + 1] + word[i:],
        inverse(word),
        word + word,
        (),
    )))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_relator_check_matches_the_oracle_on_planted_faults(data):
    graphs = [(g, th, d) for g, th, d in forest_atlas() if th.records()]
    g, th, d = graphs[data.draw(st.integers(0, len(graphs) - 1))]
    rows = d.from_standard
    i = data.draw(st.integers(0, len(rows) - 1))
    broken = d._replace(from_standard=rows[:i] + ((rows[i][0], planted_fault(data, th, rows[i][1])),) + rows[i + 1:])
    assert verify_relators_killed(g, th, broken) == full_relators_killed(g, th, broken)


def test_an_empty_defining_graph_forms_and_reduces_no_relator(monkeypatch):
    # every dictionary image is the empty word, so no generator is live
    # and the outer presentation is not built
    k5_less_an_edge = SimpleGraph("abcde", [e for e in complete(5).edges if e != ("a", "b")])
    graphs = (k5_less_an_edge, SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")]), PATH3, complete(4))
    assert all(pso_presentation(g).relators for g in graphs[:3])
    cases = [(g, presentation_graph(g)) for g in graphs]

    def refuse(*args):
        raise AssertionError("a relator was formed or reduced")

    for name in ("reduce", "checked_presentation", "_commutators", "_r4", "_r5"):
        monkeypatch.setattr(presentations, name, refuse)
    for g, th in cases:
        assert th.graph.vertices == ()
        assert verify_relators_killed(g, th, generator_dictionary(g, th))


def _single_letter_corruptions(word):
    """The word with one letter dropped, inverted or doubled."""
    for i, (sym, exp) in enumerate(word):
        yield word[:i] + word[i + 1:]
        yield word[:i] + ((sym, -exp),) + word[i + 1:]
        yield word[:i + 1] + word[i:]


def test_round_trip_check_catches_every_single_letter_corruption():
    corrupted = 0
    for g in (F3, K33, PATH5):
        d = generator_dictionary(g, presentation_graph(g))
        gens = standard_generators(g)
        for field in ("to_standard", "from_standard"):
            rows = getattr(d, field)
            for i, (key, word) in enumerate(rows):
                for bad in _single_letter_corruptions(word):
                    broken = rows[:i] + ((key, bad),) + rows[i + 1:]
                    with pytest.raises(InvariantViolation, match="round trip"):
                        presentations._check_round_trips(gens, d._replace(**{field: broken}))
                    corrupted += 1
    assert corrupted == 3 * 30  # three corruptions of each of the 30 letters


def test_round_trip_check_counts_an_untouched_generator_as_zero():
    # b's star complement is {a}, {e}, {f}.  The preferred basepoint's
    # generator x is in no symbol's word, so appending y's word to x's row
    # leaves the symbol side whole; on the standard side x's sums over
    # b's generators read -1 where the row reaches them and 0 at y, which
    # the row no longer touches
    g = SimpleGraph("abcdef", [("a", "c"), ("b", "c"), ("b", "d"), ("d", "f")])
    th = presentation_graph(g)
    d = generator_dictionary(g, th)
    gens = standard_generators(g)
    x = ("b", dict(th.preferred)["b"])
    y = next(gen for gen in gens if gen[0] == "b" and gen != x)
    psi = dict(d.from_standard)
    rows = tuple((gen, word + psi[y] if gen == x else word) for gen, word in d.from_standard)
    back = presentations._composed_sums(dict(rows)[x], dict(d.to_standard))
    back[x] -= 1
    assert len([gen for gen in gens if gen[0] == "b"]) == 3
    assert {gen: v for gen, v in back.items() if gen[0] == "b" and v} == {
        gen: -1 for gen in gens if gen[0] == "b" and gen != y
    }
    assert all(gen != x for _, word in d.to_standard for gen, _ in word)
    with pytest.raises(InvariantViolation, match="round trip on standard generators"):
        presentations._check_round_trips(gens, d._replace(from_standard=rows))


def test_round_trip_check_catches_an_unreachable_symbol():
    # the standard side still round-trips; only symbols -> standard ->
    # symbols sees a symbol whose image does not come back
    d = generator_dictionary(F3, presentation_graph(F3))
    extra = d._replace(to_standard=d.to_standard + (("z[a|b]", ()),))
    with pytest.raises(InvariantViolation, match="round trip on symbols"):
        presentations._check_round_trips(standard_generators(F3), extra)


def test_round_trip_single_letters():
    # feeding a symbol through both tables lands back on the
    # same symbol once reduced in the graphical group
    for g in (F3, PATH5, STAR3, K33):
        th = presentation_graph(g)
        d = generator_dictionary(g, th)
        psi = dict(d.from_standard)
        from raagbns.words import reduce

        for sym, word in d.to_standard:
            image = []
            for x, exp in word:
                part = psi[x]
                image.extend(part if exp == 1 else inverse(part))
            assert reduce(th.graph, tuple(image)) == ((sym, 1),)


def test_edge_far_and_near_sides_partition_the_tree():
    for g in (F3, STAR3, K33):
        th = presentation_graph(g)
        phi = dict(generator_dictionary(g, th).to_standard)
        for r in th.edge_gens:
            far = tuple(k for (_, k), _ in phi[r.symbol])
            tree, base = next((t, n) for a, t, n in th.basepoints if a == r.owner and r.edge[0] in t)
            near = tuple(n for n in tree if n not in far)
            assert sorted(far + near) == list(tree)
            assert (r.edge[0] in far) != (r.edge[1] in far) and base in near


def test_tree_generator_words_are_central():
    # word-level: the commutator of a whole-subtree product with any
    # standard generator is a bounded conjugation
    for g in (F3, PATH3, STAR3, PATH5):
        gens = standard_generators(g)
        for a in sorted(g.vertices):
            for tree in support_components(support_graph(g, a)):
                zeta = [((a, k), 1) for k in tree]
                for other in gens:
                    moves = (
                        zeta + [(other, 1)]
                        + [(m, -e) for m, e in reversed(zeta)]
                        + [(other, -1)]
                    )
                    table = automorphism_table(g, moves)
                    assert is_inner_bounded(g, table, 4) is not None


def test_edge_generator_commutators_match_adjacency():
    # word-level: adjacent edge generators commute up to a bounded inner
    # factor, and the excluded pairs are genuinely nontrivial
    for g in (F3, STAR3):
        th = presentation_graph(g)
        d = generator_dictionary(g, th)
        phi = dict(d.to_standard)
        recs = list(th.edge_gens)
        for i, x in enumerate(recs):
            for y in recs[i + 1:]:
                u, w = phi[x.symbol], phi[y.symbol]
                moves = (
                    list(u) + list(w)
                    + [(m, -e) for m, e in reversed(u)]
                    + [(m, -e) for m, e in reversed(w)]
                )
                table = automorphism_table(g, moves)
                inner = is_inner_bounded(g, table, 4)
                if th.graph.adjacent(x.symbol, y.symbol):
                    assert inner is not None
                else:
                    assert inner is None


def test_classify_f3():
    verdict = classify_pso(F3)
    assert isinstance(verdict, RaagVerdict)
    assert len(verdict.presentation_graph.graph.vertices) == 3
    assert verdict.presentation_graph.graph.edges == frozenset()
    assert verdict.center_rank == 0


def test_classify_f4():
    verdict = classify_pso(F4)
    assert isinstance(verdict, ObstructionVerdict)
    assert verdict.owner == "a"
    assert verdict.loop.nodes == (("b",), ("c",), ("d",))
    assert verdict.homology_witness.pairing_value == 1


def test_classify_complete():
    verdict = classify_pso(complete(4))
    assert isinstance(verdict, RaagVerdict)
    assert verdict.presentation_graph.graph.vertices == ()
    assert verdict.center_rank == 0


def test_classify_path5():
    verdict = classify_pso(PATH5)
    assert isinstance(verdict, RaagVerdict)
    assert verdict.center_rank == 1
    assert [r.symbol for r in verdict.presentation_graph.tree_gens] == ["c{e}"]


def test_k33_defining_graph_is_k33_again():
    th = presentation_graph(K33)
    assert len(th.edge_gens) == 6
    assert th.tree_gens == ()
    missing = {
        frozenset(pair)
        for pair in [
            ("a[b|c]", "b[a|c]"), ("a[b|c]", "c[a|b]"), ("b[a|c]", "c[a|b]"),
            ("x[y|z]", "y[x|z]"), ("x[y|z]", "z[x|y]"), ("y[x|z]", "z[x|y]"),
        ]
    }
    for i, u in enumerate(th.graph.vertices):
        for w in th.graph.vertices[i + 1:]:
            assert th.graph.adjacent(u, w) == (frozenset((u, w)) not in missing)


def test_presentation_inputs_match_plain_bodies_on_atlas():
    graphs = atlas()
    assert len(graphs) == 1252
    for g in graphs:
        for _ in range(2):  # the first read fills the cached tables, the second reads them
            assert standard_generators(g) == plain_standard_generators(g), g.edges
            assert psa_presentation(g) == plain_psa_presentation(g), g.edges


def test_generators_that_print_alike_are_refused():
    # the constructor takes labels with reserved characters, so z's
    # components ("p", "q") and ("p,q",) both print as "p,q"
    g = SimpleGraph(["p", "p,q", "q", "v", "x", "y", "z"], [("p", "q"), ("p", "v"), ("p,q", "y"), ("v", "z"), ("y", "z")])
    with pytest.raises(MalformedInput, match="duplicate vertex labels"):
        presentation_graph(g)


def test_equal_graphs_do_not_share_presentations():
    g1, g2 = edgeless(3), edgeless(3)
    gens = standard_generators(g1)
    assert "component_table" in vars(g1) and vars(g2) == {}
    assert standard_generators(g2) == gens
    assert g2.component_table is not g1.component_table


def test_trusted_defining_graph_builds_its_own_tables():
    g = edgeless(3)
    d = presentation_graph(g).graph
    assert vars(d) == {}
    plain = SimpleGraph(d.vertices, d.edges)
    assert d.component_table == plain.component_table and d.sil_rows == plain.sil_rows
    assert d.sil_rows and d.component_table is not g.component_table
    assert set(vars(d)) == {"masks", "component_table", "sil_rows"}
