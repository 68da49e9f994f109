import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    _commuting_schema,
    apply_partial_conjugation,
    atlas_up_to_six,
    automorphism_table,
    closure_normal_form,
    commutator_class_out,
    commutator_moves,
    commutator_trivial_in_aut,
    enumerate_reduced_words,
    is_inner_bounded,
    per_word_closure_normal_form,
    plain_parse_word,
    rewriting_closure,
    shuffle_normal_form,
    stack_normal_form,
    word_eq,
)
from test_acceptance import K33, atlas_graphs, cycle
from test_presentations import parted_symbols

from raagbns import presentations, words
from raagbns.errors import CapExceeded, MalformedInput
from raagbns.graphs import SimpleGraph
from raagbns.presentations import NotAForest, generator_dictionary, presentation_graph, verify_relators_killed
from raagbns.words import format_word, inverse, parse_word, reduce, standard_generators

FREE2 = SimpleGraph("ab", [])
FREE3 = SimpleGraph("abc", [])
FREE4 = SimpleGraph("abcd", [])
EDGE = SimpleGraph("ab", [("a", "b")])
PATH3 = SimpleGraph("axb", [("a", "x"), ("x", "b")])


def w(text, g=FREE3):
    return parse_word(g, text)


def test_reduce_cancels_inverse_pair():
    assert reduce(FREE2, w("a a^-1", FREE2)) == ()


def test_reduce_commuting_conjugate():
    assert reduce(EDGE, parse_word(EDGE, "a b a^-1")) == (("b", 1),)


def test_reduce_free_conjugate_stays():
    assert len(reduce(FREE2, parse_word(FREE2, "a b a^-1"))) == 3


def test_reduce_lex_shuffles():
    assert reduce(EDGE, parse_word(EDGE, "b a")) == (("a", 1), ("b", 1))


def test_word_eq_commutator():
    com = parse_word(EDGE, "a b a^-1 b^-1")
    assert word_eq(EDGE, com, ())
    assert not word_eq(FREE2, parse_word(FREE2, "a b a^-1 b^-1"), ())


def test_parse_format_round_trip():
    word = w("a b^-1 c a^-1")
    assert parse_word(FREE3, format_word(word)) == word
    assert format_word(()) == "1"


def test_apply_conjugates_component():
    out = apply_partial_conjugation(FREE3, ("a", ("b",)), ((("b", 1)),))
    assert out == w("a b a^-1")


def test_apply_fixes_rest():
    assert apply_partial_conjugation(FREE3, ("a", ("b",)), w("c")) == w("c")


def test_apply_union_is_composite():
    union = ("a", ("b", "c"))
    singles = [(("a", ("b",)), 1), (("a", ("c",)), 1)]
    for word in (w("b c"), w("b a c^-1"), w("c b a")):
        assert apply_partial_conjugation(FREE3, union, word) == apply_partial_conjugation(
            FREE3, singles, word
        )


def test_apply_inverse_round_trip():
    p = ("a", ("b",))
    word = w("b c b^-1 a")
    forward = apply_partial_conjugation(FREE3, [(p, 1)], word)
    assert apply_partial_conjugation(FREE3, [(p, -1)], forward) == reduce(FREE3, word)


def test_commutator_dom_dom_nontrivial():
    p, q = ("a", ("b",)), ("b", ("a",))
    assert not commutator_trivial_in_aut(FREE3, p, q)
    assert not _commuting_schema(FREE3, p, q)
    assert commutator_class_out(FREE3, p, q) == "nontrivial"


def test_commutator_subordinate_trivial():
    # path c-v-a plus isolated b: {c} is subordinate for (a,b)
    g = SimpleGraph("abcv", [("c", "v"), ("v", "a")])
    p, q = ("a", ("c",)), ("b", ("a", "c", "v"))
    assert commutator_trivial_in_aut(g, p, q)
    assert _commuting_schema(g, p, q)
    assert commutator_class_out(g, p, q) == "trivial"


def test_commutator_distinct_shared_trivial():
    p, q = ("a", ("c",)), ("b", ("d",))
    assert commutator_trivial_in_aut(FREE4, p, q)
    assert commutator_class_out(FREE4, p, q) == "trivial"


def test_commutator_dom_dom_no_sil_out_trivial():
    p, q = ("a", ("b",)), ("b", ("a",))
    assert not _commuting_schema(PATH3, p, q)
    assert commutator_class_out(PATH3, p, q) == "trivial"


def test_commutator_adjacent_trivial():
    g = SimpleGraph("abc", [("a", "b")])
    p, q = ("a", ("c",)), ("b", ("c",))
    assert commutator_trivial_in_aut(g, p, q)
    assert commutator_class_out(g, p, q) == "trivial"


def test_is_inner_identity():
    table = {v: ((v, 1),) for v in FREE3.vertices}
    assert is_inner_bounded(FREE3, table, 2) == ()


def test_is_inner_global_conjugation():
    table = {v: reduce(FREE3, w(f"a {v} a^-1")) for v in FREE3.vertices}
    assert is_inner_bounded(FREE3, table, 2) == (("a", 1),)


def test_sil_commutator_not_inner_within_six():
    p, q = ("a", ("b",)), ("b", ("a",))
    table = automorphism_table(FREE3, commutator_moves(p, q))
    assert is_inner_bounded(FREE3, table, 6) is None


def test_enumerate_reduced_words_counts():
    # free group on two letters: 1 + 4 + 4*3 = 17 elements up to length 2
    assert sum(1 for _ in enumerate_reduced_words(FREE2, 2)) == 17
    # rank-2 free abelian: 1 + 4 + (4*3 - 2*2)/... count distinct normal forms directly
    both = SimpleGraph("ab", [("a", "b")])
    forms = set(enumerate_reduced_words(both, 2))
    assert len(forms) == len({reduce(both, word) for word in forms})


def test_standard_generators_order():
    gens = standard_generators(FREE3)
    assert gens == (
        ("a", ("b",)),
        ("a", ("c",)),
        ("b", ("a",)),
        ("b", ("c",)),
        ("c", ("a",)),
        ("c", ("b",)),
    )


THREE_VERTEX_GRAPHS = [
    SimpleGraph("abc", edges)
    for edges in ([], [("a", "b")], [("a", "b"), ("b", "c")],
                  [("a", "b"), ("b", "c"), ("a", "c")])
]


def test_normal_form_matches_closure_short_words():
    for g in THREE_VERTEX_GRAPHS:
        letters = sorted((v, e) for v in g.vertices for e in (1, -1))
        for length in range(5):
            for word in itertools.product(letters, repeat=length):
                closure = rewriting_closure(g, word)
                nf = reduce(g, word)
                assert nf in closure
                assert len(nf) == min(len(x) for x in closure)
                assert nf == closure_normal_form(g, word)


def random_graph_and_word(max_n=4, max_len=8):
    def build(n):
        vs = "abcd"[:n]
        pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
        graph = st.integers(0, 2 ** len(pairs) - 1).map(
            lambda bits: SimpleGraph(vs, [p for k, p in enumerate(pairs) if bits & (1 << k)])
        )
        letter = st.tuples(st.sampled_from(vs), st.sampled_from([1, -1]))
        return st.tuples(graph, st.lists(letter, max_size=max_len).map(tuple))

    return st.integers(2, max_n).flatmap(build)


def test_labelled_closure_oracle_matches_per_word_oracle_on_criterion_9_samples():
    # the 2,250 sampled length-7/8 words of criterion 9, drawn the same way;
    # one random member of each closure is asked too, so answers that
    # were labelled while another word's closure was built are checked
    rng = random.Random(99)
    member_rng = random.Random(7)
    sampled = 0
    for g in atlas_graphs():
        if len(g.vertices) not in (3, 4):
            continue
        letters = [(v, e) for v in g.vertices for e in (1, -1)]
        for _ in range(150):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(7, 8)))
            assert closure_normal_form(g, w) == per_word_closure_normal_form(g, w), (g.edges, w)
            member = member_rng.choice(sorted(rewriting_closure(g, w)))
            assert closure_normal_form(g, member) == per_word_closure_normal_form(g, member), (g.edges, member)
            sampled += 1
    assert sampled == 2250


@given(random_graph_and_word())
@settings(max_examples=150, deadline=None)
def test_normal_form_matches_closure_random(gw):
    g, word = gw
    assert reduce(g, word) == closure_normal_form(g, word)


@given(random_graph_and_word())
@settings(max_examples=100, deadline=None)
def test_reduce_idempotent(gw):
    g, word = gw
    nf = reduce(g, word)
    assert reduce(g, nf) == nf


@given(random_graph_and_word())
@settings(max_examples=100, deadline=None)
def test_inverse_concatenation_reduces_to_empty(gw):
    g, word = gw
    assert reduce(g, word + inverse(word)) == ()


@st.composite
def planted_graph_and_word(draw, max_n=8, max_len=80):
    """A graph on up to max_n vertices and a signed word of up to max_len
    letters, with inverse pairs planted a few letters apart as in the
    word-reduce benchmark, so that the cancellation pass has work to do."""
    n = draw(st.integers(1, max_n))
    vs = "abcdefgh"[:n]
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    letter = st.tuples(st.sampled_from(vs), st.sampled_from([1, -1]))
    letters = draw(st.lists(letter, max_size=max_len))
    for _ in range(draw(st.integers(0, (max_len - len(letters)) // 2))):
        i = draw(st.integers(0, len(letters)))
        j = min(len(letters) + 1, i + draw(st.integers(1, 4)))
        v, e = draw(letter)
        letters.insert(i, (v, e))
        letters.insert(j, (v, -e))
    return SimpleGraph(vs, edges), tuple(letters)


@given(planted_graph_and_word())
@settings(max_examples=400, deadline=None)
def test_reduce_matches_shuffle_oracle(gw):
    g, word = gw
    assert reduce(g, word) == shuffle_normal_form(g, word)


@given(planted_graph_and_word())
@settings(max_examples=400, deadline=None)
def test_reduce_matches_stack_oracle(gw):
    g, word = gw
    assert reduce(g, word) == stack_normal_form(g, word)


def induced(g, vertices):
    return SimpleGraph(sorted(vertices), [e for e in g.edges if set(e) <= vertices])


@given(planted_graph_and_word())
@settings(max_examples=200, deadline=None)
def test_reduce_reads_only_the_vertices_of_the_word(gw):
    g, word = gw
    assert reduce(g, word) == reduce(induced(g, {v for v, _ in word}), word)


def adversarial(k):
    """v u^k (v^-1 v)^k on the edge u-v: a cancellation pass that scans
    back letter by letter crosses the whole commuting run u^k for every
    letter of the tail."""
    return (("v", 1),) + (("u", 1),) * k + (("v", -1), ("v", 1)) * k


def buried_inverses(k):
    """v u^k v^-1 u^-k w: no two neighbouring letters cancel, so the
    cancellations happen across the commuting run u^k."""
    return (("v", 1),) + (("u", 1),) * k + (("v", -1),) + (("u", -1),) * k + (("w", 1),)


EDGE_UVW = SimpleGraph("uvw", [("u", "v")])


def test_adversarial_families_match_shuffle_oracle():
    for k in (0, 1, 2, 3, 10, 50, 300):
        for word in (adversarial(k), buried_inverses(k)):
            assert reduce(EDGE_UVW, word) == shuffle_normal_form(EDGE_UVW, word), k
            assert reduce(EDGE_UVW, word) == stack_normal_form(EDGE_UVW, word), k


def test_relator_images_match_stack_oracle(monkeypatch):
    # every word verify_relators_killed reduces, on each forest-side graph
    # of the atlas up to six vertices with a dictionary letter replaced by
    # a symbol parted from it, so that the masks cannot decide a relator
    images = []

    def recording(g, word):
        images.append((g, word))
        return reduce(g, word)

    monkeypatch.setattr(presentations, "reduce", recording)
    faults = 0
    for g in atlas_up_to_six():
        try:
            th = presentation_graph(g)
        except NotAForest:
            continue
        d = generator_dictionary(g, th)
        rows = d.from_standard
        i, (gen, word) = next(((i, row) for i, row in enumerate(rows) if row[1]), (None, (None, ())))
        for t in parted_symbols(th, word[0][0]) if word else ():
            broken = rows[:i] + ((gen, ((t, word[0][1]),) + word[1:]),) + rows[i + 1:]
            verify_relators_killed(g, th, d._replace(from_standard=broken))
            faults += 1
    assert faults and images
    for th_graph, word in images:
        assert reduce(th_graph, word) == stack_normal_form(th_graph, word), word


def test_enumeration_order_matches_oracle_driven_enumeration(monkeypatch):
    expected = {}
    with monkeypatch.context() as m:
        m.setattr(oracles, "reduce", shuffle_normal_form)
        for name, g in (("cycle6", cycle(6)), ("K33", K33)):
            expected[name] = list(enumerate_reduced_words(g, 3))
    for name, g in (("cycle6", cycle(6)), ("K33", K33)):
        assert list(enumerate_reduced_words(g, 3)) == expected[name], name


def test_reduce_is_linear_on_100k_letters():
    g = cycle(6)
    rng = random.Random(4)
    letters = [(v, e) for v in g.vertices for e in (1, -1)]
    free = SimpleGraph("abcdefgh", [])
    free_letters = [(v, e) for v in free.vertices for e in (1, -1)]
    cases = [
        (EDGE_UVW, adversarial(33_333)),
        (EDGE_UVW, buried_inverses(50_000)),
        (g, tuple(rng.choice(letters) for _ in range(100_000))),
        (free, tuple(rng.choice(free_letters) for _ in range(100_000))),
    ]
    for graph, word in cases:
        t0 = time.perf_counter()
        nf = reduce(graph, word)
        assert time.perf_counter() - t0 < 10.0, len(word)
        assert reduce(graph, nf) == nf


def test_parse_word_admission_cap(monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", "1000")
    assert parse_word(FREE2, "a^1000") == (("a", 1),) * 1000
    assert parse_word(FREE2, "a^500 b^-500") == (("a", 1),) * 500 + (("b", -1),) * 500
    # a repeated token is parsed once but counted at every occurrence
    for text in ("a^1001", "a^500 b^-501", "a^-1000000000000", "a^600 a^600"):
        with pytest.raises(CapExceeded, match=r"\d+ letters, over the cap of 1000"):
            parse_word(FREE2, text)


# tokens from a small pool, so that they repeat: vertices of PATH3, an
# unknown one and none, each with no exponent, a valid one, or a bad one
WORD_TOKEN = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["a", "x", "b", "z", ""]),
        st.sampled_from(["", "", "^-3", "^-2", "^-1", "^0", "^1", "^2", "^3", "^+2", "^", "^x"]),
    ),
)
WORD_TEXT = st.lists(
    st.tuples(WORD_TOKEN, st.sampled_from([" ", "  ", "\t", "\n", " \r\n\t", "\u2003"])), max_size=30
).map(lambda parts: "".join(tok + sep for tok, sep in parts))


def parsed(parse, g, text):
    try:
        return parse(g, text)
    except MalformedInput as err:
        return f"refused: {err}"


@given(st.sampled_from(["", " ", "\n\t"]), WORD_TEXT)
@settings(max_examples=600, deadline=None)
def test_parse_word_matches_the_token_by_token_parser(head, text):
    # equal letters, or the same message for the first bad token in text order
    assert parsed(parse_word, PATH3, head + text) == parsed(plain_parse_word, PATH3, head + text)


def test_parse_word_reports_the_first_bad_token_in_text_order():
    for text, message in [
        ("a^2 b^x a^2 z", "bad word token 'b^x'"),
        ("a z a^x", "unknown vertex 'z' in word"),
        ("a a a^ b", "bad word token 'a^'"),
        ("x^+2 ^2 a^x", "unknown vertex '' in word"),
    ]:
        with pytest.raises(MalformedInput) as err:
            parse_word(PATH3, text)
        assert str(err.value) == message
    assert parse_word(PATH3, "a^0 b^+2\ta^-1 a^0") == (("b", 1), ("b", 1), ("a", -1))


def freely_reduced(word):
    out = []
    for v, e in word:
        if out and out[-1] == (v, -e):
            out.pop()
        else:
            out.append((v, e))
    return tuple(out)


@st.composite
def word_on_an_independent_set(draw, commuting_pair):
    """A graph on up to 8 vertices and a word over an independent set of
    it, three or more of whose vertices survive the free reduction.  With
    `commuting_pair`, one edge joins two of those vertices, so that
    exactly one pair of the word's vertices commutes."""
    vs = "abcdefgh"[: draw(st.integers(3, 8))]
    apart = sorted(draw(st.sets(st.sampled_from(vs), min_size=3)))
    pairs = [(u, v) for u, v in itertools.combinations(vs, 2) if u not in apart or v not in apart]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    letter = st.tuples(st.sampled_from(apart), st.sampled_from([1, -1]))
    word = tuple(draw(st.lists(letter, min_size=3, max_size=60)))
    survivors = sorted({v for v, _ in freely_reduced(word)})
    assume(len(survivors) >= 3)
    if commuting_pair:
        edges.append(draw(st.sampled_from(list(itertools.combinations(survivors, 2)))))
    return SimpleGraph(vs, edges), word


@st.composite
def one_vertex_word(draw):
    g, _ = draw(planted_graph_and_word())
    v = draw(st.sampled_from(g.vertices))
    return g, tuple((v, e) for e in draw(st.lists(st.sampled_from([1, -1]), max_size=40)))


def reduce_and_columns(g, word):
    """reduce's result, and whether it piled columns: the column pass is
    the one reader of the vertices' bits one by one."""
    with mock.patch.object(words, "bits", wraps=words.bits) as spy:
        nf = reduce(g, word)
    assert nf == stack_normal_form(g, word) == shuffle_normal_form(g, word), (g.edges, word)
    return nf, spy.called


@given(word_on_an_independent_set(commuting_pair=False))
@settings(max_examples=300, deadline=None)
def test_a_word_with_no_commuting_pair_is_its_free_reduction(gw):
    g, word = gw
    assert reduce_and_columns(g, word) == (freely_reduced(word), False)


@given(word_on_an_independent_set(commuting_pair=True))
@settings(max_examples=300, deadline=None)
def test_a_word_with_one_commuting_pair_piles_columns(gw):
    g, word = gw
    assert reduce_and_columns(g, word)[1]


@given(one_vertex_word())
@settings(max_examples=200, deadline=None)
def test_a_one_vertex_word_is_its_free_reduction(gw):
    g, word = gw
    assert reduce_and_columns(g, word) == (freely_reduced(word), False)


def test_reduce_refuses_a_letter_that_names_no_vertex():
    # on a free pair, a commuting pair and a path: before each shortcut and the columns
    for g in (FREE2, EDGE, SimpleGraph("abc", [("a", "b")])):
        for word in ((("z", 1),), (("a", 1), ("z", -1)), (("a", 1), ("b", 1), ("z", 1), ("c", -1), ("a", -1))):
            with pytest.raises(MalformedInput) as err:
                reduce(g, word)
            assert str(err.value) == "unknown vertex 'z' in word"
    with pytest.raises(MalformedInput, match="^unknown vertex 'z' in word$"):
        parse_word(FREE2, "a z")
