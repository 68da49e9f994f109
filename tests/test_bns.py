import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    atlas,
    atlas_up_to_six,
    brute_force_partition_witness,
    connected,
    delta_cross_ok,
    delta_subspace,
    generator_basis,
    leaf_maximal_sets,
    pairwise_pass_table,
    partition_witness,
    pset_cross_ok,
    walk_maximal,
    walk_valid,
)
from test_acceptance import STAR7, corpus

from raagbns import bns
from raagbns.bns import (
    _choice_tree_size,
    _maximal_sets,
    _option_counts,
    _pass_table,
    _per_multiplier_options,
    euler_report,
    h1_witness,
    has_sil,
    maximal_delta_psets,
    maximal_disconnected_subsets,
    maximal_psets,
    pso_arrangement,
    pso_hom_space,
    psa_arrangement,
    raag_arrangement,
)
from raagbns.errors import DEFAULT_CAP, CapExceeded, InvariantViolation
from raagbns.graphs import LoopWitness, SimpleGraph, forest_certificate, support_graph
from raagbns.homology import betti_numbers, build_chain_complex, line_arrangement, maximal_filter
from raagbns.linalg import Subspace, subspace_leq
from raagbns.words import standard_generators


def edgeless(n):
    return SimpleGraph("abcde"[:n], [])


def complete(n):
    vs = "abcde"[:n]
    return SimpleGraph(vs, [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]])


PATH3 = SimpleGraph("axb", [("a", "x"), ("x", "b")])
F3, F4, F5 = edgeless(3), edgeless(4), edgeless(5)


def gen(a, *comp):
    return (a, tuple(sorted(comp)))


def test_maximal_disconnected_edgeless3():
    # the whole vertex set spans a disconnected subgraph already
    assert maximal_disconnected_subsets(F3) == [("a", "b", "c")]


def test_maximal_disconnected_square():
    c4 = SimpleGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert maximal_disconnected_subsets(c4) == [("a", "c"), ("b", "d")]


def test_maximal_disconnected_complete_bipartite():
    k33 = SimpleGraph(
        "abcxyz",
        [(u, w) for u in "abc" for w in "xyz"],
    )
    assert maximal_disconnected_subsets(k33) == [("a", "b", "c"), ("x", "y", "z")]


def test_raag_arrangement_edgeless3():
    arr = raag_arrangement(F3)
    assert arr.ambient_dim == 3
    assert arr.subspaces == (Subspace.from_rref(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 1, 2]),)


def test_raag_arrangement_complete():
    arr = raag_arrangement(complete(4))
    assert arr.subspaces == ()


def test_raag_arrangement_path():
    arr = raag_arrangement(PATH3)
    # sorted vertex order a, b, x; the only maximal disconnected subset is {a, b}
    assert arr.subspaces == (Subspace(3, [(1, 0, 0), (0, 1, 0)]),)


def test_is_pset_mutual_pair():
    # the mutual pair of the edgeless pair is its one maximal p-set
    (p,) = maximal_psets(edgeless(2))
    assert p == (gen("a", "b"), gen("b", "a"))
    assert partition_witness(p, pset_cross_ok) == ((gen("a", "b"),), (gen("b", "a"),))


def test_is_pset_singleton():
    # a p-set splits into two nonempty sides, so no singleton is one
    for g in (F3, F4, PATH3):
        for p in maximal_psets(g):
            side1, side2 = partition_witness(p, pset_cross_ok)
            assert side1 and side2


def test_is_pset_rejects_second_gen_of_multiplier():
    for g in (F3, F4):
        for p in maximal_psets(g):
            multipliers = [a for a, _ in p]
            assert len(set(multipliers)) == len(multipliers)
            assert not {gen("a", "b"), gen("a", "c")} <= set(p)


def test_is_delta_pset_four_member():
    s = {gen("a", "b"), gen("a", "c"), gen("b", "a"), gen("b", "c")}
    assert any(s <= set(d) for d in maximal_delta_psets(F3))


def test_is_delta_pset_full_six_on_f3():
    (d,) = maximal_delta_psets(F3)
    assert set(d) == set(standard_generators(F3))
    side1, side2 = partition_witness(d, delta_cross_ok)
    for a, k in side1:
        for b, l in side2:
            assert a in l or b in k or k == l


def test_maximal_psets_f3():
    got = maximal_psets(F3)
    assert got == [
        (gen("a", "b"), gen("b", "a")),
        (gen("a", "c"), gen("c", "a")),
        (gen("b", "c"), gen("c", "b")),
    ]


def test_maximal_delta_psets_f3_single_full_set():
    got = maximal_delta_psets(F3)
    assert got == [tuple(standard_generators(F3))]


def brute_force_delta_psets(g):
    gens = standard_generators(g)
    found = []
    per_mult = {}
    for a, k in gens:
        per_mult.setdefault(a, []).append((a, k))
    pair_options = [
        [()] + list(itertools.combinations(v, 2)) for v in per_mult.values()
    ]
    for combo in itertools.product(*pair_options):
        members = tuple(sorted(x for pair in combo for x in pair))
        if len(members) < 2:
            continue
        witness = brute_force_partition_witness(
            members, lambda x, y: x[0] in y[1] or y[0] in x[1] or x[1] == y[1]
        )
        if witness is not None:
            found.append(members)
    maximal = [
        m for m in found
        if not any(set(m) < set(other) for other in found)
    ]
    return sorted(set(maximal))


def test_maximal_delta_psets_f4_brute_force():
    got = maximal_delta_psets(F4)
    assert got == brute_force_delta_psets(F4)
    assert len(got) == 4
    assert all(len(m) == 6 for m in got)


def test_no_sil_graph_has_no_delta_psets():
    assert maximal_delta_psets(PATH3) == []


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        maximal_delta_psets(F5, cap=10)


FAMILIES = [
    (1, pset_cross_ok, maximal_psets),
    (2, delta_cross_ok, maximal_delta_psets),
]


def assert_matches_walk(g):
    for size, cross_ok, fast in FAMILIES:
        got = fast(g)
        assert got == walk_maximal(g, size, cross_ok), (g.edges, size)
        assert all(partition_witness(members, cross_ok) for members in got), (g.edges, size)


def test_enumeration_matches_walk_on_corpus():
    for g in corpus():
        if g == STAR7:
            continue
        assert_matches_walk(g)
        for size, cross_ok, _ in FAMILIES:
            _, nodes = walk_valid(g, size, cross_ok)
            assert _option_counts(g, size) == [len(choices) for choices in _per_multiplier_options(g, size)]
            assert _choice_tree_size(_option_counts(g, size)) == nodes, (g.edges, size)


def test_enumeration_matches_leaf_listing_on_atlas():
    # Close-by-One against the choice-tree leaf listing it replaced
    for g in atlas_up_to_six():
        for size, cross_ok, _ in FAMILIES:
            expected = tuple(leaf_maximal_sets(g, size, cross_ok))
            assert _maximal_sets(_per_multiplier_options(g, size), size == 2) == expected, (g.edges, size)


def test_enumeration_matches_leaf_listing_on_seven_vertex_atlas():
    # A biclique transversal that is not maximal first occurs on seven
    # vertices (six atlas graphs), so only here is the maximality step
    # tested.  2,071 of the 2,088 cases have choice trees of at most 10^5
    # nodes, which the leaf listing affords.
    checked = 0
    for g in atlas()[208:]:
        for size, cross_ok, _ in FAMILIES:
            if _choice_tree_size(_option_counts(g, size)) <= 10 ** 5:
                expected = tuple(leaf_maximal_sets(g, size, cross_ok))
                assert _maximal_sets(_per_multiplier_options(g, size), size == 2) == expected, (g.edges, size)
                checked += 1
    assert checked == 2071


def option_members(g, size):
    """The members of g's options for the family of `size`, sorted, as
    `_maximal_sets` numbers them."""
    return sorted({m for choices in _per_multiplier_options(g, size) for choice in choices for m in choice})


def pass_table_mismatches(graphs, table):
    """(edges, size) of each graph and family whose pass table, built by
    `table(members, delta)`, differs from the pairwise rule's."""
    return [
        (sorted(g.edges), size)
        for g in graphs
        for size, cross_ok, _ in FAMILIES
        if table(members := option_members(g, size), size == 2) != pairwise_pass_table(members, cross_ok)
    ]


def test_pass_tables_match_the_pairwise_rules_on_atlas():
    assert pass_table_mismatches(atlas(), _pass_table) == []


def test_a_delta_table_without_same_component_fails_the_pairwise_rule():
    # planted fault: the delta rule's SAME[K] term left out.  A member
    # (b, K) with a's very component K and b != a passes (a, K) by that
    # term alone, since neither multiplier lies in K
    def without_same(members, delta):
        table = _pass_table(members, delta)
        if not delta:
            return table
        same = {1 << i: sum(1 << j for j, (_, l) in enumerate(members) if l == k) for i, (_, k) in enumerate(members)}
        return {b: ok & ~same[b] for b, ok in table.items()}

    missed = pass_table_mismatches(atlas()[:60], without_same)
    assert missed and {size for _, size in missed} == {2}


def test_options_are_built_once_per_family_per_graph(monkeypatch):
    # the cap is admitted from the component counts, so a stored family
    # builds no options again: not for euler_report's PSO side, nor for
    # any witness
    builds = []
    build = bns._per_multiplier_options
    monkeypatch.setattr(bns, "_per_multiplier_options", lambda g, size: builds.append((id(g), size)) or build(g, size))
    graphs = [SimpleGraph(g.vertices, g.edges) for g in corpus() if g != STAR7]
    witnesses = 0
    for g in graphs:
        euler_report(g)
        for a in sorted(g.vertices):
            loop = forest_certificate(support_graph(g, a))
            if isinstance(loop, LoopWitness):
                h1_witness(g, loop)
                witnesses += 1
    assert witnesses > 0
    assert sorted(builds) == sorted((id(g), size) for g in graphs for size in (1, 2))
    with pytest.raises(CapExceeded, match="delta-p-set enumeration would visit 554766609 choice-tree nodes"):
        maximal_delta_psets(STAR7)
    assert len(builds) == 2 * len(graphs)


@pytest.mark.parametrize("size, cross_ok, fast", FAMILIES, ids=["psets", "delta-psets"])
def test_cap_boundary_matches_walk(size, cross_ok, fast):
    count = _choice_tree_size(_option_counts(F5, size))
    with pytest.raises(CapExceeded) as refused:
        fast(F5, cap=count - 1)
    assert str(count) in str(refused.value) and str(count - 1) in str(refused.value)
    fast(F5, cap=count)
    with pytest.raises(CapExceeded):
        walk_valid(F5, size, cross_ok, cap=count - 1)


@pytest.mark.parametrize("size, cross_ok, fast", FAMILIES, ids=["psets", "delta-psets"])
def test_stored_enumeration_still_admits_each_call(size, cross_ok, fast):
    g = edgeless(5)
    count = _choice_tree_size(_option_counts(g, size))
    found = fast(g, cap=count)
    assert fast(g) == found
    with pytest.raises(CapExceeded):
        fast(g, cap=count - 1)
    found.clear()
    assert fast(g, cap=count) == fast(edgeless(5))

    walk_valid(F5, size, cross_ok, cap=count)


def test_star7_refused_before_walking():
    with pytest.raises(CapExceeded, match="delta-p-set enumeration would visit 554766609 choice-tree nodes"):
        maximal_delta_psets(STAR7, cap=DEFAULT_CAP)


def test_disconnected_subsets_capped():
    with pytest.raises(CapExceeded, match="over 21 vertices"):
        maximal_disconnected_subsets(SimpleGraph([f"v{i:02d}" for i in range(21)], []))
    with pytest.raises(CapExceeded):
        raag_arrangement(F5, cap=31)
    assert maximal_disconnected_subsets(F5, cap=32) == [tuple("abcde")]


def test_psa_arrangement_f3():
    arr = psa_arrangement(F3)
    assert arr.ambient_dim == 6
    dims = sorted(s.dim for s in arr.subspaces)
    assert dims == [2, 2, 2, 3]
    c = build_chain_complex(arr)
    assert c.dims == (6, 9)
    profile = betti_numbers(c)
    assert profile.betti == (0, 3)
    assert profile.euler == -3


def test_psa_arrangement_complete():
    arr = psa_arrangement(complete(3))
    assert arr.ambient_dim == 0
    assert arr.subspaces == ()


def test_pso_hom_space_dims():
    assert pso_hom_space(F3).dim == 3
    assert pso_hom_space(F4).dim == 8
    assert pso_hom_space(complete(3)).dim == 0


def test_pso_arrangement_f3_trivial_homology():
    w, arr, deltas = pso_arrangement(F3)
    assert w.dim == 3
    assert len(arr.subspaces) == 1
    profile = betti_numbers(build_chain_complex(maximal_filter(arr)))
    assert profile.betti == (0, 0)


def test_pso_arrangement_f4():
    w, arr, deltas = pso_arrangement(F4)
    assert w.dim == 8
    assert [s.dim for s in arr.subspaces] == [3, 3, 3, 3]
    profile = betti_numbers(build_chain_complex(maximal_filter(arr)))
    assert profile.betti == (0, 4)
    assert profile.euler == -4


def test_delta_subspaces_live_in_hom_space():
    for g in (F3, F4, SimpleGraph("abcd", [("a", "b")])):
        basis = generator_basis(g)
        w = pso_hom_space(g)
        _, arr, deltas = pso_arrangement(g)
        for d in deltas:
            assert subspace_leq(delta_subspace(basis, d), w)


def test_h1_witness_f4():
    loop = forest_certificate(support_graph(F4, "a"))
    witness = h1_witness(F4, loop)
    assert witness.pairing_value == Fraction(1)
    assert len(witness.chain) == 3
    assert witness.cocycle_support == (0,)
    total = [sum(col) for col in zip(*(vec for _, vec in witness.chain))]
    assert all(x == 0 for x in total)


def test_a_delta_pair_across_two_multipliers_escapes_the_outer_character_space(monkeypatch):
    # planted fault: a delta-p-set pairing a's component with b's.  Its
    # row e_K - e_L sums to 1 over a's coordinates, so it is not in W
    pair = (("a", ("b",)), ("b", ("a",)))
    monkeypatch.setattr(bns, "maximal_delta_psets", lambda g, cap=None: [pair])
    with pytest.raises(InvariantViolation, match="delta-p-set subspace escapes the outer character space"):
        pso_arrangement(F3)


def test_a_non_support_subspace_holding_the_first_loop_line_fails_cocycle_patching(monkeypatch):
    # planted fault: edgeless(4)'s loop b, c, d at a has the cocycle
    # support (0,); the delta-subspace 3, which has no row at a, is given
    # the line e_(a,b) - e_(a,c) of subspace 0, so the two meet in a line
    # the (a, b) functional sees.  Both the masks and the meets refuse it
    loop = forest_certificate(support_graph(F4, "a"))
    h1_witness(F4, loop)
    oracles.meet_cocycle_check(F4, loop)
    w, arr, deltas = pso_arrangement(F4)
    rows = oracles.read_back(arr)
    assert not any(a == "a" for a, _ in deltas[3]) and rows[0][0] == {0: 1, 1: -1}
    rows[3].insert(0, rows[0][0])
    planted = line_arrangement(w.dim, rows)
    monkeypatch.setattr(bns, "pso_arrangement", lambda g, cap=None: (w, planted, deltas))
    for check in (h1_witness, oracles.meet_cocycle_check):
        with pytest.raises(InvariantViolation, match="cocycle patching fails on a pairwise intersection"):
            check(F4, loop)


def plant(monkeypatch, w, rows, deltas):
    """Hand the witness W, delta-subspaces of the given row maps and the
    delta-p-sets `deltas` in place of the PSO arrangement."""
    arr = line_arrangement(w.dim, rows)
    monkeypatch.setattr(bns, "pso_arrangement", lambda g, cap=None: (w, arr, deltas))


def test_a_loop_of_two_or_repeated_nodes_is_refused():
    for nodes in ((("b",), ("c",)), (("b",), ("c",), ("b",))):
        with pytest.raises(InvariantViolation, match="loop witness must have >= 3 distinct nodes"):
            h1_witness(F4, LoopWitness("a", nodes))


def test_a_loop_pair_in_no_delta_p_set_is_refused(monkeypatch):
    # planted fault: only edgeless(4)'s first delta-p-set is kept, which
    # holds the loop's first pair (a, b), (a, c) but not its second
    loop = forest_certificate(support_graph(F4, "a"))
    w, arr, deltas = pso_arrangement(F4)
    plant(monkeypatch, w, arr.row_maps[:1], deltas[:1])
    message = "no maximal delta-p-set contains the consecutive pair [('a', ('c',)), ('a', ('d',))]"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        h1_witness(F4, loop)


def test_a_chain_component_outside_w_escapes_the_outer_character_space(monkeypatch):
    # planted fault: W loses its row e_(a,b) - e_(a,d), so the chain's
    # first component e_(a,b) - e_(a,c) no longer lies in it
    loop = forest_certificate(support_graph(F4, "a"))
    w, arr, deltas = pso_arrangement(F4)
    assert h1_witness(F4, loop).chain[0][1][:3] == (1, -1, 0) and w.pivots[0] == 0
    smaller = Subspace.from_rref(w.ambient_dim, w.rows[1:], w.pivots[1:])
    monkeypatch.setattr(bns, "pso_arrangement", lambda g, cap=None: (smaller, arr, deltas))
    with pytest.raises(InvariantViolation, match="chain component escapes the outer character space"):
        h1_witness(F4, loop)


def test_a_summand_without_its_loop_line_lets_the_chain_component_escape(monkeypatch):
    # planted fault: the delta-subspace the chain's first component lies on
    # loses the line of the loop's first pair
    loop = forest_certificate(support_graph(F4, "a"))
    w, arr, deltas = pso_arrangement(F4)
    (j, vec), *_ = h1_witness(F4, loop).chain
    line = {c for c, x in enumerate(w.coordinates(list(vec))) if x}
    rows = [[row for row in maps if not (i == j and set(row) == line)] for i, maps in enumerate(arr.row_maps)]
    assert sum(map(len, rows)) == sum(map(len, arr.row_maps)) - 1
    plant(monkeypatch, w, rows, deltas)
    with pytest.raises(InvariantViolation, match="chain component escapes its summand"):
        h1_witness(F4, loop)


def test_a_delta_p_set_with_three_members_at_the_owner_breaks_the_pairing(monkeypatch):
    # planted fault: edgeless(4)'s loop b, c, d at a on three planted sets,
    # {b, c}, {c, d} and {b, c, d} at a.  The last holds the closing pair
    # d, b and the first pair too, so it is in the cocycle's support, and
    # the pairing loses the -1 it reads there
    loop = forest_certificate(support_graph(F4, "a"))
    assert loop.nodes == (("b",), ("c",), ("d",))
    w, _, _ = pso_arrangement(F4)
    ab, ac, ad = gen("a", "b"), gen("a", "c"), gen("a", "d")
    # in W's coordinates e_(a,b) - e_(a,c) is e_0 - e_1, e_(a,c) - e_(a,d) is
    # e_1 and e_(a,b) - e_(a,d) is e_0
    plant(monkeypatch, w, [[{0: 1, 1: -1}], [{1: 1}], [{0: 1}]], [(ab, ac), (ac, ad), (ab, ac, ad)])
    with pytest.raises(InvariantViolation, match="witness pairing is 0, expected 1"):
        h1_witness(F4, loop)


def test_euler_report_no_sil():
    report = euler_report(PATH3)
    assert report["psa"].euler == 0
    assert report["raag"].euler == 1  # the middle vertex is central
    assert report["raag"].betti[0] == 1


def test_euler_report_f3():
    report = euler_report(F3)
    assert report["psa"].euler == -3
    assert report["raag"].betti == (0, 0)
    assert report["pso"].euler == 0


LETTERS = "abcdefghijklmnopqrstuvwxyz"


# closed forms on three families, the expected profiles from the formulas
# alone; the free group's is the classical case (Orlandi-Korner, Proc. AMS
# 128, 2000).  The n-leaf star joins a centre to every leaf: the
# automorphism sides keep the free group's profiles, and the centre gives
# the RAAG side one free coordinate
@pytest.mark.parametrize("n", range(3, 11))
def test_edgeless_and_star_profiles_follow_their_closed_forms(n, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(10 ** 18))
    leaves = LETTERS[:n]
    psa, pso = (0, n * (n - 1) * (n - 2) // 2), (0, n * (n - 2) * (n - 3) // 2)
    for g, raag in ((SimpleGraph(leaves, []), (0, 0)), (SimpleGraph(leaves + "z", [(v, "z") for v in leaves]), (1, 0))):
        report = euler_report(g)
        assert (report["raag"].betti, report["psa"].betti, report["pso"].betti) == (raag, psa, pso)


@pytest.mark.parametrize("n", range(4, 12))
def test_path_pso_profile_follows_its_closed_form(n, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(10 ** 18))
    path = SimpleGraph(LETTERS[:n], list(zip(LETTERS, LETTERS[1:n])))
    assert euler_report(path)["pso"].betti == (n - 4,)


def test_has_sil():
    assert has_sil(F3)
    assert not has_sil(PATH3)


def graphs(max_n=5):
    def build(n):
        vs = "abcde"[:n]
        pairs = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1:]]
        return st.integers(0, 2 ** len(pairs) - 1).map(
            lambda bits: SimpleGraph(vs, [p for k, p in enumerate(pairs) if bits & (1 << k)])
        )

    return st.integers(2, max_n).flatmap(build)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_maximal_disconnected_matches_brute_force(g):
    vs = sorted(g.vertices)
    disconnected = [
        s
        for r in range(2, len(vs) + 1)
        for s in itertools.combinations(vs, r)
        if not connected(g, s)
    ]
    expected = sorted(
        s for s in disconnected
        if not any(set(s) < set(t) for t in disconnected)
    )
    assert maximal_disconnected_subsets(g) == expected


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_walk_on_small_graphs(g):
    assert_matches_walk(g)


def sample_with_counts(g, rng):
    """A random sorted sample of g's standard generators, and the number
    of members per multiplier."""
    gens = standard_generators(g)
    sample = sorted(rng.sample(gens, rng.randint(1, min(6, len(gens))))) if gens else []
    counts = {}
    for a, _ in sample:
        counts[a] = counts.get(a, 0) + 1
    return sample, counts


@given(graphs(max_n=4), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_recognizers_match_bfs_witness(g, rng):
    # every sample the BFS witness accepts lies in a maximal set of its family
    sample, counts = sample_with_counts(g, rng)
    for per_multiplier, cross_ok, fast in FAMILIES:
        valid = partition_witness(sample, cross_ok) is not None
        if valid and all(c == per_multiplier for c in counts.values()):
            assert any(set(sample) <= set(p) for p in fast(g))


@given(graphs(max_n=4), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_delta_pset_recognizer_matches_brute_force(g, rng):
    # the BFS witness behind walk_maximal agrees with trying every partition
    sample, counts = sample_with_counts(g, rng)
    if any(c != 2 for c in counts.values()) or len(sample) < 2:
        return
    slow = brute_force_partition_witness(
        sample, lambda x, y: x[0] in y[1] or y[0] in x[1] or x[1] == y[1]
    )
    assert (partition_witness(sample, delta_cross_ok) is None) == (slow is None)
    if slow is not None:
        assert any(set(sample) <= set(d) for d in maximal_delta_psets(g))


@given(graphs(max_n=4))
@settings(max_examples=40, deadline=None)
def test_returned_witnesses_satisfy_conditions(g):
    for p in maximal_psets(g):
        side1, side2 = partition_witness(p, pset_cross_ok)
        assert set(side1) | set(side2) == set(p)
        for a, k in side1:
            for b, l in side2:
                assert a in l and b in k
    for d in maximal_delta_psets(g):
        side1, side2 = partition_witness(d, delta_cross_ok)
        counts = {}
        for a, _ in d:
            counts[a] = counts.get(a, 0) + 1
        assert all(c == 2 for c in counts.values())
        for a, k in side1:
            for b, l in side2:
                assert a in l or b in k or k == l


@given(graphs(max_n=4))
@settings(max_examples=30, deadline=None)
def test_raag_homology_is_center_rank(g):
    from raagbns.graphs import center_rank

    profile = betti_numbers(build_chain_complex(maximal_filter(raag_arrangement(g))))
    assert profile.betti[0] == center_rank(g)
    assert all(b == 0 for b in profile.betti[1:])


def test_pso_hom_space_closed_form_matches_kernel_oracle():
    graphs = corpus() + atlas_up_to_six()
    assert len(graphs) == 59 + 208
    for g in graphs:
        w = pso_hom_space(g)
        expected = oracles.kernel_basis(oracles.pso_relator_matrix(g))
        assert w.basis == expected.basis  # what `bns --group pso` prints as outer_space
        assert w == Subspace(w.ambient_dim, expected.basis)
