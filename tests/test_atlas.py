"""The paper's invariants on every graph with at most seven vertices.

networkx's graph atlas lists all 1,252 of them up to isomorphism.  Each
goes through `corpus`'s checks at a raised cap: the RAAG verdict comes
with killed relators and PSO b0 equal to the tree generators; a loop
comes with pairing 1 and b1(PSO) >= 1; PSA Euler < 0 exactly on SIL
graphs; RAAG b0 is the center rank.  Each support graph's certificate,
each defining graph's edge set and each generator dictionary are also
compared with the rules they replaced: a loop search from every root, a
commutation test over every pair of records, and a flood fill per edge
for its far side.  The dictionary is compared at the default basepoints
and with every owner's basepoints moved.  Every RAAG, PSA and PSO
arrangement is block-line and an antichain of distinct subspaces, by
its line masks and by the pairwise containment oracle, so the maximal
filter leaves it as it is; and it has its closed form compared with the
full chain complex, its line masks with the two-pass rule they
replaced, and the summand counts and refusals of its flats with a walk
over its summands.  The sweep is never sampled.  Every atlas
graph, and 300 seeded random graphs on eight vertices, must also report
alike under two random relabellings: profiles, verdicts and refusals.

The paper's theorem holds as exact Betti identities (Day and Wade,
arXiv 1508.00622; Meier and VanWyk, Proc. LMS 71, 1995, for the RAAG
side): the delta-p-set pairs of each multiplier a are the edges of its
support graph Θ_a, the PSO arrangement has
b = (Σ_a (#trees(Θ_a) - 1), Σ_a cycle rank(Θ_a), 0, ...), and no side
has homology above degree one.  On the PSA side, b_1 is the cycle rank
of the graph on each multiplier's components and a ground node, with an
edge per unit or difference line (the lines form a graphic matroid;
Oxley, Matroid Theory).

Two identities from the naturality of Σ¹ tie the enumeration to the
presentation graph and its dictionary: on the forest side the PSO
arrangement is the pull-back of the RAAG arrangement of the defining
graph, and without an SIL the PSA arrangement is the RAAG arrangement
of the commutation graph.
"""

import functools
import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    all_roots_forest_certificate,
    atlas,
    commutation_graph,
    coordinate_supports,
    eliminated,
    far_side_dictionary,
    from_coordinates,
    line_masks,
    maximal_filter_bases,
    meet_cocycle_check,
    neighbors,
    pairwise_presentation_edges,
    plain_support_graph,
    pulled_back_raag_arrangement,
    read_back,
    refusal,
)

from raagbns import bns, cli, lattice
from raagbns.bns import (
    euler_report,
    h1_witness,
    has_sil,
    maximal_delta_psets,
    maximal_psets,
    psa_arrangement,
    pso_arrangement,
    raag_arrangement,
)
from raagbns.errors import DEFAULT_CAP, CapExceeded, InvariantViolation
from raagbns.graphs import LoopWitness, SimpleGraph, forest_certificate, support_graph
from raagbns.homology import (
    Arrangement,
    _line_masks,
    arrangement_homology,
    betti_numbers,
    build_chain_complex,
    line_arrangement,
    maximal_filter,
)
from raagbns.linalg import Subspace
from raagbns.presentations import NotAForest, classify_pso, generator_dictionary, presentation_graph

# edgeless(7), the atlas's largest choice tree, has 286 M nodes
RAISED_CAP = 10 ** 9

# vertex count -> (RAAG verdicts, not-RAAG verdicts).  Derived apart from
# raagbns: a graph is on the RAAG side iff each vertex's support graph,
# built from the definitions with networkx, is a forest.
VERDICTS = {1: (1, 0), 2: (2, 0), 3: (4, 0), 4: (10, 1), 5: (29, 5), 6: (128, 28), 7: (842, 202)}

# vertex count -> coordinate arrangements (every stored row a unit vector)
# and block-line arrangements among the three per graph (RAAG, PSA and
# PSO).  Every side is block-line, so every side takes the closed form.
COORDINATE_SIDES = {1: 3, 2: 6, 3: 11, 4: 28, 5: 79, 6: 339, 7: 2164}
BLOCK_LINE_SIDES = {1: 3, 2: 6, 3: 12, 4: 33, 5: 102, 6: 468, 7: 3132}

# euler_report on every atlas graph and on cycle(8), cycle(9) and
# cycle(10) at the default cap: (arrangements it takes the homology of,
# those past U, graphs refused).  Only the two larger cycles pass U, on
# their RAAG sides, and are refused there
EULER_REPORT_SIDES = (3751, 2, 7)


def moved_basepoints(th):
    """Each owner's trees' greatest nodes, last tree first, so that every
    basepoint and the preferred tree leave their defaults where they can."""
    out = {}
    for a, tree, _ in th.basepoints:
        out.setdefault(a, []).insert(0, tree[-1])
    return out


def theorem_defects(g, thetas, pso_betti):
    """The identities of the paper's theorem that fail on g, given its
    support graphs `thetas` by owner and the Betti numbers of its
    PSO arrangement.  Trees and cycle ranks come from networkx."""
    pairs = {a: set() for a in thetas}
    for d in maximal_delta_psets(g):
        by_multiplier = {}
        for a, k in d:
            by_multiplier.setdefault(a, []).append(k)
        for a, ks in by_multiplier.items():
            pairs[a].add(tuple(sorted(ks)))
    defects = [] if all(pairs[a] == set(th.edges) for a, th in thetas.items()) else ["delta-p-set pairs"]
    b0 = b1 = 0
    for th in thetas.values():
        if th.nodes:
            nxg = nx.Graph(list(th.edges))
            nxg.add_nodes_from(th.nodes)
            trees = nx.number_connected_components(nxg)
            b0, b1 = b0 + trees - 1, b1 + nxg.number_of_edges() - nxg.number_of_nodes() + trees
    if (pso_betti + (0,))[:2] != (b0, b1):
        defects.append("pso betti")
    return defects


def line_graph_cycle_rank(a):
    """The cycle rank of the graph with a node per coordinate of a (each
    multiplier's components, on a PSA arrangement) and a ground node, and
    an edge per distinct stored row: a unit row joins its coordinate to
    the ground, a difference row its two coordinates.  None if some row is
    neither.  Computed with networkx."""
    nxg = nx.Graph()
    nxg.add_nodes_from([*range(a.ambient_dim), "ground"])
    for row in {row for s in a.subspaces for row in s.rows}:
        support = {c: x for c, x in enumerate(row) if x}
        if sorted(support.values()) not in ([1], [-1, 1]):
            return None
        nxg.add_edge(*(support if len(support) == 2 else [*support, "ground"]))
    return nxg.number_of_edges() - nxg.number_of_nodes() + nx.number_connected_components(nxg)


def stored_form_differs(a):
    """True unless `a` keeps row maps and each subspace built from them
    has the rows and pivots the checked elimination gives."""
    return "row_maps" not in vars(a) or [(s.rows, s.pivots) for s in a.subspaces] != [
        (s.rows, s.pivots) for s in eliminated(a)
    ]


def lattice_defects(a):
    """Where the flats of block-line `a` disagree with the walk over its
    summands: the counts and dims per degree, and the refusal at each cap
    just under and at each degree's running count, where the flats or the
    walk decide it."""
    held = [m for m in a.lines[0] if m]
    counts, dims = lattice.walk(held, RAISED_CAP)
    defects = [] if lattice.flat_counts(held, RAISED_CAP) == (counts, dims) else ["counts"]
    for total in itertools.accumulate(counts):
        for cap in (total - 1, total):
            if refusal(arrangement_homology, a, cap) != refusal(lattice.walk, held, cap):
                defects.append(cap)
    return defects


@pytest.fixture(scope="module")
def graphs_by_size():
    out = {}
    for g in atlas():
        out.setdefault(len(g.vertices), []).append(g)
    return out


def test_atlas_has_every_graph_up_to_seven_vertices(graphs_by_size):
    assert {n: len(gs) for n, gs in graphs_by_size.items()} == {n: sum(v) for n, v in VERDICTS.items()}


@pytest.mark.parametrize("n", sorted(VERDICTS))
def test_corpus_checks_hold_on_every_atlas_graph(n, graphs_by_size, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(RAISED_CAP))
    verdicts, capped, failed, differ, coordinate, block_line, loops = [0, 0], [], [], [], 0, 0, 0
    for g in graphs_by_size[n]:
        try:
            is_raag, checks = cli._corpus_checks(g)
        except CapExceeded:
            capped.append(sorted(g.edges))
            continue
        if not checks or not all(checks.values()):
            failed.append((sorted(g.edges), checks))
        verdicts[not is_raag] += 1
        for a in g.vertices:
            d = support_graph(g, a)
            if forest_certificate(d) != all_roots_forest_certificate(d):
                differ.append((sorted(g.edges), a))
        if is_raag:
            th = presentation_graph(g)
            pairwise = SimpleGraph([r.symbol for r in th.records()], pairwise_presentation_edges(g, th))
            if (th.graph.vertices, th.graph.edges, neighbors(th.graph)) != (
                pairwise.vertices, pairwise.edges, neighbors(pairwise)
            ):
                differ.append((sorted(g.edges), "presentation graph"))
            for chosen in (th, presentation_graph(g, moved_basepoints(th))):
                if generator_dictionary(g, chosen) != far_side_dictionary(g, chosen):
                    differ.append((sorted(g.edges), "dictionary", chosen.preferred))
        for side, a in (("raag", raag_arrangement(g)), ("psa", psa_arrangement(g)), ("pso", pso_arrangement(g)[1])):
            # the pairwise containment oracle finds nothing to drop
            if maximal_filter_bases(a) != [s.basis for s in a.subspaces]:
                differ.append((sorted(g.edges), side, "not an antichain"))
            if side == "psa" and (arrangement_homology(a)[1].betti + (0,))[1] != line_graph_cycle_rank(a):
                differ.append((sorted(g.edges), side, "cycle rank"))
            # Fraction bases hide a row's sign; the stored form does not
            if stored_form_differs(a):
                differ.append((sorted(g.edges), side, "stored form"))
            coordinate += coordinate_supports(a) is not None
            found = _line_masks(read_back(a))
            if found != line_masks(read_back(a)):
                differ.append((sorted(g.edges), side, "line masks"))
            block_line += found is not None
            c = build_chain_complex(a)
            dims, profile = arrangement_homology(a)
            if (dims, profile) != (c.dims, betti_numbers(c)) or any(profile.betti[2:]):
                differ.append((sorted(g.edges), side, len(a.subspaces)))
            if defects := lattice_defects(a):
                differ.append((sorted(g.edges), side, "flats", defects))
        pso_betti = arrangement_homology(pso_arrangement(g)[1])[1].betti
        if defects := theorem_defects(g, {a: plain_support_graph(g, a) for a in g.vertices}, pso_betti):
            differ.append((sorted(g.edges), defects))
        loops += len(pso_betti) > 1 and pso_betti[1] > 0
    assert capped == [] and failed == [] and differ == []
    assert tuple(verdicts) == VERDICTS[n]
    assert loops == VERDICTS[n][1]
    assert (coordinate, block_line) == (COORDINATE_SIDES[n], BLOCK_LINE_SIDES[n])


def loops(g):
    """The loop certificate of each support graph of g that has one."""
    certs = (forest_certificate(support_graph(g, a)) for a in sorted(g.vertices))
    return [cert for cert in certs if isinstance(cert, LoopWitness)]


def test_graph_arrangements_are_never_read_back(graphs_by_size, monkeypatch):
    # every arrangement built from a graph keeps its row maps, so neither
    # the Betti profiles nor the witnesses build its subspaces or read a
    # stored row back from them, and each finds its line masks once
    monkeypatch.setenv("RAAGBNS_CAP", str(RAISED_CAP))
    found = {"subspaces": [], "row_maps": [], "lines": []}
    for name, seen in found.items():
        counted = functools.cached_property(lambda a, seen=seen, find=vars(Arrangement)[name].func: seen.append(a) or find(a))
        counted.__set_name__(Arrangement, name)
        monkeypatch.setattr(Arrangement, name, counted)
    built = []
    monkeypatch.setattr(bns, "line_arrangement", lambda n, subspaces: built.append(line_arrangement(n, subspaces)) or built[-1])
    witnesses = 0
    for g in (g for n in sorted(graphs_by_size) for g in graphs_by_size[n]):
        euler_report(g)
        for loop in loops(g):
            h1_witness(g, loop)
            witnesses += 1
    assert found["subspaces"] == found["row_maps"] == []
    assert len(built) == 3 * 1252 + 844 and sorted(map(id, found["lines"])) == sorted(map(id, built))
    assert witnesses == 844


def antichain_defects(a):
    """What keeps the block-line arrangement `a` from being an antichain
    of distinct subspaces, read off its line masks: a repeated mask, a
    mask inside another, or a maximal filter that changes its row maps."""
    masks = a.lines[0]
    defects = []
    if len(set(masks)) != len(masks):
        defects.append("repeated")
    if any(i != j and m & o == m for i, m in enumerate(masks) for j, o in enumerate(masks)):
        defects.append("contained")
    if maximal_filter(a).row_maps != a.row_maps:
        defects.append("filtered")
    return defects


def graph_antichain_defects(g):
    """(side, defects) of each of g's three arrangements, built at the
    raised cap, that is not an antichain."""
    cap = RAISED_CAP
    sides = (("raag", raag_arrangement(g, cap)), ("psa", psa_arrangement(g, cap)), ("pso", pso_arrangement(g, cap)[1]))
    return [(side, defects) for side, a in sides if (defects := antichain_defects(a))]


def test_graph_arrangements_are_antichains_on_every_atlas_graph(graphs_by_size):
    # the excluded subspaces are unions over maximal objects, so no graph
    # arrangement repeats a subspace or holds one inside another, and the
    # maximal filter has nothing to drop
    differ = [
        (sorted(g.edges), defects)
        for g in (g for n in sorted(graphs_by_size) for g in graphs_by_size[n])
        if (defects := graph_antichain_defects(g))
    ]
    assert differ == []


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    labels = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    return SimpleGraph(labels, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_graph_arrangements_are_antichains_on_random_graphs(g):
    assert graph_antichain_defects(g) == []


@pytest.mark.parametrize("fault", ["repeated first subspace", "p-set less a member"])
def test_a_planted_non_maximal_subspace_breaks_the_antichain(fault, monkeypatch):
    # planted faults in edgeless(3)'s PSA arrangement: its first p-set
    # listed twice, or listed again less its last member
    g = SimpleGraph("abc", [])
    assert graph_antichain_defects(g) == []
    real = bns.maximal_psets

    def planted(g, cap=None):
        psets = real(g, cap)
        return psets + [psets[0] if fault == "repeated first subspace" else psets[0][:-1]]

    monkeypatch.setattr(bns, "maximal_psets", planted)
    expected = ["repeated", "contained", "filtered"] if fault == "repeated first subspace" else ["contained", "filtered"]
    assert graph_antichain_defects(g) == [("psa", expected)]


def test_euler_report_builds_no_subspaces(graphs_by_size, monkeypatch):
    # a graph's arrangements keep their row maps, so the Betti profiles
    # build no dense row; nor does the witness, which checks its chain on
    # the line masks
    monkeypatch.setenv("RAAGBNS_CAP", str(RAISED_CAP))
    builds = []
    build = Arrangement.subspaces.func
    counted = functools.cached_property(lambda a: builds.append(a) or build(a))
    counted.__set_name__(Arrangement, "subspaces")
    monkeypatch.setattr(Arrangement, "subspaces", counted)
    every = [g for n in sorted(graphs_by_size) for g in graphs_by_size[n]]
    for g in every:
        euler_report(g)
    assert len(every) == 1252 and builds == []
    witnesses = [h1_witness(g, loop) for g in every for loop in loops(g)]
    assert len(witnesses) == 844 and builds == []


def test_euler_report_walks_no_summands_and_builds_flats_only_past_the_line_bound(graphs_by_size, monkeypatch):
    # at the default cap a side takes the flats exactly when
    # U = sum over its lines l of (2^|T_l| - 1) passes the cap, and no side
    # lists its summands
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    sides, past, built = [], [], []
    real_homology, real_lattice = bns.arrangement_homology, lattice.flat_counts

    def homology_of(a, cap=None):
        sides.append(a)
        if sum(2 ** t - 1 for t in line_counts(a.lines[0])) > DEFAULT_CAP:
            past.append(a)
        return real_homology(a, cap)

    monkeypatch.setattr(bns, "arrangement_homology", homology_of)
    monkeypatch.setattr(
        lattice, "flat_counts", lambda masks, cap: built.append(sides[-1]) or real_lattice(masks, cap)
    )
    monkeypatch.setattr(lattice, "walk", lambda masks, cap: pytest.fail("walked the summands"))
    refused = 0
    cycles = [SimpleGraph(range(n), [(i, (i + 1) % n) for i in range(n)]) for n in (8, 9, 10)]
    for g in [*(g for n in sorted(graphs_by_size) for g in graphs_by_size[n]), *cycles]:
        try:
            euler_report(g)
        except CapExceeded:
            refused += 1
    assert built == past
    assert (len(sides), len(past), refused) == EULER_REPORT_SIDES


def line_counts(masks):
    """|T_l| for each line l held by some mask, bit by bit."""
    lines = functools.reduce(lambda x, y: x | y, masks, 0)
    return [sum(m >> b & 1 for m in masks) for b in range(lines.bit_length()) if lines >> b & 1]


def test_a_sign_flipped_row_breaks_the_stored_form():
    # planted fault: one difference row of edgeless(4)'s PSO arrangement
    # written e_L - e_K, pivot entry -1.  Its line, its Betti numbers and
    # its Fraction basis, which is what the CLI prints, are unchanged; only
    # the stored form tells it from the checked elimination
    arr = pso_arrangement(SimpleGraph("abcd", []))[1]
    assert not stored_form_differs(arr)
    rows = [list(rows) for rows in arr.row_maps]
    j, i = next((j, i) for j, maps in enumerate(rows) for i, row in enumerate(maps) if len(row) == 2)
    rows[j][i] = {c: -x for c, x in rows[j][i].items()}
    flipped = line_arrangement(arr.ambient_dim, rows)
    assert [s.basis for s in flipped.subspaces] == [s.basis for s in arr.subspaces]
    assert arrangement_homology(flipped) == arrangement_homology(arr)
    assert stored_form_differs(flipped)


def test_witness_cocycle_check_matches_the_meet_oracle(graphs_by_size, monkeypatch):
    # no loop on any atlas graph fails to patch, by masks or by meets
    monkeypatch.setenv("RAAGBNS_CAP", str(RAISED_CAP))
    checked, differ = 0, []
    for g in (g for n in sorted(graphs_by_size) for g in graphs_by_size[n]):
        for loop in loops(g):
            outcomes = []
            for check in (h1_witness, meet_cocycle_check):
                try:
                    check(g, loop)
                    outcomes.append(None)
                except InvariantViolation as exc:
                    outcomes.append(str(exc))
            checked += 1
            if outcomes != [None, None]:
                differ.append((sorted(g.edges), loop.owner, outcomes))
    assert differ == []
    assert checked == 844


def test_dropping_a_loop_edge_breaks_the_theorem_identities():
    # planted fault: edgeless(4) has a triangle as each support graph;
    # one edge of one triangle dropped leaves the delta-p-set pairs and
    # b_1(PSO) = 4 unexplained
    g = SimpleGraph("abcd", [])
    thetas = {a: plain_support_graph(g, a) for a in g.vertices}
    pso_betti = arrangement_homology(pso_arrangement(g)[1])[1].betti
    assert pso_betti == (0, 4) and theorem_defects(g, thetas, pso_betti) == []
    loop = forest_certificate(thetas["a"]).nodes
    edge = (min(loop[:2]), max(loop[:2]))
    thetas["a"] = thetas["a"]._replace(edges=tuple(e for e in thetas["a"].edges if e != edge))
    assert theorem_defects(g, thetas, pso_betti) == ["delta-p-set pairs", "pso betti"]


def ambient_pso_arrangement(g):
    """The PSO arrangement, each subspace taken from W's coordinates back
    to the standard generators' ones, as a set."""
    w, arr, _ = pso_arrangement(g)
    return {Subspace(w.ambient_dim, [from_coordinates(w, coords) for coords in s.rows]) for s in arr.subspaces}


def test_forest_side_pso_arrangement_is_the_pulled_back_raag_arrangement(graphs_by_size, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(RAISED_CAP))
    checked, differ = 0, []
    for g in (g for n in sorted(graphs_by_size) for g in graphs_by_size[n]):
        try:
            th = presentation_graph(g)
        except NotAForest:
            continue
        checked += 1
        if pulled_back_raag_arrangement(g, th, generator_dictionary(g, th)) != ambient_pso_arrangement(g):
            differ.append(sorted(g.edges))
    assert differ == []
    assert checked == sum(raag for raag, _ in VERDICTS.values()) == 1016


def test_psa_arrangement_without_an_sil_is_the_commutation_raag_arrangement(graphs_by_size, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(RAISED_CAP))
    checked, differ = 0, []
    for g in (g for n in sorted(graphs_by_size) for g in graphs_by_size[n]):
        if has_sil(g):
            continue
        checked += 1
        if set(raag_arrangement(commutation_graph(g)).subspaces) != set(psa_arrangement(g).subspaces):
            differ.append(sorted(g.edges))
    assert differ == []
    assert checked == 421


def test_toggling_a_defining_graph_edge_breaks_the_pull_back():
    # planted fault: the path a-e-d-c beside b, whose defining graph has
    # four vertices and three edges; one edge removed or one added
    # changes the pulled-back arrangement
    g = SimpleGraph("abcde", [("a", "e"), ("c", "d"), ("d", "e")])
    th = presentation_graph(g)
    d = generator_dictionary(g, th)
    assert pulled_back_raag_arrangement(g, th, d) == ambient_pso_arrangement(g)
    removed, added = ("a[b|c,d]", "e[b|c]"), ("a[b|c,d]", "c[a,e|b]")
    assert removed in th.graph.edges and added not in th.graph.edges
    for edge in (removed, added):
        toggled = th._replace(graph=SimpleGraph(th.graph.vertices, th.graph.edges ^ {edge}))
        assert pulled_back_raag_arrangement(g, toggled, d) != ambient_pso_arrangement(g)


def test_edgeless7_maximal_sets_within_budget():
    # the choice-tree walk this replaced took minutes here
    g = SimpleGraph("abcdefg", [])
    start = time.perf_counter()
    psets = maximal_psets(g, cap=RAISED_CAP)
    deltas = maximal_delta_psets(g, cap=RAISED_CAP)
    elapsed = time.perf_counter() - start
    assert (len(psets), len(deltas)) == (21, 35)
    assert elapsed < 5, f"{elapsed:.2f} s"


def relabelled(g, rng):
    """A copy of g with its labels permuted at random, so that the vertices
    sort in another order."""
    labels = sorted(g.vertices)
    names = dict(zip(labels, rng.sample(labels, len(labels))))
    return SimpleGraph(labels, [(names[u], names[w]) for u, w in g.edges])


def label_free_outcome(g):
    """What `euler-report` and `classify` report of g without naming a
    vertex: for each, the exit code and the refusal message, or the three
    Betti profiles, or the verdict kind and the defining graph's centre
    rank."""
    out = []
    for run in (
        lambda: tuple(euler_report(g).values()),
        lambda: (type(v := classify_pso(g)).__name__, getattr(v, "center_rank", None)),
    ):
        try:
            out.append((0, run()))
        except CapExceeded as exc:
            out.append((3, str(exc)))
    return out


def random_graphs(n, count, seed):
    """`count` seeded G(n, p) graphs on the first n letters, p drawn from
    0.2, 0.3, ..., 0.8 for each."""
    rng = random.Random(seed)
    labels = "abcdefgh"[:n]
    out = []
    for _ in range(count):
        p = rng.choice([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        out.append(SimpleGraph(labels, [e for e in itertools.combinations(labels, 2) if rng.random() < p]))
    return out


@pytest.mark.parametrize("cap", [None, 10 ** 12], ids=["default-cap", "raised-cap"])
def test_relabelled_copies_report_alike(graphs_by_size, cap, monkeypatch):
    # every atlas graph and 300 random 8-vertex graphs, each under two
    # seeded relabellings: the Betti profiles, verdict kind and centre rank,
    # and at the default cap each refusal and its message, do not depend on
    # the labels.  Each copy is a fresh graph, so nothing stored is shared
    if cap is None:
        monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    else:
        monkeypatch.setenv("RAAGBNS_CAP", str(cap))
    rng = random.Random(2901)
    graphs = [*(g for n in sorted(graphs_by_size) for g in graphs_by_size[n]), *random_graphs(8, 300, 2902)]
    differ, refused = [], 0
    for g in graphs:
        outcomes = [label_free_outcome(h) for h in (SimpleGraph(g.vertices, g.edges), relabelled(g, rng), relabelled(g, rng))]
        refused += any(code for code, _ in outcomes[0])
        if outcomes[1:] != outcomes[:1] * 2:
            differ.append((sorted(g.edges), outcomes))
    assert len(graphs) == 1552 and differ == []
    assert refused == (0 if cap else 20)
