"""Acceptance suite.

One test per published acceptance criterion, numbered test_criterion_01
through test_criterion_09.  Each test asserts its own wall-clock budget
and records a one-line detail that the conftest replays as a status
block at the end of the run.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import networkx as nx
from oracles import (
    _commuting_schema,
    arrangement_betti,
    automorphism_table,
    closure_normal_form,
    commutator_class_out,
    commutator_moves,
    dictionary_matrices,
    enumerate_reduced_words,
    generator_basis,
    table_is_identity,
)

from raagbns.bns import (
    has_sil,
    pso_arrangement,
    psa_arrangement,
    raag_arrangement,
)
from raagbns.errors import CapExceeded
from raagbns.graphs import (
    ForestData,
    LoopWitness,
    SimpleGraph,
    center_rank,
    forest_certificate,
    support_graph,
)
from raagbns.homology import Arrangement, betti_numbers, build_chain_complex
from raagbns.linalg import QMatrix, Subspace
from raagbns.presentations import (
    ObstructionVerdict,
    RaagVerdict,
    classify_pso,
    verify_relators_killed,
)
from raagbns.words import inverse, reduce, standard_generators

NAMES = "abcdefgh"


def edgeless(n):
    return SimpleGraph(NAMES[:n], [])


def path(n):
    return SimpleGraph(NAMES[:n], list(zip(NAMES, NAMES[1:n])))


def cycle(n):
    return SimpleGraph(NAMES[:n], list(zip(NAMES, NAMES[1:n])) + [(NAMES[0], NAMES[n - 1])])


def star(leaves):
    return SimpleGraph(NAMES[:leaves] + "x", [(v, "x") for v in NAMES[:leaves]])


K33 = SimpleGraph("abcxyz", [(u, w) for u in "abc" for w in "xyz"])
TWO_TRIANGLES = SimpleGraph(
    "abcdef",
    [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f"), ("c", "d")],
)
STAR5 = star(5)
STAR7 = star(7)


def atlas_graphs():
    """All graphs on one to five vertices, one per isomorphism class,
    relabelled onto a..e."""
    out = []
    for G in nx.graph_atlas_g()[1:53]:
        names = {v: NAMES[i] for i, v in enumerate(sorted(G.nodes()))}
        out.append(
            SimpleGraph(
                tuple(names[v] for v in sorted(G.nodes())),
                [(names[u], names[w]) for u, w in G.edges()],
            )
        )
    return out


def corpus():
    """The isomorphism-complete small census plus selected graphs on
    six to eight vertices."""
    return atlas_graphs() + [path(7), path(8), cycle(6), K33, STAR5, TWO_TRIANGLES, STAR7]


def sub(n, *vectors):
    return Subspace(n, [tuple(Fraction(x) for x in v) for v in vectors])


def higher_betti_vanish(profile):
    return all(b == 0 for b in profile.betti[1:])


def stripped(profile):
    """Betti entries with trailing zero degrees dropped, so profiles of
    complexes of different lengths compare as homology."""
    out = list(profile.betti)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_criterion_01(note):
    lines = Arrangement(2, (sub(2, (1, 0)), sub(2, (0, 1)), sub(2, (1, 1))))
    t0 = time.perf_counter()
    line_profile = arrangement_betti(lines)
    t_lines = time.perf_counter() - t0

    planes = Arrangement(
        3,
        (
            sub(3, (0, 1, 0), (0, 0, 1)),
            sub(3, (1, 1, 0), (0, 0, 1)),
            sub(3, (1, 0, 0), (0, 1, 1)),
            sub(3, (1, 0, 0), (0, 1, 0)),
        ),
    )
    t0 = time.perf_counter()
    plane_profile = arrangement_betti(planes)
    t_planes = time.perf_counter() - t0

    assert line_profile.betti == (0, 1)
    assert plane_profile.betti == (0, 0, 1)
    assert t_lines < 1.0 and t_planes < 1.0
    note(1, f"three lines (0, 1) in {t_lines:.3f}s; four planes (0, 0, 1) in {t_planes:.3f}s")


def coordinate_subspaces(n):
    axes = [tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n)]
    return [
        Subspace(n, [axes[i] for i in picked])
        for r in range(1, n + 1)
        for picked in itertools.combinations(range(n), r)
    ]


def test_criterion_02(note):
    t0 = time.perf_counter()
    cases = 0
    for n in range(1, 5):
        pool = coordinate_subspaces(n)
        for k in range(0, 5):
            for family in itertools.combinations(pool, k):
                profile = betti_numbers(build_chain_complex(Arrangement(n, family)))
                assert higher_betti_vanish(profile), (n, family)
                cases += 1

    rng = random.Random(20260815)
    randomized = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        pool = coordinate_subspaces(n)
        family = tuple(rng.sample(pool, rng.randint(0, min(6, len(pool)))))
        profile = betti_numbers(build_chain_complex(Arrangement(n, family)))
        assert higher_betti_vanish(profile), (n, family)
        randomized += 1

    dt = time.perf_counter() - t0
    assert dt < 30.0
    note(2, f"{cases} exhaustive + {randomized} randomized coordinate arrangements in {dt:.1f}s")


def random_subspace(rng, n):
    while True:
        vectors = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            for _ in range(rng.randint(1, n))
        ]
        s = Subspace(n, vectors)
        if s.dim > 0:
            return s


def random_inside(rng, s):
    """A random nonzero subspace of s: integer combinations of its basis."""
    rows = s.basis.entries
    n = s.ambient_dim
    while True:
        vectors = []
        for _ in range(rng.randint(1, len(rows))):
            vec = [Fraction(0)] * n
            for row in rows:
                c = rng.randint(-2, 2)
                if c:
                    vec = [x + c * y for x, y in zip(vec, row)]
            vectors.append(tuple(vec))
        inner = Subspace(n, vectors)
        if inner.dim > 0:
            return inner


def test_criterion_03(note):
    t0 = time.perf_counter()
    rng = random.Random(33)
    trials = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        members = [random_subspace(rng, n) for _ in range(rng.randint(1, 4))]
        base = betti_numbers(build_chain_complex(Arrangement(n, tuple(members))))
        padded = list(members)
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(members)
            padded.append(target if rng.random() < 0.5 else random_inside(rng, target))
        grown = betti_numbers(build_chain_complex(Arrangement(n, tuple(padded))))
        assert stripped(base) == stripped(grown), (n, members, padded)
        trials += 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    note(3, f"{trials} arrangements stable under contained/duplicate padding in {dt:.1f}s")


def test_criterion_04(note):
    t0 = time.perf_counter()
    checked = 0
    for g in corpus():
        profile = arrangement_betti(raag_arrangement(g))
        assert profile.betti[0] == center_rank(g), g.edges
        assert higher_betti_vanish(profile), g.edges
        checked += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    note(4, f"b0 = center rank and higher degrees vanish on {checked} graphs in {dt:.1f}s")


def test_criterion_05(note):
    t0 = time.perf_counter()
    zero = negative = 0
    capped = []
    euler_by_graph = {}
    for g in corpus():
        try:
            arr = psa_arrangement(g)
        except CapExceeded:
            capped.append(g)
            continue
        profile = arrangement_betti(arr)
        euler_by_graph[g.vertices + tuple(sorted(g.edges))] = profile.euler
        if has_sil(g):
            assert profile.euler < 0, g.edges
            negative += 1
        else:
            assert profile.euler == 0, g.edges
            zero += 1
    # the seven-leaf star is the one corpus member the default cap rejects
    assert capped == [STAR7]
    # frozen spot values for the smallest edgeless graphs with an SIL pair
    assert euler_by_graph[("a", "b", "c")] == -3
    assert euler_by_graph[("a", "b", "c", "d")] == -12
    dt = time.perf_counter() - t0
    assert dt < 300.0
    note(
        5,
        f"Euler = 0 on {zero} no-SIL graphs, < 0 on {negative} SIL graphs, "
        f"1 capped (seven-leaf star) in {dt:.1f}s",
    )


def all_forests(g):
    return all(
        isinstance(forest_certificate(support_graph(g, a)), ForestData) for a in g.vertices
    )


def test_criterion_06(note):
    t0 = time.perf_counter()
    checked = 0
    for g in corpus():
        if g == STAR7 or not all_forests(g):
            continue
        verdict = classify_pso(g)
        assert isinstance(verdict, RaagVerdict), g.edges
        th = verdict.presentation_graph
        d = verdict.dictionary
        assert verify_relators_killed(g, th, d), g.edges

        symbols = len(th.records())
        to_standard_matrix, from_standard_matrix = dictionary_matrices(g, th, d)
        round_trip = from_standard_matrix.mul(to_standard_matrix)
        assert round_trip == QMatrix([[int(i == j) for j in range(symbols)] for i in range(symbols)]), g.edges

        profile = arrangement_betti(pso_arrangement(g)[1])
        tree_count = len(th.tree_gens)
        assert profile.betti[0] == tree_count == center_rank(th.graph), g.edges
        assert higher_betti_vanish(profile), g.edges
        checked += 1

    smallest = classify_pso(edgeless(3)).presentation_graph.graph
    assert len(smallest.vertices) == 3 and not smallest.edges

    dt = time.perf_counter() - t0
    assert dt < 300.0
    note(6, f"{checked} forest-side graphs verified, edgeless-3 quotient is free of rank 3, in {dt:.1f}s")


def test_criterion_07(note):
    t0 = time.perf_counter()
    loop_graphs = [g for g in corpus() if not all_forests(g)]
    assert edgeless(4) in loop_graphs

    checked = 0
    capped = []
    for g in loop_graphs:
        try:
            verdict = classify_pso(g)
        except CapExceeded:
            capped.append(g)
            continue
        assert isinstance(verdict, ObstructionVerdict), g.edges
        witness = verdict.homology_witness
        assert witness.pairing_value == 1, g.edges

        # the chain really is a kernel element: every piece lies in its
        # named summand and the pieces cancel in the ambient space
        w, arr, _ = pso_arrangement(g)
        total = [Fraction(0)] * generator_basis(g).dim
        for j, vec in witness.chain:
            in_w = w.coordinates(list(vec))
            assert in_w is not None and arr.subspaces[j].coordinates(in_w) is not None, g.edges
            total = [x + y for x, y in zip(total, vec)]
        assert all(x == 0 for x in total), g.edges

        profile = arrangement_betti(arr)
        assert len(profile.betti) > 1 and profile.betti[1] >= 1, g.edges
        checked += 1

    assert capped == [STAR7]
    dt = time.perf_counter() - t0
    assert dt < 120.0
    note(
        7,
        f"{checked} loop-side graphs gave an obstruction with pairing 1 and b1 >= 1, "
        f"1 capped (seven-leaf star), in {dt:.1f}s",
    )


def conjugators_by_first_image(g, max_len):
    """The reduced words of length <= max_len, in enumeration order,
    bucketed by their conjugate of the least vertex."""
    first = min(g.vertices)
    buckets = {}
    for h in enumerate_reduced_words(g, max_len):
        buckets.setdefault(reduce(g, h + ((first, 1),) + inverse(h)), []).append(h)
    return buckets


def test_criterion_08(note):
    t0 = time.perf_counter()
    small = [g for g in corpus() if len(g.vertices) <= 6]
    pairs = inner_cases = 0
    vacuous = {3: 0, 4: 0}
    for g in small:
        gens = standard_generators(g)
        candidates = None
        for p, q in itertools.permutations(gens, 2):
            pairs += 1
            table = automorphism_table(g, commutator_moves(p, q))
            commute = _commuting_schema(g, p, q)
            assert table_is_identity(g, table) == commute, (g.edges, p, q)
            if commute or commutator_class_out(g, p, q) == "nontrivial":
                continue
            inner_cases += 1
            if not g.edges and len(g.vertices) in vacuous:
                vacuous[len(g.vertices)] += 1
            if candidates is None:
                candidates = conjugators_by_first_image(g, 4)
            # a conjugator must send the least vertex to its table image,
            # so only that bucket can hold one
            conjugator = None
            for h in candidates.get(table[min(g.vertices)], ()):
                h_inv = inverse(h)
                if all(reduce(g, h + ((v, 1),) + h_inv) == table[v] for v in g.vertices):
                    conjugator = h
                    break
            assert conjugator is not None, (g.edges, p, q)
    # on the edgeless 3- and 4-vertex graphs every nontrivial commutator
    # survives the outer quotient, so the conjugator clause holds there
    # vacuously; the sweep above covers the whole small corpus instead
    assert vacuous == {3: 0, 4: 0}
    dt = time.perf_counter() - t0
    assert dt < 300.0
    note(
        8,
        f"{pairs} ordered generator pairs agree with the commuting schema; conjugators of "
        f"length <= 4 found for all {inner_cases} inner cases (0 on edgeless 3/4), in {dt:.1f}s",
    )


def exhaustive_agreement(g, max_len):
    letters = [(v, e) for v in g.vertices for e in (1, -1)]
    count = 0
    for n in range(max_len + 1):
        for combo in itertools.product(letters, repeat=n):
            w = tuple(combo)
            assert reduce(g, w) == closure_normal_form(g, w), (g.edges, w)
            count += 1
    return count


def test_criterion_09(note):
    # Exhausting length <= 8 over every graph on <= 4 vertices needs a
    # few hundred million closures, hours past the budget; the default
    # scope is exhaustive at shorter lengths plus seeded length-7/8
    # samples.  Set RAAGBNS_ACCEPT_FULL=1 for the unabridged sweep.
    full = os.environ.get("RAAGBNS_ACCEPT_FULL") == "1"
    t0 = time.perf_counter()
    by_size = {1: 8, 2: 8, 3: 8 if full else 6, 4: 8 if full else 5}
    words = 0
    sampled = 0
    rng = random.Random(99)
    for g in atlas_graphs():
        n = len(g.vertices)
        if n > 4:
            continue
        words += exhaustive_agreement(g, by_size[n])
        if n >= 3 and not full:
            letters = [(v, e) for v in g.vertices for e in (1, -1)]
            for _ in range(150):
                w = tuple(rng.choice(letters) for _ in range(rng.randint(7, 8)))
                assert reduce(g, w) == closure_normal_form(g, w), (g.edges, w)
                sampled += 1
    dt = time.perf_counter() - t0
    assert dt < 120.0
    scope = "full length <= 8" if full else "lengths <= 8/8/6/5 by vertex count"
    note(9, f"{words} exhaustive ({scope}) + {sampled} sampled length-7/8 words in {dt:.1f}s")
