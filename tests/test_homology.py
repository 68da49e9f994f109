import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import arrangement_betti, dense_betti, dense_chain_complex, dense_product_is_zero, h0_dim, refusal
from raagbns.bns import euler_report, pso_arrangement, psa_arrangement, raag_arrangement
from raagbns import homology, lattice
from raagbns.errors import InvariantViolation
from raagbns.graphs import SimpleGraph
from raagbns.homology import (
    Arrangement,
    ChainComplexData,
    arrangement_homology,
    betti_numbers,
    build_chain_complex,
    maximal_filter,
    verify_complex,
)
from raagbns.linalg import QMatrix, Subspace, ZMatrix

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def sub(n, *vectors):
    return Subspace(n, vectors)


def three_lines():
    # lines x, y and x+y in the plane
    return Arrangement(2, (sub(2, (1, 0)), sub(2, (0, 1)), sub(2, (1, 1))))


def four_planes():
    # planes <y,z>, <x+y,z>, <x,y+z>, <x,y> in 3-space
    return Arrangement(
        3,
        (
            sub(3, Y, Z),
            sub(3, (1, 1, 0), Z),
            sub(3, X, (0, 1, 1)),
            sub(3, X, Y),
        ),
    )


def test_three_lines_dims():
    c = build_chain_complex(three_lines())
    assert c.dims == (2, 3)


def test_three_lines_betti():
    profile = betti_numbers(build_chain_complex(three_lines()))
    assert profile.betti == (0, 1)
    assert profile.euler == -1


def test_four_planes_dims():
    c = build_chain_complex(four_planes())
    assert c.dims == (3, 8, 6)
    assert [d for _, d in c.index_sets[1]] == [1] * 6


def test_four_planes_betti():
    profile = betti_numbers(build_chain_complex(four_planes()))
    assert profile.betti == (0, 0, 1)
    assert profile.euler == 1


def test_single_full_subspace():
    a = Arrangement(3, (sub(3, X, Y, Z),))
    c = build_chain_complex(a)
    assert c.dims == (3, 3)
    assert c.boundaries[1].columns == ({0: 1}, {1: 1}, {2: 1})
    assert c.boundaries[1].entries == (X, Y, Z)


def test_verify_complex_good():
    assert verify_complex(build_chain_complex(four_planes()))


def test_verify_complex_corrupted_sign():
    c = build_chain_complex(four_planes())
    d2 = c.boundaries[2]
    # flip the first nonzero entry in row-major order
    i = min(r for col in d2.columns for r in col)
    j = next(j for j, col in enumerate(d2.columns) if i in col)
    columns = [dict(col) for col in d2.columns]
    columns[j][i] = -columns[j][i]
    flipped = ZMatrix(d2.rows, columns)
    bad = ChainComplexData(c.dims, (c.boundaries[0], c.boundaries[1], flipped), c.index_sets)
    assert not verify_complex(bad)
    assert not dense_product_is_zero(QMatrix(c.boundaries[1].entries), QMatrix(flipped.entries))
    with pytest.raises(InvariantViolation, match=r"degree 2: d_1 d_2 is nonzero \(d_1 is 3x8, d_2 is 8x6\)"):
        betti_numbers(bad)


def test_ill_formed_complex_names_degree_and_shapes():
    c = build_chain_complex(four_planes())
    short = ZMatrix(c.dims[1] - 1, c.boundaries[2].columns)
    bad = ChainComplexData(c.dims, (c.boundaries[0], c.boundaries[1], short), c.index_sets)
    assert not verify_complex(bad)
    with pytest.raises(InvariantViolation, match=r"degree 2: d_2 is 7x6, expected 8x6"):
        betti_numbers(bad)


def test_empty_arrangement():
    c = build_chain_complex(Arrangement(3, ()))
    assert c.dims == (3,)
    assert verify_complex(c)
    assert betti_numbers(c).betti == (3,)


def test_h0_examples():
    assert h0_dim(three_lines()) == 0
    assert h0_dim(Arrangement(3, ())) == 3
    assert h0_dim(Arrangement(2, (sub(2, (1, 0)),))) == 1


def test_maximal_filter_containment():
    line, plane = sub(2, (1, 0)), sub(2, (1, 0), (0, 1))
    assert maximal_filter(Arrangement(2, (line, plane))).subspaces == (plane,)


def test_maximal_filter_duplicates():
    line = sub(2, (1, 0))
    assert maximal_filter(Arrangement(2, (line, line, line))).subspaces == (line,)


def test_maximal_filter_incomparable():
    a = four_planes()
    assert maximal_filter(a).subspaces == a.subspaces


def test_ambient_in_list_kills_homology():
    a = Arrangement(2, (sub(2, (1, 0)), sub(2, (1, 0), (0, 1))))
    profile = betti_numbers(build_chain_complex(a))
    assert all(b == 0 for b in profile.betti)


def coordinate_subspace(n, index_subset):
    rows = [[1 if j == i else 0 for j in range(n)] for i in index_subset]
    return Subspace(n, rows)


def test_coordinate_arrangements_dim3_exhaustive():
    n = 3
    nonempty = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
    for size in (1, 2, 3):
        for family in itertools.combinations(nonempty, size):
            a = Arrangement(n, tuple(coordinate_subspace(n, s) for s in family))
            profile = betti_numbers(build_chain_complex(a))
            assert all(b == 0 for b in profile.betti[1:]), family
            assert profile.betti[0] == h0_dim(a)


def general_homology(a, cap=None):
    """(dims, profile) by the full complex and its ranks: the oracle for
    arrangement_homology's closed form."""
    c = build_chain_complex(a, cap)
    return c.dims, betti_numbers(c)


@st.composite
def coordinate_arrangements(draw, max_dim=6, max_subspaces=7):
    """Coordinate arrangements with duplicates and zero subspaces: each
    subspace is a (possibly empty) set of coordinate axes, or a copy of
    one drawn earlier."""
    n = draw(st.integers(0, max_dim))
    supports = []
    for _ in range(draw(st.integers(0, max_subspaces))):
        if supports and draw(st.booleans()):
            supports.append(draw(st.sampled_from(supports)))
        else:
            supports.append(draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set())
    return Arrangement(n, tuple(coordinate_subspace(n, sorted(s)) for s in supports))


@given(coordinate_arrangements())
@settings(max_examples=150, deadline=None)
def test_coordinate_closed_form_matches_the_full_complex(a):
    assert homology._line_masks(oracles.read_back(a)) is not None
    for kept in (a, maximal_filter(a)):
        assert arrangement_homology(kept) == general_homology(kept)


@given(coordinate_arrangements(max_dim=4, max_subspaces=6))
@settings(max_examples=60, deadline=None)
def test_coordinate_refusals_match_the_full_complex(a):
    # every cap from 0 to one past the summand count: the same refusal, word
    # for word, or both admitted
    c = build_chain_complex(a, cap=10 ** 6)
    for cap in range(sum(map(len, c.index_sets)) + 2):
        assert refusal(arrangement_homology, a, cap) == refusal(build_chain_complex, a, cap)


def test_copies_of_a_unit_line_refuse_like_the_full_complex():
    a = Arrangement(3, (coordinate_subspace(3, [2]),) * 12)
    for cap in (0, 11, 12, 100, 300, 500, 1000, 4094, 4095):
        assert refusal(arrangement_homology, a, cap) == refusal(build_chain_complex, a, cap)
    assert refusal(arrangement_homology, a, 300) == (
        "the chain complex reaches 301 summands at degree 4, over the cap of 300; raise RAAGBNS_CAP to insist"
    )


@st.composite
def block_arrangements(draw, max_dim=6, max_subspaces=6):
    """Block-line arrangements with duplicates and zero subspaces: the
    shuffled coordinates fall into blocks, each with a pool of one to
    four general integer lines inside it, and each subspace takes at most
    one line from each pool, or copies a subspace drawn earlier."""
    n = draw(st.integers(0, max_dim))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = [order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, n]) if hi > lo]
    pools = [
        draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(b), max_size=len(b)).filter(any), min_size=1, max_size=4))
        for b in blocks
    ]
    subs = []
    for _ in range(draw(st.integers(0, max_subspaces))):
        if subs and draw(st.booleans()):
            subs.append(draw(st.sampled_from(subs)))
            continue
        rows = []
        for block, pool in zip(blocks, pools):
            line = draw(st.sampled_from([None, *pool]))
            if line is not None:
                rows.append([dict(zip(block, line)).get(c, 0) for c in range(n)])
        subs.append(Subspace(n, rows))
    return Arrangement(n, tuple(subs))


@given(block_arrangements())
@settings(max_examples=150, deadline=None)
def test_block_line_closed_form_matches_the_full_complex(a):
    assert homology._line_masks(oracles.read_back(a)) is not None
    for kept in (a, maximal_filter(a)):
        assert arrangement_homology(kept) == general_homology(kept)


@given(block_arrangements(max_dim=4, max_subspaces=5))
@settings(max_examples=60, deadline=None)
def test_block_line_refusals_match_the_full_complex(a):
    for kept in (a, maximal_filter(a)):
        c = build_chain_complex(kept, cap=10 ** 6)
        for cap in range(sum(map(len, c.index_sets)) + 2):
            assert refusal(arrangement_homology, kept, cap) == refusal(build_chain_complex, kept, cap)


@given(block_arrangements())
@settings(max_examples=150, deadline=None)
def test_block_line_filter_matches_the_pairwise_oracle(a):
    # the kept row maps give the homology a fresh arrangement of the same
    # subspaces works out for itself
    kept = maximal_filter(a)
    assert [s.basis for s in kept.subspaces] == oracles.maximal_filter_bases(a)
    fresh = Arrangement(kept.ambient_dim, kept.subspaces)
    assert arrangement_homology(kept) == arrangement_homology(fresh)


@st.composite
def row_map_lists(draw, max_dim=5, max_subspaces=6):
    """The stored rows of random subspaces, as `_line_masks` takes them:
    each the span of up to three vectors with small entries, or a copy of
    one drawn earlier, so rows repeat within and across lists.  Many are
    not block-line, and many lines are neither units nor differences."""
    n = draw(st.integers(1, max_dim))
    bound = draw(st.integers(1, 2))
    vectors = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    subs = []
    for _ in range(draw(st.integers(0, max_subspaces))):
        if subs and draw(st.booleans()):
            subs.append(draw(st.sampled_from(subs)))
        else:
            subs.append(Subspace(n, draw(st.lists(vectors, max_size=3))))
    return oracles.read_back(Arrangement(n, tuple(subs)))


@given(st.one_of(row_map_lists(), block_arrangements().map(oracles.read_back)))
@example([[{0: 1}, {1: 1}], [{0: 1, 1: 1}]])  # a plane and a line in it: not block-line
@example([[{0: 1, 1: 2}], [{2: 1}], [{0: 1, 1: -1}]])  # one line neither a unit nor a difference
@example([[{0: 1, 1: -1}], [{0: 1, 1: -1}, {2: 1}], [{2: 1}], [{3: 1, 4: -1}]])  # repeated rows, an ungrounded block
@settings(max_examples=300, deadline=None)
def test_line_masks_match_the_two_pass_oracle(maps):
    # masks, bit order, supports and graph rank, or None for both
    assert homology._line_masks(maps) == oracles.line_masks(maps)


def test_an_arrangement_block_line_only_once_filtered_finds_its_own_masks():
    # the plane <x, y> holds two rows of the block {x, y} that the line
    # x + y makes, so the raw arrangement is filtered pair by pair; the
    # plane and the z-axis left are block-line
    a = Arrangement(3, (sub(3, X, Y), sub(3, X), sub(3, X), sub(3, Z), sub(3, (1, 1, 0))))
    assert a.lines is None
    kept = maximal_filter(a)
    assert kept.subspaces == (sub(3, X, Y), sub(3, Z)) and "lines" not in vars(kept)
    assert arrangement_homology(kept) == general_homology(kept) == ((3, 3), homology.BettiProfile((0, 0), 0))
    assert kept.lines is not None


def coordinate_planes(*pairs):
    return Arrangement(3, tuple(coordinate_subspace(3, pair) for pair in pairs))


def test_a_filter_dropping_both_copies_of_a_duplicate_fails_the_oracle(monkeypatch):
    # planted fault: masks that occur twice are all dropped.  The other
    # two planes still hold every line, so only the oracle sees it
    a = coordinate_planes((0, 1), (1, 2), (0, 2), (0, 2))
    assert [s.basis for s in maximal_filter(a).subspaces] == oracles.maximal_filter_bases(a)
    real = homology._maximal_masks
    monkeypatch.setattr(homology, "_maximal_masks", lambda masks: [i for i in real(masks) if masks.count(masks[i]) == 1])
    assert len(maximal_filter(a).subspaces) == 2
    assert [s.basis for s in maximal_filter(a).subspaces] != oracles.maximal_filter_bases(a)


def test_kept_masks_that_lose_a_line_are_refused(monkeypatch):
    # planted fault: the last maximal mask dropped loses the line z
    a = coordinate_planes((0, 1), (0,), (2,))
    real = homology._maximal_masks
    monkeypatch.setattr(homology, "_maximal_masks", lambda masks: real(masks)[:-1])
    with pytest.raises(InvariantViolation, match="lost a line"):
        maximal_filter(a)


def test_non_block_line_arrangements_take_the_full_complex():
    # three lines in Q^2 are block-line; a plane and a line inside it put
    # two rows of one subspace in one block
    assert homology._line_masks(oracles.read_back(three_lines())) is not None
    assert arrangement_homology(three_lines()) == general_homology(three_lines()) == ((2, 3), homology.BettiProfile((0, 1), -1))
    a = Arrangement(2, (sub(2, (1, 0), (0, 1)), sub(2, (1, 1))))
    assert homology._line_masks(oracles.read_back(a)) is None
    assert arrangement_homology(a) == general_homology(a) == ((2, 3, 1), homology.BettiProfile((0, 0, 0), 0))


def test_closed_form_self_check_catches_a_wrong_rank(monkeypatch):
    # planted fault: the lines' rank one short.  The lines e_0, e_1 and
    # e_0 - e_1 are units and a difference, so their graph rank is checked
    a = Arrangement(2, (sub(2, (1, 0)), sub(2, (0, 1)), sub(2, (1, -1))))
    assert arrangement_homology(a) == ((2, 3), homology.BettiProfile((0, 1), -1))
    real = homology.rank
    monkeypatch.setattr(homology, "rank", lambda m: real(m) - 1)
    with pytest.raises(InvariantViolation, match="rank 1, their graph rank is 2"):
        arrangement_homology(a)


def test_closed_form_self_check_catches_a_wrong_coordinate_count(monkeypatch):
    # planted fault: T_c counted without the last subspace
    a = Arrangement(3, (coordinate_subspace(3, [0, 1]), coordinate_subspace(3, [1, 2])))
    assert arrangement_homology(a) == ((3, 4, 1), homology.BettiProfile((0, 0, 0), 0))
    real = homology._containing
    monkeypatch.setattr(homology, "_containing", lambda masks: real(masks[:-1]))
    with pytest.raises(InvariantViolation, match="closed form"):
        arrangement_homology(a)


def unit_arrangement(masks, n=6):
    """The coordinate arrangement of Q^n whose subspace j spans the unit
    vectors of the bits of masks[j]."""
    return homology.line_arrangement(n, [[{b: 1} for b in range(n) if m >> b & 1] for m in masks])


@given(st.lists(st.integers(0, 2 ** 7 - 1), max_size=12))
@example([0b011, 0b110, 0b101, 0b111, 0b111])  # three pairs meeting in three lines, a repeated mask
@example([0b11, 0b11, 0b01, 0b10, 0b01])  # a flat {a, b} over the flats {a} and {b}
@settings(max_examples=200, deadline=None)
def test_lattice_counts_match_the_walk(masks):
    # per degree, the k-sets with a non-zero meet and their dims, in full
    # and cut at each degree whose running count passes a cap
    held = [m for m in masks if m]
    counts, dims = lattice.walk(held, math.inf)
    assert lattice.flat_counts(held, math.inf) == (counts, dims)
    for k, total in enumerate(itertools.accumulate(counts), start=1):
        assert lattice.flat_counts(held, total - 1) in (None, (counts[:k], dims[:k]))
    flats = lattice.flats(held, math.inf)
    assert len(flats) <= sum(counts)
    f = len(flats)
    steps = f * (f - 1) // 2 + 2 * f * len(set(held))
    assert lattice.flats(held, steps) == flats and lattice.flats(held, steps - 1) is None


@given(st.lists(st.integers(0, 2 ** 6 - 1), max_size=7))
@settings(max_examples=60, deadline=None)
def test_mask_list_refusals_match_the_full_complex(masks):
    # every cap below the summand count is below U = sum of (2^|T_l| - 1),
    # so the flats count the refusal, or the walk where the flats would take
    # more steps than the cap
    a = unit_arrangement(masks)
    c = build_chain_complex(a, cap=10 ** 6)
    for cap in range(sum(map(len, c.index_sets)) + 2):
        assert refusal(arrangement_homology, a, cap) == refusal(build_chain_complex, a, cap)


def test_forty_copies_of_a_line_refuse_like_the_full_complex_without_a_walk(monkeypatch):
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    a = Arrangement(3, (coordinate_subspace(3, [2]),) * 40)
    expected = refusal(build_chain_complex, a, None)
    monkeypatch.setattr(lattice, "walk", lambda masks, cap: pytest.fail("walked the summands"))
    assert refusal(arrangement_homology, a, None) == expected == (
        "the chain complex reaches 1000001 summands at degree 6, over the cap of 1000000; raise RAAGBNS_CAP to insist"
    )


def lattice_case(monkeypatch):
    """The 26 coordinate subspaces of Q^5 of dimension 2 and up, whose
    flats are the 31 non-zero coordinate subspaces, and a cap under
    U = 5 (2^15 - 1) and over the 2,077 steps of counting on the flats,
    so that the flats, and never the walk, decide it."""
    monkeypatch.setattr(lattice, "walk", lambda masks, cap: pytest.fail("walked the summands"))
    return unit_arrangement([m for m in range(32) if m.bit_count() >= 2], n=5), 10 ** 4


@pytest.mark.parametrize("fault", [(1, 0), (-1, 0), (0, 1), (0, -1)], ids=["c+1", "c-1", "e+1", "e-1"])
def test_a_wrong_mobius_value_at_any_flat_is_caught(monkeypatch, fault):
    # planted fault: c_X or e_X off by one at one flat, each flat in turn
    a, cap = lattice_case(monkeypatch)
    assert refusal(arrangement_homology, a, cap) == refusal(build_chain_complex, a, cap) == (
        "the chain complex reaches 10001 summands at degree 5, over the cap of 10000; raise RAAGBNS_CAP to insist"
    )
    flats = lattice.flats([m for m in a.lines[0] if m], cap)
    assert len(flats) == 31
    real = lattice.mobius
    for wrong in range(len(flats)):
        monkeypatch.setattr(
            lattice,
            "mobius",
            lambda flats: [
                (c + fault[0] * (i == wrong), e + fault[1] * (i == wrong)) for i, (c, e) in enumerate(real(flats))
            ],
        )
        with pytest.raises(InvariantViolation, match="the meets give"):
            arrangement_homology(a, cap)


def test_a_flat_left_out_of_the_closure_is_caught(monkeypatch):
    # planted fault: each flat in turn missing from the closure
    a, cap = lattice_case(monkeypatch)
    real = lattice.flats
    for missing in range(31):
        monkeypatch.setattr(
            lattice, "flats", lambda masks, cap: [x for i, x in enumerate(real(masks, cap)) if i != missing]
        )
        with pytest.raises(InvariantViolation, match="the 30 flats of 26 block-line subspaces miss"):
            arrangement_homology(a, cap)


small_entry = st.integers(-3, 3)


def arrangements(max_dim=5, max_subspaces=4, max_gens=3, entry=small_entry):
    def build(n):
        vector = st.lists(entry, min_size=n, max_size=n)
        subspace = st.lists(vector, min_size=1, max_size=max_gens).map(
            lambda vs: Subspace(n, vs)
        )
        return st.lists(subspace, min_size=0, max_size=max_subspaces).map(
            lambda subs: Arrangement(n, tuple(subs))
        )

    return st.integers(1, max_dim).flatmap(build)


@given(arrangements())
@settings(max_examples=80, deadline=None)
def test_boundary_squares_to_zero(a):
    assert verify_complex(build_chain_complex(a))


@given(arrangements())
@settings(max_examples=60, deadline=None)
def test_b0_matches_direct_quotient(a):
    profile = betti_numbers(build_chain_complex(a))
    assert profile.betti[0] == h0_dim(a)


@given(arrangements())
@settings(max_examples=60, deadline=None)
def test_euler_equals_alternating_dim_sum(a):
    c = build_chain_complex(a)
    profile = betti_numbers(c)
    assert profile.euler == sum((-1) ** k * d for k, d in enumerate(c.dims))


@given(arrangements(max_dim=4, max_subspaces=3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_maximal_filter_preserves_betti(a, rng):
    base = betti_numbers(build_chain_complex(maximal_filter(a))).betti
    padded = list(a.subspaces)
    for _ in range(rng.randint(1, 3)):
        if not padded:
            break
        victim = padded[rng.randrange(len(padded))]
        if victim.dim and rng.random() < 0.5:
            # a random line inside an existing subspace
            coeffs = [rng.randint(-2, 2) for _ in range(victim.dim)]
            vec = [
                sum(c * row[j] for c, row in zip(coeffs, victim.basis.entries))
                for j in range(a.ambient_dim)
            ]
            padded.append(Subspace(a.ambient_dim, [vec]))
        else:
            padded.append(victim)
    grown = betti_numbers(build_chain_complex(maximal_filter(Arrangement(a.ambient_dim, tuple(padded))))).betti
    assert base == grown


def padded_eq(p, q):
    width = max(len(p), len(q))
    return list(p) + [0] * (width - len(p)) == list(q) + [0] * (width - len(q))


@given(arrangements(max_dim=4, max_subspaces=3))
@settings(max_examples=40, deadline=None)
def test_filtered_equals_unfiltered_betti(a):
    assert padded_eq(
        arrangement_betti(a, filter_maximal=False).betti, arrangement_betti(a).betti
    )


def test_arrangement_json_round_trip():
    a = four_planes()
    again = Arrangement.from_json(a.to_json())
    assert again == a


def assert_scaled_copy(sparse, dense):
    """sparse is a positive integer multiple of the dense Fraction matrix."""
    assert (sparse.rows, sparse.cols) == (dense.rows, dense.cols)
    pairs = [(x, y) for srow, drow in zip(sparse.entries, dense.entries) for x, y in zip(srow, drow)]
    scale = next((Fraction(x) / y for x, y in pairs if y), Fraction(1))
    assert scale > 0
    assert all(type(x) is int and x == scale * y for x, y in pairs)


def assert_matches_dense_oracle(a):
    c = build_chain_complex(a)
    dims, dense = dense_chain_complex(a)
    assert c.dims == dims
    for sparse_d, dense_d in zip(c.boundaries, dense, strict=True):
        assert_scaled_copy(sparse_d, dense_d)
    assert betti_numbers(c).betti == dense_betti(dims, dense)
    return c, dense


rational_entry = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))


@given(arrangements(max_dim=4, entry=rational_entry))
@settings(max_examples=80, deadline=None)
def test_sparse_complex_matches_dense_oracle(a):
    c, dense = assert_matches_dense_oracle(a)
    for k in range(2, len(c.dims)):
        assert c.boundaries[k - 1].mul(c.boundaries[k]).is_zero()
        assert dense_product_is_zero(dense[k - 1], dense[k])


# the six fixed graphs of the benchmark's homology workload
BENCH_GRAPHS = {
    "cycle6": SimpleGraph("abcdef", list(zip("abcdef", "bcdefa"))),
    "path8": SimpleGraph("abcdefgh", list(zip("abcdefgh", "bcdefgh"))),
    "k33": SimpleGraph("abcxyz", [(u, w) for u in "abc" for w in "xyz"]),
    "edgeless5": SimpleGraph("abcde", []),
    "star5": SimpleGraph("abcdex", [(v, "x") for v in "abcde"]),
    "two_triangles": SimpleGraph(
        "abcdef", [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f"), ("c", "d")]
    ),
}


@pytest.mark.parametrize("name", sorted(BENCH_GRAPHS))
def test_graph_arrangements_match_dense_oracle(name):
    g = BENCH_GRAPHS[name]
    for a in (raag_arrangement(g), psa_arrangement(g), pso_arrangement(g)[1]):
        c, _ = assert_matches_dense_oracle(maximal_filter(a))
        assert arrangement_homology(maximal_filter(a)) == (c.dims, betti_numbers(c))


def test_benchmark_graphs_are_decided_from_their_line_counts(monkeypatch):
    # every side bounds at most 378 summands, under the default cap, so
    # neither the flats nor the walk is needed
    monkeypatch.delenv("RAAGBNS_CAP", raising=False)
    for slow in ("walk", "flats"):
        monkeypatch.setattr(lattice, slow, lambda masks, cap, slow=slow: pytest.fail(f"called {slow}"))
    for name, g in BENCH_GRAPHS.items():
        report = euler_report(SimpleGraph(g.vertices, g.edges))
        assert all(not any(p.betti[2:]) for p in report.values()), name


# p/q entries with non-unit denominators and either sign: the benchmark's
# arrangements have only 0/±1 entries, so only these reach pivot entries
# other than 1 and the per-column denominators of the boundaries
pq_entry = st.one_of(st.just(0), st.fractions(-7, 7, max_denominator=9))


@given(arrangements(max_dim=4, max_subspaces=4, entry=pq_entry), st.data())
@settings(max_examples=80, deadline=None)
def test_complex_and_filter_match_fraction_oracle(a, data):
    # pad with a duplicate and a p/q line inside a listed subspace, so the
    # filter has something to drop
    padded = list(a.subspaces)
    if padded:
        victim = data.draw(st.sampled_from(padded))
        coeffs = data.draw(st.lists(pq_entry, min_size=victim.dim, max_size=victim.dim))
        line = [
            sum((c * row[j] for c, row in zip(coeffs, victim.basis.entries)), Fraction(0))
            for j in range(a.ambient_dim)
        ]
        padded += [victim, Subspace(a.ambient_dim, [line])]
    a = Arrangement(a.ambient_dim, tuple(padded))
    kept = maximal_filter(a)
    assert [s.basis for s in kept.subspaces] == oracles.maximal_filter_bases(a)
    for arr in (a, kept):
        assert_matches_dense_oracle(arr)  # dims, boundaries up to scale, Betti numbers
