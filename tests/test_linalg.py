import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import dense_product_is_zero, parse_qmatrix, rref_rank, span_sum, zmatrix
from raagbns import linalg
from raagbns.errors import InvariantViolation, MalformedInput
from raagbns.linalg import (
    MAX_DIGITS,
    QMatrix,
    Subspace,
    intersect,
    kernel_basis,
    parse_rational,
    rank,
    rref,
    subspace_leq,
)

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def mat(text):
    return parse_qmatrix(text)


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zero(n):
    return Subspace.from_rref(n, [], [])


def full(n):
    return Subspace.from_rref(n, identity_rows(n), range(n))


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(" 5/10 ") == Fraction(1, 2)
    assert parse_rational("-1.5e3") == -1500 and parse_rational("25e-2") == Fraction(1, 4)
    # the numerator or denominator may reach MAX_DIGITS digits, not pass it
    for token in ("1e4299", "1e-4299", ".1e-4298", "9" * MAX_DIGITS, "1/" + "9" * MAX_DIGITS):
        x = parse_rational(token)
        assert max(len(str(x.numerator)), len(str(x.denominator))) <= MAX_DIGITS
    for token in ("1e4300", "1e-5000", ".1e-4299", "0e5000", "1e999999999", "9" * (MAX_DIGITS + 1), "1/1" + "0" * MAX_DIGITS):
        with pytest.raises(MalformedInput, match=f"more than {MAX_DIGITS} digits"):
            parse_rational(token)


def test_rref_identity():
    m = QMatrix(identity_rows(2))
    reduced, rk = rref(m)
    assert reduced == m
    assert rk == 2


def test_rref_rank_two_rows():
    # third row is the difference of the first two
    reduced, rk = rref(mat("1 1 0\n0 1 1\n1 0 -1"))
    assert rk == 2
    assert reduced.rows == 2


def test_rref_zero_matrix():
    reduced, rk = rref(QMatrix([[0] * 4] * 3))
    assert rk == 0
    assert reduced.rows == 0


def test_kernel_of_identity_is_zero():
    assert kernel_basis(QMatrix(identity_rows(3))) == zero(3)


def test_kernel_of_sum_row():
    assert kernel_basis(mat("1 1 1")).dim == 2


def test_kernel_of_pso_f3_relator_matrix():
    # one relation per multiplier on 6 generator coordinates
    relators = mat("1 1 0 0 0 0\n0 0 1 1 0 0\n0 0 0 0 1 1")
    assert kernel_basis(relators).dim == 3


def test_span_sum_axes():
    a = Subspace(2, [(1, 0)])
    b = Subspace(2, [(0, 1)])
    assert span_sum([a, b]) == full(2)


def test_span_sum_line_pair():
    a = Subspace(2, [(1, 0)])
    c = Subspace(2, [(1, 1)])
    assert span_sum([a, c]) == full(2)


def test_span_sum_empty():
    assert span_sum([], ambient_dim=3) == zero(3)


def test_intersect_pair_to_line():
    v1 = Subspace(3, [Y, Z])
    v2 = Subspace(3, [(1, 1, 0), Z])
    assert intersect([v1, v2]) == Subspace(3, [Z])


def test_intersect_diagonal_line():
    v2 = Subspace(3, [(1, 1, 0), Z])
    v3 = Subspace(3, [X, (0, 1, 1)])
    assert intersect([v2, v3]) == Subspace(3, [(1, 1, 1)])


def test_intersect_self():
    s = Subspace(3, [(1, 2, 3), (0, 1, 1)])
    assert intersect([s, s]) == s


def test_subspace_leq():
    z_line = Subspace(3, [Z])
    yz = Subspace(3, [Y, Z])
    x_line = Subspace(3, [X])
    assert subspace_leq(z_line, yz)
    assert not subspace_leq(x_line, yz)
    assert subspace_leq(zero(3), x_line)


def test_coordinates_in_rref_basis():
    s = Subspace(3, [(1, 0, 2), (0, 1, 1)])
    assert s.coordinates((2, 3, 7)) == [Fraction(2), Fraction(3)]
    assert s.coordinates((0, 0, 1)) is None


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_fraction, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(QMatrix)
        )
    )


def subspace_pairs():
    def pair(c):
        rows = st.lists(st.lists(small_fraction, min_size=c, max_size=c), min_size=0, max_size=c)
        return st.tuples(rows, rows).map(
            lambda t: (Subspace(c, t[0]), Subspace(c, t[1]))
        )

    return st.integers(1, 4).flatmap(pair)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_nullity(m):
    assert rank(zmatrix(m)) + kernel_basis(m).dim == m.cols


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rref_idempotent(m):
    reduced, rk = rref(m)
    again, rk2 = rref(reduced)
    assert again == reduced and rk2 == rk


@given(matrices(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_rref_canonical_under_row_operations(m, rng):
    rows = [list(r) for r in m.entries]
    rng.shuffle(rows)
    for _ in range(3):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i != j:
            c = Fraction(rng.randint(-2, 2))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    assert rref(QMatrix(rows))[0] == rref(m)[0]


@given(subspace_pairs())
@settings(max_examples=200, deadline=None)
def test_intersection_commutes_and_is_monotone(pair):
    a, b = pair
    meet = intersect([a, b])
    assert meet == intersect([b, a])
    assert subspace_leq(meet, a) and subspace_leq(meet, b)


@given(subspace_pairs())
@settings(max_examples=200, deadline=None)
def test_dimension_formula(pair):
    a, b = pair
    assert span_sum([a, b]).dim + intersect([a, b]).dim == a.dim + b.dim


# p/q entries with mixed denominators, plenty of zeros, and every shape
# down to 0 x c and r x 0
sparse_fraction = st.one_of(st.just(Fraction(0)), st.fractions(-50, 50, max_denominator=12))


def any_matrices(max_rows=6, max_cols=6):
    def of_shape(r, c):
        rows = st.lists(st.lists(sparse_fraction, min_size=c, max_size=c), min_size=r, max_size=r)
        return rows.map(lambda rows: QMatrix(rows, cols=c))

    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(lambda rc: of_shape(*rc))


@given(any_matrices(), st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_rank_matches_rref_oracle(m, zero_row, zero_col):
    assert rank(zmatrix(m)) == rref_rank(m)
    # the same matrix with one row and one column cleared
    cleared = QMatrix(
        [[0 if i == zero_row or j == zero_col else x for j, x in enumerate(row)] for i, row in enumerate(m.entries)],
        cols=m.cols,
    )
    assert rank(zmatrix(cleared)) == rref_rank(cleared)


def test_zmatrix_scales_by_lcm():
    z = zmatrix(QMatrix([[Fraction(1, 2), 0], [Fraction(-2, 3), 1]]))
    assert z.columns == ({0: 3, 1: -4}, {1: 6})
    assert z.entries == ((3, 0), (-4, 6))


@given(any_matrices(max_rows=4, max_cols=4), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_product_matches_dense(a, data):
    # a random right factor, and one made of kernel vectors (zero product)
    b = data.draw(
        st.lists(st.lists(sparse_fraction, min_size=3, max_size=3), min_size=a.cols, max_size=a.cols).map(
            lambda rows: QMatrix(rows, cols=3)
        )
    )
    for right in (b, kernel_basis(a).basis.transpose()):
        product = zmatrix(a).mul(zmatrix(right))
        assert product.is_zero() == dense_product_is_zero(a, right)
        assert rank(product) == rref_rank(a.mul(right))


# Differential tests against the Fraction code in oracles.  The entries
# are p/q with non-unit denominators and either sign; 0/1 data alone
# would never exercise a pivot entry other than 1.
pq_entry = st.one_of(st.just(Fraction(0)), st.fractions(-7, 7, max_denominator=9))


def pq_spanning_sets(n):
    """Rows spanning a subspace of Q^n: p/q rows, none, or the identity."""
    rows = st.lists(st.lists(pq_entry, min_size=n, max_size=n), min_size=1, max_size=n)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return st.one_of(rows, rows, rows, st.just([]), st.just(identity))


def pq_families(min_size=1, max_size=4):
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(pq_spanning_sets(n), min_size=min_size, max_size=max_size))
    )


def both(n, rows):
    return Subspace(n, rows), oracles.Subspace.from_vectors(n, rows)


def assert_same(s, o):
    assert s.basis == o.basis and s.dim == o.dim and s.ambient_dim == o.ambient_dim
    assert all(type(x) is int for row in s.rows for x in row)


@given(pq_families(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_subspace_matches_fraction_oracle(family, rng):
    n, sets = family
    spaces = [both(n, rows) for rows in sets]
    for (s, o), rows in zip(spaces, sets):
        assert_same(s, o)
        # the same space from a shuffled, rescaled and row-operated spanning set
        scales = [Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 4])) for _ in rows]
        again = [[c * x for x in row] for c, row in zip(scales, rows)]
        rng.shuffle(again)
        if len(again) > 1:
            k = Fraction(rng.randint(-3, 3), 2)
            again[0] = [x + k * y for x, y in zip(again[0], again[1])]
        t, p = both(n, again)
        assert s == t and o == p and hash(s) == hash(t)
    for (s, o), (t, p) in itertools.product(spaces, repeat=2):
        assert (s == t) == (o == p)
        assert s != o  # the two representations never compare equal


@given(pq_families(min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_intersect_matches_fraction_oracle(family):
    n, sets = family
    ours, theirs = zip(*(both(n, rows) for rows in sets))
    for k in range(1, len(ours) + 1):
        meet = intersect(ours[:k])
        assert_same(meet, oracles.intersect(theirs[:k]))
        # stored form: assert_same compares Fraction bases, blind to a row that is not primitive
        stored = Subspace(n, meet.rows)
        assert stored == meet and stored.pivots == meet.pivots
    assert intersect(ours + (zero(n),)) == zero(n)
    assert intersect(ours + (full(n),)) == intersect(ours)
    assert intersect(reversed(ours)) == intersect(ours)


def test_meet_self_check_catches_a_lost_pivot(monkeypatch):
    # planted fault: the elimination drops its last row
    plane, line, real = Subspace(3, [X, Y]), Subspace(3, [(1, 1, 0)]), linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda rows, ncols: tuple(part[:-1] for part in real(rows, ncols)))
    with pytest.raises(InvariantViolation, match="dims 2 and 1 of Q\\^3: the elimination kept 2 pivots, not 3"):
        intersect([plane, line])


@given(pq_families(max_size=1), st.data())
@settings(max_examples=200, deadline=None)
def test_coordinates_match_fraction_oracle(family, data):
    n, (rows,) = family
    s, o = both(n, rows)
    coeffs = data.draw(st.lists(pq_entry, min_size=o.dim, max_size=o.dim))
    inside = [sum((c * row[j] for c, row in zip(coeffs, o.basis.entries)), Fraction(0)) for j in range(n)]
    anywhere = data.draw(st.lists(pq_entry, min_size=n, max_size=n))
    integral = [int(x * 3 * lcm(*(y.denominator for y in inside))) for x in inside]
    for v in (inside, anywhere, integral, [0] * n):
        assert s.coordinates(v) == o.coordinates(v)
        assert (s.coordinates(v) is not None) == o.contains_vector(v)
    assert s.coordinates(inside) is not None and s.coordinates(integral) is not None


@given(any_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_and_kernel_match_fraction_oracle(m):
    assert rref(m) == oracles.rref(m)
    assert_same(kernel_basis(m), oracles.kernel_basis(m))


@given(pq_families(min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_subspace_leq_matches_fraction_oracle(family):
    n, sets = family
    (a, oa), (b, ob) = both(n, sets[0]), both(n, sets[1])
    meet, omeet = intersect([a, b]), oracles.intersect([oa, ob])
    for x, y, ox, oy in [(a, b, oa, ob), (b, a, ob, oa), (meet, a, omeet, oa), (a, meet, oa, omeet)]:
        assert subspace_leq(x, y) == oracles.subspace_leq(ox, oy)
