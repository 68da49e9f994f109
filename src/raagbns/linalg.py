"""Exact linear algebra over the rationals.

Everything is built on fractions.Fraction and Python ints; there are no
floats anywhere.  Subspaces are stored as RREF bases so that equality of
subspaces is literal equality of the stored data.  Chain-complex
boundaries use ZMatrix, a sparse integer matrix held by columns, whose
products and ranks never leave the integers.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import MalformedInput


def parse_rational(token):
    """Parse "p/q" or "p" into a Fraction."""
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad rational literal {token!r}") from exc


def format_rational(q):
    return str(Fraction(q))


class QMatrix:
    """Immutable matrix of Fractions stored as a tuple of row tuples."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries, cols=None):
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in entries)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise MalformedInput("ragged matrix rows")
        elif cols is None:
            cols = 0
        self.entries = rows
        self.rows = len(rows)
        self.cols = cols

    @classmethod
    def identity(cls, n):
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows, cols):
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    def transpose(self):
        if self.entries:
            return QMatrix(list(zip(*self.entries)), cols=self.rows)
        return QMatrix([()] * self.cols, cols=0)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ot = other.transpose().entries
        return QMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.entries],
            cols=other.cols,
        )

    def stack(self, other):
        if other.rows and self.rows and self.cols != other.cols:
            raise ValueError("dimension mismatch in row stack")
        return QMatrix(self.entries + other.entries, cols=max(self.cols, other.cols))

    def to_token_rows(self):
        return [[format_rational(x) for x in row] for row in self.entries]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self.entries)
        return f"QMatrix({self.rows}x{self.cols}: {body})"


class ZMatrix:
    """Sparse integer matrix held as columns: columns[j] maps the row of
    each nonzero entry of column j to that entry."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, columns):
        self.rows = rows
        self.columns = tuple(columns)
        self.cols = len(self.columns)

    @classmethod
    def scaled(cls, rows, columns):
        """Integer matrix from columns of rational {row: value} maps, the
        whole matrix multiplied by the LCM of its denominators.  A scalar
        multiple keeps the rank and whether a product with it is zero."""
        scale = lcm(*{x.denominator for col in columns for x in col.values()})
        return cls(rows, [{r: x.numerator * (scale // x.denominator) for r, x in col.items() if x} for col in columns])

    @classmethod
    def from_qmatrix(cls, m):
        return cls.scaled(m.rows, [{i: row[j] for i, row in enumerate(m.entries) if row[j]} for j in range(m.cols)])

    @property
    def entries(self):
        """Dense rows of ints, built on each access."""
        dense = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                dense[i][j] = x
        return tuple(tuple(row) for row in dense)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for col in other.columns:
            acc = {}
            for k, y in col.items():
                for i, x in self.columns[k].items():
                    acc[i] = acc.get(i, 0) + x * y
            out.append({i: x for i, x in acc.items() if x})
        return ZMatrix(self.rows, out)

    def is_zero(self):
        return not any(self.columns)

    def __repr__(self):
        return f"ZMatrix({self.rows}x{self.cols}, {sum(map(len, self.columns))} nonzero)"


def rref(m):
    """Reduced row-echelon form with zero rows dropped; returns (QMatrix, rank)."""
    work = [list(row) for row in m.entries]
    nrows, ncols = len(work), m.cols
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, nrows):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[pivot_row], work[sel] = work[sel], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                prow = work[pivot_row]
                work[r] = [x - factor * y for x, y in zip(work[r], prow)]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return QMatrix(work[:pivot_row], cols=ncols), pivot_row


def rank(m):
    """Rank of a ZMatrix (or of a QMatrix, converted first).

    Fraction-free column elimination in the style of Bareiss (Math. Comp.
    22, 1968): a column whose lowest nonzero row is already owned by a
    pivot column is replaced by an integer combination of the two that
    clears that row, then divided by the gcd of its entries.  The columns
    left nonzero have distinct lowest rows, so they count the rank.
    """
    if isinstance(m, QMatrix):
        m = ZMatrix.from_qmatrix(m)
    pivots = {}  # lowest nonzero row -> the reduced column that owns it
    for col in m.columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            g = gcd(pivot[low], col[low])
            a, b = pivot[low] // g, col[low] // g
            col = {r: a * x for r, x in col.items()}
            for r, y in pivot.items():
                x = col.get(r, 0) - b * y
                if x:
                    col[r] = x
                else:
                    del col[r]
            g = gcd(*col.values())
            if g > 1:
                col = {r: x // g for r, x in col.items()}
    return len(pivots)


def pivot_columns(reduced):
    """Pivot column indices of a matrix already in RREF."""
    pivots = []
    for row in reduced.entries:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return pivots


class Subspace:
    """A subspace of Q^n held as an RREF basis (zero rows dropped).

    Two Subspace values describe the same subspace exactly when their
    stored bases are identical, so == and hash are structural.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        reduced, _ = rref(basis)
        if reduced.cols not in (0, ambient_dim) or (reduced.rows and reduced.cols != ambient_dim):
            raise ValueError("basis width disagrees with ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = QMatrix(reduced.entries, cols=ambient_dim)

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        return cls(ambient_dim, QMatrix(list(vectors), cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, QMatrix([], cols=ambient_dim))

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, QMatrix.identity(ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def pivots(self):
        return pivot_columns(self.basis)

    def reduce_vector(self, v):
        """Remainder of v after elimination against the RREF basis."""
        v = [Fraction(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        for row, p in zip(self.basis.entries, self.pivots()):
            if v[p] != 0:
                c = v[p]
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def contains_vector(self, v):
        return all(x == 0 for x in self.reduce_vector(v))

    def coordinates(self, v):
        """Coefficients of v in the RREF basis; None if v lies outside.

        Because the basis is in RREF, the coefficient on row i is just
        the entry of v at that row's pivot column.
        """
        v = [Fraction(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        coords = [v[p] for p in self.pivots()]
        residue = list(v)
        for c, row in zip(coords, self.basis.entries):
            if c != 0:
                residue = [x - c * y for x, y in zip(residue, row)]
        if any(x != 0 for x in residue):
            return None
        return coords

    def annihilator(self):
        """Matrix whose kernel is exactly this subspace."""
        return kernel_basis(self.basis).basis

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m):
    """Null space {x : m x = 0} of a matrix acting on column vectors."""
    reduced, _ = rref(m)
    pivots = pivot_columns(reduced)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for row, p in zip(reduced.entries, pivots):
            v[p] = -row[j]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def _check_common_ambient(subspaces, ambient_dim):
    for s in subspaces:
        if ambient_dim is None:
            ambient_dim = s.ambient_dim
        elif s.ambient_dim != ambient_dim:
            raise ValueError("mismatched ambient dimensions")
    if ambient_dim is None:
        raise ValueError("ambient dimension unknown for an empty list")
    return ambient_dim


def intersect(subspaces):
    """Intersection of a nonempty list of subspaces of one ambient space.

    Each subspace is cut out by its annihilator rows; the intersection is
    the kernel of all the rows stacked together.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("intersect needs at least one subspace")
    ambient_dim = _check_common_ambient(subspaces, None)
    if len(subspaces) == 1:
        return subspaces[0]
    constraints = QMatrix([], cols=ambient_dim)
    for s in subspaces:
        constraints = constraints.stack(s.annihilator())
    return kernel_basis(constraints)


def subspace_leq(a, b):
    """True iff a is contained in b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("mismatched ambient dimensions")
    return all(b.contains_vector(row) for row in a.basis.entries)
