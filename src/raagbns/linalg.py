"""Exact linear algebra over the rationals.

There are no floats anywhere.  A Subspace holds its RREF basis with
each row stored as its primitive integer multiple, so equality of
subspaces is literal equality of the stored data, and meets and
membership tests run on Python ints.  One fraction-free Gauss-Jordan
routine, `_echelon`, puts integer rows in that form, and a meet is one
such elimination (`intersect`).  Chain-complex boundaries use ZMatrix,
a sparse integer matrix held by columns, whose products and ranks
never leave the integers.  fractions.Fraction is left to the edges:
parsed input, and the QMatrix bases built for printing.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import InvariantViolation, MalformedInput


MAX_DIGITS = 4300  # CPython's default int_max_str_digits, fixed here for every Python


def parse_rational(token):
    """Parse "p/q", "p" or a decimal such as "-1.5e3" into a Fraction, first
    refusing a token whose text lets Fraction build more than MAX_DIGITS."""
    mantissa, _, exp = token.strip().lower().replace("_", "").lstrip("+-").partition("e")
    num, _, den = mantissa.partition("/")
    whole, _, places = num.partition(".")
    size = exp.lstrip("+-").lstrip("0")
    e = int(size[:5]) if size.isdecimal() else 0  # five digits already pass MAX_DIGITS
    up, down = (0, e) if exp[:1] == "-" else (e, 0)
    if max(len(whole) + len(places) + up, len(den), len(places) + 1 + down) > MAX_DIGITS:
        raise MalformedInput(f"bad rational literal {token!r}: more than {MAX_DIGITS} digits")
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
    def scaled(cls, rows, columns, denominators):
        """Column j is the integer {row: value} map columns[j] over the
        positive integer denominators[j], the whole matrix multiplied by the
        least positive integer that clears every quotient.  A scalar
        multiple keeps the rank and whether a product with it is zero."""
        scale = lcm(*(d // gcd(d, *col.values()) for col, d in zip(columns, denominators) if d > 1))
        return cls(rows, [{r: x * scale // d for r, x in col.items() if x} for col, d in zip(columns, denominators)])

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


def _int_row(row):
    """The row times the LCM of its denominators: the same span, in ints."""
    scale = lcm(*(x.denominator for x in row))
    return [int(x * scale) for x in row] if scale > 1 else list(map(int, row))


def _echelon(rows, ncols):
    """(rows, pivots) of the RREF of integer rows, each RREF row held as
    its primitive integer multiple (gcd 1, positive pivot), a unique form.
    Fraction-free Gauss-Jordan: against a pivot p, a row with x in that
    column becomes (p*row - x*pivot_row) / gcd(p, x), then loses the gcd
    of its entries."""
    work = [row for row in rows if any(row)]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        if top == len(work):
            break
        sel = next((i for i in range(top, len(work)) if work[i][col]), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        prow = work[top]
        p = prow[col]
        for i, row in enumerate(work):
            x = row[col]
            if x and i != top:
                g = gcd(p, x)
                a, b = p // g, x // g
                row = [a * y - b * z for y, z in zip(row, prow)]
                g = gcd(*row)
                work[i] = [y // g for y in row] if g > 1 else row
        pivots.append(col)
    # each row over its content, signed so that the pivot turns positive
    contents = [gcd(*row) if row[col] > 0 else -gcd(*row) for row, col in zip(work, pivots)]
    return tuple(tuple(y // c for y in row) for row, c in zip(work, contents)), tuple(pivots)


def _kernel(rows, pivots, ncols):
    """Primitive integer basis of {x : row . x = 0 for every row}, for rows
    from _echelon: one vector per free column j, set there to the LCM of
    the pivots of the rows nonzero at j, its pivot entries solved."""
    out = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        hits = [(row[j], row[p], p) for row, p in zip(rows, pivots) if row[j]]
        scale = lcm(*(m for _, m, _ in hits))
        v = [0] * ncols
        v[j] = scale
        for x, m, p in hits:
            v[p] = -x * (scale // m)
        g = gcd(*v)  # at least 1: v[j] is not 0
        out.append([y // g for y in v])
    return out


def rref(m):
    """Reduced row-echelon form with zero rows dropped; returns (QMatrix, rank)."""
    s = Subspace(m.cols, m)
    return s.basis, s.dim


def rank(m):
    """Rank of a ZMatrix.

    Fraction-free column elimination in the style of Bareiss (Math. Comp.
    22, 1968): a column whose lowest nonzero row is already owned by a
    pivot column is replaced by an integer combination of the two that
    clears that row, then divided by the gcd of its entries.  The columns
    left nonzero have distinct lowest rows, so they count the rank.
    """
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


class Subspace:
    """A subspace of Q^n held as its RREF basis, each row stored as its
    primitive integer multiple (`rows`, with pivot columns `pivots`).
    That form is unique, so == and hash are structural."""

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim, basis):
        rows = basis.entries if isinstance(basis, QMatrix) else basis
        if any(len(row) != ambient_dim for row in rows) or getattr(basis, "cols", 0) not in (0, ambient_dim):
            raise ValueError("basis width disagrees with ambient dimension")
        self.ambient_dim = ambient_dim
        self.rows, self.pivots = _echelon(map(_int_row, rows), ambient_dim)

    @classmethod
    def from_rref(cls, ambient_dim, rows, pivots):
        """A subspace from rows already in the stored form, primitive
        integer RREF rows in pivot order, and their pivot columns.
        Neither is checked."""
        s = cls.__new__(cls)
        s.ambient_dim, s.rows, s.pivots = ambient_dim, tuple(map(tuple, rows)), tuple(pivots)
        return s

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        """The RREF basis as a QMatrix of Fractions, built on each access:
        each stored row over its pivot entry."""
        return QMatrix([[Fraction(x, r[p]) for x in r] for r, p in zip(self.rows, self.pivots)], cols=self.ambient_dim)

    def coordinates(self, v):
        """Coefficients of v in the RREF basis: the entries of v at the
        pivot columns.  None if v lies outside: clearing each pivot column
        by the integer step m*v - c*row, with m the row's pivot entry and
        c v's entry there, leaves a nonzero rest."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length disagrees with ambient dimension")
        rest = v
        for row, p in zip(self.rows, self.pivots):
            c = rest[p]
            if c:
                m = row[p]
                rest = [m * x - c * y for x, y in zip(rest, row)]
        return None if any(rest) else [v[p] for p in self.pivots]

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_basis(m):
    """Null space {x : m x = 0} of a matrix acting on column vectors."""
    s = Subspace(m.cols, m)
    return Subspace(m.cols, _kernel(s.rows, s.pivots, m.cols))


def intersect(subspaces):
    """Intersection of a nonempty list of subspaces of one ambient space
    Q^n, met two at a time by Zassenhaus's elimination: one `_echelon`
    over 2n columns of the rows (u | u), u in the meet so far U, and
    (v | 0), v in the next subspace V.  They span {(u + v | u)}, one to
    one in (u, v), so they keep dim U + dim V pivots, which is checked.
    The rows with pivot n or past span the vectors (0 | w), w in U and V.
    Their right halves are the meet in stored form: RREF, and a zero left
    half leaves a row's content and pivot sign to its right half."""
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("intersect needs at least one subspace")
    if len({s.ambient_dim for s in subspaces}) > 1:
        raise ValueError("mismatched ambient dimensions")
    meet = subspaces[0]
    n, pad = meet.ambient_dim, (0,) * meet.ambient_dim
    for other in subspaces[1:]:
        rows, pivots = _echelon([u + u for u in meet.rows] + [v + pad for v in other.rows], 2 * n)
        if len(pivots) != meet.dim + other.dim:
            raise InvariantViolation(
                f"meeting subspaces of dims {meet.dim} and {other.dim} of Q^{n}: "
                f"the elimination kept {len(pivots)} pivots, not {meet.dim + other.dim}"
            )
        top = sum(p < n for p in pivots)  # the pivots ascend
        meet = Subspace.from_rref(n, [row[n:] for row in rows[top:]], [p - n for p in pivots[top:]])
    return meet


def subspace_leq(a, b):
    """True iff a is contained in b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("mismatched ambient dimensions")
    return a.dim <= b.dim and all(b.coordinates(row) is not None for row in a.rows)
