"""Chain complexes of subspace arrangements and their homology.

The k-chains are direct sums of k-fold intersections V_J over index
subsets J (duplicate subspaces in the list count as distinct indices);
the boundary deletes one index at a time with alternating signs, and
degree one maps each subspace into the ambient space by inclusion.
`arrangement_homology` is the entry point: block-line arrangements,
every one built from a graph among them, take a closed form,
b = (n - r, m - r, 0, ..., 0), every other one the full complex.  A
block-line arrangement's cap is decided from its line counts or, past
them, by Mobius inversion on the flats of its intersection lattice;
its summands are listed only when the flats would cost more than the
cap.
`line_arrangement` keeps an arrangement's rows as {coordinate: entry}
maps and nothing else: its line masks are found from the maps on first
read, and its subspaces, dense rows and all, only when read, so the
Betti profile of a graph's arrangement builds none.  Only an
arrangement read from a file has its stored rows read back.
`maximal_filter` serves arrangement files: an arrangement built from a
graph is already an antichain (see `raagbns.bns`) and goes to the
homology as it is.
"""

import json
from fractions import Fraction
from functools import cached_property, reduce
from math import comb
from operator import or_
from typing import NamedTuple

from .errors import InvariantViolation, MalformedInput, admit, enumeration_cap
from .graphs import bits, component
from .linalg import Subspace, ZMatrix, intersect, parse_rational, rank, subspace_leq


class Arrangement:
    """Subspaces of Q^n in a list, duplicates kept.  An arrangement holds
    its subspaces, as `Arrangement(n, subspaces)` and a file give them,
    or their stored rows as {coordinate: entry} maps, as
    `line_arrangement` gives them, and finds the other, and its line
    masks, on first read."""

    def __init__(self, ambient_dim, subspaces):
        self.ambient_dim, self.subspaces = ambient_dim, tuple(subspaces)
        if any(s.ambient_dim != ambient_dim for s in self.subspaces):
            raise ValueError("subspace ambient dimension mismatch")

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return (self.ambient_dim, self.subspaces) == (other.ambient_dim, other.subspaces)

    def __hash__(self):
        return hash((self.ambient_dim, self.subspaces))

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "ambient_dim" not in data:
            raise MalformedInput('arrangement JSON needs {"ambient_dim": n, "subspaces": [...]}')
        n = data["ambient_dim"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise MalformedInput("ambient_dim must be a nonnegative integer")
        subspaces = data.get("subspaces", [])
        if not isinstance(subspaces, list):
            raise MalformedInput("subspaces must be a list of subspaces")
        subs = []
        for rows in subspaces:
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise MalformedInput("each subspace must be a list of rows, each row a list")
            vectors = []
            for row in rows:
                vec = [_json_rational(tok) for tok in row]
                if len(vec) != n:
                    raise MalformedInput("subspace row length disagrees with ambient_dim")
                vectors.append(vec)
            subs.append(Subspace(n, vectors))
        return cls(n, tuple(subs))

    @cached_property
    def row_maps(self):
        """Each subspace's stored rows as {coordinate: entry} maps, read
        back once from the subspaces it was given."""
        return [[{c: x for c, x in enumerate(row) if x} for row in s.rows] for s in self.subspaces]

    @cached_property
    def subspaces(self):
        """The subspaces, built once from the row maps it was given: each
        row straight from its map, whose first key is the row's pivot.
        Nothing is checked, as the maps are the stored form."""
        n = self.ambient_dim
        return tuple(
            Subspace.from_rref(n, [[row.get(c, 0) for c in range(n)] for row in rows], [next(iter(row)) for row in rows])
            for rows in self.row_maps
        )

    @cached_property
    def lines(self):
        """`_line_masks` of the row maps, found on first read."""
        return _line_masks(self.row_maps)

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "subspaces": [[[str(x) for x in row] for row in s.basis.entries] for s in self.subspaces],
        }


def _json_rational(token):
    """A "p/q" string or a JSON integer (not a bool or a float)."""
    if isinstance(token, str):
        return parse_rational(token)
    if isinstance(token, int) and not isinstance(token, bool):
        return Fraction(token)
    raise MalformedInput(f"matrix entries must be \"p/q\" strings or integers, not {token!r}")


class ChainComplexData(NamedTuple):
    dims: tuple
    boundaries: tuple  # boundaries[k]: ZMatrix of a positive multiple of d_k : C_k -> C_{k-1}
    index_sets: tuple  # per degree >= 1, tuple of (index tuple, dim V_J)


class BettiProfile(NamedTuple):
    betti: tuple
    euler: int


def _support(s):
    """Bit c set when some stored row of s is non-zero at coordinate c."""
    return sum(1 << c for c in {c for row in s.rows for c, x in enumerate(row) if x})


def line_arrangement(n, subspaces):
    """The arrangement of Q^n with the listed subspaces, each given as
    its stored rows, {coordinate: entry} maps in coordinate order:
    primitive integer RREF rows in pivot order, which are not checked.
    Every arrangement built from a graph is made here.  It keeps the maps
    and nothing else: its line masks are found from them on first read,
    so the block-line test and the graph rank run as on a file, and no
    dense row is built until its subspaces are read."""
    out = Arrangement.__new__(Arrangement)
    out.ambient_dim, out.row_maps = n, subspaces
    return out


def arrangement_from_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep, or an integer past the digit limit
        raise MalformedInput(f"bad arrangement JSON: {exc}") from exc
    except OSError as exc:
        raise MalformedInput(f"unreadable arrangement file: {exc}") from exc
    return Arrangement.from_json(data)


def build_chain_complex(a, cap=None):
    """Chain complex with one degree-k summand per k-subset J of subspace
    indices with nonzero intersection; zero summands are dropped and
    enumeration stops at the first empty degree.  CapExceeded as soon as
    the summands counted so far pass the cap (the configured one when
    `cap` is None)."""
    n = a.ambient_dim
    subs = list(a.subspaces)
    supports = [_support(s) for s in subs]
    cap = enumeration_cap() if cap is None else cap
    # many index sets share one V_J: each meet is interned by value, so its
    # meet with each listed subspace is found once
    interned, meets = {}, {}

    # degree 1: one summand per nonzero listed subspace
    levels, total = [], 0
    level = [((i,), interned.setdefault(subs[i], subs[i])) for i in range(len(subs)) if subs[i].dim > 0]
    admit(len(level), cap, f"the chain complex reaches {len(level)} summands at degree 1")
    while level:
        levels.append(level)
        total += len(level)
        nxt = []
        for idx, space in level:
            sup = _support(space)
            for j in range(idx[-1] + 1, len(subs)):
                if subs[j].dim == 0 or not sup & supports[j]:
                    continue
                meet = meets.get((id(space), j))
                if meet is None:
                    meet = intersect([space, subs[j]])
                    meet = meets[id(space), j] = interned.setdefault(meet, meet)
                if meet.dim > 0:
                    nxt.append((idx + (j,), meet))
                    count = total + len(nxt)
                    if count > cap:
                        admit(count, cap, f"the chain complex reaches {count} summands at degree {len(idx) + 1}")
        level = nxt

    dims = [n] + [sum(space.dim for _, space in level) for level in levels]
    offsets = []
    for level in levels:
        offs, run = {}, 0
        for idx, space in level:
            offs[idx] = run
            run += space.dim
        offsets.append(offs)

    # the basis of a summand is its RREF basis: each stored integer row v
    # over its pivot entry, so each column below is exact over that entry
    boundaries = [ZMatrix(0, [{}] * n)]  # d_0 : C_0 -> 0
    coordinates = {}  # (id of an interned parent space, row) -> coordinates
    for k, level in enumerate(levels, start=1):
        parent = dict(levels[k - 2]) if k >= 2 else {}
        columns, denominators = [], []
        for idx, space in level:
            for v, p in zip(space.rows, space.pivots):
                denominators.append(v[p])
                if k == 1:
                    columns.append({r: x for r, x in enumerate(v) if x})
                    continue
                column = {}
                for i in range(k):
                    target = idx[:i] + idx[i + 1:]
                    sign = 1 if i % 2 == 0 else -1
                    above = parent[target]
                    key = (id(above), v)
                    if key not in coordinates:
                        coordinates[key] = above.coordinates(v)
                    coords = coordinates[key]
                    if coords is None:
                        raise InvariantViolation("intersection escaped its parent summand")
                    base = offsets[k - 2][target]
                    for r, x in enumerate(coords):
                        if x:
                            column[base + r] = column.get(base + r, 0) + sign * x
                columns.append(column)
        boundaries.append(ZMatrix.scaled(dims[k - 1], columns, denominators))

    index_sets = tuple(
        tuple((idx, space.dim) for idx, space in level) for level in levels
    )
    return ChainComplexData(tuple(dims), tuple(boundaries), index_sets)


def complex_defect(c):
    """None for a well-formed complex, else what is wrong with it: the
    degree, the failed check and the matrix shapes involved."""
    if len(c.boundaries) != len(c.dims):
        return f"{len(c.boundaries)} boundary maps for {len(c.dims)} degrees"
    for k, b in enumerate(c.boundaries):
        rows = c.dims[k - 1] if k >= 1 else 0
        if (b.rows, b.cols) != (rows, c.dims[k]):
            return f"degree {k}: d_{k} is {b.rows}x{b.cols}, expected {rows}x{c.dims[k]}"
    for k in range(2, len(c.dims)):
        before, b = c.boundaries[k - 1], c.boundaries[k]
        if not before.mul(b).is_zero():
            return (
                f"degree {k}: d_{k - 1} d_{k} is nonzero "
                f"(d_{k - 1} is {before.rows}x{before.cols}, d_{k} is {b.rows}x{b.cols})"
            )
    for k, level in enumerate(c.index_sets, start=1):
        if k < len(c.dims) and sum(d for _, d in level) != c.dims[k]:
            return f"degree {k}: summand dimensions add up to {sum(d for _, d in level)}, not {c.dims[k]}"
    return None


def verify_complex(c):
    """True iff boundary squares to zero and all dimensions line up."""
    return complex_defect(c) is None


def betti_numbers(c):
    if not verify_complex(c):
        raise InvariantViolation(f"ill-formed chain complex: {complex_defect(c)}")
    ranks = [rank(b) for b in c.boundaries] + [0]
    betti = tuple(c.dims[k] - ranks[k] - ranks[k + 1] for k in range(len(c.dims)))
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    return BettiProfile(betti, euler)


def arrangement_homology(a, cap=None):
    """(dims, BettiProfile) of a's chain complex, equal to
    build_chain_complex's dims and betti_numbers' profile, with the same
    refusal at the same summand count.

    A block-line arrangement, where no subspace has two stored rows in
    one block of coordinates joined by rows, takes a closed form.  Each
    subspace is the direct sum of its rows' lines, two lines in a block
    meet in 0 unless equal, and a stored row names its line, so V_J is
    the sum of the lines in every V_j, j in J.  The complex splits into
    one summand per line l: the k-sets J inside T_l = {j : l in V_j} in
    degree k, times l, which is exact but for l in degree 1, and d_1
    sums the m lines into a span of rank r.  Hence
    b = (n - r, m - r, 0, ..., 0) and dims_k = sum over l of C(|T_l|, k).

    No summand is listed to decide the cap.  Degree 1 is admitted on its
    exact count.  Every non-zero meet lies in some T_l, so when
    U = sum over l of (2^|T_l| - 1) is within the cap nothing is refused,
    and the dims of degrees 1 and 2, counted pair by pair off the masks,
    are checked against the closed form.  Past U, `lattice.flat_counts`
    counts each degree's summands on the flats, and the first degree at
    which the running count passes the cap is refused with the general
    build's message; the flats' dims are checked against the closed form
    in every degree, and their degree-1 count against the masks.  Only
    when counting on the flats would take more steps than the cap, as it
    does when they number more than the cap, and so the summands do too,
    does `lattice.walk` list the summands, refusing within cap + 1 of
    them.
    When every line is a unit or a difference (a graphic matroid), r is
    also checked against the graph rank: the used coordinates less the
    blocks with no unit."""
    lines = a.lines
    if lines is None:
        c = build_chain_complex(a, cap)
        return c.dims, betti_numbers(c)
    masks, supports, graph_rank = lines
    cap = enumeration_cap() if cap is None else cap
    held = [m for m in masks if m]
    if len(held) > cap:  # the claim is formatted only to refuse
        admit(len(held), cap, f"the chain complex reaches {len(held)} summands at degree 1")
    t = _containing(masks)
    top = max(t, default=0)
    if sum((1 << x) - 1 for x in t) <= cap:
        dims = [sum(comb(x, k) for x in t) for k in range(1, 1 + top)]
        counted = [
            sum(m.bit_count() for m in held),
            sum((m & o).bit_count() for i, m in enumerate(held) for o in held[i + 1:]) if len(held) > 1 else 0,
        ]
        if counted != (dims + [0, 0])[:2]:
            raise InvariantViolation(
                f"{_where(a)}: the masks give dims {counted} in degrees 1 and 2, the closed form {dims[:2]}"
            )
    else:
        from .lattice import flat_counts, walk  # compiled only when the line counts do not settle the cap

        # both lists end at the degree whose running count passes the cap
        counts, found = flat_counts(held, cap) or walk(held, cap)
        refused = sum(counts) > cap
        dims = [sum(comb(x, k) for x in t) for k in range(1, 1 + (len(found) if refused else top))]
        if found != dims:
            raise InvariantViolation(f"{_where(a)}: the meets give dims {found}, the closed form {dims}")
        if counts[0] != len(held):
            raise InvariantViolation(f"{_where(a)}: the meets give {counts[0]} summands at degree 1, not {len(held)}")
        if refused:
            admit(cap + 1, cap, f"the chain complex reaches {cap + 1} summands at degree {len(counts)}")
    dims.insert(0, a.ambient_dim)
    r = rank(ZMatrix(a.ambient_dim, supports))
    if graph_rank not in (None, r):
        raise InvariantViolation(f"{_where(a)}: the lines have rank {r}, their graph rank is {graph_rank}")
    betti = (a.ambient_dim - r, len(supports) - r)[:len(dims)] + (0,) * (len(dims) - 2)
    return tuple(dims), BettiProfile(betti, a.ambient_dim - len(supports))


def _where(a):
    """Block-line arrangement a, as a failed check names it."""
    masks, supports, _ = a.lines
    return f"block-line chain complex of {len(masks)} subspaces of Q^{a.ambient_dim} with {len(supports)} lines"


def _line_masks(subspaces):
    """(masks, supports, graph rank) when the listed subspaces, each given
    as its stored rows, {coordinate: entry} maps in coordinate order, are
    block-line, else None.  Bit i is the i-th distinct row, masks[j]
    holds subspace j's, and supports[i] is row i's map.  The graph rank
    is None unless every row is a unit or a difference.

    Each row is keyed once.  A new row ORs its coordinates into one mask
    and joins each of them to that mask, so the blocks are the components
    of the join masks."""
    index, supports, spans, joins, own = {}, [], [], {}, []
    graphic = True
    for rows in subspaces:
        held = []
        for row in rows:
            key = tuple(row.items())
            i = index.get(key)
            if i is None:
                i = index[key] = len(supports)
                supports.append(row)
                span = 0
                for c in row:
                    span |= 1 << c
                for c in row:
                    joins[1 << c] = joins.get(1 << c, 0) | span
                spans.append(span)
                graphic = graphic and sorted(x for _, x in key) in ([1], [-1, 1])
            held.append(i)
        own.append(held)
    used = reduce(or_, spans, 0)
    block, blocks, rest = {}, 0, used
    while rest:
        comp = component(rest & -rest, rest, joins)
        block.update(dict.fromkeys(bits(comp), comp))
        blocks += 1
        rest &= ~comp
    row_block = [block[span & -span] for span in spans]
    masks = []
    for held in own:
        seen = mask = 0
        for i in held:
            comp = row_block[i]
            if seen & comp:
                return None
            seen |= comp
            mask |= 1 << i
        masks.append(mask)
    if not graphic:
        return masks, supports, None
    grounded = {comp for comp, span in zip(row_block, spans) if span & (span - 1) == 0}
    return masks, supports, used.bit_count() - blocks + len(grounded)


def _containing(masks):
    """The non-zero |T_l|, how many masks have bit l, counted in one pass
    over each mask's set bits."""
    count = {}
    for m in masks:
        for b in bits(m):
            count[b] = count.get(b, 0) + 1
    return list(count.values())


def maximal_filter(a):
    """Drop duplicates and subspaces strictly contained in another,
    keeping the first copy of each subspace left, in the input order.

    A block-line arrangement is filtered on its line masks: V_i lies in
    V_j exactly when mask i is a subset of mask j.  Each stored row lies
    in one block, V_j is the direct sum of its rows' lines, at most one
    in each block, and a stored row names its line, so a row of V_i lies
    in V_j exactly when V_j stores that very row.  Equal masks are
    therefore equal subspaces.  No line is dropped, since every dropped
    mask lies inside a kept one, which is checked; the filtered
    arrangement is the `line_arrangement` of the kept row maps.  Any
    other arrangement is filtered by `subspace_leq` on every pair.

    Only arrangement files are filtered: every arrangement built from a
    graph is already an antichain of distinct subspaces."""
    if a.lines is None:
        unique = list(dict.fromkeys(a.subspaces))
        kept = tuple(s for s in unique if not any(t is not s and subspace_leq(s, t) for t in unique))
        return Arrangement(a.ambient_dim, kept)
    masks = a.lines[0]
    keep = _maximal_masks(masks)
    kept = [masks[i] for i in keep]
    if reduce(or_, kept, 0) != reduce(or_, masks, 0):
        raise InvariantViolation(
            f"filtering {len(masks)} block-line subspaces of Q^{a.ambient_dim} to {len(kept)} lost a line"
        )
    return line_arrangement(a.ambient_dim, [a.row_maps[i] for i in keep])


def _maximal_masks(masks):
    """The index of the first mask equal to each maximal mask, in order."""
    first = {}
    for i, m in enumerate(masks):
        first.setdefault(m, i)
    return [i for m, i in first.items() if not any(m != o and m & o == m for o in first)]
