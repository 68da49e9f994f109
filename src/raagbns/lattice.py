"""Summand counts of a block-line chain complex, from the flats of its
line masks.

A block-line arrangement is handed over as masks, one per subspace and
one bit per line, and the meet of subspaces is the AND of their masks.
`flat_counts` gives, in each degree k >= 1, the number of k-sets of
masks with a non-zero meet and the dims of those meets, up to the first
degree at which the running count passes the cap, by Mobius inversion
on the flats, the distinct non-zero meets, when that takes at most cap
steps.  Otherwise `walk` lists the k-sets, refusing as the general
build does.  `homology.arrangement_homology`
imports this module only when its line counts do not settle the cap,
so a run that never gets there does not compile it.
"""

from collections import Counter
from math import comb

from .errors import InvariantViolation, admit


def flat_counts(masks, cap):
    """(counts, dims) in each degree k >= 1 of the k-sets J of the
    non-zero `masks` whose meet is non-zero, as `walk` gives them, up to
    the first degree at which the running count passes the cap; None
    when counting on the flats, the AND-closure of the masks, would take
    more steps than the cap (`flats`).  With t_X the masks holding the
    flat X, the J whose meet holds X number C(t_X, k), so by Mobius
    inversion on the flats (Rota, 1964) counts_k = sum of c_X C(t_X, k)
    and dims_k = sum of e_X C(t_X, k), with c and e from `mobius`.
    Every mask must be a flat, and each flat's meet with each mask 0,
    the flat or another flat."""
    found = flats(masks, cap)
    if found is None:
        return None
    weight = Counter(masks)
    known = set(found)
    if not known.issuperset(weight):
        raise InvariantViolation(f"the {len(found)} flats of {len(masks)} block-line subspaces miss one of them")
    terms = {}  # t_X -> [sum of c_X, sum of e_X]
    for x, (c, e) in zip(found, mobius(found)):
        t = 0
        for m, w in weight.items():
            meet = x & m
            if meet == x:
                t += w
            elif meet and meet not in known:
                raise InvariantViolation(
                    f"the {len(found)} flats of {len(masks)} block-line subspaces miss the meet of one with a flat"
                )
        term = terms.setdefault(t, [0, 0])
        term[0] += c
        term[1] += e
    counts, dims, total = [], [], 0
    for k in range(1, 1 + max(terms, default=0)):
        counts.append(sum(c * comb(t, k) for t, (c, _) in terms.items()))
        dims.append(sum(e * comb(t, k) for t, (_, e) in terms.items()))
        total += counts[-1]
        if total > cap:
            break
    return counts, dims


def flats(masks, cap):
    """The distinct non-zero ANDs of the non-zero `masks`, fewest bits
    first, or None once the steps of counting on f of them, f(f - 1)/2
    containment tests in `mobius` and two ANDs of each with each
    distinct mask, pass the cap.  That bound is checked before each round
    of ANDs, whose steps it also bounds, so the flats take about cap steps
    at most, against up to cap + 1 summands times the masks for `walk`.
    Each meet of k masks is a flat met with one more mask, so the closure
    grows by ANDs with the distinct masks."""
    found = dict.fromkeys(masks)
    distinct = frontier = list(found)
    while True:
        f = len(found)
        if f * (f - 1) // 2 + 2 * f * len(distinct) > cap:
            return None
        if not frontier:
            return sorted(found, key=int.bit_count)
        grown = []
        for x in frontier:
            for m in distinct:
                meet = x & m
                if meet and meet not in found:
                    found[meet] = None
                    grown.append(meet)
        frontier = grown


def mobius(ordered):
    """(c_Z, e_Z) for each flat Z of `ordered`, listed so that no flat
    comes before one inside it: c_Z = 1 - sum of c_Y and
    e_Z = |Z| - sum of e_Y over the flats Y strictly inside Z.  So the
    c_Y, and the e_Y, of the flats inside any flat Z add up to 1, and to
    |Z|, and c_Z = -mu(0, Z) with a bottom 0 put under the flats."""
    done = []
    for z in ordered:
        inside = [(c, e) for y, c, e in done if y & z == y]
        done.append((z, 1 - sum(c for c, _ in inside), z.bit_count() - sum(e for _, e in inside)))
    return [(c, e) for _, c, e in done]


def walk(masks, cap):
    """(counts, dims) in each degree k >= 1 of the k-sets J of the
    non-zero `masks` whose meet is non-zero, found by listing them in the
    general build's order with meets taken by `&`.  CapExceeded as the
    build refuses: at degree 1 with the exact count, later as soon as the
    running count passes the cap, at cap + 1."""
    level = list(enumerate(m for m in masks if m))
    admit(len(level), cap, f"the chain complex reaches {len(level)} summands at degree 1")
    later = [level[i + 1:] for i in range(len(level))]
    counts, dims, total = [], [], 0
    while level:
        counts.append(len(level))
        dims.append(sum(m.bit_count() for _, m in level))
        total += len(level)
        nxt = []
        for i, sup in level:
            nxt += [(j, meet) for j, m in later[i] if (meet := sup & m)]
            if total + len(nxt) > cap:  # one summand at a time, the count passes the cap at cap + 1
                admit(cap + 1, cap, f"the chain complex reaches {cap + 1} summands at degree {len(counts) + 1}")
        level = nxt
    return counts, dims
