"""Exact word arithmetic in a right-angled Artin group.

Words are tuples of (vertex, exponent) letters with exponent +1 or -1.
reduce() returns a canonical normal form: two words are equal in the
group iff their normal forms are literally equal.  After a free
reduction, which settles most short words, it makes two linear passes:

1. Cancellation.  Each vertex keeps a stack of its live letters.  A
   letter (v, e) finds the latest live letter whose vertex is v or not
   adjacent to v; if that is (v, -e) both cancel, else (v, e) is pushed.
2. Lex shuffle.  Each surviving letter waits on the last earlier letter
   of each vertex that is v or not adjacent to v (its heap of pieces).
   Kahn's algorithm emits the lex-least letter with no pending waits;
   ready letters have distinct vertices, so there are no ties.

A letter looks at each vertex seen so far once per pass, so a word of n
letters over a graph with |V| vertices reduces in O(n * |V|) time.
"""

from .errors import MalformedInput, admit


def inverse(word):
    return tuple((v, -e) for v, e in reversed(word))


def parse_word(g, text):
    """Tokens "v", "v^k" separated by whitespace; k may be negative.  The
    expanded length is checked against the enumeration cap before any
    letter is built."""
    tokens = []
    for tok in text.split():
        if "^" in tok:
            v, _, power = tok.partition("^")
            try:
                k = int(power)
            except ValueError as exc:
                raise MalformedInput(f"bad word token {tok!r}") from exc
        else:
            v, k = tok, 1
        if not g.has_vertex(v):
            raise MalformedInput(f"unknown vertex {v!r} in word")
        tokens.append((v, k))
    length = sum(abs(k) for _, k in tokens)
    admit(length, None, f"word would expand to {length} letters")
    letters = []
    for v, k in tokens:
        letters.extend([(v, 1 if k > 0 else -1)] * abs(k))
    return tuple(letters)


def format_word(word):
    if not word:
        return "1"
    return " ".join(v if e == 1 else f"{v}^-1" for v, e in word)


def _cancel(neighbors, word):
    """Pass 1: the word with its cancelling pairs removed, found with one
    stack of live positions per vertex."""
    live, dead = {}, set()
    for i, (v, e) in enumerate(word):
        nbrs = neighbors.get(v, ())
        top = -1
        for u, stack in live.items():
            if stack[-1] > top and u not in nbrs:
                top = stack[-1]
        if top >= 0 and word[top] == (v, -e):
            stack = live[v]
            stack.pop()
            if not stack:
                del live[v]
            dead.update((top, i))
        elif v in live:
            live[v].append(i)
        else:
            live[v] = [i]
    return [x for i, x in enumerate(word) if i not in dead] if dead else word


def _lex_shuffle(neighbors, letters):
    """Pass 2: Kahn's algorithm on the heap of pieces, lex-least ready
    letter first."""
    waits, later, last, ready = [], [], {}, {}
    for i, (v, _) in enumerate(letters):
        nbrs = neighbors.get(v, ())
        count = 0
        for u, j in last.items():
            if u not in nbrs:
                later[j].append(i)
                count += 1
        if not count:
            ready[v] = i
        waits.append(count)
        later.append([])
        last[v] = i
    out = []
    while ready:
        i = ready.pop(min(ready))
        out.append(letters[i])
        for j in later[i]:
            waits[j] -= 1
            if not waits[j]:
                ready[letters[j][0]] = j
    return tuple(out)


def reduce(g, word):
    """Canonical normal form of a word (reduced, then shuffled lex-least)."""
    free = []
    for v, e in word:
        if free and free[-1] == (v, -e):
            free.pop()
        else:
            free.append((v, e))
    if len(free) < 2:
        return tuple(free)
    letters = _cancel(g.neighbors, free)
    if len(letters) < 2:
        return tuple(letters)
    return _lex_shuffle(g.neighbors, letters)


def standard_generators(g):
    """All (multiplier, component) pairs, a tuple in lex order."""
    return tuple((a, k) for a, comps in g.component_table.items() for _, k in comps)
