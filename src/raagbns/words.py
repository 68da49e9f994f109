"""Exact word arithmetic in a right-angled Artin group.

Words are tuples of (vertex, exponent) letters with exponent +1 or -1.
reduce() returns a canonical normal form: two words are equal in the
group iff their normal forms are literally equal.  After a free
reduction, which settles most short words, the letters are piled on
columns, one per vertex of the word, in label order (the piling of
Crisp, Godelle and Wiest: Viennot's heap of pieces kept as one stack per
vertex).  A column holds its vertex's live letters and, between them,
counts of spacers; a spacer on column u stands for a live letter of
another vertex that does not commute with u.

1. Push or cancel.  A letter (v, e) cancels when the top of column v is
   (v, -e) with no spacer above it: that letter is popped, and so is one
   spacer from each column of a vertex that does not commute with v.
   Otherwise (v, e) is pushed on column v and one spacer on each of
   those columns.
2. Read-off.  The columns are read bottom-up.  A vertex is ready when
   the lowest remaining entry of its column is a letter; the least ready
   vertex's letter is emitted, and its own column and each
   non-commuting column advance by one.

When the word's vertices pairwise commute no column ever holds a
spacer, so each column is a power of its vertex, and the normal form is
those powers in label order.

Why the columns are exact.  Call a letter a blocker of v when its vertex
is v or does not commute with v.  Every live blocker of v has left an
entry on column v, and an entry goes only with its letter, so the top of
column v is the latest live blocker of v.  A letter of v therefore
cancels exactly when the latest live blocker of v is its inverse, the
cancellation of the heap of pieces.  Read bottom-up, a letter is lowest
in its column exactly when every earlier blocker of its vertex has been
emitted, so the read-off is Kahn's algorithm on the heap with the
lex-least ready letter first; ready letters have distinct vertices, so
there are no ties.  The spacers taken are the right ones: when a letter
of v cancels, no live letter of a non-commuting u came after it (that
letter would have left a spacer above it on column v), and when it is
emitted, none comes before it (that spacer would be below it).  So on
column u every entry between its spacer and the end being taken from is
also a spacer, and as spacers are not told apart, taking any of them is
the same as taking its own.

Each letter touches the columns of the vertices it does not commute
with once on the way in and once on the way out, and the read-off looks
along the columns, in label order, for the first ready one.  So a word
of n letters over k distinct vertices reduces in O(n * k) time, and
only the neighbour sets of those k vertices are read.
"""

from .errors import MalformedInput, admit


def inverse(word):
    return tuple((v, -e) for v, e in reversed(word))


def parse_word(g, text):
    """Tokens "v", "v^k" separated by whitespace; k may be negative.  The
    expanded length is checked against the enumeration cap before any
    letter is built."""
    tokens, length = [], 0
    for tok in text.split():
        if "^" in tok:
            v, _, power = tok.partition("^")
            try:
                k = int(power)
            except ValueError as exc:
                raise MalformedInput(f"bad word token {tok!r}") from exc
        else:
            v, k = tok, 1
        if v not in g.neighbors:
            raise MalformedInput(f"unknown vertex {v!r} in word")
        tokens.append((v, k))
        length += abs(k)
    admit(length, None, f"word would expand to {length} letters")
    letters = []
    for v, k in tokens:
        if k == 1:
            letters.append((v, 1))
        else:
            letters += [(v, 1 if k > 0 else -1)] * abs(k)
    return tuple(letters)


def format_word(word):
    if not word:
        return "1"
    return " ".join(v if e == 1 else f"{v}^-1" for v, e in word)


def reduce(g, word):
    """Canonical normal form of a word: freely reduced, then pushed on or
    cancelled from the columns of its vertices and read off bottom-up."""
    letters = []
    for letter in word:
        if letters and letters[-1][0] == letter[0] and letters[-1][1] == -letter[1]:
            letters.pop()
        else:
            letters.append(letter)
    if len(letters) < 2:
        return tuple(letters)
    vertices = {v for v, _ in letters}
    labels = sorted(vertices)
    non_commuting = []
    for v in labels:
        others = vertices.difference(g.neighbors.get(v, ()))
        others.discard(v)
        non_commuting.append(others)
    if not any(non_commuting):
        # no column ever holds a spacer, so each is a power of its vertex
        powers = dict.fromkeys(labels, 0)
        for v, e in letters:
            powers[v] += e
        out = []
        for v, n in powers.items():
            if n:
                out += [(v, 1 if n > 0 else -1)] * abs(n)
        return tuple(out)
    # [sentinel, spacers, letter, spacers, ..., letter, spacers]: the
    # sentinel cancels nothing, and the top is always a spacer count
    columns = {v: [(None, 0), 0] for v in labels}
    stacks = {v: (columns[v], list(map(columns.__getitem__, others))) for v, others in zip(labels, non_commuting)}
    for letter in letters:
        column, others = stacks[letter[0]]
        if column[-1] or column[-2][1] != -letter[1]:
            column += (letter, 0)
            for other in others:
                other[-1] += 1
        else:
            del column[-2:]
            for other in others:
                other[-1] -= 1
    # turned over, each column pops from its bottom
    for column in columns.values():
        column.reverse()
        column.pop()
    out = []
    while True:
        for column, others in stacks.values():
            if not column[-1] and len(column) > 1:
                break
        else:
            return tuple(out)
        column.pop()
        out.append(column.pop())
        for other in others:
            other[-1] -= 1


def standard_generators(g):
    """All (multiplier, component) pairs, a tuple in lex order."""
    return tuple((a, k) for a, comps in g.component_table.items() for _, k in comps)
