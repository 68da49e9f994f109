"""Seeded inputs, expected exit codes and output checks for each workload.

A workload run is a sequence of passes.  A pass is a fixed list of ops,
each one CLI invocation on generated input files; pass `p` of seed `s`
is drawn from its own generator, so any pass can be rebuilt exactly
without replaying the earlier ones.  This module imports nothing from
raagbns: the output checks are the harness's own.
"""

import hashlib
import itertools
import json
import random
import string
from dataclasses import dataclass, field

LETTERS = string.ascii_lowercase
# Vertex labels are drawn from all two-letter names, so that random
# graphs, relabelled fixed graphs and words practically never repeat an
# input; the worker refuses a run that does.
LABELS = [x + y for x in LETTERS for y in LETTERS]

# verdict: random graphs on 5 and 6 vertices with every edge count from
# n-1 to C(n,2), the same number of each per pass, plus one fixed capped op
VERDICT_STRATA = [(n, m) for n in (5, 6) for m in range(n - 1, n * (n - 1) // 2 + 1)]
VERDICT_RANDOM_OPS = 160 * len(VERDICT_STRATA)
# words: a positive and a planted word per length stratum
WORD_OPS = 40
WORD_MIN_LEN, WORD_MAX_LEN = 20, 300


@dataclass
class Op:
    """One CLI call: `raagbns <command> <file paths...> <extra...>`."""

    command: str
    files: dict  # file name -> text written before the pass
    extra: list = field(default_factory=list)
    expect_exit: int = 0
    check: str = ""  # name of the output invariant, see CHECKS
    meta: dict = field(default_factory=dict)

    def argv(self, directory):
        return [self.command, *(f"{directory}/{name}" for name in self.files), *self.extra]

    def key(self):
        """Digest of the op's input: command, file contents, extra arguments."""
        parts = [self.command, [_sha(text) for text in self.files.values()], self.extra]
        return _sha(json.dumps(parts))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _graph_text(vertices, edges):
    return json.dumps({"vertices": list(vertices), "edges": [list(e) for e in edges]}, sort_keys=True)


def _relabel(rng, vertices, edges):
    """Fresh labels in the base graph's sorted order: the program walks
    vertices in sorted order, and for the capped star that order alone
    moves the time to the cap by a factor of two."""
    labels = dict(zip(sorted(vertices), sorted(rng.sample(LABELS, len(vertices)))))
    return [labels[v] for v in vertices], [(labels[u], labels[w]) for u, w in edges]


def _random_graph(rng, n, m):
    vertices = rng.sample(LABELS, n)
    return vertices, rng.sample(list(itertools.combinations(vertices, 2)), m)


# --- fixed graphs (base labels; every pass relabels them) -------------------

def _cycle(n):
    vs = LETTERS[:n]
    return vs, list(zip(vs, vs[1:])) + [(vs[0], vs[-1])]


def _path(n):
    vs = LETTERS[:n]
    return vs, list(zip(vs, vs[1:]))


def _star(leaves):
    vs = LETTERS[:leaves] + "x"
    return vs, [(v, "x") for v in vs[:-1]]


HOMOLOGY_GRAPHS = {
    "cycle6": _cycle(6),
    "path8": _path(8),
    "k33": ("abcxyz", [(u, w) for u in "abc" for w in "xyz"]),
    "edgeless5": ("abcde", []),
    "star5": _star(5),
    "two_triangles": (
        "abcdef",
        [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f"), ("c", "d")],
    ),
}
STAR7 = _star(7)


# --- pass generators ---------------------------------------------------------

def _verdict_pass(rng, smoke):
    ops = []
    for i in range(6 if smoke else VERDICT_RANDOM_OPS):
        n, m = VERDICT_STRATA[i % len(VERDICT_STRATA)]
        text = _graph_text(*_random_graph(rng, n, m))
        ops.append(Op("classify", {"g.json": text}, check="verdict", meta={"graph": text}))
    if not smoke:
        text = _graph_text(*_relabel(rng, *STAR7))
        ops.append(Op("classify", {"g.json": text}, expect_exit=3, check="refused"))
    return ops


def _homology_pass(rng, smoke):
    names = ["k33", "two_triangles"] if smoke else list(HOMOLOGY_GRAPHS)
    ops = []
    for name in names:
        text = _graph_text(*_relabel(rng, *HOMOLOGY_GRAPHS[name]))
        ops.append(Op("euler-report", {"g.json": text}, check="euler", meta={"graph": text}))
    return ops


def _word_text(rng, vertices, length, planted):
    """A positive run of `length` letters, or a signed word with inverse
    pairs planted a few letters apart for the cancellation pass."""
    if not planted:
        return " ".join(rng.choice(vertices) for _ in range(length))
    letters = [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(length - 2 * (length // 4))]
    for _ in range(length // 4):
        i = rng.randint(0, len(letters))
        j = min(len(letters) + 1, i + rng.randint(1, 4))
        v = rng.choice(vertices)
        letters.insert(i, (v, 1))
        letters.insert(j, (v, -1))
    return " ".join(v if e == 1 else f"{v}^-1" for v, e in letters)


def _words_pass(rng, smoke):
    """Pairs of ops, a positive run and a planted word, one pair per
    length stratum.  The length, vertex count and edge density of each op
    follow from its stratum, so every pass holds the same mix and only
    the graphs and words are random."""
    pairs = 2 if smoke else WORD_OPS // 2
    span = 20 if smoke else WORD_MAX_LEN - WORD_MIN_LEN
    ops = []
    for j in range(pairs):
        length = WORD_MIN_LEN + round(span * (j + 0.5) / pairs)
        n = 4 + j % 5
        for planted in (False, True):
            density = (j + 2 * planted) % 4 / 3  # edgeless, 1/3, 2/3 or complete
            m = round(n * (n - 1) / 2 * density)
            vertices, edges = _random_graph(rng, n, m)
            text = _graph_text(vertices, edges)
            word = _word_text(rng, vertices, length, planted)
            ops.append(Op("word-reduce", {"g.json": text}, extra=[word], check="idempotent", meta={"graph": text}))
    return ops


PASSES = {
    "verdict": _verdict_pass,
    "homology": _homology_pass,
    "words": _words_pass,
}


def make_pass(workload, seed, index, smoke=False):
    """The ops of pass `index` of a workload; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return PASSES[workload](rng, smoke)


# --- output checks -----------------------------------------------------------
# Each check gets the op and its parsed report and returns None when the
# output holds, or a one-line reason.

def stdout_digest(text):
    return _sha(text)


def check_output(op, code, stdout, stderr, error):
    """None if the op exited as expected and printed a correct report (or,
    refused, none); otherwise a one-line reason.  `error` is the
    traceback of an exception that escaped the CLI, or None."""
    if error:
        return "traceback: " + error.strip().splitlines()[-1]
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}: {stderr.strip()[:200]}"
    if code != 0:
        return "a refused op printed a report" if stdout else None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    check = CHECKS.get(op.check)
    try:
        return check(op, report) if check else None
    except (KeyError, TypeError, AttributeError) as exc:
        return f"report lacks an expected field: {exc!r}"

def _center_rank(graph):
    n = len(graph["vertices"])
    degree = {v: 0 for v in graph["vertices"]}
    for u, w in graph["edges"]:
        degree[u] += 1
        degree[w] += 1
    return sum(1 for d in degree.values() if d == n - 1)


def _components(vertices, adj):
    seen, out = set(), []
    for root in vertices:
        if root in seen:
            continue
        stack, comp = [root], set()
        seen.add(root)
        while stack:
            u = stack.pop()
            comp.add(u)
            for w in adj[u] & vertices:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        out.append(comp)
    return out


def _has_sil(graph):
    """Some nonadjacent pair a, b has a component of the graph minus
    lk(a) & lk(b) that contains neither a nor b."""
    adj = _adjacency(graph)
    for a, b in itertools.combinations(sorted(adj), 2):
        if b in adj[a]:
            continue
        rest = set(adj) - (adj[a] & adj[b])
        if any(a not in c and b not in c for c in _components(rest, adj)):
            return True
    return False


def _check_verdict(op, report):
    if report.get("input") != _sorted_graph(op.meta["graph"]):
        return "input echo differs from the generated graph"
    if report.get("verdict") == "raag":
        return None if report.get("relators_killed") is True else "relators_killed is not true"
    if report.get("verdict") == "not_raag":
        pairing = report.get("homology_witness", {}).get("pairing")
        return None if pairing == "1" else f"witness pairing is {pairing!r}"
    return f"unknown verdict {report.get('verdict')!r}"


def _sorted_graph(text):
    g = json.loads(text)
    return {"vertices": sorted(g["vertices"]), "edges": sorted(sorted(e) for e in g["edges"])}


def _check_euler(op, report):
    graph = json.loads(op.meta["graph"])
    raag = report["raag"]["betti"]
    if raag[:1] != [_center_rank(graph)] or any(raag[1:]):
        return f"RAAG Betti profile {raag} is not (center rank, 0, ...)"
    euler = report["psa"]["euler"]
    if (euler < 0) != _has_sil(graph) or euler > 0:
        return f"PSA Euler characteristic {euler} disagrees with SIL"
    return None


def parse_letters(text):
    """The (vertex, +1 or -1) letters of a word written "v" and "v^-1"."""
    letters = []
    for token in text.split():
        vertex, _, power = token.partition("^")
        letters.append((vertex, -1 if power == "-1" else 1))
    return letters


def word_is_fixed(adj, letters):
    """Whether reducing the word returns it unchanged, that is whether it
    is freely reduced in the RAAG and the lex-least of the words it can
    be shuffled to by swapping adjacent commuting letters.  For each
    letter, the letters before it that it can be moved past are the run
    of its neighbours just before it; none of them may be larger, and the
    first letter of its own vertex before that run may not be its
    inverse."""
    for j, (v, e) in enumerate(letters):
        k = j - 1
        while k >= 0 and letters[k][0] in adj[v]:
            if letters[k] > (v, e):
                return False
            k -= 1
        if k >= 0 and letters[k] == (v, -e):
            return False
    return True


def _adjacency(graph):
    adj = {v: set() for v in graph["vertices"]}
    for u, w in graph["edges"]:
        adj[u].add(w)
        adj[w].add(u)
    return adj


def _check_word_fixed(op, report):
    """Reducing the reported normal form again returns it unchanged."""
    if report.get("word") != op.extra[0]:
        return "word echo differs from the generated word"
    reduced = report["reduced"]
    if reduced == "1":
        return None
    adj = _adjacency(json.loads(op.meta["graph"]))
    letters = parse_letters(reduced)
    if any(v not in adj for v, _ in letters):
        return "normal form names a vertex outside the graph"
    return None if word_is_fixed(adj, letters) else "normal form is not a fixed point of reduce"


CHECKS = {
    "verdict": _check_verdict,
    "euler": _check_euler,
    "idempotent": _check_word_fixed,
}
