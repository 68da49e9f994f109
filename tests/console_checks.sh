#!/usr/bin/env bash
# End-to-end checks of the raagbns command line: exit codes, one-line usage
# errors, refusals at the cap, pinned reports and time limits on large
# inputs.  Run it from the root of a checkout, with the package installed or
# with its source on PYTHONPATH:
#
#     bash tests/console_checks.sh
#     PYTHONPATH=src bash tests/console_checks.sh
#
# With no `raagbns` console script on PATH, a stand-in that runs
# `python -m raagbns.cli` is put there.  Scratch files go to $RUNNER_TEMP
# when it is set, else to a temporary directory removed on exit.  It stops
# at the first failed check.
set -eo pipefail
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi
if ! command -v raagbns > /dev/null; then
  mkdir "$RUNNER_TEMP/bin"
  printf '#!/bin/sh\nexec python -m raagbns.cli "$@"\n' > "$RUNNER_TEMP/bin/raagbns"
  chmod +x "$RUNNER_TEMP/bin/raagbns"
  PATH="$RUNNER_TEMP/bin:$PATH"
fi
raagbns --help > /dev/null
printf '{"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}' > "$RUNNER_TEMP/graph.json"
raagbns classify "$RUNNER_TEMP/graph.json"
# every record is a NamedTuple, argv is parsed from the command table and only
# --help wraps text, so the CLI's import loads none of these
PYTHONDONTWRITEBYTECODE=1 python -c "import sys, raagbns.cli; assert not {'dataclasses', 'inspect', 'argparse', 'textwrap'} & set(sys.modules)"
# a usage error exits 2 with exactly one stderr line
usage_error() {
  expected=$1
  shift
  status=0
  raagbns "$@" 2> "$RUNNER_TEMP/usage.err" || status=$?
  test "$status" -eq 2
  test "$(cat "$RUNNER_TEMP/usage.err")" = "$expected"
}
usage_error "error: raagbns bns: argument --group: invalid choice: 'psx' (choose from 'raag', 'psa', 'pso')" bns "$RUNNER_TEMP/graph.json" --group psx
usage_error "error: raagbns word-reduce: unrecognized arguments: a" word-reduce "$RUNNER_TEMP/graph.json" -- -- a
# a later lone "--" is the word "--", which names no vertex
usage_error "error: unknown vertex '--' in word" word-reduce "$RUNNER_TEMP/graph.json" -- --
usage_error "error: unknown vertex '--' in word" word-reduce -- "$RUNNER_TEMP/graph.json" --
usage_error "error: raagbns classify: argument --pretty: ignored explicit argument 'yes'" classify "$RUNNER_TEMP/graph.json" --pretty=yes
status=0
raagbns classify /nonexistent || status=$?
test "$status" -eq 2
printf '{"vertices": ["a", "b", "c", "d", "e", "f"], "edges": []}' > "$RUNNER_TEMP/edgeless6.json"
status=0
raagbns euler-report "$RUNNER_TEMP/edgeless6.json" || status=$?
test "$status" -eq 3
RAAGBNS_CAP=100000000 raagbns euler-report "$RUNNER_TEMP/edgeless6.json"
printf '{"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "d"]]}' > "$RUNNER_TEMP/path4.json"
printf '{"a": [["c", "d"]], "d": [["a", "b"]]}' > "$RUNNER_TEMP/base.json"
raagbns classify "$RUNNER_TEMP/path4.json" --basepoints "$RUNNER_TEMP/base.json"
printf '{"a": ["cd"]}' > "$RUNNER_TEMP/string-node.json"
status=0
raagbns classify "$RUNNER_TEMP/path4.json" --basepoints "$RUNNER_TEMP/string-node.json" || status=$?
test "$status" -eq 2
# coordinate arrangements take the closed form: 220,390 summands a side here
printf '{"vertices": ["a", "b", "c", "d", "e", "f", "g", "h"], "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["f", "g"], ["g", "h"], ["a", "h"]]}' > "$RUNNER_TEMP/cycle8.json"
timeout 10 raagbns euler-report "$RUNNER_TEMP/cycle8.json" > /dev/null
python -c 'import json; print(json.dumps({"ambient_dim": 3, "subspaces": [[[0, 0, 1]]] * 16}))' > "$RUNNER_TEMP/lines16.json"
timeout 10 raagbns homology --raw "$RUNNER_TEMP/lines16.json" > /dev/null
# the work grows with the rows given, not with ambient_dim
python -c 'import json; print(json.dumps({"ambient_dim": 10 ** 12, "subspaces": [[], []]}))' > "$RUNNER_TEMP/huge.json"
timeout 10 raagbns homology "$RUNNER_TEMP/huge.json" > /dev/null
# edgeless(3) has SIL pairs, so its support graphs and R4 relators are not empty
printf '{"vertices": ["a", "b", "c"], "edges": []}' > "$RUNNER_TEMP/edgeless3.json"
raagbns support-graphs "$RUNNER_TEMP/edgeless3.json" > /dev/null
raagbns presentation "$RUNNER_TEMP/edgeless3.json" --group psa > /dev/null
# each of its Δ-p-set rows e_K - e_L has L last in its multiplier, so it is
# written as the unit e_K in the outer character space's coordinates
raagbns bns "$RUNNER_TEMP/edgeless3.json" --group pso > "$RUNNER_TEMP/pso3.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["subspaces"] != [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]] or r["betti"] != [0, 0])' "$RUNNER_TEMP/pso3.out"
# its SIL non-edges part all three edge generators in the defining graph,
# which is built from trusted masks
raagbns classify "$RUNNER_TEMP/edgeless3.json" > "$RUNNER_TEMP/edgeless3.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); g = r["defining_graph"]; sys.exit(r["relators_killed"] is not True or len(g["vertices"]) != 3 or g["edges"] != [])' "$RUNNER_TEMP/edgeless3.out"
# K5 less an edge has an empty defining graph: every dictionary image is the
# empty word, so the relator check forms no relator
printf '{"vertices": ["a", "b", "c", "d", "e"], "edges": [["a", "c"], ["a", "d"], ["a", "e"], ["b", "c"], ["b", "d"], ["b", "e"], ["c", "d"], ["c", "e"], ["d", "e"]]}' > "$RUNNER_TEMP/k5-less-an-edge.json"
raagbns classify "$RUNNER_TEMP/k5-less-an-edge.json" > "$RUNNER_TEMP/k5-less-an-edge.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); rows = r["dictionary"]["from_standard"]; sys.exit(r["relators_killed"] is not True or r["defining_graph"] != {"vertices": [], "edges": []} or not rows or any(row["word"] != [] for row in rows))' "$RUNNER_TEMP/k5-less-an-edge.out"
# a spider's defining graph has edges and non-edges: the tree generator b{f}
# is adjacent to the three edge generators, which SIL rows part pairwise
printf '{"vertices": ["a", "b", "c", "d", "e", "f"], "edges": [["a", "b"], ["b", "c"], ["b", "d"], ["c", "e"], ["d", "f"]]}' > "$RUNNER_TEMP/spider.json"
raagbns classify "$RUNNER_TEMP/spider.json" > "$RUNNER_TEMP/spider.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["relators_killed"] is not True or r["defining_graph"] != {"vertices": ["a[c,e|d,f]", "b{f}", "c[a|d,f]", "d[a|c,e]"], "edges": [["a[c,e|d,f]", "b{f}"], ["b{f}", "c[a|d,f]"], ["b{f}", "d[a|c,e]"]]})' "$RUNNER_TEMP/spider.out"
# the 7-leaf star is refused at one count whether its centre's label sorts
# first or last: the admission takes the option counts largest first
printf '{"vertices": ["a", "b", "c", "d", "e", "f", "g", "h"], "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["a", "e"], ["a", "f"], ["a", "g"], ["a", "h"]]}' > "$RUNNER_TEMP/star7-first.json"
printf '{"vertices": ["a", "b", "c", "d", "e", "f", "g", "x"], "edges": [["a", "x"], ["b", "x"], ["c", "x"], ["d", "x"], ["e", "x"], ["f", "x"], ["g", "x"]]}' > "$RUNNER_TEMP/star7-last.json"
for centre in first last; do
  status=0
  RAAGBNS_CAP=300000000 raagbns classify "$RUNNER_TEMP/star7-$centre.json" 2> "$RUNNER_TEMP/star7-$centre.err" || status=$?
  test "$status" -eq 3
done
cmp "$RUNNER_TEMP/star7-first.err" "$RUNNER_TEMP/star7-last.err"
# corpus: edgeless(5) is not a RAAG and builds its PSO arrangement for the
# report and again for the witness; path4 is a RAAG
mkdir "$RUNNER_TEMP/corpus"
printf '{"vertices": ["a", "b", "c", "d", "e"], "edges": []}' > "$RUNNER_TEMP/corpus/edgeless5.json"
cp "$RUNNER_TEMP/path4.json" "$RUNNER_TEMP/corpus/path4.json"
raagbns corpus "$RUNNER_TEMP/corpus" > "$RUNNER_TEMP/corpus.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["ok"] is not True or [f["pso_is_raag"] for f in r["files"]] != [False, True])' "$RUNNER_TEMP/corpus.out"
# a corpus holding one malformed graph exits 1, its report saying "ok": false
# with that file's error row
mkdir "$RUNNER_TEMP/broken-corpus"
printf '{"vertices": ["a"' > "$RUNNER_TEMP/broken-corpus/broken.json"
status=0
raagbns corpus "$RUNNER_TEMP/broken-corpus" > "$RUNNER_TEMP/broken-corpus.out" || status=$?
test "$status" -eq 1
python -c 'import json, sys; r = json.load(open(sys.argv[1])); f = r["files"]; sys.exit(r["ok"] is not False or len(f) != 1 or f[0]["file"] != "broken.json" or f[0]["ok"] is not False or "error" not in f[0])' "$RUNNER_TEMP/broken-corpus.out"
# --pretty changes the layout of a report, not its content
raagbns classify "$RUNNER_TEMP/path4.json" > "$RUNNER_TEMP/compact.out"
raagbns classify --pretty "$RUNNER_TEMP/path4.json" > "$RUNNER_TEMP/pretty.out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1])) != json.load(open(sys.argv[2])))' "$RUNNER_TEMP/compact.out" "$RUNNER_TEMP/pretty.out"
cmp -s "$RUNNER_TEMP/compact.out" "$RUNNER_TEMP/pretty.out" && exit 1
# one graph read from JSON and from an edge-list text file gives the same
# report: vertices out of order, an edge given backwards, an isolated vertex
printf '{"vertices": ["d", "b", "e", "a", "c"], "edges": [["c", "d"], ["b", "a"], ["b", "c"]]}' > "$RUNNER_TEMP/same.json"
printf '  # path a-b-c-d and e\nvertices: e\nd c\na b\nb c\n' > "$RUNNER_TEMP/same.txt"
raagbns classify "$RUNNER_TEMP/same.json" > "$RUNNER_TEMP/same-json.out"
raagbns classify "$RUNNER_TEMP/same.txt" > "$RUNNER_TEMP/same-txt.out"
cmp "$RUNNER_TEMP/same-json.out" "$RUNNER_TEMP/same-txt.out"
# the PSO witness reads the Δ-p-sets the arrangement stored on the graph
printf '{"vertices": ["a", "b", "c", "d"], "edges": []}' > "$RUNNER_TEMP/edgeless4.json"
raagbns bns "$RUNNER_TEMP/edgeless4.json" --group pso --witness > "$RUNNER_TEMP/bns.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["betti"] != [0, 4] or r["witness"]["pairing"] != "1")' "$RUNNER_TEMP/bns.out"
# edgeless(10), the free group, at a raised cap: PSA b1 = n(n-1)(n-2)/2 = 360 and
# PSO b1 = n(n-2)(n-3)/2 = 280, read off line masks with no dense row built
python -c 'import json; print(json.dumps({"vertices": list("abcdefghij"), "edges": []}))' > "$RUNNER_TEMP/edgeless10.json"
RAAGBNS_CAP=1000000000000000000 timeout 10 raagbns euler-report "$RUNNER_TEMP/edgeless10.json" > "$RUNNER_TEMP/edgeless10.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["psa"]["betti"] != [0, 360] or r["pso"]["betti"] != [0, 280])' "$RUNNER_TEMP/edgeless10.out"
# star5 at the default cap, through the mask-built pass tables and the line masks:
# RAAG betti [1, 0] (the centre), PSA b1 = n(n-1)(n-2)/2 = 30, PSO b1 = n(n-2)(n-3)/2 = 15
printf '{"vertices": ["c", "l1", "l2", "l3", "l4", "l5"], "edges": [["c", "l1"], ["c", "l2"], ["c", "l3"], ["c", "l4"], ["c", "l5"]]}' > "$RUNNER_TEMP/star5.json"
raagbns euler-report "$RUNNER_TEMP/star5.json" > "$RUNNER_TEMP/star5.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["raag"]["betti"] != [1, 0] or r["psa"]["betti"] != [0, 30] or r["pso"]["betti"] != [0, 15])' "$RUNNER_TEMP/star5.out"
# cycle(12) at a raised cap: 4.1e14 summands a side, decided from the line counts.
# Its RAAG and PSA sides have m = r = n lines, so every Betti number there is 0
python -c 'import json, sys; n = int(sys.argv[1]); v = [f"v{i}" for i in range(n)]; print(json.dumps({"vertices": v, "edges": [[v[i], v[(i + 1) % n]] for i in range(n)]}))' 12 > "$RUNNER_TEMP/cycle12.json"
RAAGBNS_CAP=1000000000000000 timeout 20 raagbns euler-report "$RUNNER_TEMP/cycle12.json" > "$RUNNER_TEMP/cycle12.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(any(r["raag"]["betti"]) or any(r["psa"]["betti"]))' "$RUNNER_TEMP/cycle12.out"
# cycle(9) at the default cap: its flats find the degree that passes the cap
python -c 'import json, sys; n = int(sys.argv[1]); v = [f"v{i}" for i in range(n)]; print(json.dumps({"vertices": v, "edges": [[v[i], v[(i + 1) % n]] for i in range(n)]}))' 9 > "$RUNNER_TEMP/cycle9.json"
status=0
raagbns euler-report "$RUNNER_TEMP/cycle9.json" 2> "$RUNNER_TEMP/cycle9.err" || status=$?
test "$status" -eq 3
test "$(cat "$RUNNER_TEMP/cycle9.err")" = "error: the chain complex reaches 1000001 summands at degree 7, over the cap of 1000000; raise RAAGBNS_CAP to insist"
raagbns word-reduce "$RUNNER_TEMP/path4.json" "a b a^-1 c" > "$RUNNER_TEMP/word.out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["reduced"] != "b c")' "$RUNNER_TEMP/word.out"
# a seeded 10,000-letter word on cycle(6) with planted inverse pairs, about 45 KB of
# argument: its normal form comes back unchanged when reduced again
python -c 'import json, sys; n = int(sys.argv[1]); v = [f"v{i}" for i in range(n)]; print(json.dumps({"vertices": v, "edges": [[v[i], v[(i + 1) % n]] for i in range(n)]}))' 6 > "$RUNNER_TEMP/cycle6.json"
python - > "$RUNNER_TEMP/long-word.txt" <<'EOF'
import random
rng = random.Random(10000)
vertices = [f"v{i}" for i in range(6)]
letters = [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(5000)]
for _ in range(2500):
    i = rng.randint(0, len(letters))
    j = min(len(letters) + 1, i + rng.randint(1, 4))
    v = rng.choice(vertices)
    letters.insert(i, (v, 1))
    letters.insert(j, (v, -1))
print(" ".join(v if e == 1 else f"{v}^-1" for v, e in letters))
EOF
timeout 10 raagbns word-reduce "$RUNNER_TEMP/cycle6.json" "$(cat "$RUNNER_TEMP/long-word.txt")" > "$RUNNER_TEMP/long-word.out"
python -c 'import json, sys; print(json.load(open(sys.argv[1]))["reduced"])' "$RUNNER_TEMP/long-word.out" > "$RUNNER_TEMP/long-nf.txt"
timeout 10 raagbns word-reduce "$RUNNER_TEMP/cycle6.json" "$(cat "$RUNNER_TEMP/long-nf.txt")" > "$RUNNER_TEMP/long-nf.out"
python -c 'import json, sys; nf = open(sys.argv[2]).read().strip(); sys.exit(nf == "1" or json.load(open(sys.argv[1]))["reduced"] != nf)' "$RUNNER_TEMP/long-nf.out" "$RUNNER_TEMP/long-nf.txt"
# the same kind of word on edgeless(6), the free group: its normal form is its
# free reduction, computed here with one stack
python -c 'import json; print(json.dumps({"vertices": [f"v{i}" for i in range(6)], "edges": []}))' > "$RUNNER_TEMP/edgeless6-words.json"
python - "$RUNNER_TEMP/free-word.txt" "$RUNNER_TEMP/free-nf.txt" <<'EOF'
import random, sys
rng = random.Random(6)
vertices = [f"v{i}" for i in range(6)]
letters = [(rng.choice(vertices), rng.choice((1, -1))) for _ in range(5000)]
for _ in range(2500):
    i = rng.randint(0, len(letters))
    j = min(len(letters) + 1, i + rng.randint(1, 4))
    v = rng.choice(vertices)
    letters.insert(i, (v, 1))
    letters.insert(j, (v, -1))
stack = []
for v, e in letters:
    if stack and stack[-1] == (v, -e):
        stack.pop()
    else:
        stack.append((v, e))
for path, word in zip(sys.argv[1:], (letters, stack)):
    with open(path, "w") as f:
        f.write(" ".join(v if e == 1 else f"{v}^-1" for v, e in word) or "1")
EOF
timeout 10 raagbns word-reduce "$RUNNER_TEMP/edgeless6-words.json" "$(cat "$RUNNER_TEMP/free-word.txt")" > "$RUNNER_TEMP/free-word.out"
python -c 'import json, sys; nf = open(sys.argv[2]).read(); sys.exit(nf == "1" or json.load(open(sys.argv[1]))["reduced"] != nf)' "$RUNNER_TEMP/free-word.out" "$RUNNER_TEMP/free-nf.txt"
# on path4 a-b-c-d, where the columns are piled: a and c cancel across b, d stays
raagbns word-reduce "$RUNNER_TEMP/path4.json" "d c a b a^-1 d^-1 c^-1" > "$RUNNER_TEMP/path-word.out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["reduced"] != "d b d^-1")' "$RUNNER_TEMP/path-word.out"
# an exponent is refused from its text, before Fraction multiplies it out
printf '{"ambient_dim": 1, "subspaces": [[["1e999999999"]]]}' > "$RUNNER_TEMP/exponent.json"
status=0
timeout 10 raagbns homology "$RUNNER_TEMP/exponent.json" || status=$?
test "$status" -eq 2
# a JSON number past the interpreter's 4,300-digit limit is malformed input
python -c 'print("{\"vertices\": [" + "1" * 5000 + "]}")' > "$RUNNER_TEMP/huge-number.json"
status=0
raagbns classify "$RUNNER_TEMP/huge-number.json" || status=$?
test "$status" -eq 2
# a plane and a line inside it are not block-line, so their meets take the general path
printf '{"ambient_dim": 2, "subspaces": [[[1, 0], [0, 1]], [[1, 1]]]}' > "$RUNNER_TEMP/plane-and-line.json"
raagbns homology --raw "$RUNNER_TEMP/plane-and-line.json" > /dev/null
# 16 copies of one line off the axes are block-line: 65,535 summands counted, none met
python -c 'import json; print(json.dumps({"ambient_dim": 2, "subspaces": [[[1, 1]]] * 16}))' > "$RUNNER_TEMP/span11.json"
timeout 10 raagbns homology --raw "$RUNNER_TEMP/span11.json" > "$RUNNER_TEMP/span11.out"
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["betti"] != [1] + [0] * 16)' "$RUNNER_TEMP/span11.out"
# a plane, the x-axis twice, the z-axis and a last line in the plane: the filter
# keeps the plane and the z-axis.  With the y-axis last the file is block-line and
# is filtered on its line masks; with (1, 1, 0) last it is block-line only once filtered
for last in "[0, 1, 0]" "[1, 1, 0]"; do
  printf '{"ambient_dim": 3, "subspaces": [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0]], [[1, 0, 0]], [[0, 0, 1]], [%s]]}' "$last" > "$RUNNER_TEMP/plane.json"
  raagbns homology "$RUNNER_TEMP/plane.json" > "$RUNNER_TEMP/plane.out"
  python -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r["dims"] != [3, 3] or r["betti"] != [0, 0])' "$RUNNER_TEMP/plane.out"
done
# the benchmark's two-triangles graph: `bns` prints its PSA arrangement unfiltered,
# and as an antichain it reads the same to `homology` with and without --raw, and
# matches the PSA profile of `euler-report`
printf '{"vertices": ["a", "b", "c", "d", "e", "f"], "edges": [["a", "b"], ["a", "c"], ["b", "c"], ["d", "e"], ["d", "f"], ["e", "f"], ["c", "d"]]}' > "$RUNNER_TEMP/two-triangles.json"
raagbns bns "$RUNNER_TEMP/two-triangles.json" --group psa > "$RUNNER_TEMP/two-triangles-psa.out"
python -c 'import json, sys; r = json.load(open(sys.argv[1])); json.dump({"ambient_dim": r["ambient_dim"], "subspaces": r["subspaces"]}, open(sys.argv[2], "w"))' "$RUNNER_TEMP/two-triangles-psa.out" "$RUNNER_TEMP/two-triangles-psa.json"
raagbns homology "$RUNNER_TEMP/two-triangles-psa.json" > "$RUNNER_TEMP/two-triangles-filtered.out"
raagbns homology --raw "$RUNNER_TEMP/two-triangles-psa.json" > "$RUNNER_TEMP/two-triangles-raw.out"
raagbns euler-report "$RUNNER_TEMP/two-triangles.json" > "$RUNNER_TEMP/two-triangles-report.out"
python - "$RUNNER_TEMP"/two-triangles-{psa,filtered,raw,report}.out <<'EOF'
import json, sys
bns, filtered, raw, report = (json.load(open(path)) for path in sys.argv[1:])
profile = {"betti": report["psa"]["betti"], "euler": report["psa"]["euler"]}
assert bns["subspaces"], bns
assert [filtered[k] for k in ("dims", "betti")] == [raw[k] for k in ("dims", "betti")], (filtered, raw)
for r in (bns, filtered, raw):
    assert {k: r[k] for k in profile} == profile, (r, profile)
EOF
# JSON nested past the recursion limit is malformed input, reported on one line
python -c 'print("[" * 100000)' > "$RUNNER_TEMP/nested.json"
python -c 'print("{\"vertices\": " + "[" * 100000)' > "$RUNNER_TEMP/nested-graph.json"
for args in "classify $RUNNER_TEMP/nested-graph.json" "homology $RUNNER_TEMP/nested.json" \
    "classify $RUNNER_TEMP/path4.json --basepoints $RUNNER_TEMP/nested.json"; do
  status=0
  raagbns $args 2> "$RUNNER_TEMP/nested.err" || status=$?
  test "$status" -eq 2
  test "$(wc -l < "$RUNNER_TEMP/nested.err")" -eq 1
done
