"""Command-line front door.  Every subcommand reads one input, runs one
computation, and prints a deterministic JSON report: dictionary keys are
sorted, lists are emitted in a fixed order and rationals are "p/q"
strings, so identical inputs give identical bytes.

A command's body is a function from its loaded input to its report dict:
it gets a graph for GRAPH_FILE, an Arrangement for ARRANGEMENT_FILE or the
path string for DIRECTORY, then its options as keywords, less --pretty.
`_run` alone reads the input and prints the report, with the tool and,
for a read input, its echo under "input"; a report with "ok": false
exits 1.

One table, COMMANDS, drives both the argument parsing and the `--help`
texts.  Usage errors exit 2 with one line, like malformed input.
"""

import json
import os
import pathlib
import sys
from typing import Callable, NamedTuple

from . import __version__
from .bns import (
    euler_report,
    generator_symbol,
    h1_witness,
    has_sil,
    psa_arrangement,
    pso_arrangement,
    raag_arrangement,
)
from .errors import MalformedInput, RaagBnsError, enumeration_cap
from .graphs import (
    LoopWitness,
    center_rank,
    forest_certificate,
    graph_from_file,
    support_graph,
)
from .homology import (
    arrangement_from_file,
    arrangement_homology,
    maximal_filter,
)
from .presentations import (
    ObstructionVerdict,
    RaagVerdict,
    classify_pso,
    psa_presentation,
    pso_presentation,
    verify_relators_killed,
)
from .words import format_word, parse_word, reduce


def _profile_json(profile):
    return {"betti": list(profile.betti), "euler": profile.euler}


def _witness_json(witness):
    return {
        "loop": [list(n) for n in witness.loop.nodes],
        "chain": [
            {"subspace": j, "vector": [str(x) for x in vec]}
            for j, vec in witness.chain
        ],
        "cocycle_support": list(witness.cocycle_support),
        "pairing": str(witness.pairing_value),
    }


def _verdict_json(g, verdict):
    if isinstance(verdict, ObstructionVerdict):
        return {
            "verdict": "not_raag",
            "owner": verdict.owner,
            "loop": [list(n) for n in verdict.loop.nodes],
            "homology_witness": _witness_json(verdict.homology_witness),
        }
    th = verdict.presentation_graph
    d = verdict.dictionary
    return {
        "verdict": "raag",
        "defining_graph": th.graph.to_json(),
        "tree_generators": [r.symbol for r in th.tree_gens],
        "edge_generators": [r.symbol for r in th.edge_gens],
        "basepoints": [
            {"owner": o, "tree": [list(n) for n in t], "basepoint": list(b)}
            for o, t, b in th.basepoints
        ],
        "preferred": [{"owner": o, "basepoint": list(b)} for o, b in th.preferred],
        "dictionary": {
            "to_standard": [
                {"symbol": sym, "word": [[generator_symbol(x), e] for x, e in word]}
                for sym, word in d.to_standard
            ],
            "from_standard": [
                {"generator": generator_symbol(x), "word": [[sym, e] for sym, e in word]}
                for x, word in d.from_standard
            ],
        },
        "center_rank": verdict.center_rank,
        "relators_killed": verify_relators_killed(g, th, d),
    }


def _load_basepoints(path):
    if path is None:
        return None
    try:
        raw = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON, over-long integers
        raise MalformedInput(f"unreadable basepoint file: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedInput("basepoint file must map vertices to node lists")
    for nodes in raw.values():
        if not isinstance(nodes, list) or not all(
            isinstance(n, list) and all(isinstance(v, str) for v in n) for n in nodes
        ):
            raise MalformedInput("basepoint nodes must be lists of vertices")
    return raw


def support_graphs_cmd(g):
    per = {}
    for a in g.masks[0]:
        sg = support_graph(g, a)
        cert = forest_certificate(sg)
        entry = {
            "nodes": [list(n) for n in sg.nodes],
            "edges": sorted([list(u), list(w)] for u, w in sg.edges),
        }
        if isinstance(cert, LoopWitness):
            entry["forest"] = False
            entry["loop"] = [list(n) for n in cert.nodes]
        else:
            entry["forest"] = True
            entry["trees"] = [[list(n) for n in t] for t in cert.trees]
        per[a] = entry
    return {"support_graphs": per}


def classify_cmd(g, basepoints):
    verdict = classify_pso(g, _load_basepoints(basepoints))
    return _verdict_json(g, verdict)


def homology_cmd(arr, raw):
    kept = arr if raw else maximal_filter(arr)
    dims, profile = arrangement_homology(kept)
    return {"dims": list(dims), **_profile_json(profile)}


def bns_cmd(g, group, witness):
    report = {"group": group}
    if group == "raag":
        arr = raag_arrangement(g)
    elif group == "psa":
        arr = psa_arrangement(g)
    else:
        w, arr, _ = pso_arrangement(g)
        report["outer_space"] = w.basis.to_token_rows()
    _, profile = arrangement_homology(arr)
    report.update(arr.to_json(), **_profile_json(profile))
    if witness and group == "pso":
        report["witness"] = _first_loop_witness(g)
    return report


def _first_loop_witness(g):
    for a in g.masks[0]:
        cert = forest_certificate(support_graph(g, a))
        if isinstance(cert, LoopWitness):
            return _witness_json(h1_witness(g, cert))
    return None


def presentation_cmd(g, group):
    p = psa_presentation(g) if group == "psa" else pso_presentation(g)
    return {
        "group": group,
        "generators": [generator_symbol(x) for x in p.generators],
        "relators": [
            [[generator_symbol(x), e] for x, e in word] for word in p.relators
        ],
    }


def euler_report_cmd(g):
    return {side: _profile_json(profile) for side, profile in euler_report(g).items()}


def word_reduce_cmd(g, word):
    reduced = reduce(g, parse_word(g, word))
    return {"word": word, "reduced": format_word(reduced)}


def _corpus_checks(g):
    checks = {}
    report = euler_report(g)
    raag = report["raag"]
    checks["raag_h0_is_center_rank"] = raag.betti[0] == center_rank(g) and not any(
        raag.betti[1:]
    )
    if has_sil(g):
        checks["psa_euler_sign"] = report["psa"].euler < 0
    else:
        checks["psa_euler_sign"] = report["psa"].euler == 0
    verdict = classify_pso(g)
    pso = report["pso"]
    if isinstance(verdict, RaagVerdict):
        th = verdict.presentation_graph
        checks["relators_killed"] = verify_relators_killed(g, th, verdict.dictionary)
        checks["pso_h0_matches_tree_generators"] = (
            pso.betti[0] == len(th.tree_gens) == verdict.center_rank
            and not any(pso.betti[1:])
        )
    else:
        checks["witness_pairing_is_one"] = verdict.homology_witness.pairing_value == 1
        checks["pso_h1_present"] = len(pso.betti) > 1 and pso.betti[1] >= 1
    return isinstance(verdict, RaagVerdict), checks


def corpus_cmd(directory):
    root = pathlib.Path(directory)
    try:
        files = sorted(
            p for p in root.iterdir() if p.suffix in (".json", ".txt") and p.is_file()
        )
    except OSError as exc:
        raise MalformedInput(f"unreadable corpus directory: {exc}") from exc
    rows = []
    for path in files:
        try:
            is_raag, checks = _corpus_checks(graph_from_file(str(path)))
            rows.append(
                {
                    "file": path.name,
                    "pso_is_raag": is_raag,
                    "checks": checks,
                    "ok": all(checks.values()),
                }
            )
        except RaagBnsError as err:
            rows.append({"file": path.name, "error": str(err), "ok": False})
    ok = bool(rows) and all(r["ok"] for r in rows)
    return {"directory": root.name, "files": rows, "ok": ok}


class Option(NamedTuple):
    """A command's option.  One with neither `metavar` nor `choices` is a
    flag; the others take a value."""

    flag: str
    help: str = ""
    metavar: str = ""
    choices: tuple = ()
    required: bool = False


class Command(NamedTuple):
    body: Callable
    help: str
    arguments: tuple  # the positional arguments' names, in order
    options: tuple  # in --help order


PRETTY = Option("--pretty", "Indent the JSON report.")
BASEPOINTS = Option(
    "--basepoints",
    "JSON file mapping a vertex to support-graph nodes; each named node becomes its "
    "subtree's basepoint, the first marks the preferred subtree.",
    metavar="FILE",
)
WITNESS = Option("--witness", "Attach the degree-one certificate when a support graph has a loop.")
COMMANDS = {
    "support-graphs": Command(
        support_graphs_cmd, "Per-vertex support graphs with forest or loop certificates.", ("GRAPH_FILE",), (PRETTY,)
    ),
    "classify": Command(
        classify_cmd, "Decide whether the outer quotient is a RAAG.", ("GRAPH_FILE",), (BASEPOINTS, PRETTY)
    ),
    "homology": Command(
        homology_cmd,
        "Betti profile of a subspace arrangement file.",
        ("ARRANGEMENT_FILE",),
        (Option("--raw", "Keep subspaces contained in others."), PRETTY),
    ),
    "bns": Command(
        bns_cmd,
        "Excluded character subspaces and their homology for one group.",
        ("GRAPH_FILE",),
        (Option("--group", choices=("raag", "psa", "pso"), required=True), WITNESS, PRETTY),
    ),
    "presentation": Command(
        presentation_cmd,
        "Finite presentation on the standard generating set.",
        ("GRAPH_FILE",),
        (Option("--group", choices=("psa", "pso"), required=True), PRETTY),
    ),
    "euler-report": Command(euler_report_cmd, "Betti profiles of all three arrangements.", ("GRAPH_FILE",), (PRETTY,)),
    "word-reduce": Command(
        word_reduce_cmd, "Normal form of a word in the RAAG of the graph.", ("GRAPH_FILE", "WORD"), (PRETTY,)
    ),
    "corpus": Command(
        corpus_cmd, "Run the per-graph invariant checks over a directory of graphs.", ("DIRECTORY",), (PRETTY,)
    ),
}
DESCRIPTION = (
    "Arrangement homology, presentations and the RAAG verdict for the "
    "partial-conjugation automorphism groups of a graph."
)
HELP = Option("--help", "Show this message and exit.")
WIDTH = 78  # --help is laid out at a fixed width, whatever the terminal


def _reads_as(arg, options):
    """How one argument ahead of the first "--" is read: None for a
    positional, else the pair (option, the value given after "=" or None),
    where the option is None if the command has no such flag."""
    if arg in options:
        return options[arg], None
    if arg[:1] != "-" or arg == "-":
        return None
    flag, equals, value = arg.partition("=")
    if equals and flag in options:
        return options[flag], value
    # a negative number (argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches
    # before a final newline) or an argument holding a space is a positional
    whole, dot, fraction = arg[1:].removesuffix("\n").partition(".")
    if (whole.isdecimal() and not dot) or (fraction.isdecimal() and (whole.isdecimal() or not whole)) or " " in arg:
        return None
    return None, None


def _parse(name, args):
    """The keyword values of command `name` for its arguments `args`, read
    as argparse reads them: positionals in order, `--opt value` or
    `--opt=value` anywhere, the last of repeated options winning, and the
    first "--" ending the options.  A usage error raises MalformedInput."""
    command = COMMANDS[name]
    options = {option.flag: option for option in command.options}
    cut = args.index("--") if "--" in args else len(args)

    def fail(message):
        # an unknown flag is named ahead of every other error
        unknown = [arg for arg in args[:cut] if arg[:1] == "-" and arg != "-" and arg.split("=", 1)[0] not in options]
        if unknown:
            message = f"unrecognized arguments: {' '.join(unknown)}"
        raise MalformedInput(f"raagbns {name}: {message}")

    values = {option.flag[2:]: None if option.metavar or option.choices else False for option in command.options}
    waiting = list(command.arguments)  # the positionals still to fill
    extras = []
    placed = False  # whether the last argument read filled a positional
    i = 0
    while i < cut:
        arg = args[i]
        i += 1
        read = _reads_as(arg, options)
        placed = read is None and bool(waiting)
        if placed:
            values[waiting.pop(0).lower()] = arg
            continue
        option, value = read or (None, None)
        if option is None:
            extras.append(arg)
            continue
        if not (option.metavar or option.choices):
            if value is not None:
                fail(f"argument {option.flag}: ignored explicit argument {value!r}")
            values[option.flag[2:]] = True
            continue
        if value is None:
            if i == cut or _reads_as(args[i], options) is not None:
                fail(f"argument {option.flag}: expected one argument")
            value = args[i]
            i += 1
        if option.choices and value not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            fail(f"argument {option.flag}: invalid choice: {value!r} (choose from {choices})")
        values[option.flag[2:]] = value
    if cut < len(args):
        # the "--" joins the positional filled just before it, or else the
        # next one; a later "--" alone, which argparse strips to an empty
        # list, is kept as the string "--"
        tail = args[cut + 1 :]
        if not placed:
            if waiting and tail:
                values[waiting.pop(0).lower()] = tail.pop(0)
            else:
                extras.append("--")
        for arg in tail:
            if waiting:
                values[waiting.pop(0).lower()] = arg
            else:
                extras.append(arg)
    missing = waiting + [option.flag for option in command.options if option.required and values[option.flag[2:]] is None]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        fail(f"unrecognized arguments: {' '.join(extras)}")
    return values


def _rows(rows):
    """Help rows: each term padded to a common column, its text wrapped
    beside it."""
    import textwrap

    column = max(len(term) for term, _ in rows) + 2
    lines = []
    for term, text in rows:
        first, *rest = textwrap.wrap(text, WIDTH - column - 2)
        lines.append(f"  {term:<{column}}{first}")
        lines += [" " * (column + 2) + line for line in rest]
    return lines


def _option_row(option):
    term = option.flag
    if option.metavar:
        term += " " + option.metavar
    if option.choices:
        term += f" [{'|'.join(option.choices)}]"
    text = "  ".join(filter(None, [option.help, "[required]" if option.required else ""]))
    return term, text


def _help(name):
    """The --help text of one command, or of the program when `name` is
    None."""
    import textwrap

    if name is None:
        usage, text, options = "raagbns [OPTIONS] COMMAND [ARGS]...", DESCRIPTION, (HELP,)
        width = WIDTH - 6 - max(map(len, COMMANDS))
        listing = [(n, textwrap.shorten(c.help, width, placeholder="...")) for n, c in sorted(COMMANDS.items())]
        tail = ["", "Commands:", *_rows(listing)]
    else:
        command = COMMANDS[name]
        usage = " ".join(["raagbns", name, "[OPTIONS]", *command.arguments])
        text, options, tail = command.help, (*command.options, HELP), []
    lines = [
        f"Usage: {usage}",
        "",
        textwrap.fill(text, WIDTH, initial_indent="  ", subsequent_indent="  "),
        "",
        "Options:",
        *_rows([_option_row(option) for option in options]),
        *tail,
    ]
    return "\n".join(lines) + "\n"


def _run(args):
    """Parse `args`, then print help, or read the command's input, run its
    body and print the report; returns the exit code."""
    name = args[0] if args else None
    if name == "--help":
        sys.stdout.write(_help(None))
        return 0
    if name not in COMMANDS:
        if name is None:
            raise MalformedInput(f"raagbns: missing command, one of {', '.join(sorted(COMMANDS))}")
        kind = "option" if name.startswith("-") else "command"
        raise MalformedInput(f"raagbns: no such {kind} {name!r}")
    rest = args[1:]
    head = rest[: rest.index("--")] if "--" in rest else rest
    if "--help" in head:
        sys.stdout.write(_help(name))
        return 0
    values = _parse(name, rest)
    enumeration_cap()  # a malformed RAAGBNS_CAP fails every command alike
    pretty = values.pop("pretty")
    first = COMMANDS[name].arguments[0]
    source = values.pop(first.lower())
    # built on each run, so that a reader rebound on the module is the one called
    read = {"GRAPH_FILE": graph_from_file, "ARRANGEMENT_FILE": arrangement_from_file}.get(first)
    data = read(source) if read else source
    report = {"tool": {"name": "raagbns", "version": __version__}, **COMMANDS[name].body(data, **values)}
    if read:
        report["input"] = data.to_json()
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    print(json.dumps(report, sort_keys=True, **layout))
    return 0 if report.get("ok", True) else 1


def main(argv=None):
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except RaagBnsError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers goes to devnull, so
        # the interpreter's flush at exit stays silent; 141 is 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as err:
        print(f"error: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
