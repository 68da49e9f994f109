"""Command-line front door.  Every subcommand reads graph or arrangement
files, runs one computation, and prints a deterministic JSON report:
dictionary keys are sorted, lists are emitted in a fixed order and
rationals are "p/q" strings, so identical inputs give identical bytes.
"""

import json
import pathlib

import click

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
    betti_numbers,
    build_chain_complex,
    maximal_filter,
)
from .linalg import format_rational
from .presentations import (
    ObstructionVerdict,
    RaagVerdict,
    classify_pso,
    psa_presentation,
    pso_presentation,
    verify_relators_killed,
)
from .words import format_word, parse_word, reduce


def _dump(payload, pretty):
    if pretty:
        return json.dumps(payload, sort_keys=True, indent=2)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(payload, pretty):
    body = {"tool": {"name": "raagbns", "version": __version__}}
    body.update(payload)
    click.echo(_dump(body, pretty))


def _pretty_option(fn):
    return click.option("--pretty", is_flag=True, help="Indent the JSON report.")(fn)


def _graph_argument(fn):
    return click.argument(
        "graph_file", type=click.Path(exists=True, dir_okay=False)
    )(fn)


def _profile_json(profile):
    return {"betti": list(profile.betti), "euler": profile.euler}


def _witness_json(witness):
    return {
        "loop": [list(n) for n in witness.loop.nodes],
        "chain": [
            {"subspace": j, "vector": [format_rational(x) for x in vec]}
            for j, vec in witness.chain
        ],
        "cocycle_support": list(witness.cocycle_support),
        "pairing": format_rational(witness.pairing_value),
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"unreadable basepoint file: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedInput("basepoint file must map vertices to node lists")
    out = {}
    for owner, nodes in raw.items():
        try:
            out[owner] = [tuple(n) for n in nodes]
        except TypeError as exc:
            raise MalformedInput("basepoint nodes must be lists of vertices") from exc
    return out


@click.group()
def cli():
    """Arrangement homology, presentations and the RAAG verdict for the
    partial-conjugation automorphism groups of a graph."""
    enumeration_cap()  # a malformed RAAGBNS_CAP fails every command alike


@cli.command("support-graphs")
@_graph_argument
@_pretty_option
def support_graphs_cmd(graph_file, pretty):
    """Per-vertex support graphs with forest or loop certificates."""
    g = graph_from_file(graph_file)
    per = {}
    for a in sorted(g.vertices):
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
    _emit({"input": g.to_json(), "support_graphs": per}, pretty)


@cli.command("classify")
@_graph_argument
@click.option(
    "--basepoints",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file mapping a vertex to support-graph nodes; each named "
    "node becomes its subtree's basepoint, the first marks the "
    "preferred subtree.",
)
@_pretty_option
def classify_cmd(graph_file, basepoints, pretty):
    """Decide whether the outer quotient is a RAAG."""
    g = graph_from_file(graph_file)
    verdict = classify_pso(g, _load_basepoints(basepoints))
    _emit({"input": g.to_json(), **_verdict_json(g, verdict)}, pretty)


@cli.command("homology")
@click.argument("arrangement_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--raw", is_flag=True, help="Keep subspaces contained in others.")
@_pretty_option
def homology_cmd(arrangement_file, raw, pretty):
    """Betti profile of a subspace arrangement file."""
    arr = arrangement_from_file(arrangement_file)
    kept = arr if raw else maximal_filter(arr)
    data = build_chain_complex(kept)
    profile = betti_numbers(data)
    _emit(
        {
            "input": arr.to_json(),
            "dims": list(data.dims),
            "betti": list(profile.betti),
            "euler": profile.euler,
        },
        pretty,
    )


@cli.command("bns")
@_graph_argument
@click.option("--group", type=click.Choice(["raag", "psa", "pso"]), required=True)
@click.option(
    "--witness",
    is_flag=True,
    help="Attach the degree-one certificate when a support graph has a loop.",
)
@_pretty_option
def bns_cmd(graph_file, group, witness, pretty):
    """Excluded character subspaces and their homology for one group."""
    g = graph_from_file(graph_file)
    payload = {"input": g.to_json(), "group": group}
    if group == "raag":
        arr = raag_arrangement(g)
    elif group == "psa":
        arr = psa_arrangement(g)
    else:
        w, arr, _ = pso_arrangement(g)
        payload["outer_space"] = w.basis.to_token_rows()
    kept = maximal_filter(arr)
    profile = betti_numbers(build_chain_complex(kept))
    payload["ambient_dim"] = kept.ambient_dim
    payload["subspaces"] = [s.basis.to_token_rows() for s in kept.subspaces]
    payload["betti"] = list(profile.betti)
    payload["euler"] = profile.euler
    if witness and group == "pso":
        payload["witness"] = _first_loop_witness(g)
    _emit(payload, pretty)


def _first_loop_witness(g):
    for a in sorted(g.vertices):
        cert = forest_certificate(support_graph(g, a))
        if isinstance(cert, LoopWitness):
            return _witness_json(h1_witness(g, cert))
    return None


@cli.command("presentation")
@_graph_argument
@click.option("--group", type=click.Choice(["psa", "pso"]), required=True)
@_pretty_option
def presentation_cmd(graph_file, group, pretty):
    """Finite presentation on the standard generating set."""
    g = graph_from_file(graph_file)
    p = psa_presentation(g) if group == "psa" else pso_presentation(g)
    _emit(
        {
            "input": g.to_json(),
            "group": group,
            "generators": [generator_symbol(x) for x in p.generators],
            "relators": [
                [[generator_symbol(x), e] for x, e in word] for word in p.relators
            ],
        },
        pretty,
    )


@cli.command("euler-report")
@_graph_argument
@_pretty_option
def euler_report_cmd(graph_file, pretty):
    """Betti profiles of all three arrangements."""
    g = graph_from_file(graph_file)
    report = euler_report(g)
    _emit(
        {
            "input": g.to_json(),
            "raag": _profile_json(report["raag"]),
            "psa": _profile_json(report["psa"]),
            "pso": _profile_json(report["pso"]),
        },
        pretty,
    )


@cli.command("word-reduce")
@_graph_argument
@click.argument("word")
@_pretty_option
def word_reduce_cmd(graph_file, word, pretty):
    """Normal form of a word in the RAAG of the graph."""
    g = graph_from_file(graph_file)
    reduced = reduce(g, parse_word(g, word))
    _emit({"input": g.to_json(), "word": word, "reduced": format_word(reduced)}, pretty)


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


@cli.command("corpus")
@click.argument(
    "directory", type=click.Path(exists=True, file_okay=False, dir_okay=True)
)
@_pretty_option
def corpus_cmd(directory, pretty):
    """Run the per-graph invariant checks over a directory of graphs."""
    root = pathlib.Path(directory)
    files = sorted(
        p for p in root.iterdir() if p.suffix in (".json", ".txt") and p.is_file()
    )
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
    _emit({"directory": root.name, "files": rows, "ok": ok}, pretty)
    return 0 if ok else 1


def main(argv=None):
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except RaagBnsError as err:
        click.echo(f"error: {err}", err=True)
        return err.exit_code
    except click.ClickException as err:
        err.show()
        return err.exit_code
    except click.exceptions.Abort:
        return 130
    except click.exceptions.Exit as err:
        return err.exit_code
    except Exception as err:
        click.echo(f"error: internal error: {type(err).__name__}: {err}", err=True)
        return 4
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
