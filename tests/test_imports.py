"""Source lints.  Every name a raagbns module imports is used in that
module, so code deleted from one layer leaves no stale import behind in
another; and every top-level function or class, and every method or
property of a top-level class, is referenced from `src/`, so code that
only the tests use lives in `tests/`.  Importing the CLI loads neither
`dataclasses` nor `inspect`: every record is a `NamedTuple`; nor
`argparse` and `textwrap`: argv is parsed from the command table, and
only `--help` wraps text; and `raagbns.lattice` is imported only by a
chain complex whose line counts do not settle the cap.  Every file under
`src/`, `tests/` and `perfbench/` parses under the 3.10 grammar."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "raagbns").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unreferenced_definitions(sources, exempt=frozenset()):
    """(module, name) of every top-level function or class of the modules
    in `sources` (module name -> source), and (module, "Class.name") of
    every function or property in a top-level class body, that no source
    refers to by name or attribute, except the pairs in `exempt`.  Dunder
    methods are called by Python itself and are not listed."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    definitions = []  # (module, qualified name, name)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((module, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                definitions += [
                    (module, f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return sorted(
        (module, qualified)
        for module, qualified, name in definitions
        if name not in referenced and (module, qualified) not in exempt
    )


def traced_names():
    """(module, name) of each function or method that the benchmark's
    perfbench/spans.py TARGETS traces by its "module.name" or
    "module.Class.name" key."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    return {tuple(key.value.split(".", 1)) for key in targets.keys}


@pytest.mark.parametrize("folder", ["src", "tests", "perfbench"])
def test_every_file_parses_under_the_310_grammar(folder):
    # pyproject.toml declares Python 3.10 as the floor; this checks the
    # grammar only, not how the standard library behaves on 3.10
    paths = sorted((ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source):
    """Top-level names of the modules `source` imports, relative imports
    left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_detects_a_dataclasses_import():
    assert imported_modules("from dataclasses import dataclass\nimport os.path\nfrom . import x\n") == {"dataclasses", "os"}


def fresh_interpreter(probe):
    """stdout of `probe` run in a fresh interpreter with no bytecode
    written, as the benchmark harness imports the package."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert fresh_interpreter("import sys, raagbns.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))") == "[]\n"


def test_cli_import_loads_no_argument_parser_and_no_text_wrapper():
    probe = "import sys, raagbns.cli; print(sorted({'argparse', 'gettext', 'locale', 'textwrap'} & set(sys.modules)))"
    assert fresh_interpreter(probe) == "[]\n"


def test_help_loads_the_text_wrapper_and_prints_the_golden_text():
    out = fresh_interpreter("import sys, raagbns.cli; code = raagbns.cli.main(['--help']); print(code, 'textwrap' in sys.modules)")
    golden = json.loads((ROOT / "tests" / "golden_cli.json").read_text(encoding="utf-8"))["help"]["raagbns --help"]
    assert out == golden + "0 True\n"


@pytest.mark.parametrize("n, code, loaded", [(6, 0, False), (9, 3, True)])
def test_the_lattice_module_is_imported_only_past_the_line_counts(tmp_path, n, code, loaded):
    # euler-report on the 6-cycle, one of the benchmark's graphs, settles the
    # cap from its line counts and never compiles raagbns.lattice; the 9-cycle
    # at the default cap counts its summands on the flats
    vertices = [f"v{i}" for i in range(n)]
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": [[vertices[i - 1], v] for i, v in enumerate(vertices)]}))
    env = {k: v for k, v in os.environ.items() if k != "RAAGBNS_CAP"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, raagbns.cli; code = raagbns.cli.main(sys.argv[1:]); print(code, 'raagbns.lattice' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe, "euler-report", str(path)], env=env, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == f"{code} {loaded}"


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [(1, "os"), (2, "c")]


def test_no_test_only_definitions():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_definitions(sources, traced_names()) == []


def test_detects_an_unreferenced_definition():
    sources = {
        "a": "def used():\n    pass\n\n\ndef orphan():\n    pass\n\n\nclass Orphan:\n    pass\n",
        "b": (
            "from .a import used\n\n\ndef cmd():\n    used()\n\n\nCOMMANDS = {'x': cmd}\n\n\n"
            "@cli.command('y')\ndef decorated():\n    pass\n\n\ndef traced():\n    pass\n"
        ),
        "c": (
            "class Table:\n    def __init__(self):\n        self.first = self.rows\n\n"
            "    @cached_property\n    def rows(self):\n        return ()\n\n"
            "    def unread(self):\n        pass\n\n\nTABLE = Table()\n"
        ),
    }
    # a command body is referenced from its command table, and a cached
    # property from an attribute read; a decorator alone does not count as
    # a reference, and a dunder method is never listed
    assert unreferenced_definitions(sources, {("b", "traced"), ("c", "Table.unread")}) == [
        ("a", "Orphan"), ("a", "orphan"), ("b", "decorated"),
    ]
    assert unreferenced_definitions(sources) == [
        ("a", "Orphan"), ("a", "orphan"), ("b", "decorated"), ("b", "traced"), ("c", "Table.unread"),
    ]
