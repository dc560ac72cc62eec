"""The public names and the traced benchmark layers exist, the CLI model flags
and the README's model table are the model catalog, no module imports a name it
never reads, and no private name goes unread."""

import argparse
import ast
import importlib
import importlib.util
import re
from pathlib import Path

import fermi_modewise
from fermi_modewise.cli import build_parser
from fermi_modewise.models import _MODELS, MODEL_KINDS, MODEL_PARAMETERS

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def test_public_names_resolve():
    missing = [name for name in fermi_modewise.__all__ if not hasattr(fermi_modewise, name)]
    assert missing == []
    assert len(set(fermi_modewise.__all__)) == len(fermi_modewise.__all__)


def test_traced_benchmark_layers_exist():
    # the traced benchmark run wraps each (module, attribute) of TRACED by name
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    layers = tracing.TRACED + (tuple(tracing.CONSTRUCTOR.split(".")),)
    missing = [
        f"{module}.{attr}"
        for module, attr in layers
        if not hasattr(importlib.import_module(f"fermi_modewise.{module}"), attr)
    ]
    assert missing == []


def test_model_kind_choices_are_the_model_table():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    own = {"generate": {"help", "spec", "kind", "out"},
           "sweep": {"help", "spec", "kind", "param", "values", "start", "stop", "num", "cut",
                     "scan_cut", "out"}}
    for command, flags in own.items():
        actions = subparsers.choices[command]._actions
        kind = next(a for a in actions if a.dest == "kind")
        assert tuple(kind.choices) == MODEL_KINDS
        # every other flag is a catalog parameter, parsed by its converter alone
        model = [a for a in actions if a.dest not in flags]
        assert [a.option_strings for a in model] == [[f"--{name}"] for name in MODEL_PARAMETERS]
        assert [a.type for a in model] == [None] * len(MODEL_PARAMETERS)


def test_readme_model_table_is_the_catalog():
    text = (ROOT / "README.md").read_text()
    table = text[text.index("Model kinds for `generate` and `sweep`"):].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    documented = {kind.strip().strip("`"): tuple(re.findall(r"`([^`]+)`", names))
                  for kind, names in rows}
    assert documented == {kind: names for kind, (_, names) in _MODELS.items()}
    assert list(documented) == list(MODEL_KINDS)


def unused_imports(path: Path) -> list[str]:
    """Names that a module imports and never reads (``__future__`` imports aside)."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - read)


def test_no_unused_imports():
    modules = [p for p in (ROOT / "src" / "fermi_modewise").glob("*.py") if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    unused = {p.name: names for p in modules if (names := unused_imports(p))}
    assert unused == {}


def test_no_unread_private_names():
    # a module-level _name (function, class or constant) must be read somewhere in src/
    sources = {p: ast.parse(p.read_text()) for p in (ROOT / "src" / "fermi_modewise").glob("*.py")}
    defined = set()
    for tree in sources.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    read = set()
    for tree in sources.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - read) == []
