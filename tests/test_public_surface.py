"""Every name ``chebscale`` exports has a user outside ``__init__.py``.

A user is a reference in another module of the package (an AST ``Name``,
``Attribute`` or import), in the benchmark's workloads or corpus
(``perfbench/workloads.py``, ``perfbench/corpus.py``), or an entry the
benchmark tracer patches (``COUNTED``/``SPANNED`` of
``perfbench/tracing.py``).  An export that only tests reach is surface no
command, check or workload needs.  This test only reads ``perfbench/``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chebscale"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _referenced(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {part for _, _, path in tracing.COUNTED + tracing.SPANNED
            for part in path.split(".")}


def test_every_export_has_a_user():
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    users += [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "corpus.py"]
    reached = _traced().union(*map(_referenced, users))
    assert sorted(_exported() - reached) == []
