"""The modules of gradeq use each other only through public names: no
module imports an underscore name from another gradeq module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gradeq"


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each underscore name `source` imports from gradeq,
    a module path part included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "gradeq":
                continue
            names = [*(node.module or "").split("."), *(a.name for a in node.names)]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.split(".")[0] == "gradeq"
                     for part in a.name.split(".")]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.startswith("_")]
    return found


def test_no_private_name_imported_across_modules():
    hits = [f"{path.relative_to(SRC)}:{line} {name}"
            for path in sorted(SRC.rglob("*.py"))
            for line, name in private_imports(path.read_text())]
    assert hits == []


def test_scanner_sees_each_import_form():
    source = ("from __future__ import annotations\n"
              "from .autodiff.engine import _OPS\n"
              "from gradeq import _hidden, models\n"
              "import gradeq._x\n"
              "from ._private import public\n"
              "from . import kernels\n"
              "import numpy._core\n")
    assert private_imports(source) == [(2, "_OPS"), (3, "_hidden"), (4, "_x"),
                                       (5, "_private")]
