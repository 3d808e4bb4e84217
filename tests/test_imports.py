"""The modules of gradeq use each other only through public names: no
module imports an underscore name from another gradeq module, and no
module imports a name it never uses."""

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


# imported only so that perfbench's tracer, which wraps names by module, finds them
TRACED_REEXPORTS = {("training.py", "gini"), ("training.py", "load_checkpoint"),
                    ("theory.py", "linearize")}


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name `source` imports and never reads;
    `from __future__` imports are features, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_import():
    hits = [f"{path.relative_to(SRC)}:{line} {name}"
            for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
            for line, name in unused_imports(path.read_text())
            if (str(path.relative_to(SRC)), name) not in TRACED_REEXPORTS]
    assert hits == []


def test_unused_scanner_sees_each_import_form():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import xml.sax.saxutils\n"
              "from .models import build_model, predict as pred\n"
              "from . import kernels\n"
              "x = xml.sax.saxutils.escape(kernels.name)\n")
    assert unused_imports(source) == [(2, "np"), (4, "build_model"), (4, "pred")]
