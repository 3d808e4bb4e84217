"""The modules of gradeq use each other only through public names: no
module imports an underscore name from another gradeq module, no module
imports a name it never uses, and importing the command line pulls in no
network or markup package of the standard library."""

import ast
import os
import subprocess
import sys
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


PERFBENCH_TRACER = SRC.parents[1] / "perfbench" / "tracer.py"

# imported only so that perfbench's tracer, which wraps names by module, finds them
TRACED_REEXPORTS = {("training.py", "gini"), ("training.py", "load_checkpoint"),
                    ("training.py", "train_val_split"),
                    ("theory.py", "linearize"), ("harness.py", "gini_exact")}


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


def patched_names(source: str) -> set[tuple[str, str]]:
    """(owner, name) for each `self._patch(owner, "name", ...)` in `source`;
    an owner bound by `for owner in (a, b):` counts as each of a and b."""
    found = set()

    def visit(node, bound):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            bound = bound | {node.target.id: [ast.unparse(e) for e in node.iter.elts]}
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_patch" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            owner = ast.unparse(node.args[0])
            found.update((o, node.args[1].value) for o in bound.get(owner, [owner]))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(ast.parse(source), {})
    return found


def test_traced_reexports_are_patched_by_the_tracer():
    """Each lint exception names a (module, name) that the tracer wraps, so
    the list cannot outlive the reason for it."""
    patched = patched_names(PERFBENCH_TRACER.read_text())
    stale = [(path, name) for path, name in sorted(TRACED_REEXPORTS)
             if (path.removesuffix(".py").replace("/", "."), name) not in patched]
    assert stale == []


def test_patch_scanner_sees_each_owner_form():
    source = ("def install(self):\n"
              "    self._patch(models.MLP, 'logits', 'models.logits')\n"
              "    for owner in (inequality, harness):\n"
              "        self._patch(owner, 'gini_exact', 'inequality.gini_exact')\n"
              "    self._patch(cli, name, 'x')\n"
              "    setattr(harness, 'run', None)\n")
    assert patched_names(source) == {("models.MLP", "logits"),
                                     ("inequality", "gini_exact"),
                                     ("harness", "gini_exact")}


def test_unused_scanner_sees_each_import_form():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "import xml.sax.saxutils\n"
              "from .models import build_model, predict as pred\n"
              "from . import kernels\n"
              "x = xml.sax.saxutils.escape(kernels.name)\n")
    assert unused_imports(source) == [(2, "np"), (4, "build_model"), (4, "pred")]


def callers(source: str, name: str) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function or None) for each call of `name`,
    called bare or as an attribute."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


# the labeled logit is picked in the loss and in the one saliency score
PICKED_ROWS_CALLERS = {("autodiff/functional.py", "cross_entropy_mean"),
                       ("models.py", "label_score")}


def test_labeled_logit_picked_only_by_the_loss_and_label_score():
    hits = [f"{path.relative_to(SRC)}:{line} in {function}"
            for path in sorted(SRC.rglob("*.py"))
            for line, function in callers(path.read_text(), "picked_rows")
            if (str(path.relative_to(SRC)), function) not in PICKED_ROWS_CALLERS]
    assert hits == []


def test_caller_scanner_sees_each_call_form():
    source = ("x = picked_rows(a, b)\n"
              "def f():\n"
              "    def g():\n"
              "        return ag.picked_rows(a, b)\n"
              "    return g() + picked_rows\n")
    assert callers(source, "picked_rows") == [(1, None), (4, "g")]


def unread_private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) for each underscore-named top-level function, class or
    constant that `source` defines and never reads; a dunder is not
    private."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_name_is_read_in_its_module():
    """A private helper no code calls is dead. The `_vjp_<op>` rules are
    read by name: `_OPS` looks each up in the module's globals."""
    hits = [f"{path.relative_to(SRC)}:{line} {name}"
            for path in sorted(SRC.rglob("*.py"))
            for line, name in unread_private_names(path.read_text())
            if not name.startswith("_vjp_")]
    assert hits == []


def test_private_scanner_sees_each_definition_form():
    source = ("import numpy as _np\n"
              "_USED = 1\n"
              "_UNUSED: int = 2\n"
              "__all__ = ['f']\n"
              "def _helper():\n"
              "    return _USED\n"
              "def _dead():\n"
              "    def _inner():\n"
              "        pass\n"
              "class _Gone:\n"
              "    _field = 3\n"
              "x = _helper()\n"
              "_dead = None\n")
    assert unread_private_names(source) == [(3, "_UNUSED"), (7, "_dead"), (10, "_Gone"),
                                            (13, "_dead")]


def test_cli_imports_no_network_or_markup_package():
    # `pathlib` itself imports `urllib.parse`; `urllib.request` is the
    # part that would bring `http`, `email` and `socket` along
    code = ("import sys, gradeq.cli\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
            "{'xml', 'http', 'email', 'socket'} or m == 'urllib.request'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.split() == []
