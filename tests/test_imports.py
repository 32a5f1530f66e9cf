"""Every name a package module imports is used in it, every private module-level
function of the package is called from outside its own definition, and no module calls
``np.linalg.solve`` (no linter runs here)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "grassmann_scatter"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports (``from __future__`` aside) that no expression
    reads; ``import a.b`` binds ``a``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_guard_sees_an_unused_import():
    tree = ast.parse("import numpy as np\nfrom .errors import DomainError, UsageError\n"
                     "x = np.eye(2)\nraise UsageError('x')\n")
    assert _unused_imports(tree) == ["DomainError (line 2)"]


def _orphans(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level private function that no code of the package
    names outside its own definition: as a name (an imported one resolved through the
    module's relative imports) or as an attribute of any module."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = {(mod, node.name) for mod, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")}
    used = set()
    for mod, tree in trees.items():
        origin = {alias.asname or alias.name: (node.module, alias.name)
                  for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
                  for alias in node.names}
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(origin.get(node.id, (mod, node.id)))
                elif isinstance(node, ast.Attribute):
                    used.update((other, node.attr) for other in trees)
    return sorted(f"{mod}.{name}" for mod, name in defs - used)


def test_every_private_function_has_a_caller():
    # a core left behind when its public wrapper is removed shows up here
    assert _orphans({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def test_guard_sees_an_orphan():
    sources = {"a": "def _core(k):\n    return _core(k - 1) if k else 0\n\n\n"
                    "def _kept():\n    return 1\n",
               "b": "from .a import _kept\n\n\ndef f():\n    return _kept()\n"}
    assert _orphans(sources) == ["a._core"]


def _linalg_solves(tree: ast.Module) -> list[int]:
    """Lines of the ``np.linalg.solve(...)`` (or ``scipy.linalg.solve``) calls of a module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func).endswith("linalg.solve")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_applies_no_inverse_by_a_linear_solve(path):
    # Sigma^-1 is W^T W in the eigen chart of Sigma (manifold's chart rule)
    assert _linalg_solves(ast.parse(path.read_text(), filename=str(path))) == []


def test_guard_sees_a_linear_solve():
    tree = ast.parse("import numpy as np\nx = np.linalg.eigh(a)\ny = np.linalg.solve(a, b)\n")
    assert _linalg_solves(tree) == [3]
