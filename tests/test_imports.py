"""Every name a vaxgame module imports is read somewhere in that module,
and every private module-level function has a caller in the package."""
import ast
from pathlib import Path

import pytest

import vaxgame

SRC = Path(vaxgame.__file__).parent

# __init__.py imports to re-export, and `annotations` is a compiler flag.
# leader keeps the per-draw path that its tabled sums reproduce, since the
# benchmark's tracer (perfbench/tracing.py) wraps these names in leader.
ALLOWED = {"__init__.py": None, "*": {"annotations"},
           "leader.py": {"binom_cdf_vec_interp", "p_from_gamma_vec"}}


def unread_imports(tree: ast.Module) -> set[str]:
    """The names bound by the module's imports that no expression reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unread_import(path):
    if path.name in ALLOWED and ALLOWED[path.name] is None:
        return
    allowed = ALLOWED["*"] | ALLOWED.get(path.name, set())
    unread = unread_imports(ast.parse(path.read_text())) - allowed
    assert not unread, f"{path.name} imports but never reads {sorted(unread)}"


def test_unread_import_is_found():
    tree = ast.parse("import os\nfrom math import pi, tau\nx = tau\n")
    assert unread_imports(tree) == {"os", "pi"}


def references(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """The names the module reads, as a name, an attribute or an import,
    outside the subtree skip."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def uncalled_private_functions(trees: dict[str, ast.Module]) -> set[str]:
    """Module-level functions named _x that no module refers to outside
    their own definition, as "module.py:_x"."""
    out = set()
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and not any(node.name in references(t, node)
                                for t in trees.values())):
                out.add(f"{name}:{node.name}")
    return out


def test_every_private_function_has_a_caller():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert not uncalled_private_functions(trees)


def test_uncalled_private_function_is_found():
    trees = {"a.py": ast.parse("def _used():\n    return _alone()\n"
                               "def _alone():\n    return _alone()\n"
                               "def _dead():\n    return _dead()\n"),
             "b.py": ast.parse("from a import _used\nx = _used()\n")}
    assert uncalled_private_functions(trees) == {"a.py:_dead"}
