"""Every name a vaxgame module imports is read somewhere in that module."""
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
