"""Every name a vaxgame module imports is read somewhere in that module,
every private module-level function and constant is read somewhere in
the package, every public module-level function and class is exported or
read somewhere in the package, every dataclass field is read in the
package or its tests, every method is read in the package, its tests or
the benchmark, and no function takes a threshold z_bar beside the config
that holds one."""
import ast
from pathlib import Path

import pytest

import vaxgame

SRC = Path(vaxgame.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"

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


def unreferenced_definitions(trees: dict[str, ast.Module],
                             wanted) -> set[str]:
    """Module-level definitions node with wanted(node) whose name no module
    refers to outside the definition itself, as "module.py:name". An
    import counts as a reference, so a name __init__.py exports is
    referenced. The references of each module-level statement are computed
    once, so no module is walked once per definition."""
    refs = {(name, j): references(node) for name, tree in trees.items()
            for j, node in enumerate(tree.body)}
    out = set()
    for name, tree in trees.items():
        for i, node in enumerate(tree.body):
            if wanted(node) and not any(node.name in r
                                        for key, r in refs.items()
                                        if key != (name, i)):
                out.add(f"{name}:{node.name}")
    return out


def uncalled_private_functions(trees: dict[str, ast.Module]) -> set[str]:
    """Module-level functions named _x that no module refers to outside
    their own definition, as "module.py:_x"."""
    return unreferenced_definitions(
        trees, lambda node: isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and not node.name.startswith("__"))


def test_every_private_function_has_a_caller():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert not uncalled_private_functions(trees)


def test_uncalled_private_function_is_found():
    trees = {"a.py": ast.parse("def _used():\n    return _alone()\n"
                               "def _alone():\n    return _alone()\n"
                               "def _dead():\n    return _dead()\n"),
             "b.py": ast.parse("from a import _used\nx = _used()\n")}
    assert uncalled_private_functions(trees) == {"a.py:_dead"}


# Public names that __init__.py does not export and no other code in the
# package reads, each with its reason.
UNEXPORTED: dict[str, str] = {}


def unexported_public_names(trees: dict[str, ast.Module]) -> set[str]:
    """Public module-level functions and classes, as "module.py:name",
    that __init__.py does not export and no module refers to outside their
    own definition."""
    return unreferenced_definitions(
        trees, lambda node: isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_"))


def test_every_public_name_is_exported_or_called():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert unexported_public_names(trees) == set(UNEXPORTED)


def test_unexported_public_name_is_found():
    trees = {"a.py": ast.parse("class Shown:\n    pass\n"
                               "class Helper:\n    pass\n"
                               "def wrap():\n    return Helper()\n"
                               "def alone():\n    return alone()\n"
                               "def _private():\n    pass\n"
                               "PUBLIC = 1\n"),
             "__init__.py": ast.parse("from .a import Shown\n")}
    assert unexported_public_names(trees) == {"a.py:wrap", "a.py:alone"}


def unread_private_constants(trees: dict[str, ast.Module]) -> set[str]:
    """Module-level names _X bound by an assignment (each name of a tuple
    target too) that no module reads outside that assignment, as
    "module.py:_X"."""
    refs = {name: references(tree) for name, tree in trees.items()}
    out = set()
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            private = [sub.id for target in targets for sub in ast.walk(target)
                       if isinstance(sub, ast.Name)
                       and sub.id.startswith("_")
                       and not sub.id.startswith("__")]
            if not private:
                continue
            own = references(tree, node)
            for const in private:
                if const not in own and not any(
                        const in r for m, r in refs.items() if m != name):
                    out.add(f"{name}:{const}")
    return out


def test_every_private_constant_is_read():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert not unread_private_constants(trees)


def test_unread_private_constant_is_found():
    trees = {"a.py": ast.parse("_USED = 1\n_ALONE = _ALONE_TOO = 2\n"
                               "_PAIR, (_LEFT, _RIGHT) = 3, (4, 5)\n"
                               "_SELF: int = len([_SELF])\n"
                               "__dunder__ = 6\nPUBLIC = 7\n"
                               "def f():\n    return _PAIR + _LEFT\n"),
             "b.py": ast.parse("from a import _USED\nx = _USED\n")}
    assert unread_private_constants(trees) == {
        "a.py:_ALONE", "a.py:_ALONE_TOO", "a.py:_RIGHT", "a.py:_SELF"}


# the dataclasses functions that read every field of the class they get
SERIALISERS = {"fields", "astuple", "asdict"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(dec, ast.Name) and dec.id == "dataclass"
                or isinstance(dec, ast.Attribute) and dec.attr == "dataclass"):
            return True
    return False


def attribute_reads(trees: list[ast.Module]) -> set[str]:
    """The names the trees read as an attribute, or hold as a string
    constant (for getattr over a tuple of names)."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
    return read


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _reads_whole_self(node: ast.AST) -> bool:
    """Whether node is self.__dict__, or fields, astuple or asdict of self."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__" and _is_self(node.value)
    return isinstance(node, ast.Call) and getattr(
        node.func, "attr", getattr(node.func, "id", None)
    ) in SERIALISERS and any(map(_is_self, node.args))


def unread_dataclass_fields(src: dict[str, ast.Module],
                            others: list[ast.Module]) -> set[str]:
    """Fields of the dataclasses defined at module level in src, as
    "module.py:Class.field", that no tree of src or others reads. A field
    is read as an attribute_reads name, or with its whole class: a call of
    fields, astuple or asdict on the class's name, or in the class's body
    self.__dict__ or such a call on self."""
    read, whole = attribute_reads([*src.values(), *others]), set()
    for tree in [*src.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)
            ) in SERIALISERS:
                whole.update(a.id for a in node.args
                             if isinstance(a, ast.Name))
            elif isinstance(node, ast.ClassDef) and any(
                    _reads_whole_self(sub) for sub in ast.walk(node)):
                whole.add(node.name)
    out = set()
    for name, tree in src.items():
        for node in tree.body:
            if (not isinstance(node, ast.ClassDef) or not _is_dataclass(node)
                    or node.name in whole):
                continue
            out.update(f"{name}:{node.name}.{stmt.target.id}"
                       for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in read)
    return out


def test_every_dataclass_field_is_read():
    src = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    tests = [ast.parse(p.read_text()) for p in TESTS.glob("*.py")]
    assert not unread_dataclass_fields(src, tests)


def test_unread_dataclass_field_is_found():
    src = {"a.py": ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass, fields\n"
        "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n"
        "    z: int\n    def get(self):\n        return getattr(self, 'y')\n"
        "@dataclass\nclass Whole:\n    w: int\n"
        "@dataclasses.dataclass\nclass Own:\n    o: int\n"
        "    def d(self):\n        return self.__dict__\n"
        "@dataclass\nclass Serial:\n    a: int\n"
        "    def d(self):\n        return dataclasses.asdict(self)\n"
        "@dataclasses.dataclass\nclass Stored:\n    s: int\n"
        "    def set(self):\n        self.s = 1\n"
        "class Plain:\n    q: int\n"
        "names = [f.name for f in fields(Whole)]\n")}
    tests = [ast.parse("from a import P\nassert P(1, 2, 3).x == 1\n")]
    assert unread_dataclass_fields(src, tests) == {"a.py:P.z", "a.py:Stored.s"}


def unread_methods(src: dict[str, ast.Module],
                   others: list[ast.Module]) -> set[str]:
    """Methods (properties too) of the classes defined in src, as
    "module.py:Class.method", whose name is not among the attribute_reads
    of src and others. A dunder method is called by the language, so none
    is listed."""
    read = attribute_reads([*src.values(), *others])
    return {f"{name}:{cls.name}.{fn.name}"
            for name, tree in src.items() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in read}


def test_every_method_is_read():
    src = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    others = [ast.parse(p.read_text()) for p in [*TESTS.glob("*.py"),
                                                 *PERFBENCH.glob("*.py")]]
    assert not unread_methods(src, others)


def test_unread_method_is_found():
    src = {"a.py": ast.parse(
        "class C:\n    def __post_init__(self):\n        pass\n"
        "    def used(self):\n        return self.named()\n"
        "    def named(self):\n        pass\n"
        "    @property\n    def shown(self):\n        return 1\n"
        "    def dead(self):\n        return 2\n"
        "    def stored(self):\n        pass\n"
        "    def by_string(self):\n        pass\n"
        "def f(c):\n    c.stored = None\n    return getattr(c, 'by_string')\n")}
    others = [ast.parse("from a import C\nC().used()\nC().shown\n")]
    assert unread_methods(src, others) == {"a.py:C.dead", "a.py:C.stored"}


# The functions that still take z_bar beside the problem whose config holds
# it, each with the benchmark's calls that pass it so; both refuse any
# z_bar other than problem.cfg.z_bar.
PINNED_THRESHOLDS = {
    "leader.py:solve_optimal_incentive": "perfbench/workloads.py:145",
    "leader.py:non_eradication_probability":
        "perfbench/workloads.py:97 and :104",
}


def thresholds_beside_configs(trees: dict[str, ast.Module]) -> set[str]:
    """Functions and methods, as "module.py:name", with a z_bar parameter
    beside a cfg or problem one."""
    out = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = {p.arg for p in [*a.posonlyargs, *a.args,
                                          *a.kwonlyargs]}
                if "z_bar" in params and params & {"cfg", "problem"}:
                    out.add(f"{name}:{node.name}")
    return out


def test_no_threshold_beside_its_config():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert thresholds_beside_configs(trees) == set(PINNED_THRESHOLDS)


def test_threshold_beside_config_is_found():
    trees = {"a.py": ast.parse(
        "def both(g, z_bar, problem):\n    pass\n"
        "def keyword(cfg, *, z_bar=1):\n    pass\n"
        "def alone(m, z_bar):\n    pass\n"
        "def read(cfg):\n    return cfg.z_bar\n"
        "class C:\n    def method(self, cfg, z_bar, /):\n        pass\n")}
    assert thresholds_beside_configs(trees) == {"a.py:both", "a.py:keyword",
                                                "a.py:method"}


# The refusal types that InvalidInput replaced: a refused input raises
# params.InvalidInput, which carries the field at fault.
RETIRED = {"ConfigError", "ConstructionError"}


def _identifiers(node: ast.AST) -> set[str]:
    """The names a subtree reads or binds: names, attributes, definitions
    and imports."""
    return {n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.ClassDef,
                              ast.FunctionDef, ast.alias))}


def stray_refusals(trees: dict[str, ast.Module]) -> set[str]:
    """Each `raise ValueError`, each module that names a RETIRED type, and
    each handler of ValueError inside a function named main, which would
    take a defect for a refused input."""
    out = set()
    for name, tree in trees.items():
        out.update(f"{name}: names {n}" for n in RETIRED & _identifiers(tree))
        for node in ast.walk(tree):
            exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) \
                else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                out.add(f"{name}:{node.lineno} raises ValueError")
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                out.update(f"{name}:{h.lineno} catches ValueError in main"
                           for h in ast.walk(node)
                           if isinstance(h, ast.ExceptHandler) and h.type
                           and "ValueError" in _identifiers(h.type))
    return out


def test_one_refusal_type():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert not stray_refusals(trees)


def test_stray_refusal_is_found():
    trees = {"a.py": ast.parse(
        "class ConfigError(ValueError):\n    pass\n"
        "def f(x):\n"
        "    if x:\n        raise ValueError('x is bad')\n"
        "    raise InvalidInput('x', 'is bad')\n"
        "def main():\n"
        "    try:\n        f(1)\n"
        "    except (KeyError, ValueError):\n        return 2\n"),
        # a standard-library ValueError, caught where it is raised
        "b.py": ast.parse("def g(s):\n    try:\n        return float(s)\n"
                          "    except ValueError:\n        return None\n")}
    assert stray_refusals(trees) == {"a.py: names ConfigError",
                                     "a.py:5 raises ValueError",
                                     "a.py:10 catches ValueError in main"}
