"""Source hygiene: no unused imports or locals, no ``assert`` in the
package, and one arithmetic kernel.

Stdlib ``ast`` scans, so they run without a linter.  An imported name counts
as used if it is read anywhere in its module or listed in ``__all__``; a
function local counts as used if it is read anywhere in the function.  An
``assert`` vanishes under ``python -O``, so package checks raise instead.
Sums, differences and negation of elements live in ``sparse.SparseElem``
(and of scalars in ``scalars.CycScalar``); no other class defines them, and
``sparse.acc`` is the one place that deletes a zero coefficient from a dict.
No module but ``linalg.py`` names a dense-matrix helper, so the package
solves on sparse rows only.  Memos live on objects (F, a context): no
module or class body binds a mutable container beyond a short list of
tables, and ``functools.cache`` wraps only the int-keyed scalar tables.
Every memo goes through ``sparse.memoized``: no other code looks up or
stores in a ``*_cache`` dict, or reads ``MEMO_CAP``.  Each memo dict that
``bench/tracing.py`` reads by name belongs to a reached memoized method.
Every function, class and method of the package is reached from the CLI,
the benchmark or the public names; code that only tests run lives in
``tests/oracles.py``.  Every attribute a function stores on ``self`` is read
by some other function, so no derived data is kept that nothing reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "awpa"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_locals(source: str) -> list[str]:
    """function:line: name for each name a function assigns and never reads
    (nested functions count as part of it); ``_`` marks a value left unused."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        out |= {
            f"{fn.name}:{line}: {name}"
            for name, line in stored.items()
            if name not in read and name != "_"
        }
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def test_scan_finds_unused_locals():
    source = (
        "def f(a):\n"
        "    b = a\n"
        "    for i, c in a:\n"
        "        pass\n"
        "    _, d = a\n"
        "    def g():\n"
        "        return d\n"
        "    return g\n"
        "def h():\n"
        "    global e\n"
        "    e = 1\n"
    )
    assert unused_locals(source) == ["f:2: b", "f:3: c", "f:3: i"]


def del_item_lines(source: str) -> list[int]:
    """Lines of ``del x[...]`` statements."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Delete) and any(isinstance(t, ast.Subscript) for t in node.targets)
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "sparse.py"), ids=lambda p: p.name
)
def test_no_del_item_outside_sparse(path):
    assert del_item_lines(path.read_text()) == []


def test_scan_finds_del_item():
    source = "d = {1: 2}\ndel d[1]\nx = 1\ndel x\ndef f(d):\n    del d['a'], d['b']\n"
    assert del_item_lines(source) == [2, 6]


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def test_scan_finds_assert_statements():
    source = "x = 1\nassert x\ndef f():\n    assert x, 'msg'\n# assert in a comment\n"
    assert assert_lines(source) == [2, 4]


def test_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, factorial\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return factorial(3)\n"
    )
    assert unused_imports(source) == [
        "line 2: os",
        "line 3: osp",
        "line 4: comb",
        "line 8: dumps",
    ]


KERNEL_FILES = {"sparse.py", "scalars.py"}
ADDITIVE = {"__add__", "__sub__", "__neg__"}


def additive_methods(source: str) -> list[str]:
    """Class.method for every additive dunder a class defines."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ADDITIVE
    ]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name not in KERNEL_FILES),
    ids=lambda p: p.name,
)
def test_one_arithmetic_kernel(path):
    assert additive_methods(path.read_text()) == []


def test_scan_finds_additive_methods():
    source = (
        "class A:\n"
        "    def __add__(self, o): pass\n"
        "    def __mul__(self, o): pass\n"
        "class B:\n"
        "    def helper(self):\n"
        "        def __neg__(): pass\n"
        "    def __sub__(self, o): pass\n"
    )
    assert additive_methods(source) == ["A.__add__", "B.__sub__"]


DENSE_HELPERS = {"mat_mul", "mat_vec", "solve", "eye", "transpose"}


def dense_helper_names(source: str) -> list[str]:
    """line: name for each name, attribute, import or definition that names
    a dense-matrix helper."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1], node.asname]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found |= {(node.lineno, name) for name in names if name in DENSE_HELPERS}
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"), ids=lambda p: p.name
)
def test_no_dense_helpers_outside_linalg(path):
    assert dense_helper_names(path.read_text()) == []


def test_scan_finds_dense_helpers():
    source = (
        "from .linalg import solve\n"
        "import awpa.linalg as la\n"
        "x = la.mat_mul(a, b)\n"
        "def transpose(m):\n"
        "    return eye\n"
        "# mat_vec in a comment\n"
        "y = 'mat_vec'\n"
        "from .linalg import inverse as mat_vec\n"
    )
    assert dense_helper_names(source) == [
        "line 1: solve",
        "line 3: mat_mul",
        "line 4: transpose",
        "line 5: eye",
        "line 8: mat_vec",
    ]


MODULE_CONTAINERS = {"__all__", "BUILTINS", "ALL_CHECKS"}
MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "deque"}
MEMO_DECORATORS = {"cache", "lru_cache"}
SCALAR_TABLES = {"cyclotomic_polynomial", "_zeta_powers", "_constant"}


def _is_mutable_container(node) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_CALLS
    return False


def module_containers(source: str) -> list[str]:
    """line: name for each mutable container a module or class body binds."""
    found = []
    bodies = [ast.parse(source).body]
    bodies += [node.body for body in bodies for node in body if isinstance(node, ast.ClassDef)]
    for body in bodies:
        for node in body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_mutable_container(value):
                found += [f"line {node.lineno}: {ast.unparse(t)}" for t in targets]
    return found


def _memo_name(node) -> bool:
    node = node.func if isinstance(node, ast.Call) else node
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in MEMO_DECORATORS


def memo_uses(source: str) -> list[str]:
    """The functions decorated with functools.cache or lru_cache, and
    "line N" for each such wrapper called outside a decorator."""
    tree, out, decorators = ast.parse(source), [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators.update(map(id, node.decorator_list))
            out += [node.name for dec in node.decorator_list if _memo_name(dec)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in decorators and _memo_name(node):
            out.append(f"line {node.lineno}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_memos_live_on_objects(path):
    """Module-level state outlives every context, so a memo there would be
    shared by all of them: only the listed tables may be module-level."""
    source = path.read_text()
    names = {line.split(": ", 1)[1] for line in module_containers(source)}
    assert names <= MODULE_CONTAINERS, module_containers(source)
    allowed = SCALAR_TABLES if path.name == "scalars.py" else set()
    assert set(memo_uses(source)) <= allowed


def test_scan_finds_module_state():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "_MEMO = {}\n"
        "TABLE: dict = dict()\n"
        "NAMES = [k for k in 'ab']\n"
        "BOUND = 10\n"
        "PAIR = (1, 2)\n"
        "class A:\n"
        "    _seen = set()\n"
        "    __slots__ = ('x',)\n"
        "    def f(self):\n"
        "        local = {}\n"
        "        return local\n"
        "@cache\n"
        "def g(m): pass\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def h(m): pass\n"
        "@staticmethod\n"
        "def k(m): pass\n"
        "k2 = functools.cache(k)\n"
    )
    assert module_containers(source) == [
        "line 3: _MEMO",
        "line 4: TABLE",
        "line 5: NAMES",
        "line 9: _seen",
    ]
    assert memo_uses(source) == ["g", "h", "line 20"]


def _is_cache(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr.endswith("_cache")


def hand_memo_lines(source: str) -> list[str]:
    """line: what for each lookup or store on a ``*_cache`` attribute (a
    ``.get``, a subscript or an ``in``) and each read of ``MEMO_CAP``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get" and _is_cache(node.func.value):
                found.append((node.lineno, "get"))
        elif isinstance(node, ast.Subscript) and _is_cache(node.value):
            found.append((node.lineno, "subscript"))
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) and _is_cache(right)
            for op, right in zip(node.ops, node.comparators)
        ):
            found.append((node.lineno, "in"))
        elif isinstance(getattr(node, "ctx", None), ast.Load) and "MEMO_CAP" in (
            getattr(node, "id", None),
            getattr(node, "attr", None),
        ):
            found.append((node.lineno, "MEMO_CAP"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "sparse.py"), ids=lambda p: p.name
)
def test_memos_use_the_decorator(path):
    """Every memo goes through ``sparse.memoized``, which applies the cap, so
    no other code looks up, stores or caps by hand."""
    assert hand_memo_lines(path.read_text()) == []


def test_scan_finds_hand_memos():
    source = (
        "from .sparse import MEMO_CAP, memoized\n"
        "import sparse\n"
        "class AwpaAlgebra:\n"
        "    def __init__(self):\n"
        "        self._t_cache = {}\n"
        "    def _mono_mul(self, k):\n"
        "        if k in self._mono_cache and len(self._mono_cache) < MEMO_CAP:\n"
        "            return self._mono_cache.get(k)\n"
        "    def t(self, k):\n"
        "        out = self._t_cache.get(k)\n"
        "        if k not in self._t_cache:\n"
        "            self._t_cache[k] = out\n"
        "        return len(self._t_cache), self.size[k], k in self.seen\n"
        "    @memoized('_u_cache')\n"
        "    def u(self, k):\n"
        "        return 0 < k in self._u_cache\n"
        "def word_mul(F, w):\n"
        "    return F._word_cache[w] if len(F._word_cache) < sparse.MEMO_CAP else None\n"
    )
    assert hand_memo_lines(source) == [
        "line 7: MEMO_CAP",
        "line 7: in",
        "line 8: get",
        "line 10: get",
        "line 11: in",
        "line 12: subscript",
        "line 16: in",
        "line 18: MEMO_CAP",
        "line 18: subscript",
    ]


BENCH = SRC.parent.parent / "bench"
# Definitions that no root reaches but that stay in the package, with the reason.
UNREACHED_ALLOWED = {
    "linalg.mat_mul": "bench/tracing.py patches it by name",
    "linalg.mat_vec": "bench/tracing.py patches it by name",
    "linalg.solve": "bench/tracing.py patches it by name",
    "cyclotomic.InductionStructure.partial_trace": (
        "the Frobenius-extension trace of the induction, checked by acceptance criterion 9"
    ),
}


def _module_aliases(tree, modules) -> dict[str, str]:
    """{local name: module} for each import that binds a module of the
    package: ``from . import m``, ``from awpa import m``, ``import m`` and
    ``import awpa.m as a``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "awpa"):
            pairs = [(alias.name, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs = [(alias.name.removeprefix("awpa."), alias.asname or alias.name)
                     for alias in node.names]
        else:
            continue
        aliases.update({local: name for name, local in pairs if name in modules})
    return aliases


def _reads(nodes, aliases) -> set[str]:
    """Every name and attribute read under the nodes: a bare name as
    ``name``, an attribute of a module alias as ``module.name`` and an
    attribute of any other receiver as ``.name``."""
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if not isinstance(getattr(n, "ctx", None), ast.Load):
                continue
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                receiver = n.value.id if isinstance(n.value, ast.Name) else None
                out.add(f"{aliases[receiver]}.{n.attr}" if receiver in aliases else f".{n.attr}")
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(package: dict[str, str], entry: list[str]) -> list[str]:
    """The functions, classes and methods of ``package`` ({module: source})
    that no root reaches, as ``module.name`` or ``module.Class.method``.

    The roots are the names read anywhere in the ``entry`` sources, the
    strings of each module's ``__all__`` and the names read in its
    module-level statements.  A reached definition reaches every name read
    in its body.  A module-level function or class is reached by its bare
    name, read in any module, or as ``m.name`` on an alias ``m`` of its own
    module.  A class reaches its bases, decorators, class-level statements
    and dunders; once it is reached, its other methods are reached only by
    an attribute of that name on any receiver but a module alias, not by a
    bare name (a parameter or local that shares the name)."""
    seen = set()
    for source in entry:
        tree = ast.parse(source)
        seen |= _reads([tree], _module_aliases(tree, package))
    defs = []  # (qualified name, names that reach it, owning class or None, nodes, aliases)
    for module, source in package.items():
        tree = ast.parse(source)
        aliases = _module_aliases(tree, package)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{stmt.name}"
                defs.append((qual, {stmt.name, qual}, None, [stmt], aliases))
            elif isinstance(stmt, ast.ClassDef):
                qual, own = f"{module}.{stmt.name}", [*stmt.bases, *stmt.decorator_list]
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                        names = {f".{item.name}"}
                        defs.append((f"{qual}.{item.name}", names, qual, [item], aliases))
                    else:
                        own.append(item)
                defs.append((qual, {stmt.name, qual}, None, own, aliases))
            else:
                seen |= _reads([stmt], aliases)
                targets = [ast.unparse(t) for t in getattr(stmt, "targets", ())]
                if targets == ["__all__"]:
                    seen |= {elt.value for elt in stmt.value.elts}
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qual, names, owner, nodes, aliases in defs:
            if qual not in reached and names & seen and (owner is None or owner in reached):
                reached.add(qual)
                seen |= _reads(nodes, aliases)
                grew = True
    return sorted(qual for qual, *_ in defs if qual not in reached)


def _package_unreached() -> list[str]:
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    entry = [package["cli"]] + [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    return unreached(package, entry)


def test_src_definitions_are_reached():
    """Code that only tests run lives under tests/ (``tests/oracles.py``)."""
    assert sorted(set(_package_unreached()) - set(UNREACHED_ALLOWED)) == []


def test_reach_allow_list_is_current():
    """Each allowed name is defined in the package and reached by no root, so
    an entry fails here once a root uses it or its definition is gone."""
    assert sorted(set(UNREACHED_ALLOWED) - set(_package_unreached())) == []


def test_scan_finds_unreachable():
    package = {
        "m": (
            "__all__ = ['exported']\n"
            "TABLE = {'key': tabled}\n"
            "def exported():\n"
            "    return helper()\n"
            "def helper(): pass\n"
            "def tabled(): pass\n"
            "def dead():\n"
            "    return only_from_dead()\n"
            "def only_from_dead(): pass\n"
            "class C:\n"
            "    size = measure()\n"
            "    def __init__(self):\n"
            "        self.setup()\n"
            "    def setup(self): pass\n"
            "    def unused(self): pass\n"
            "def measure(): pass\n"
            "class Dead:\n"
            "    def __repr__(self):\n"
            "        return shown()\n"
            "def shown(): pass\n"
        ),
    }
    entry = ["from m import C\nC()\n"]
    assert unreached(package, entry) == [
        "m.C.unused",
        "m.Dead",
        "m.dead",
        "m.only_from_dead",
        "m.shown",
    ]
    # one name, three scopes: an attribute of a module alias reaches only
    # that module's function, an attribute of any other receiver only
    # methods, and a bare name any definition
    package = {
        "perms": "def inverse(p): pass\ndef mul(p, q): pass\ndef length(p): pass\n",
        "linalg": "def inverse(m): pass\ndef mul(a, b): pass\n",
        "scalars": "class S:\n    def inverse(self): pass\n    def mul(self): pass\n",
    }
    entry = [
        "from awpa import linalg, perms as pm\n"
        "from awpa.scalars import S\n"
        "linalg.inverse(S().inverse())\n"
        "pm.mul(length)\n"
    ]
    assert unreached(package, entry) == ["linalg.mul", "perms.inverse", "scalars.S.mul"]
    # a bare name never reaches a method: the parameter ``coords`` of
    # ``elem`` leaves the method ``coords`` unreached
    package = {
        "frob": (
            "class Alg:\n"
            "    def elem(self, coords):\n"
            "        return coords\n"
            "    def coords(self): pass\n"
        ),
    }
    entry = ["from awpa.frob import Alg\nAlg().elem([1])\n"]
    assert unreached(package, entry) == ["frob.Alg.coords"]


# The memo dicts that bench/tracing.py reads off each context by name.
TRACED_MEMOS = ["_mono_cache", "_smono_cache", "_twist_cache"]


def _class_body(source: str, cls: str) -> list:
    return next(n.body for n in ast.parse(source).body if getattr(n, "name", None) == cls)


def memo_methods(source: str, cls: str) -> dict[str, str]:
    """{memo dict: method} for each method of class ``cls`` decorated with
    ``memoized("<memo dict>")``."""
    return {
        dec.args[0].value: item.name
        for item in _class_body(source, cls)
        for dec in getattr(item, "decorator_list", ())
        if isinstance(dec, ast.Call) and ast.unparse(dec.func) == "memoized"
    }


def init_memos(source: str, cls: str) -> list[str]:
    """The ``self.*_cache`` attributes that ``cls.__init__`` binds."""
    init = next(f for f in _class_body(source, cls) if getattr(f, "name", None) == "__init__")
    return [
        n.attr for n in ast.walk(init)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and ast.unparse(n.value) == "self" and n.attr.endswith("_cache")
    ]


def tracer_memos(source: str) -> list[str]:
    """The memo dicts ``window_counts`` reads off a context: ``_<c>_cache``
    for each c of a loop ``for cache in (...)`` that reads
    ``getattr(ctx, f"_{cache}_cache")``."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, ast.FunctionDef) and fn.name == "window_counts":
            for loop in ast.walk(fn):
                if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Tuple) and any(
                    ast.unparse(n) == "getattr(ctx, f'_{cache}_cache')" for n in ast.walk(loop)
                ):
                    out += [f"_{elt.value}_cache" for elt in loop.iter.elts]
    return out


def test_traced_memos_are_live():
    """Each memo dict the tracer reads by name is the dict of a reached
    ``sparse.memoized`` method of AwpaAlgebra, and each memo dict that
    AwpaAlgebra binds has such a method: a change that drops a memo fails
    here, not in the benchmark, and leaves no dead dict behind."""
    assert tracer_memos((BENCH / "tracing.py").read_text()) == TRACED_MEMOS
    source = (SRC / "engine.py").read_text()
    methods = memo_methods(source, "AwpaAlgebra")
    assert set(TRACED_MEMOS) <= set(methods)
    unreached = set(_package_unreached())
    assert [m for m in TRACED_MEMOS if f"engine.AwpaAlgebra.{methods[m]}" in unreached] == []
    assert sorted(init_memos(source, "AwpaAlgebra")) == sorted(methods)


def test_scan_finds_memo_names():
    source = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self._a_cache = {}\n"
        "        self._dead_cache: dict = {}\n"
        "        self.size = 0\n"
        "    @memoized('_a_cache')\n"
        "    def a(self, k): pass\n"
        "    @other('_b_cache')\n"
        "    def b(self, k): pass\n"
        "class B:\n"
        "    @memoized('_c_cache')\n"
        "    def c(self, k): pass\n"
    )
    assert memo_methods(source, "A") == {"_a_cache": "a"}
    assert init_memos(source, "A") == ["_a_cache", "_dead_cache"]
    tracer = (
        "def window_counts(ctx):\n"
        "    for cache in ('a', 'dead'):\n"
        "        len(getattr(ctx, f'_{cache}_cache'))\n"
        "    for other in ('x',):\n"
        "        pass\n"
        "def elsewhere(ctx):\n"
        "    for cache in ('y',):\n"
        "        getattr(ctx, f'_{cache}_cache')\n"
    )
    assert tracer_memos(tracer) == ["_a_cache", "_dead_cache"]


def unread_attributes(sources: list[str]) -> list[str]:
    """The attributes that a function of the sources stores on ``self`` and
    that no function but those storing it reads.  Matching is by attribute
    name: a load of ``.name`` on any receiver counts as a read of every
    attribute so named.  ``*_cache`` memo dicts are exempt; the memo tests
    cover them."""
    stores, reads = {}, {}
    for source in sources:
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for n in ast.walk(fn):
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                    if ast.unparse(n.value) == "self":
                        stores.setdefault(n.attr, set()).add(fn)
                elif isinstance(n, ast.Attribute):
                    reads.setdefault(n.attr, set()).add(fn)
    return sorted(
        attr for attr, storers in stores.items()
        if not attr.endswith("_cache") and not reads.get(attr, set()) - storers
    )


def test_stored_attributes_are_read():
    assert unread_attributes([path.read_text() for path in sorted(SRC.glob("*.py"))]) == []


def test_scan_finds_unread_attributes():
    source = (
        "class F:\n"
        "    def __init__(self, rows):\n"
        "        self.rows, self.basis = rows, []\n"
        "        self.size = len(rows)\n"
        "        self.tmp = 0\n"
        "        self._memo_cache = {}\n"
        "        self.basis.append(self.tmp)\n"
        "    def grow(self):\n"
        "        self.size += 1\n"
        "        self.extra = self.extra_seen\n"
        "    def lift(self):\n"
        "        self.size = 2 * self.size\n"
        "def width(other):\n"
        "    return other.rows\n"
    )
    assert unread_attributes([source]) == ["basis", "extra", "size", "tmp"]
    # a read in another source counts, whatever its receiver
    assert unread_attributes([source, "def f(g):\n    return g.tmp, g.size\n"]) == [
        "basis", "extra",
    ]
