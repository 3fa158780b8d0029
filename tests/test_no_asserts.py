"""Static checks over the library sources.

Result checks must survive `python -O`, which strips `assert` statements,
so the library raises typed errors instead; every `from` import is used;
every annotation resolves; every private module-level helper, every
private method and every module-level assigned name is used; every public
function, class and method is used by the library or the benchmark, apart
from a short list of test oracles; the library stays exact and free of hidden
options, with no float literal, no `float(...)` call and no read of
`os.environ` or `getenv`; the integer code of `linalg` and `tropicalize`
has no true division, the one way left for a float to enter it; no
library module imports a private name from another, so each reaches the
others only through their public API; and every import sits at module
level, so a module's dependencies all show at its top; every name the
benchmark's tracer binds is defined where the tracer looks for it; and
only `divisors` builds a `RayProfile`, so a function gains its rays
through `PLFunction.transport`, which only `tropicalize.assemble` and the
input builder `synthesis.tate_demo` call; and only `graphs` builds a graph
or calls a one-point `subdivide_at`, so every cut goes through
`subdivide_many`; and only `graphs` calls `integer_inverse`, so every
reading of the period lattice stays behind `CycleSpace`; and only `graphs`
builds a `CycleSpace`, so every reader shares the graph's cached
`cycle_space`; and only `PLFunction.add_trapezoids` calls
`_trapezoid_pieces` and no module names `trapezoid`, so every bump goes
through the one bump constructor; and `tropicalize` calls neither `frame_pieces` nor
`canonical_point`, so the certificate reads each profile once."""

import ast
import importlib
import inspect
import re
import typing
from collections import Counter
from pathlib import Path

import pytest

import tropicurve

SOURCES = sorted(Path(tropicurve.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _inexact_or_environment(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, ast.Attribute):
        return node.attr in ("environ", "getenv")
    if isinstance(node, ast.Name):
        return node.id in ("environ", "getenv")
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in ("environ", "getenv") for alias in node.names)
    return False


def test_library_has_no_floats_and_reads_no_environment():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _inexact_or_environment(node)
    ]
    assert found == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 1e3", "x = float(y)", "import os\nx = os.environ['A']",
     "import os\nx = os.getenv('A')", "from os import environ", "from os import getenv as g"],
)
def test_float_and_environment_reads_are_caught(source):
    assert any(_inexact_or_environment(node) for node in ast.walk(ast.parse(source)))


def _true_divisions(source: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]


def test_linalg_has_no_true_division():
    """In `linalg` and `tropicalize`, which compute in ints, an int / int
    would be a float: every division there must be `//` or `Fraction(n, d)`."""
    for name in ("linalg.py", "tropicalize.py"):
        path = Path(tropicurve.__file__).parent / name
        assert _true_divisions(path.read_text()) == [], name


@pytest.mark.parametrize("source", ["x = a / b", "x /= b", "x = [v / p for v in row]"])
def test_true_division_is_caught(source):
    assert _true_divisions(source) != []


def _private_imports(source: str) -> list[str]:
    """Private names a `from` import takes from a module of the package."""
    return [
        f"{node.lineno} {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "tropicurve")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_library_imports_no_private_names():
    found = [f"{path.name}:{hit}" for path in SOURCES for hit in _private_imports(path.read_text())]
    assert found == []


@pytest.mark.parametrize(
    ("source", "caught"),
    [
        ("from .linalg import _eliminate", True),
        ("from .graphs import CycleSpace, _walk as walk", True),
        ("from tropicurve.linalg import _integer_rows", True),
        ("from . import _hidden", True),
        ("from .linalg import invert_matrix", False),
        ("from os import _exit", False),
        ("from __future__ import annotations", False),
    ],
)
def test_private_imports_are_caught(source, caught):
    assert bool(_private_imports(source)) == caught


def _local_imports(source: str) -> list[int]:
    """Lines of the imports inside a function or method body."""
    return sorted({
        node.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_library_imports_only_at_module_level():
    found = [f"{path.name}:{line}" for path in SOURCES for line in _local_imports(path.read_text())]
    assert found == []


@pytest.mark.parametrize(
    ("source", "caught"),
    [
        ("def f():\n    import warnings", True),
        ("def f():\n    from .graphs import build_graph", True),
        ("class C:\n    def m(self):\n        from .rationals import rat", True),
        ("def f():\n    def g():\n        import os", True),
        ("async def f():\n    import os", True),
        ("import warnings\ndef f():\n    warnings.warn('x')", False),
        ("from .graphs import build_graph", False),
        ("try:\n    import numpy\nexcept ImportError:\n    numpy = None", False),
        ("class C:\n    x = 1", False),
    ],
)
def test_local_imports_are_caught(source, caught):
    assert bool(_local_imports(source)) == caught


def test_library_has_no_unused_from_imports():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                unused += [
                    f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name) not in used
                ]
    assert unused == []


def test_library_annotations_resolve():
    failed = []
    for path in SOURCES:
        module = importlib.import_module(f"tropicurve.{path.stem}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            targets = [(name, obj)]
            if inspect.isclass(obj):
                targets += [
                    (f"{name}.{attr}", fn) for attr, fn in vars(obj).items() if inspect.isfunction(fn)
                ]
            for label, target in targets:
                try:
                    typing.get_type_hints(target)
                except NameError as exc:
                    failed.append(f"{module.__name__}.{label}: {exc}")
    assert failed == []


def test_library_has_no_unreferenced_private_helpers():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    # module-level functions and classes, and the methods of every class
    defined = [
        (path, node)
        for path, tree in zip(SOURCES, trees)
        for top in tree.body
        for node in [top] + (top.body if isinstance(top, ast.ClassDef) else [])
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in defined
        if node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []


def _unreferenced_module_names(sources: dict[str, str]) -> list[str]:
    """Names assigned at the top level of some source, keyed by its name,
    that no source reads: a `Name` load, an attribute or a `from` import."""
    trees = {key: ast.parse(source) for key, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return [
        f"{key}:{node.lineno} {name.id}"
        for key, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
        and not (name.id.startswith("__") and name.id.endswith("__"))
        and name.id not in referenced
    ]


def test_library_has_no_unreferenced_module_names():
    assert _unreferenced_module_names({path.name: path.read_text() for path in SOURCES}) == []


@pytest.mark.parametrize(
    ("sources", "caught"),
    [
        ({"a": "from fractions import Fraction\nRat = Fraction"}, True),
        ({"a": "ROUNDS = 16\nBUDGET = 48\ndef f():\n    return range(BUDGET)"}, True),
        ({"a": "x, y = 1, 2\nprint(x)"}, True),
        ({"a": "x: int = 3"}, True),
        ({"a": "LIMIT = 3\ndef f():\n    return LIMIT"}, False),
        ({"a": "LIMIT = 3", "b": "from .a import LIMIT\nprint(LIMIT)"}, False),
        ({"a": "LIMIT = 3", "b": "from . import a\nprint(a.LIMIT)"}, False),
        ({"a": "__all__ = ['f']"}, False),
    ],
)
def test_unreferenced_module_names_are_caught(sources, caught):
    assert bool(_unreferenced_module_names(sources)) == caught


def _calls(source: str, name: str) -> list[int]:
    """Lines that call `name`, by name or as a module attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_divisors_builds_ray_profiles():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "divisors.py"
        for line in _calls(path.read_text(), "RayProfile")
    ]
    assert found == []


@pytest.mark.parametrize(
    ("source", "caught"),
    [
        ("rays = {rid: RayProfile(f.vertex_value(r.attach), 0) for rid, r in skel.rays.items()}", True),
        ("from . import divisors\nray = divisors.RayProfile(start, 1)", True),
        ("g = f.transport(skel, {rid: 1})", False),
        ("ok = isinstance(prof, RayProfile)", False),
    ],
)
def test_ray_profile_calls_are_caught(source, caught):
    assert bool(_calls(source, "RayProfile")) == caught


GRAPH_BUILDS = ("subdivide_at", "MetricGraph", "ExtendedGraph")


def test_only_graphs_builds_and_cuts_graphs():
    """`subdivide_many` is the one place a graph is cut, one copy per call,
    so no other library module calls the one-point `subdivide_at` forms,
    kept for callers outside the library (the benchmark's tracer binds
    them), or builds a graph but through `build_graph` and the cuts."""
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        if path.name != "graphs.py"
        for name in GRAPH_BUILDS
        for line in _calls(path.read_text(), name)
    ]
    assert found == []


@pytest.mark.parametrize(
    ("source", "caught"),
    [
        ("skel, v = skel.subdivide_at(pt)", True),
        ("g = MetricGraph(vertices, edges, _validated=True)", True),
        ("from . import graphs\nskel = graphs.ExtendedGraph(skel.finite, {})", True),
        ("return ExtendedGraph(fin, rays).subdivide_many(pts)", True),
        ("skel = skel.subdivide_many([pt])", False),
        ("ok = isinstance(g, MetricGraph)", False),
        ("def f(g: ExtendedGraph) -> MetricGraph:\n    return g.finite", False),
    ],
)
def test_graph_builds_and_one_point_cuts_are_caught(source, caught):
    assert any(_calls(source, name) for name in GRAPH_BUILDS) == caught


def _calls_inside(source: str, function: str, names) -> list[str] | None:
    """Calls of any of `names`, by name or as an attribute, inside the
    top-level function `function` of `source`, nested functions included;
    None when `source` defines no such function."""
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            return [
                f"{node.lineno} {name}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                for name in names
                if name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ]
    return None


CERTIFICATE_READS = ("frame_pieces", "canonical_point")


def test_tropicalize_reads_each_profile_once():
    """`tropicalize` walks every current edge's profiles once, in integers
    over its own denominator, and takes each piece end's preimage from the
    piece, so it neither walks a frame again with `frame_pieces` nor reads
    a point back with `canonical_point`."""
    source = (Path(tropicurve.__file__).parent / "tropicalize.py").read_text()
    assert _calls_inside(source, "tropicalize", CERTIFICATE_READS) == []


@pytest.mark.parametrize(
    ("source", "caught"),
    [
        ("def tropicalize(emb):\n    return list(frame_pieces(emb, 'e'))", True),
        ("def tropicalize(emb):\n    return [p for f in fs for p in trop.frame_pieces(emb, f)]", True),
        ("def tropicalize(emb):\n    return emb.skeleton.canonical_point(pt)", True),
        ("def tropicalize(emb):\n    def vertex(pt):\n        return skel.canonical_point(pt)\n    return vertex", True),
        ("def tropicalize_renamed(emb):\n    return emb", True),
        ("def tropicalize(emb):\n    return list(_steps(profiles, length, num))", False),
        ("def images_meet(a, b):\n    return frame_pieces(a)\ndef tropicalize(emb):\n    return emb", False),
        ("def tropicalize(emb):\n    return frame_pieces", False),
    ],
)
def test_certificate_reads_are_caught(source, caught):
    assert (_calls_inside(source, "tropicalize", CERTIFICATE_READS) != []) == caught


def test_only_graphs_inverts_integer_matrices():
    """`CycleSpace` inverts its gram matrix once and a complement's Z in
    `cell_points`; no other library module reads the period lattice."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "graphs.py"
        for line in _calls(path.read_text(), "integer_inverse")
    ]
    assert found == []


def test_only_graphs_builds_a_cycle_space():
    """Principality, the lifting corrections and break divisors read
    `MetricGraph.cycle_space`, cached on the graph, so no other library
    module builds a `CycleSpace` and one graph builds one."""
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "graphs.py"
        for line in _calls(path.read_text(), "CycleSpace")
    ]
    assert found == []


def test_the_library_adds_coordinates_only_by_adjoin_and_assemble():
    """Every step adjoins its coordinate on the skeleton and the pipelines
    assemble once per step, so no library module calls `extend_embedding`,
    the one-coordinate form kept for callers outside the library (the
    benchmark's tracer binds it), and `refine_embedding` is gone."""
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for name in ("extend_embedding", "refine_embedding")
        for line in _calls(path.read_text(), name)
    ]
    assert found == []
    defined = {
        node.name for path in SOURCES for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)
    }
    assert "extend_embedding" in defined and "refine_embedding" not in defined


def test_only_assemble_and_tate_demo_transport_a_function():
    """`adjoin` reads a coordinate's divisor where the coordinate was built
    and leaves it there, so `assemble` is the one place a pipeline
    coordinate moves; `tate_demo` lifts its two input coordinates."""
    callers = set()
    for path in SOURCES:
        source = path.read_text()
        functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
        for line in _calls(source, "transport"):
            inner = max((f for f in functions if f.lineno <= line <= f.end_lineno), key=lambda f: f.lineno)
            callers.add(f"{path.stem}.{inner.name}")
    assert callers == {"tropicalize.assemble", "synthesis.tate_demo"}


def _bump_builders(source: str) -> list[str]:
    """A `_trapezoid_pieces` call outside the method `add_trapezoids` of a
    top-level class `PLFunction`, and any definition, import or reading of
    the name `trapezoid`."""
    tree = ast.parse(source)
    home = [
        (fn.lineno, fn.end_lineno)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "PLFunction"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "add_trapezoids"
    ]
    found = [
        f"{line} _trapezoid_pieces"
        for line in _calls(source, "_trapezoid_pieces")
        if not any(lo <= line <= hi for lo, hi in home)
    ]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef, ast.ClassDef, ast.alias)):
            if "trapezoid" in {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}:
                found.append(f"{node.lineno} trapezoid")
    return found


def test_only_add_trapezoids_builds_a_bump():
    """Tent sides, pillars and separating bumps are all records of
    `PLFunction.add_trapezoids`, the one bump constructor, so its piece
    loop `_trapezoid_pieces` has that one caller, and the zero-based
    `trapezoid` is gone."""
    found = [f"{path.name}:{hit}" for path in SOURCES for hit in _bump_builders(path.read_text())]
    assert found == []
    assert sum(len(_calls(path.read_text(), "_trapezoid_pieces")) for path in SOURCES) == 1


@pytest.mark.parametrize(
    ("source", "caught"),
    [
        ("class PLFunction:\n    def add_trapezoids(self, bumps):\n"
         "        return [p for b in bumps for p in _trapezoid_pieces(self.domain, *b)]", False),
        ("class PLFunction:\n    def add_trapezoids(self, bumps):\n        def pieces(b):\n"
         "            return _trapezoid_pieces(self.domain, *b)\n        return pieces", False),
        ("tent = PLFunction.zero(skel).add_trapezoids([(root, offs, -1), (other, offs2, 1)])", False),
        ('"""one trapezoid per pillar"""', False),
        ("pieces = _trapezoid_pieces", False),
        ("def add_trapezoids(f, bumps):\n    return _trapezoid_pieces(f.domain, *bumps[0])", True),
        ("class PLFunction:\n    def transport(self, g):\n        return _trapezoid_pieces(g, 'e', offs, 1)", True),
        ("class Other:\n    def add_trapezoids(self, bumps):\n        return _trapezoid_pieces(d, *bumps[0])", True),
        ("from . import divisors\nps = divisors._trapezoid_pieces(d, 'e', offs, 1)", True),
        ("def trapezoid(domain, frame, offsets, slope=1):\n    return PLFunction.zero(domain)", True),
        ("from .divisors import trapezoid", True),
        ("from .divisors import bump as trapezoid", True),
        ("f = divisors.trapezoid(skel, root, offs)", True),
        ("makers = [trapezoid]", True),
    ],
)
def test_bump_builders_are_caught(source, caught):
    assert bool(_bump_builders(source)) == caught


# Public names that only tests call: independent oracles.  `sub_profile`
# reads one piece of a profile from its start, the form `cut` is checked
# against.
TEST_ORACLES = {"matrix_rank", "q_reduced", "is_q_reduced", "sub_profile"}
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _references(tree, strings: bool = False) -> tuple[Counter, Counter]:
    """How often a tree names each identifier: (as a bare name or a `from`
    import, as an attribute).  With `strings`, which the benchmark's sources
    get, a string that is a dotted name, such as its tracer's
    "PLFunction.transport", counts as attributes; a library string, such as
    a violation kind or a report key, names nothing."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            attrs.update(node.value.split("."))
    return names, attrs


def _unused_public_names(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """Public module-level functions and classes, and public methods, of the
    `library` sources that neither they nor the `users` name outside the
    definition's own body.  A method counts only as an attribute, so the
    builtin `reversed` does not keep a method `reversed` alive."""
    trees = {key: ast.parse(source) for key, source in library.items()}
    names, attrs = Counter(), Counter()
    read = [(tree, False) for tree in trees.values()] + [(ast.parse(source), True) for source in users.values()]
    for tree, strings in read:
        n, a = _references(tree, strings)
        names += n
        attrs += a
    unused = []
    for key, tree in trees.items():
        for top in tree.body:
            members = [(node, False) for node in top.body] if isinstance(top, ast.ClassDef) else []
            for node, module_level in [(top, True)] + members:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                    continue
                own_names, own_attrs = _references(node)
                uses = attrs[node.name] - own_attrs[node.name]
                if module_level:
                    uses += names[node.name] - own_names[node.name]
                if uses <= 0:
                    unused.append(f"{key}:{node.lineno} {node.name}")
    return unused


def test_library_public_names_are_used():
    library = {path.name: path.read_text() for path in SOURCES}
    users = {f"perfbench/{path.name}": path.read_text() for path in BENCHMARK}
    assert BENCHMARK
    unused = _unused_public_names(library, users)
    assert [hit for hit in unused if hit.split()[-1] not in TEST_ORACLES] == []


@pytest.mark.parametrize(
    ("library", "users", "caught"),
    [
        ({"a": "def f():\n    return 1"}, {}, True),
        ({"a": "def f(n):\n    return f(n - 1)"}, {}, True),
        ({"a": "class C:\n    def m(self):\n        return self.m()"}, {}, True),
        ({"a": "class C:\n    def reversed(self):\n        return 1\nx = reversed([C])"}, {}, True),
        ({"a": "class C:\n    def m(self):\n        return 1\nm = 2\nprint(m, C)"}, {}, True),
        ({"a": "def f():\n    return 1\ndef g():\n    return f()\nprint(g)"}, {}, False),
        ({"a": "def f():\n    return 1", "b": "from .a import f"}, {}, False),
        ({"a": "def f():\n    return 1"}, {"bench": "from . import a\na.f()"}, False),
        ({"a": "class C:\n    def m(self):\n        return 1\nC().m()"}, {}, False),
        ({"a": "class C:\n    def m(self):\n        return 1\nC"}, {"bench": "T = ('a', 'C.m')"}, False),
        ({"a": "def _f():\n    return 1\nclass C:\n    def __eq__(self, o):\n        return 1\nC"}, {}, False),
        ({"a": "class C:\n    def m(self):\n        return 1\nKIND = 'm'\nprint(C, KIND)"}, {}, True),
        ({"a": "class C:\n    def m(self):\n        return 1\nT = ('a', 'C.m')\nprint(T)"}, {}, True),
    ],
)
def test_unused_public_names_are_caught(library, users, caught):
    assert bool(_unused_public_names(library, users)) == caught


def _untraceable(targets, sources: dict[str, str]) -> list[str]:
    """The (module, qualified name) targets, with sources keyed by module
    name, that name neither a function defined at the top level of the
    module nor a method defined in its class's own body: the tracer reads
    a method from the class `__dict__`, so an inherited one is not found."""
    missing = []
    for module, qualname in targets:
        body = ast.parse(sources.get(module, "")).body
        *owner, name = qualname.split(".")
        for cls in owner:
            body = next((node.body for node in body if isinstance(node, ast.ClassDef) and node.name == cls), [])
        if not any(isinstance(node, ast.FunctionDef) and node.name == name for node in body):
            missing.append(f"{module}.{qualname}")
    return missing


def test_traced_names_are_defined_where_the_tracer_binds_them():
    tree = ast.parse(TRACING.read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    ]
    assert ("tropicurve.graphs", "ExtendedGraph.subdivide_at") in targets
    sources = {f"tropicurve.{path.stem}": path.read_text() for path in SOURCES}
    assert _untraceable(targets, sources) == []


@pytest.mark.parametrize(
    ("target", "source", "caught"),
    [
        (("m", "f"), "def f():\n    pass", False),
        (("m", "C.g"), "class C:\n    def g(self):\n        pass", False),
        (("m", "f"), "def f_renamed():\n    pass", True),
        (("n", "f"), "def f():\n    pass", True),
        (("m", "f"), "class C:\n    def f(self):\n        pass", True),
        (("m", "f"), "if True:\n    def f():\n        pass", True),
        (("m", "C.g"), "def g():\n    pass\nclass C:\n    pass", True),
        (("m", "C.g"), "class _Domain:\n    def g(self):\n        pass\nclass C(_Domain):\n    pass", True),
        (("m", "C.g"), "class D:\n    def g(self):\n        pass\nclass C:\n    pass", True),
    ],
)
def test_untraceable_names_are_caught(target, source, caught):
    assert bool(_untraceable([target], {"m": source})) == caught
