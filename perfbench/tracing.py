"""Spans around calls into the layers of ``tropicurve``, taken from outside.

A :class:`Tracer` wraps each traced public function and rebinds the wrapper
under every name that refers to the function: in the defining module and in
each module that imported it (``tropicalize`` lives in both ``tropicalize``
and ``synthesis``), or on the class for a method.  The wrappers are installed
only while a traced operation runs, so untraced operations execute the
original bindings.  No source file under ``src/`` is edited.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index, in
the tracer's span list, of the enclosing span (``None`` for an op's root
span) and ``op`` the operation id.  A span's self time is its duration minus
the durations of its direct children, so within one op the self times sum
to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from contextlib import contextmanager

# (module, qualified name) of every traced public function or method.
TARGETS = (
    ("tropicurve.tropicalize", "tropicalize"),
    ("tropicurve.tropicalize", "is_fully_faithful"),
    ("tropicurve.tropicalize", "extend_embedding"),
    ("tropicurve.linalg", "solve_linear"),
    ("tropicurve.divisors", "is_principal"),
    ("tropicurve.divisors", "PLFunction.transport"),
    ("tropicurve.breakdiv", "break_divisor_decompose"),
    ("tropicurve.synthesis", "stage0"),
    ("tropicurve.synthesis", "select_pillars"),
    ("tropicurve.synthesis", "fully_faithful_pipeline"),
    ("tropicurve.synthesis", "smoothing_pipeline"),
    ("tropicurve.complexes", "check_smooth"),
    ("tropicurve.graphs", "MetricGraph.subdivide_at"),
    ("tropicurve.graphs", "ExtendedGraph.subdivide_at"),
)


def span_name(module: str, qualname: str) -> str:
    """``tropicurve.linalg``, ``solve_linear`` -> ``linalg.solve_linear``."""
    return f"{module.rpartition('.')[2]}.{qualname}"


class Tracer:
    """Records spans and layer counters for the operations it wraps."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = None
        self._seen_embeddings: dict[tuple, object] = {}
        self._sites = []  # (owner, attribute, original, wrapper)
        package = importlib.import_module("tropicurve")
        for info in pkgutil.iter_modules(package.__path__, "tropicurve."):
            importlib.import_module(info.name)
        for module_name, qualname in TARGETS:
            self._bind(module_name, qualname)

    # -- rebinding ------------------------------------------------------------------------

    def _bind(self, module_name: str, qualname: str):
        module = importlib.import_module(module_name)
        name = span_name(module_name, qualname)
        hook = _HOOKS.get(name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._sites.append((owner, attr, original, self._wrap(name, original, hook)))
            return
        original = getattr(module, qualname)
        wrapper = self._wrap(name, original, hook)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("tropicurve"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._sites.append((mod, attr, original, wrapper))

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def install(self):
        for owner, attr, _original, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._sites:
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id, name: str):
        """Trace one operation: its root span encloses every traced call."""
        self._op = op_id
        self.install()
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)
            self.uninstall()
            self._seen_embeddings.clear()
            self._op = None

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount


# -- counters taken at the layer boundaries -----------------------------------------------


def _tropicalize_hook(tracer: Tracer, args, kwargs):
    """Count calls on an embedding (same skeleton and coordinate objects)
    already tropicalized within the op.  The embedding is kept alive until
    the op ends, so object ids are not reused meanwhile."""
    emb = args[0] if args else kwargs["emb"]
    key = (id(emb.skeleton),) + tuple(id(f) for f in emb.coords)
    if key in tracer._seen_embeddings:
        tracer.count("tropicalize.tropicalize.repeats")
    else:
        tracer._seen_embeddings[key] = emb


def _solve_linear_hook(tracer: Tracer, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    tracer.count("linalg.solve_linear.cells", len(rows) * (len(rows[0]) if rows else 0))


_HOOKS = {
    "tropicalize.tropicalize": _tropicalize_hook,
    "linalg.solve_linear": _solve_linear_hook,
}


# -- aggregation --------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self seconds and total seconds.

    Total seconds count a span only when no enclosing span has its name, so
    recursion is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, _op) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        outer = parent
        while outer is not None and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer is None:
            row["total_s"] += end - start
    return out
