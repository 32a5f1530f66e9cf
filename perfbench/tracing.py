"""Layer tracer installed from outside the package.

The layers are the package modules.  ``Tracer.install`` wraps

* every function that one package module imports from another, and every
  function of the public API (the package namespace), plus ``cli.main``;
* ``__post_init__`` of the package's dataclasses that have one (``Empirical``
  validates its atoms there);
* every public ``numpy.linalg`` and ``scipy.linalg`` callable, to count
  linear-algebra calls and matrix factorizations.

A module that did ``from .manifold import distance`` holds its own binding,
so each wrapper is written into every package namespace that binds the
original function, the defining module included (intra-module calls to a
wrapped name become nested spans of the same layer).

Each wrapped call is a span (layer, name, start, end, parent, request); spans
stay in memory until ``write_spans``.  A span's self time is its duration
minus the durations of its direct children, which exactly tile the time they
cover because calls nest on one thread.  ``<layer>.calls`` counts entries into
a layer from another layer (or from the benchmark), not nested calls within it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import os
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "grassmann_scatter"
LAYERS = ("cli", "io", "estimator", "likelihood", "manifold", "grassmann", "diagnostics",
          "asymptotics")
BENCH = len(LAYERS)          # owner index of work done outside every layer span

# numpy.linalg callables that factor one matrix per batch entry of their first argument
_NUMPY_FACTORING = {"inv", "cholesky", "eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals",
                    "qr", "slogdet", "det", "pinv", "matrix_rank", "lstsq", "cond",
                    "tensorinv", "tensorsolve"}
_SCIPY_FACTORING = {"solve", "inv", "det", "cholesky", "cho_factor", "lu", "lu_factor", "qr",
                    "rq", "svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh", "schur",
                    "hessenberg", "lstsq", "pinv", "pinvh", "polar", "sqrtm", "logm", "ldl",
                    "orth", "null_space"}
_GENERALIZED = {"eig", "eigh", "eigvals", "eigvalsh"}

SOLVERS = ("estimator.fixed_point_solve", "estimator.riemannian_descent")


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _batch(shape) -> int:
    return math.prod(shape[:-2])


def _numpy_factor_count(name):
    """Matrices a numpy.linalg call factors; a broadcast solve factors each batch entry."""
    if name == "solve":
        def count(args, kwargs):
            a = np.shape(_arg(args, kwargs, 0, "a"))
            b = np.shape(_arg(args, kwargs, 1, "b"))
            return math.prod(np.broadcast_shapes(a[:-2], b[:-2] if len(b) >= 2 else ()))
        return count
    if name in _NUMPY_FACTORING:
        return lambda args, kwargs: _batch(np.shape(_arg(args, kwargs, 0, "a")))
    return None


def _scipy_factor_count(name):
    """Matrices a scipy.linalg call factors; eigh(a, b) also factors b."""
    if name not in _SCIPY_FACTORING:
        return None

    def count(args, kwargs):
        k = _batch(np.shape(_arg(args, kwargs, 0, "a")))
        if name in _GENERALIZED and _arg(args, kwargs, 1, "b") is not None:
            k *= 2
        return k
    return count


class Tracer:
    """Spans and counters at the package's layer boundaries (single thread)."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[list] = []       # frames: [layer, start_ns, child_ns, span id]
        self._in_linalg = False
        self._solve_depth = 0
        self.request = -1                  # id shared by the spans of one command
        self.names: list[str] = []
        # span log, one column per field; a span's id is its row
        self._parent = array("q")
        self._layer = array("b")
        self._name = array("i")
        self._req = array("q")
        self._t0 = array("q")
        self._t1 = array("q")
        self.origin_ns = time.perf_counter_ns()
        self.reset()

    # -- counters -----------------------------------------------------------

    def reset(self) -> None:
        """Zero the counters (not the span log); called at the start of a pass."""
        n = len(LAYERS) + 1
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.linalg_calls = [0] * n
        self.fn_calls = Counter()
        self.fn_ns = Counter()
        self.count = Counter()
        self.statuses = Counter()
        self.raised = Counter()

    def snapshot(self) -> dict:
        """Counters of the current pass, as plain data."""
        return {
            "layers": {
                name: {"calls": self.calls[i], "self_ns": self.self_ns[i],
                       "linalg_calls": self.linalg_calls[i]}
                for i, name in enumerate(LAYERS + ("bench",))
            },
            "fn_calls": {self.names[k]: v for k, v in self.fn_calls.items()},
            "fn_ns": {self.names[k]: v for k, v in self.fn_ns.items()},
            "count": dict(self.count),
            "statuses": dict(self.statuses),
            "raised": dict(self.raised),
        }

    @property
    def spans(self) -> int:
        return len(self._t0)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import scipy.linalg

        pkg = importlib.import_module(PACKAGE)
        modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS]
        namespaces = [pkg] + modules
        targets: dict[int, object] = {}
        classes = set()
        for ns in namespaces:
            for obj in vars(ns).values():
                home = getattr(obj, "__module__", None) or ""
                if home == ns.__name__ or not home.startswith(PACKAGE + "."):
                    continue                    # defined here, or not ours
                if inspect.isfunction(obj):
                    targets[id(obj)] = obj
                elif inspect.isclass(obj):
                    classes.add(obj)
        cli = modules[LAYERS.index("cli")]
        targets[id(cli.main)] = cli.main

        wrapped = {}
        for key, fn in targets.items():
            layer = fn.__module__.rsplit(".", 1)[1]
            if layer in LAYERS:
                wrapped[key] = self._wrap(layer, fn.__name__, fn)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(ns, attr, wrapped[id(obj)])
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            layer = cls.__module__.rsplit(".", 1)[1]
            if layer in LAYERS and "__post_init__" in vars(cls):
                fn = vars(cls)["__post_init__"]
                self._set(cls, "__post_init__",
                          self._wrap(layer, f"{cls.__name__}.__post_init__", fn))

        for mod, factor in ((np.linalg, _numpy_factor_count),
                            (scipy.linalg, _scipy_factor_count)):
            for attr in mod.__all__:
                obj = getattr(mod, attr, None)
                if callable(obj) and not inspect.isclass(obj):
                    self._set(mod, attr, self._wrap_linalg(obj, factor(attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, layer: str, fname: str, fn):
        tr = self
        li = LAYERS.index(layer)
        qual = f"{layer}.{fname}"
        ni = self._name_id(qual)
        hook = _HOOKS.get(qual) or (_io_hook if layer == "io" else None)
        solver = qual in SOLVERS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr._stack
            parent = stack[-1] if stack else None
            if parent is None or parent[0] != li:
                tr.calls[li] += 1
                if li == _MANIFOLD and tr._solve_depth:
                    tr.count["manifold_calls_in_solves"] += 1
            sid = len(tr._t0)
            tr._parent.append(-1 if parent is None else parent[3])
            tr._layer.append(li)
            tr._name.append(ni)
            tr._req.append(tr.request)
            tr._t1.append(0)
            if solver:
                tr._solve_depth += 1
            frame = [li, 0, 0, sid]
            stack.append(frame)
            result, error = None, None
            t0 = frame[1] = clock()
            tr._t0.append(t0 - tr.origin_ns)
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[2]
                tr.self_ns[li] += own
                if parent is not None:
                    parent[2] += dur
                tr._t1[sid] = t1 - tr.origin_ns
                tr.fn_calls[ni] += 1
                tr.fn_ns[ni] += dur
                if solver:
                    tr._solve_depth -= 1
                if hook is not None:
                    hook(tr, qual, args, kwargs, result, error, dur, own)

        return traced

    def _wrap_linalg(self, fn, factor):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr._in_linalg:           # a linalg routine calling another one
                return fn(*args, **kwargs)
            owner = tr._stack[-1][0] if tr._stack else BENCH
            tr.linalg_calls[owner] += 1
            if factor is not None and tr._solve_depth:
                tr.count["solve_factorizations"] += factor(args, kwargs)
            tr._in_linalg = True
            try:
                return fn(*args, **kwargs)
            finally:
                tr._in_linalg = False

        return traced

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """All spans recorded so far, as gzip-compressed CSV (times in ns from start)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,request,layer,name,start_ns,end_ns\n")
            for i in range(len(self._t0)):
                fh.write(f"{i},{self._parent[i]},{self._req[i]},{LAYERS[self._layer[i]]},"
                         f"{self.names[self._name[i]]},{self._t0[i]},{self._t1[i]}\n")


_MANIFOLD = LAYERS.index("manifold")


def _solve_hook(tr, qual, args, kwargs, result, error, dur, own):
    tr.count["solves"] += 1
    if error is not None:
        tr.raised[type(error).__name__] += 1
        return
    tr.statuses[result.status] += 1
    tr.count["solve_iterations"] += result.iterations
    tr.count["solve_returned_ns"] += dur
    if result.status == "diverged_to_boundary" and result.boundary is not None:
        tr.count["diverged_with_flag"] += 1


def _kernel_hook(tr, qual, args, kwargs, result, error, dur, own):
    tr.count["atom_evals"] += len(_arg(args, kwargs, 0, "points"))
    tr.count["kernel_ns"] += dur


def _sample_hook(tr, qual, args, kwargs, result, error, dur, own):
    tr.count["draws"] += 1
    tr.count["draw_ns"] += dur


def _candidates_hook(tr, qual, args, kwargs, result, error, dur, own):
    if error is None:
        tr.count["candidates"] += len(result.candidates)


def _io_hook(tr, qual, args, kwargs, result, error, dur, own):
    direction = "read" if qual.startswith("io.read_") else "write" if qual.startswith(
        "io.write_") else None
    if direction is None:
        return
    tr.count[f"io_{direction}_ns"] += own
    path = _arg(args, kwargs, 0, "path")
    if error is None and isinstance(path, (str, os.PathLike)):
        tr.count[f"io_bytes_{direction}"] += os.path.getsize(path)


_HOOKS = {
    "estimator.fixed_point_solve": _solve_hook,
    "estimator.riemannian_descent": _solve_hook,
    "likelihood._weighted_kernel_sum": _kernel_hook,
    "grassmann.sample": _sample_hook,
    "diagnostics.candidate_subspaces": _candidates_hook,
}


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

# metrics whose value is a time (or a rate over a time); every other one is a
# count or a ratio of counts and repeats exactly for a given seed
TIMED = ("_s", "us_per_iter", "_per_s", "overhead_frac")


def is_timed(name: str) -> bool:
    return name.endswith(TIMED)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) of one traced pass from ``Tracer.snapshot``.

    A ratio whose base is zero (no diverged runs, no draws) reads 0; the base
    is reported next to it.
    """
    lay, c, fn_calls, fn_ns = snap["layers"], snap["count"], snap["fn_calls"], snap["fn_ns"]
    st = snap["statuses"]
    iters = c.get("solve_iterations", 0)
    solves = c.get("solves", 0)
    diverged = st.get("diverged_to_boundary", 0)
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (lay[name]["calls"], "count")
        out[f"{name}.self_s"] = (lay[name]["self_ns"] / 1e9, "s")
        out[f"{name}.linalg_calls"] = (lay[name]["linalg_calls"], "count")
    out.update({
        "io.read_s": (c.get("io_read_ns", 0) / 1e9, "s"),
        "io.write_s": (c.get("io_write_ns", 0) / 1e9, "s"),
        "io.bytes_read": (c.get("io_bytes_read", 0), "B"),
        "io.bytes_written": (c.get("io_bytes_write", 0), "B"),
        "estimator.solves": (solves, "count"),
        "estimator.iterations": (iters, "count"),
        "estimator.us_per_iter": (_ratio(c.get("solve_returned_ns", 0) / 1e3, iters), "us"),
        "estimator.converged_ratio": (_ratio(st.get("converged", 0), solves), "ratio"),
        "estimator.max_iter_hits": (st.get("max_iterations", 0), "count"),
        "estimator.diverged": (diverged, "count"),
        "estimator.raised": (sum(snap["raised"].values()), "count"),
        "estimator.boundary_flag_ratio": (_ratio(c.get("diverged_with_flag", 0), diverged),
                                          "ratio"),
        "estimator.factorizations_per_iter": (_ratio(c.get("solve_factorizations", 0), iters),
                                              "count"),
        "likelihood.atom_evals": (c.get("atom_evals", 0), "count"),
        "likelihood.atom_evals_per_s": (_ratio(c.get("atom_evals", 0),
                                               c.get("kernel_ns", 0) / 1e9), "1/s"),
        "manifold.calls_per_iter": (_ratio(c.get("manifold_calls_in_solves", 0), iters),
                                    "count"),
        "grassmann.draws": (c.get("draws", 0), "count"),
        "grassmann.draws_per_s": (_ratio(c.get("draws", 0), c.get("draw_ns", 0) / 1e9), "1/s"),
        "grassmann.dim_intersection_calls": (fn_calls.get("grassmann.dim_intersection", 0),
                                             "count"),
        "diagnostics.candidates": (c.get("candidates", 0), "count"),
        "diagnostics.index_evals": (fn_calls.get("diagnostics.existence_index", 0), "count"),
        "asymptotics.limiting_covariance_s": (
            fn_ns.get("asymptotics.limiting_covariance", 0) / 1e9, "s"),
    })
    return out
