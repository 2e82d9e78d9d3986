"""Per-layer spans recorded from outside the package.

Each loaded dtebounds module is a layer. ``Tracer.installed()`` replaces
every public function of those modules, and the conditional-CDF
``predict_*`` methods, with a wrapper that times the call and counts its
work. Modules import each other's functions by
name (``from .condcdf import select_model``), so a wrapper is installed at
every binding site: each dtebounds module attribute that holds the original
function object. Installation fails if an original is still reachable from a
module-level container or a class, where no wrapper would see the call. The
originals are restored on exit.

A layer's inclusive time is the sum of its span durations; its self time is
that minus the time of the spans it called. Counter bookkeeping (argument
hashing for the distinct-work ratios) is charged to no span.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "dtebounds"
PREDICT_METHODS = (("ConstantCdfModel", "predict_mu"),
                   ("LocationShiftModel", "predict_mu"),
                   ("QuantileGridModel", "predict_quantiles"))


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.digest()


def _model_key(model):
    # models fitted inside a span carry the hash of their fit arguments, so
    # two separately fitted but identical models count as the same work
    return getattr(model, "_perfbench_fit_key", id(model))


def _count_fit_arm_model(args, result):
    key = _digest(np.asarray(args["y"], dtype=np.float64),
                  np.asarray(args["x"], dtype=np.float64),
                  args["spec"], args.get("seed", 0))
    result._perfbench_fit_key = key
    return {}, key


def _count_extract_adjusters(args, result):
    x_eval = np.atleast_2d(np.asarray(args["x_eval"], dtype=np.float64))
    key = _digest(_model_key(args["m1"]), _model_key(args["m0"]), x_eval,
                  np.asarray(args["grid"], dtype=np.float64))
    return {"rows": len(x_eval)}, key


def _count_shift_argopt(args, result):
    return {"cells": np.size(args["mu1"]) * np.size(args["grid"]),
            "m_sum": 0.5 * (np.size(args["resid1"]) + np.size(args["resid0"]))
            }, None


def _count_interp_argopt(args, result):
    return {"cells": np.shape(args["q1"])[0] * np.size(args["grid"])}, None


def _count_scan(args, result):
    return {"points": np.size(args["a"]) + np.size(args["b"])}, None


def _count_load_csv(args, result):
    return {"rows": result.n}, None


def _count_predict(args, result):
    return {"rows": len(args["X"])}, None


COUNTERS = {
    "condcdf.fit_arm_model": _count_fit_arm_model,
    "condcdf.extract_adjusters": _count_extract_adjusters,
    "kernels.shift_cdf_argopt": _count_shift_argopt,
    "kernels.interp_cdf_argopt": _count_interp_argopt,
    "kernels.scan_extrema": _count_scan,
    "data.load_csv": _count_load_csv,
    "condcdf.predict": _count_predict,
}


def _references(modules):
    """Module attributes, one level into module-level containers, and class
    attributes: the places a call could reach an unwrapped original."""
    for mod in modules:
        for attr, obj in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            yield where, obj
            if isinstance(obj, dict):
                items = obj.items()
            elif isinstance(obj, (list, tuple, set, frozenset)):
                items = enumerate(obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                items = vars(obj).items()
            else:
                items = ()
            for key, val in items:
                yield f"{where}[{key!r}]", val


class SpanStat:
    __slots__ = ("calls", "incl", "child", "counts", "distinct")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.child = 0.0
        self.counts = defaultdict(float)
        self.distinct = 0

    @property
    def self_time(self) -> float:
        return self.incl - self.child


class Tracer:
    """Span statistics for one phase of a run, aggregated by layer name."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.top_level_s = 0.0
        self._stack: list[list[float]] = []
        self._unit_keys: dict[str, set] = defaultdict(set)

    def end_unit(self):
        """Close the distinct-work window: repeats count only within a unit."""
        for name, keys in self._unit_keys.items():
            self.stats[name].distinct += len(keys)
        self._unit_keys.clear()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = self.stats[name]
                st.calls += 1
                st.incl += dt
                st.child += frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_level_s += dt
            if counter is not None:
                c0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts, key = counter(bound.arguments, result)
                for k, v in counts.items():
                    st.counts[k] += v
                if key is not None:
                    self._unit_keys[name].add(key)
                if stack:
                    # keep the bookkeeping out of the caller's self time
                    stack[-1][0] += time.perf_counter() - c0
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function at each binding site; restore after."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")}
        originals = {}
        for name, mod in modules.items():
            layer = name.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == name):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}",
                                                          obj))
        patched = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)][1])
        condcdf = modules[f"{PACKAGE}.condcdf"]
        for cls_name, meth in PREDICT_METHODS:
            cls = getattr(condcdf, cls_name)
            obj = cls.__dict__[meth]
            patched.append((cls, meth, obj))
            setattr(cls, meth, self._wrap("condcdf.predict", obj))
        try:
            missed = [where for where, obj in _references(modules.values())
                      if id(obj) in originals and originals[id(obj)][0] is obj]
            if missed:
                raise RuntimeError(f"unwrapped references: {missed}")
            yield self
        finally:
            for owner, attr, obj in patched:
                setattr(owner, attr, obj)
