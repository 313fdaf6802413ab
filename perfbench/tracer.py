"""Span tracing of the vfunc layers from outside the library.

A ``Tracer`` replaces each target function at every place it is bound: the
defining module, every ``vfunc`` module that imported it by name, the
package namespace, and class attributes (so ``__rmul__ = __mul__`` aliases
are covered too).  Each wrapped call records a span (name, start, end,
parent) in flat in-memory arrays; self time is a span's duration minus the
durations of its direct children.  Count-only targets, for functions too
hot to time, just count calls.  Leaving the ``with`` block puts every
original back.  A target a later refactor removes is skipped and its
metrics read ``None``.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

_MARK = "_perfbench_original"


@dataclass(frozen=True)
class Target:
    metric: str         # metric prefix, "<layer>.<function>"
    module: str         # defining module
    qualname: str       # attribute path inside it, e.g. "LElement.__mul__"
    timed: bool = True  # False: count calls only
    # Optional extra per-call quantity from the arguments, summed per pair.
    weight: Callable | None = None


def _det_n3(matrix, *_args, **_kw) -> int:
    return matrix.nrows ** 3


TARGETS = (
    Target("exact_linalg.kernel", "vfunc.exact_linalg", "kernel"),
    Target("exact_linalg.det", "vfunc.exact_linalg", "det", weight=_det_n3),
    Target("extension_algebra.norm", "vfunc.extension_algebra",
           "LElement.norm"),
    Target("extension_algebra.lelement_mul", "vfunc.extension_algebra",
           "LElement.__mul__"),
    Target("extension_algebra.act", "vfunc.extension_algebra", "act"),
    Target("laurent.mul", "vfunc.laurent", "LaurentPoly.__mul__"),
    Target("laurent.reduce_to_J", "vfunc.laurent", "reduce_to_J"),
    Target("finite_field.mul", "vfunc.finite_field", "FqElem.__mul__",
           timed=False),
    Target("vfunction.v_formula", "vfunc.vfunction", "v_formula"),
    Target("vfunction.v_oracle", "vfunc.vfunction", "v_oracle"),
    Target("vfunction.theta_conditions_matrix", "vfunc.vfunction",
           "theta_conditions_matrix"),
    Target("vfunction.theta_lattice", "vfunc.vfunction", "theta_lattice"),
    Target("ramification.upper_filtration", "vfunc.ramification",
           "upper_filtration"),
    Target("ramification.lower_filtration", "vfunc.ramification",
           "lower_filtration"),
    Target("ramification.quotient_compat_check", "vfunc.ramification",
           "quotient_compat_check"),
)


def _resolve(target: Target):
    obj = sys.modules.get(target.module)
    for part in target.qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


def _vfunc_namespaces():
    """Every module and class dict under the vfunc package, once each."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "vfunc" or name.startswith("vfunc.")):
            continue
        for owner in [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__.startswith("vfunc")]:
            if id(owner) not in seen:
                seen.add(id(owner))
                yield owner


def binding_sites(obj) -> list[tuple[object, str]]:
    """(owner, attribute) pairs under vfunc whose value is ``obj``."""
    return [(owner, key) for owner in _vfunc_namespaces()
            for key, val in list(vars(owner).items()) if val is obj]


def installed_wrappers() -> list[tuple[object, str]]:
    """Wrappers still bound anywhere under vfunc; empty once restored."""
    return [(owner, key) for owner in _vfunc_namespaces()
            for key, val in list(vars(owner).items()) if hasattr(val, _MARK)]


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.summary()`` after.

    The same tracer may be entered again; spans and counts accumulate.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = {}
        self.weights: dict[str, int] = {}
        self.resolved: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- spans ---------------------------------------------------------------

    def begin(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def root(self, name: str) -> int:
        """Name id for a harness-level span such as one pair."""
        return self._name_id(name)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, target: Target, fn):
        metric = target.metric
        if not target.timed:
            counts = self.counts
            counts.setdefault(metric, 0)

            def counted(*args, **kw):
                counts[metric] += 1
                return fn(*args, **kw)
            wrapper = counted
        else:
            name_id = self._name_id(metric)
            begin, end = self.begin, self.end
            weight, weights = target.weight, self.weights
            if weight is not None:
                weights.setdefault(metric, 0)

            def timed(*args, **kw):
                if weight is not None:
                    weights[metric] += weight(*args, **kw)
                idx = begin(name_id)
                try:
                    return fn(*args, **kw)
                finally:
                    end(idx)
            wrapper = timed
        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", metric)
        wrapper.__qualname__ = getattr(fn, "__qualname__", metric)
        return wrapper

    def __enter__(self) -> Tracer:
        try:
            for target in self.targets:
                fn = _resolve(target)
                if fn is None:
                    continue
                self.resolved.add(target.metric)
                wrapper = self._wrapper(target, fn)
                for owner, key in binding_sites(fn):
                    self._saved.append((owner, key, fn))
                    setattr(owner, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, key, fn = self._saved.pop()
            setattr(owner, key, fn)

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and any weight sum.

        Names of targets that could not be resolved map to ``None``.
        """
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = dur - covered
        size = len(self.names)
        total_by = np.bincount(names, weights=dur, minlength=size)
        self_by = np.bincount(names, weights=self_time, minlength=size)
        calls_by = np.bincount(names, minlength=size)
        out: dict[str, dict | None] = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls_by[i]), "total_s": float(total_by[i]),
                         "self_s": float(self_by[i])}
        for target in self.targets:
            if target.metric not in self.resolved:
                out[target.metric] = None
            elif not target.timed:
                out[target.metric] = {"calls": self.counts[target.metric]}
            elif target.weight is not None:
                out[target.metric]["weight"] = self.weights[target.metric]
        return out
