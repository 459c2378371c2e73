"""Span tracer that measures skewcoh's layers from outside the package.

The tracer replaces public functions of the ``skewcoh`` modules with
wrappers that record a span (name, start, end, parent) around each call,
plus counters taken from arguments and results.  Nothing inside ``src/``
is edited: every wrapper is installed at run time, and only in traced
runs.

Two traps make naive patching miss calls:

* ``skewcoh/__init__.py`` re-exports the function ``coherence``, so both
  ``skewcoh.coherence`` and ``import skewcoh.coherence as m`` yield the
  function, not the module.  Modules are therefore always fetched from
  ``sys.modules``.
* ``channels``, ``verify``, ``cli`` and ``surfaces`` import names with
  ``from .x import y``, which copies the function object into their own
  namespace.  Each traced function is therefore replaced in every
  ``skewcoh`` namespace that holds the same object.

:meth:`Tracer.unwrapped_leftovers` lists any namespace that still holds an
original after installation; a traced run fails when it is not empty.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function, span) for every traced function.
FUNCTION_SPANS = (
    ("linalg", "sqrt_psd", "linalg.sqrt_psd"),
    ("states", "bell_diagonal", "states.build"),
    ("states", "x_state_z", "states.build"),
    ("states", "werner", "states.build"),
    ("states", "isotropic", "states.build"),
    ("bases", "amub_basis", "bases.amub_basis"),
    ("coherence", "coherence", "coherence.numeric"),
    ("coherence", "coherence_from_skew_information", "coherence.skew"),
    ("coherence", "skew_information", "coherence.skew"),
    ("coherence", "bd_coherence", "coherence.closed"),
    ("coherence", "bd_coherence_sum", "coherence.closed"),
    ("coherence", "werner_coherence", "coherence.closed"),
    ("coherence", "isotropic_coherence", "coherence.closed"),
    ("coherence", "xz_coherence_a1", "coherence.closed"),
    ("coherence", "xz_coherence_sum", "coherence.closed"),
    ("coherence", "xz_coherence_a1_candidate", "coherence.closed"),
    ("coherence", "xz_coherence_sum_candidate", "coherence.closed"),
    ("coherence", "bd_coherence_values", "coherence.field"),
    ("coherence", "xz_coherence_values", "coherence.field"),
    ("channels", "apply_product_channel", "channels.apply"),
    ("channels", "dynamics_curve", "channels.dynamics"),
    ("surfaces", "sample_bd_field", "surfaces.sample"),
    ("surfaces", "sample_xz_field", "surfaces.sample"),
    ("surfaces", "sample_channel_field", "surfaces.sample"),
    ("surfaces", "extract_isosurface", "surfaces.extract"),
    ("surfaces", "mesh_component_count", "surfaces.components"),
    ("surfaces", "write_obj", "surfaces.write"),
    ("surfaces", "write_ply", "surfaces.write"),
    ("surfaces", "write_field_csv", "surfaces.write"),
    ("surfaces", "write_curve_csv", "surfaces.write"),
    ("cli", "main", "cli.main"),
)

# (module, class, span): the class's __post_init__ validation is traced.
VALIDATION_SPANS = (
    ("states", "DensityMatrix", "states.DensityMatrix"),
    ("states", "BellDiagonalParams", "states.build"),
    ("states", "XStateZParams", "states.build"),
)

# Spans counted as layer work; verify suites are timed separately, so the
# time verify spends outside every layer shows as trace.uncovered_s.
SPAN_NAMES = tuple(dict.fromkeys(s for *_, s in FUNCTION_SPANS + VALIDATION_SPANS))


def _module(name: str):
    return sys.modules[f"skewcoh.{name}"]


def _skewcoh_namespaces() -> list[dict]:
    return [
        vars(mod)
        for name, mod in sorted(sys.modules.items())
        if (name == "skewcoh" or name.startswith("skewcoh.")) and mod is not None
    ]


def _matrices(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Records spans and counters for one traced workload run.

    Spans are kept in memory as ``[name, start, end, parent]`` rows; the
    per-layer metrics are derived from them by :meth:`layer_metrics`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.suite_wall: dict[str, float] = {}
        self._stack: list[int] = []
        self._sample_keys: set = set()
        # id(original) -> (original, wrapper); the original is kept alive so
        # its id cannot be reused by another object.
        self._wrapped: dict[int, tuple[object, object]] = {}
        self._extra_namespaces: list[dict] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_eig(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            counts["linalg.eig.calls"] += 1
            counts["linalg.eig.matrices"] += _matrices(a)
            return fn(a, *args, **kwargs)

        return counted

    def _observed(self, fn, after):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return observed

    def _timed_suite(self, name: str, fn):
        wall = self.suite_wall

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall[name] = wall.get(name, 0.0) + time.perf_counter() - start

        return timed

    # -- counters taken from results --------------------------------------------

    def _after(self, span: str, function: str):
        counts = self.counts
        if span == "coherence.field":
            return lambda args, kwargs, result: counts.update({"coherence.field.points": np.size(result)})
        if span == "surfaces.sample":
            keys = self._sample_keys
            return lambda args, kwargs, result: keys.add((function, args, tuple(sorted(kwargs.items()))))
        if span == "surfaces.extract":

            def mesh(args, kwargs, result):
                counts["surfaces.extract.triangles"] += len(result.triangles)
                counts["surfaces.extract.vertices"] += len(result.vertices)

            return mesh
        if span == "surfaces.write":

            def written(args, kwargs, result):
                counts["surfaces.write.files"] += 1
                counts["surfaces.write.bytes"] += Path(result).stat().st_size

            return written
        if function == "run_suites":
            return lambda args, kwargs, result: counts.update({"verify.checks": sum(len(r.checks) for r in result)})
        return None

    # -- installation -------------------------------------------------------

    def _replace(self, original, wrapped, namespaces: list[dict]) -> None:
        self._wrapped[id(original)] = (original, wrapped)
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = wrapped

    def install(self) -> None:
        """Wrap every traced function of the package, importing it first."""
        for module in dict.fromkeys(m for m, *_ in FUNCTION_SPANS + VALIDATION_SPANS + (("verify",),)):
            importlib.import_module(f"skewcoh.{module}")
        namespaces = _skewcoh_namespaces()
        for module, function, span in FUNCTION_SPANS:
            original = getattr(_module(module), function)
            self._replace(original, self._span(span, original, self._after(span, function)), namespaces)
        for module, cls_name, span in VALIDATION_SPANS:
            cls = getattr(_module(module), cls_name)
            original = cls.__post_init__
            self._wrapped[id(original)] = (original, self._span(span, original))
            cls.__post_init__ = self._wrapped[id(original)][1]

        verify = _module("verify")
        self._replace(verify.run_suites, self._observed(verify.run_suites, self._after("", "run_suites")), namespaces)
        for name, fn in list(verify.ALL_SUITES.items()):
            self._replace(fn, self._timed_suite(name, fn), namespaces + [verify.ALL_SUITES])

        for function in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, function)
            self._replace(original, self._count_eig(original), [vars(np.linalg)])

    def adopt(self, namespace: dict) -> None:
        """Wrap the traced functions that a namespace outside the package,
        such as a loaded script, copied with ``from skewcoh.x import y``."""
        for original, wrapped in self._wrapped.values():
            self._replace(original, wrapped, [namespace])
        self._extra_namespaces.append(namespace)

    def unwrapped_leftovers(self) -> list[str]:
        """Every watched namespace entry that still holds an original."""
        places = [(ns.get("__name__", "?"), ns) for ns in _skewcoh_namespaces() + self._extra_namespaces]
        places.append(("skewcoh.verify.ALL_SUITES", _module("verify").ALL_SUITES))
        places.append(("numpy.linalg", vars(np.linalg)))
        for module, cls_name, _ in VALIDATION_SPANS:
            places.append((f"skewcoh.{module}.{cls_name}", vars(getattr(_module(module), cls_name))))
        return [
            f"{where}.{key}"
            for where, ns in places
            for key, value in ns.items()
            if id(value) in self._wrapped and self._wrapped[id(value)][0] is value
        ]

    # -- metrics ----------------------------------------------------------------

    def _aggregate(self) -> tuple[Counter, dict[str, float], float]:
        """Calls and self time per span name, and the time top-level spans cover."""
        calls: Counter = Counter()
        self_s: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        child_s = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                covered += end - start
        for (name, start, end, _), children in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += end - start - children
        return calls, self_s, covered

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced run; ``wall_s`` is its wall time."""
        calls, self_s, covered = self._aggregate()
        states = calls["states.DensityMatrix"]
        out = {
            "linalg.sqrt_psd.calls": calls["linalg.sqrt_psd"],
            "linalg.sqrt_psd.self_s": self_s["linalg.sqrt_psd"],
            "linalg.eig.calls": self.counts["linalg.eig.calls"],
            "linalg.eig.matrices": self.counts["linalg.eig.matrices"],
            "linalg.eig_per_state": self.counts["linalg.eig.matrices"] / states if states else 0.0,
            "states.DensityMatrix.calls": states,
            "states.DensityMatrix.self_s": self_s["states.DensityMatrix"],
            "states.build.self_s": self_s["states.build"],
            "bases.amub_basis.calls": calls["bases.amub_basis"],
            "bases.amub_basis.self_s": self_s["bases.amub_basis"],
            "coherence.numeric.calls": calls["coherence.numeric"],
            "coherence.numeric.self_s": self_s["coherence.numeric"],
            "coherence.closed.calls": calls["coherence.closed"],
            "coherence.closed.self_s": self_s["coherence.closed"],
            "coherence.field.points": self.counts["coherence.field.points"],
            "coherence.field.self_s": self_s["coherence.field"],
            "coherence.skew.self_s": self_s["coherence.skew"],
            "channels.apply.calls": calls["channels.apply"],
            "channels.apply.self_s": self_s["channels.apply"],
            "channels.dynamics.self_s": self_s["channels.dynamics"],
            "surfaces.sample.calls": calls["surfaces.sample"],
            "surfaces.sample.distinct": len(self._sample_keys),
            "surfaces.sample.self_s": self_s["surfaces.sample"],
            "surfaces.extract.calls": calls["surfaces.extract"],
            "surfaces.extract.self_s": self_s["surfaces.extract"],
            "surfaces.extract.triangles": self.counts["surfaces.extract.triangles"],
            "surfaces.extract.vertices": self.counts["surfaces.extract.vertices"],
            "surfaces.components.self_s": self_s["surfaces.components"],
            "surfaces.write.files": self.counts["surfaces.write.files"],
            "surfaces.write.bytes": self.counts["surfaces.write.bytes"],
            "surfaces.write.self_s": self_s["surfaces.write"],
        }
        for name in _module("verify").ALL_SUITES:
            out[f"verify.suite.{name}.wall_s"] = self.suite_wall.get(name, 0.0)
        out["verify.checks"] = self.counts["verify.checks"]
        out["cli.main.calls"] = calls["cli.main"]
        out["cli.main.self_s"] = self_s["cli.main"]
        out["trace.uncovered_s"] = wall_s - covered
        return out

    def breakdown(self) -> list[tuple[str, int, float]]:
        """(span, calls, self seconds) for every span name, largest first."""
        calls, self_s, _ = self._aggregate()
        return sorted(((n, calls[n], s) for n, s in self_s.items()), key=lambda row: -row[2])
