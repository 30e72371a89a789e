"""Span tracing from the benchmark's own files.

A traced round replaces each public function listed in LAYERS with a
wrapper, in every ``conebessel`` module that binds it (``cli`` imports most
names directly, so its namespace is patched too), plus ``numpy.linalg.eigh``
and ``numpy.linalg.qr``.  Each wrapper records a span: name, start, end,
parent and a few counts taken from the call's arguments or result.  Spans
stay in memory; the per-layer metrics are computed from them when the round
ends.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time

import numpy as np

from workloads import CLI_COMMANDS, SWEEP_CRITERIA


def _batch(shape) -> int:
    return int(math.prod(shape[:-2])) if len(shape) > 2 else 1


def _draws(args, kwargs, out):
    return {"draws": int(out.shape[0])}


def _matrices_out(args, kwargs, out):
    return {"matrices": _batch(out.shape)}


def _matrices_in(args, kwargs, out):
    return {"matrices": _batch(np.shape(args[0]))}


def _phi_bochner(args, kwargs, out):
    n = kwargs["n_samples"] if "n_samples" in kwargs else args[3]
    return {"samples": int(n)}


def _rows(args, kwargs, out):
    return {"rows": int(out.shape[0])}


def _to_csv(args, kwargs, out):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"rows": int(args[0].points.shape[0]), "bytes": os.path.getsize(path)}


def _series(args, kwargs, out):
    values, bounds, degree = out
    finite = bounds[np.isfinite(bounds)]
    return {
        "rows": int(values.size),
        "degree": int(degree),
        "bound_max": float(finite.max()) if finite.size else 0.0,
    }


def _phi_batch(args, kwargs, out):
    return {"rows": int(np.size(out))}


def _clt(args, kwargs, out):
    return {"walk_steps": out["n_final"], "replica_steps": out["n_final"] * out["replicas"]}


def _slln(args, kwargs, out):
    steps = out["checkpoints"][-1]
    return {"walk_steps": steps, "replica_steps": steps * out["replicas"]}


def _martingale(args, kwargs, out):
    steps = out["checkpoints"][-1]["n"]
    return {"walk_steps": steps, "replica_steps": steps * out["replicas"]}


# (module, attribute, counts from (args, kwargs, result)); a dotted attribute
# names a method on a class of that module
LAYERS = [
    ("conebessel.cone_core", "psd_sqrt_batch", _matrices_out),
    ("conebessel.ball_measure", "sample_ball_batch", _draws),
    ("conebessel.ball_measure", "tri_gamma_batch", _draws),
    ("conebessel.ball_measure", "phi_bochner", _phi_bochner),
    ("conebessel.ball_measure", "conv_sample_batch", _draws),
    ("conebessel.ball_measure", "conv_pairwise_batch", _rows),
    ("conebessel.ball_measure", "EmpiricalMeasure.to_csv", _to_csv),
    ("conebessel.jack_series", "bessel_series_eigs", _series),
    ("conebessel.jack_series", "bessel_from_eigs", None),
    ("conebessel.jack_series", "character_phi_batch", _phi_batch),
    ("conebessel.wishart", "sample_scaled_batch", _draws),
    ("conebessel.wishart", "sample_standard_batch", _draws),
    ("conebessel.hypergroup_algebra", "automorphism_apply_batch", None),
    ("conebessel.randwalk_limits", "clt_experiment", _clt),
    ("conebessel.randwalk_limits", "slln_experiment", _slln),
    ("conebessel.randwalk_limits", "martingale_check", _martingale),
    ("numpy.linalg", "eigh", _matrices_in),
    ("numpy.linalg", "qr", _matrices_in),
]

# per-layer metrics taken from the spans: (span name, keys)
LAYER_KEYS = [
    ("psd_sqrt_batch", ("calls", "matrices", "self_s")),
    ("sample_ball_batch", ("draws", "self_s")),
    ("tri_gamma_batch", ("draws", "self_s")),
    ("phi_bochner", ("calls", "samples", "self_s")),
    ("conv_sample_batch", ("calls", "draws", "self_s")),
    ("conv_pairwise_batch", ("calls", "rows", "self_s")),
    ("EmpiricalMeasure.to_csv", ("rows", "bytes", "self_s")),
    ("bessel_series_eigs", ("calls", "rows", "self_s", "bound_max")),
    ("bessel_from_eigs", ("calls", "self_s")),
    ("character_phi_batch", ("calls", "rows", "self_s")),
    ("sample_scaled_batch", ("draws", "self_s")),
    ("sample_standard_batch", ("draws", "self_s")),
    ("automorphism_apply_batch", ("calls", "self_s")),
    ("numpy.eigh", ("matrices", "self_s")),
    ("numpy.qr", ("matrices", "self_s")),
]

WALKS = ("clt_experiment", "slln_experiment", "martingale_check")

# entry points the benchmark calls, named per call
DYNAMIC = [
    ("conebessel.cli", "run_criterion", lambda args, kwargs: f"criterion.{args[0]}"),
    ("conebessel.cli", "main", lambda args, kwargs: f"main.{args[0][0]}"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "raised")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = None
        self.raised = False


class Tracer:
    """Records spans; a span opened on a worker thread with nothing open on
    that thread is attributed to the innermost span open on the thread that
    installed the tracer (the CLI's thread pools do their work that way)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent))
        stack.append(idx)
        return idx

    def _close(self, idx, counts, raised):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.counts = counts
        span.raised = raised
        self._stacks[threading.get_ident()].pop()

    def _wrap(self, fn, name, count=None, name_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_of(args, kwargs) if name_of else name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, None, True)
                raise
            self._close(idx, count(args, kwargs, out) if count else None, False)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("conebessel"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self):
        for mod_name, attr, count in LAYERS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), attr, count))
                continue
            original = getattr(mod, attr)
            name = f"numpy.{attr}" if mod_name == "numpy.linalg" else attr
            wrapper = self._wrap(original, name, count)
            self._patch(mod, attr, wrapper)
            self._replace_everywhere(original, wrapper)
        for mod_name, attr, name_of in DYNAMIC:
            mod = sys.modules[mod_name]
            original = getattr(mod, attr)
            self._patch(mod, attr, self._wrap(original, attr, name_of=name_of))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the part of the span's interval its children cover
        (children on parallel threads may overlap, so their union counts)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for idx, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for lo, hi in sorted(children.get(idx, ())):
                hi = min(hi, span.end)
                if hi > reach:
                    covered += hi - max(lo, reach)
                    reach = hi
            out.append(span.end - span.start - covered)
        return out

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.counts, s.raised] for s in self.spans]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer values from one traced round, keyed by metric name."""
    selfs = tracer.self_times()
    agg: dict[str, dict] = {}
    eigh_under_ball = 0
    rows_per_pairwise_call = []
    degrees = []
    for span, self_s in zip(tracer.spans, selfs):
        a = agg.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": 0})
        a["calls"] += 1
        a["self_s"] += self_s
        a["raised"] += span.raised
        parent = tracer.spans[span.parent].name if span.parent is not None else None
        if parent is None or parent != span.name:
            a["s"] += span.end - span.start
        for key, val in (span.counts or {}).items():
            if key == "bound_max":
                a[key] = max(a.get(key, 0.0), val)
            elif key == "degree":
                degrees.append(val)
            else:
                a[key] = a.get(key, 0) + val
        if span.name == "numpy.eigh" and parent == "sample_ball_batch":
            eigh_under_ball += span.counts["matrices"]
        if span.name == "conv_pairwise_batch" and span.counts:
            rows_per_pairwise_call.append(span.counts["rows"])

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    m = {}
    for name, keys in LAYER_KEYS:
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    ball_draws = get("sample_ball_batch", "draws")
    m["sample_ball_batch.s"] = get("sample_ball_batch", "s")
    m["sample_ball_batch.wall_share"] = m["sample_ball_batch.s"] / wall_s if wall_s > 0 else 0.0
    m["sample_ball_batch.eigh_per_draw"] = eigh_under_ball / ball_draws if ball_draws else 0.0
    m["conv_pairwise_batch.rows_per_call_median"] = (
        float(np.median(rows_per_pairwise_call)) if rows_per_pairwise_call else 0.0
    )
    m["conv_pairwise_batch.rows_per_call_max"] = max(rows_per_pairwise_call, default=0)
    m["bessel_series_eigs.raised"] = get("bessel_series_eigs", "raised")
    m["bessel_series_eigs.degree_mean"] = float(np.mean(degrees)) if degrees else 0.0
    m["bessel_series_eigs.degree_max"] = max(degrees, default=0)
    for name in WALKS:
        m[f"{name}.self_s"] = get(name, "self_s")
    m["walk_steps"] = sum(get(name, "walk_steps") for name in WALKS)
    m["replica_steps"] = sum(get(name, "replica_steps") for name in WALKS)
    for idx in SWEEP_CRITERIA:
        m[f"criterion.{idx}.s"] = get(f"criterion.{idx}", "s")
    for cmd in CLI_COMMANDS:
        m[f"main.{cmd}.s"] = get(f"main.{cmd}", "s")
        m[f"main.{cmd}.self_s"] = get(f"main.{cmd}", "self_s")
    m["trace_spans"] = len(tracer.spans)
    return m
