"""One round of one workload in a fresh process.

    python3 perfbench/child.py --workload W --seed S --trace 0|1
        --spawned T --workdir DIR --result FILE [--setup-only] [--check]

T is time.monotonic() in the parent just before it started this process, so
setup_s covers interpreter start, imports and the workload's warm-up (input
generation is excluded), and the reference kernel's time right after it
(workloads.Clock) lets run.py rescale it to the reference speed.  Every round
reports each operation's time, in seconds and in seconds at the reference
speed, and a digest of its outputs; with --check it also verifies the
outputs (untimed).  Writes one JSON object to FILE.  run.py starts it; it is
not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conebessel import ball_measure, jack_series  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

_imported = time.monotonic()


def _table_misses() -> int:
    """Misses of every lru_cache in jack_series (the series tables)."""
    return sum(
        obj.cache_info().misses for obj in vars(jack_series).values() if hasattr(obj, "cache_info")
    )


def at_ref(secs: float, ref_s: float) -> float:
    """secs rescaled to the reference speed, given the reference kernel's time
    measured next to it."""
    return secs * workloads.REF_NOMINAL_S / ref_s


def _json_default(obj):
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    os.chdir(args.workdir)
    misses0 = _table_misses()
    inp = wl.inputs(args.seed)
    t0 = time.monotonic()
    warm = wl.setup(inp)
    setup_s = (_imported - args.spawned) + (time.monotonic() - t0)
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "setup_at_ref_s": at_ref(setup_s, workloads.reference_kernel())},
                      fh)
        return

    clock = workloads.Clock()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = wl.round(inp, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.close()
    ops = {name: secs for name, (secs, _) in clock.ops.items()}
    wall_s = sum(ops.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    table_misses = _table_misses() - misses0
    norm_excess = ball_measure.norm_excess_watermark()

    digest = hashlib.sha256(
        json.dumps(wl.outputs(inp, res, warm), sort_keys=True, default=_json_default).encode()
    ).hexdigest()
    out = {
        "setup_s": setup_s,
        "setup_at_ref_s": at_ref(setup_s, clock.refs[0]),
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "ops_ref": clock.at_ref_speed(),
        "refs": clock.refs,
        "digest": digest,
        "stats": {"table_misses": table_misses, "norm_excess_max": norm_excess},
        "counts": res.get("counts", {}),
    }
    if args.check:
        verdict = wl.check(inp, res, warm)
        out["verdict"] = {
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "errors": verdict.errors,
            "failures": verdict.failures,
        }
        out["stats"].update(verdict.stats)
    if tracer is not None:
        out["per_layer"] = tracing.layer_metrics(tracer, wall_s)
        out["spans"] = tracer.dump()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, default=_json_default)


if __name__ == "__main__":
    main()
