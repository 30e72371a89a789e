"""Benchmark entry point.

    python3 perfbench/run.py --workload {sweep,series,cli-jobs} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout.  Every round is a fresh process
(perfbench/child.py) that sets up and does the workload's fixed work once,
timing each operation; rounds repeat, closed loop, while the next one is
expected to end within S seconds (at least one round, or one untraced/traced
pair).  Extra set-up-only processes bring set-up samples up to MIN_SETUPS.
Repeating inside one process would measure warm, contaminated state: the
series tables and the norm-excess watermark are process-global.

The timed metrics are in seconds at the reference speed: each time is
divided by the time of a fixed reference kernel measured next to it in the
same process and multiplied by the kernel's nominal time
(workloads.Clock, REF_NOMINAL_S), which cancels most of a change of the
machine's speed.  wall_ref_s is the sum over operations of each operation's
median, over the rounds, of that rescaled time; setup_s is the median of the
rescaled set-up times.  The same figures in plain seconds, wall_s and
setup_raw_s, are reported too.

Every round at a seed repeats the same inputs and must give the same
outputs (compared by digest); the first round's outputs are also checked,
and attempted/failed count that round's operations, so they depend on the
seed only and not on how many rounds fit.

With --trace 0 the timings are untraced.  With --trace 1 each untraced round
is followed by a traced one at the same seed; their outputs must be
identical, and the difference of their wall times is the tracing overhead.

Prints one line per metric, the full report as JSON, and as the last line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1.  BLAS threads are capped at 1
in every round, so no round uses more threads than --workers asks for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "series", "cli-jobs")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HARD_LIMIT_S = 150.0  # no new round after this; every run must end within 180 s
MIN_SETUPS = 3

END_TO_END = [("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB")]
REPORTED = [("setup_raw_s", "s"), ("wall_s", "s"), ("ref_s", "s")]


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("bound_max", "norm_excess_max")):
        return "abs"
    if name.endswith(("wall_share", "per_draw")):
        return "ratio"
    return "count"


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {v: "1" for v in THREAD_VARS},
    }


def summarize(xs: list[float]) -> dict:
    """Median, and the highest of p75/p90/p95/p99/p99.9 that still has ten
    samples beyond it (None when there are too few samples)."""
    xs = sorted(xs)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "p": None, "p_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        idx = int(p / 100.0 * n)
        if n - idx - 1 >= 10:
            out["p"], out["p_value"] = p, xs[idx]
            break
    return out


def percentile(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    return xs[int(p / 100.0 * len(xs))]


def run_child(workload, seed, trace, workdir: Path, deadline: float, setup_only=False,
              check=False) -> dict:
    workdir.mkdir()
    result = workdir / "result.json"
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if check:
        cmd.append("--check")
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"round of {workload} exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def op_medians(rounds: list[dict], key: str = "ops") -> dict[str, float]:
    """Each operation's median time over the rounds."""
    return {op: statistics.median(r[key][op] for r in rounds) for op in rounds[0][key]}


def workload_metrics(workload: str, rounds: list[dict], ops: dict[str, float]) -> dict:
    """Workload-specific end-to-end numbers (report only), from the
    operations' median times."""
    parts: dict[str, float] = {}
    for op, secs in ops.items():
        part = op.split("/", 1)[0]
        parts[part] = parts.get(part, 0.0) + secs
    out = {f"{part}_s": {"unit": "s", "value": secs, "n": len(rounds)} for part, secs in parts.items()}
    if workload == "series":
        lat = [secs * 1e6 for r in rounds for op, secs in r["ops"].items() if op.startswith("point/")]
        out["point_eval_us"] = {"unit": "us", **summarize(lat)}
        # at least 2400 samples, so p99 has at least 24 beyond it
        out["point_eval_p50_us"] = {"unit": "us", "value": statistics.median(lat), "n": len(lat)}
        out["point_eval_p99_us"] = {"unit": "us", "value": percentile(lat, 99.0), "n": len(lat)}
        out["batch_rows_per_s"] = {"unit": "1/s", "value": rounds[0]["counts"]["batch_rows"] / parts["batch"],
                                   "n": len(rounds)}
    if workload == "cli-jobs":
        counts = rounds[0]["counts"]
        out["conv_draws_per_s"] = {"unit": "1/s", "value": counts["conv_draws"] / parts["conv"], "n": len(rounds)}
        out["wishart_draws_per_s"] = {"unit": "1/s", "value": counts["wishart_draws"] / parts["wishart"],
                                      "n": len(rounds)}
        out["walk_s"] = {"unit": "s", "value": parts["clt"] + parts["slln"], "n": len(rounds)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still kills and waits for its round and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "conebessel" / "__init__.py").is_file():
        print(f"error: no conebessel sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + 170.0
    untraced, traced = [], []
    out_dir = ROOT / ".perfbench-out"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        i = 0
        while True:
            t0 = time.monotonic()
            untraced.append(run_child(args.workload, args.seed, False, Path(tmp) / f"r{i}", deadline,
                                      check=(i == 0)))
            if args.trace:
                traced.append(run_child(args.workload, args.seed, True, Path(tmp) / f"t{i}", deadline))
            i += 1
            now = time.monotonic()
            if now + (now - t0) > start + min(args.seconds, HARD_LIMIT_S):
                break
        # set-up alone, in fresh processes, until there are MIN_SETUPS samples
        setup_only = []
        while len(untraced) + len(setup_only) < MIN_SETUPS:
            setup_only.append(run_child(args.workload, args.seed, False, Path(tmp) / f"s{i}", deadline,
                                        setup_only=True))
            i += 1

    verdict = untraced[0]["verdict"]
    errors = list(verdict["errors"])
    if len({r["digest"] for r in untraced + traced}) != 1:
        errors.append("outputs differ between rounds at the same seed")
    attempted, failed, failed_ops = verdict["attempted"], verdict["failed"], verdict["failures"]

    ops = op_medians(untraced)
    setups = untraced + setup_only
    samples = {
        "setup_s": [r["setup_at_ref_s"] for r in setups],
        "wall_ref_s": [sum(r["ops_ref"].values()) for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "setup_raw_s": [r["setup_s"] for r in setups],
        "wall_s": [r["wall_s"] for r in untraced],
        "ref_s": [x for r in untraced for x in r["refs"]],
    }
    e2e = {name: {"unit": unit, **summarize(samples[name]), "samples": samples[name]}
           for name, unit in END_TO_END + REPORTED}
    # the walls are sums of per-operation medians; per-round totals stay in the report
    e2e["wall_ref_s"].update(median=sum(op_medians(untraced, "ops_ref").values()), p=None, p_value=None)
    e2e["wall_s"].update(median=sum(ops.values()), p=None, p_value=None)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(untraced),
        "machine": machine_facts(),
        "end_to_end": e2e,
        "failed_frac": failed / attempted if attempted else None,
        "failed_ops": failed_ops,
        "workload_metrics": workload_metrics(args.workload, untraced, ops),
        "stats": untraced[0]["stats"],
        "errors": errors[:20],
    }
    metrics = {name: {"value": e2e[name]["median"], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        names = list(traced[0]["per_layer"]) + ["table_misses", "bound_violations", "norm_excess_max"]
        layer = {}
        for name in names:
            vals = [r["per_layer"].get(name, r["stats"].get(name, untraced[0]["stats"].get(name, 0)))
                    for r in traced]
            layer[name] = {"value": statistics.median(vals), "unit": per_layer_unit(name)}
        # at the reference speed, so that the machine's speed changes between
        # the two rounds do not swamp the overhead
        overheads = [sum(t["ops_ref"].values()) - sum(u["ops_ref"].values()) for t, u in zip(traced, untraced)]
        layer["trace_overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
        report["per_layer"] = layer
        metrics = layer
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump([r["spans"] for r in traced], fh)
        report["spans_file"] = str(spans_file.relative_to(ROOT))

    print(f"perfbench {args.workload} seed={args.seed} rounds={len(untraced)}"
          f"{' traced=' + str(len(traced)) if args.trace else ''} "
          f"attempted={attempted} failed={failed} correct={not errors}")
    for what, count in sorted(failed_ops.items()):
        print(f"  failed: {what} x{count}")
    for name, m in {**e2e, **report["workload_metrics"]}.items():
        value = m.get("value", m.get("median"))
        tail = f"  (median of {m['n']}" + (f", p{m['p']:g} {m['p_value']:.6g})" if m.get("p") else ")")
        print(f"  {name:24s} {'-' if value is None else format(value, '.6g'):>14} {m['unit']}{tail}")
    if args.trace:
        for name, m in report["per_layer"].items():
            print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
