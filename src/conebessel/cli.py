"""Command-line harness: subcommands, config files and seeding; the checks
that `check` runs live in ``acceptance``.

Each subcommand's parser is its only option table: a config file's keys are
its value flags, and each value becomes its flag's default, so flags win.

Every run is reproducible from (config, seed): randomness flows only through
numpy SeedSequence children derived from the root seed, sample budgets are cut
into fixed-size blocks with one stream each, concatenated in block order so the
worker count changes speed only, and every JSON report embeds the seed, worker
count, package version and, where there is one, the parameter triple.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .acceptance import CRITERIA, quick_suite, run_criterion, stream_rng
from .cone_core import HypergroupParams, check_matrix, gram, psd_sqrt_batch, read_matrix_text
from .jack_series import BesselSeriesError, bessel_from_eigs, character_panel
from .ball_measure import EmpiricalMeasure, conv_sample_batch
from .wishart import WishartSpec, fourier_closed, sample_scaled_factor_batch
from .randwalk_limits import PointMassStep, WishartStep, clt_experiment, slln_experiment


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(report: dict, output_path: str | None) -> None:
    text = json.dumps(report, indent=2, default=_json_default)
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _meta(p: HypergroupParams | None, ns) -> dict:
    meta = {"seed": ns.seed, "workers": ns.workers, "version": __version__}
    if p is not None:
        meta["params"] = {"q": p.q, "d": p.d, "mu": p.mu}
    return meta


_BLOCK = 4096  # rows per sample block


def _thread_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], in item order, on min(workers, len(items)) pool
    threads."""
    workers = min(workers, len(items))
    if workers <= 1:  # on the calling thread: a pool thread's malloc arena would move peak RSS
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _parallel_stack(total: int, workers: int, seed: int, stream: int, draw) -> np.ndarray:
    """Seeded block sampling: block b, _BLOCK rows or the remainder, is
    draw(m, stream_rng(seed, stream, b)) on whichever thread runs it, and the
    blocks concatenate in block order, so the result is the same at every
    worker count."""
    sizes = [min(_BLOCK, total - start) for start in range(0, total, _BLOCK)]
    blocks = _thread_map(lambda b: draw(sizes[b], stream_rng(seed, stream, b)), range(len(sizes)), workers)
    return np.concatenate(blocks, axis=0)


# ---------------------------------------------------------------------------
# subcommands


def _params_from(ns, sampling_only: bool = False) -> HypergroupParams:
    if ns.q is None or ns.d is None or ns.mu is None:
        raise ValueError("q, d, and mu are required (flags or config file)")
    return HypergroupParams(ns.q, ns.d, ns.mu, sampling_only=sampling_only)


def _read_param_matrix(path, p: HypergroupParams, what: str, cone: bool = True) -> np.ndarray:
    """A matrix file of the run's field d and size q, Hermitian, and in the
    cone when cone is set; checked only, so returned exactly as read."""
    mat, d_file = read_matrix_text(path)
    if d_file != p.d:
        raise ValueError(f"{what} file is d={d_file}, parameters say d={p.d}: they disagree on the field (d)")
    if mat.shape != (p.q, p.q):
        raise ValueError(f"{what} file holds a {mat.shape[0]}x{mat.shape[1]} matrix, parameters say q={p.q}")
    try:
        check_matrix(mat, cone)
    except ValueError as exc:
        raise ValueError(f"{what} file {path}: {exc}") from None
    return mat


def _cmd_eval_bessel(ns) -> int:
    p = _params_from(ns, sampling_only=True)
    if not ns.tol > 0.0:
        raise ValueError(f"tol must be > 0, got {ns.tol}")
    if ns.eigs is not None and ns.x is not None:
        raise ValueError("eval-bessel takes one of --x FILE and --eigs LIST, not both")
    if ns.eigs is not None:
        eigs = np.array(ns.eigs)
        if eigs.shape != (p.q,):
            raise ValueError(f"expected {p.q} eigenvalues, got {eigs.shape[0]}")
    elif ns.x is not None:
        eigs = np.linalg.eigvalsh(_read_param_matrix(ns.x, p, "matrix", cone=False))
    else:
        raise ValueError("eval-bessel needs --x FILE or --eigs LIST")
    res = bessel_from_eigs(eigs, p.mu, p.d, target_tol=ns.tol)
    report = {
        "experiment": "eval-bessel",
        "value": res.value,
        "truncation_bound": res.truncation_bound,
        "degree_used": res.degree_used,
        **_meta(p, ns),
    }
    _emit(report, ns.output)
    return 0


def _write_samples(ns, p: HypergroupParams, experiment: str, points: np.ndarray, **extra) -> None:
    """Write points as the run's sample CSV (--output, else
    <experiment>_samples.csv) and print the one-line JSON summary, extra
    before the run's metadata."""
    out = ns.output or f"{experiment}_samples.csv"
    EmpiricalMeasure(params=p, points=points, seed=ns.seed).to_csv(out, version=__version__)
    summary = {"experiment": experiment, "written": out, "n_samples": ns.n, **extra, **_meta(p, ns)}
    print(json.dumps(summary, default=_json_default))


def _cmd_conv(ns) -> int:
    p = _params_from(ns)
    if ns.r is None or ns.s is None:
        raise ValueError("conv needs --r FILE and --s FILE (flags or config file)")
    r = _read_param_matrix(ns.r, p, "--r")
    s = _read_param_matrix(ns.s, p, "--s")
    zs = _parallel_stack(ns.n, ns.workers, ns.seed, 1, lambda m, rng: conv_sample_batch(p, r, s, m, rng))
    _write_samples(ns, p, "conv", zs)
    return 0


def _cmd_wishart(ns) -> int:
    p = _params_from(ns, sampling_only=True)
    scale_sq = None if ns.scale_sq is None else _read_param_matrix(ns.scale_sq, p, "scale matrix")
    spec = WishartSpec(p, scale_sq, ns.t)
    fs = _parallel_stack(
        ns.n, ns.workers, ns.seed, 2, lambda m, rng: sample_scaled_factor_batch(spec, m, rng)
    )
    r2s = gram(fs)
    cov = spec.covariance
    v_scale = 1.0 / math.sqrt(max(np.linalg.norm(cov, 2), 1e-12))
    cs = (0.4, 0.8, 1.2)
    grid = [c * v_scale * np.eye(p.q) for c in cs]
    panel = [
        {"c": c, "estimate": est, "stderr": se, "target": fourier_closed(p, cov, smat)}
        for c, smat, est, se in zip(cs, grid, *character_panel(p, grid, r2s))
    ]
    _write_samples(ns, p, "wishart", psd_sqrt_batch(r2s), fourier_panel=panel)
    return 0


def _cmd_clt(ns) -> int:
    p = _params_from(ns)
    if ns.step_file is not None and ns.step != "point":
        raise ValueError(f"--step-file needs --step point, got --step {ns.step}")
    if ns.step == "point":
        if ns.step_file is not None:
            mat = _read_param_matrix(ns.step_file, p, "step")
        else:
            mat = np.eye(p.q, dtype=p.dtype)
        step = PointMassStep(mat)
    else:
        step = WishartStep(WishartSpec(p))
    rng = stream_rng(ns.seed, 3)
    grid = [c * np.eye(p.q) for c in ns.grid]
    rep = clt_experiment(p, step, ns.steps, ns.replicas, grid, rng)
    rep.update(_meta(p, ns))
    rep["grid_c"] = ns.grid
    _emit(rep, ns.output)
    return 0


def _cmd_slln(ns) -> int:
    p = _params_from(ns)
    if ns.lam is not None and ns.rule != "power":
        raise ValueError(f"--lam needs --rule power, got --rule {ns.rule}")
    rng = stream_rng(ns.seed, 4)
    step = WishartStep(WishartSpec(p))
    lam = 1.0 if ns.lam is None else ns.lam
    rep = slln_experiment(p, step, ns.rule, lam, ns.n_max, ns.replicas, rng)
    rep.update(_meta(p, ns))
    _emit(rep, ns.output)
    return 0


def _cmd_check(ns) -> int:
    if ns.full and ns.criterion:
        raise ValueError("check takes one of --full and --criterion, not both")
    if ns.full or ns.criterion:
        if (ns.q, ns.d, ns.mu) != (None, None, None):
            raise ValueError(
                "check --full and --criterion fix their own parameters; q, d and mu are quick-check flags"
            )
        # each named criterion once, in index order
        indices = sorted(set(ns.criterion or [idx for idx, *_ in CRITERIA]))
        results = _thread_map(lambda i: run_criterion(i, ns.seed), indices, ns.workers)
        p, key = None, "criteria"
        experiment = "check-full" if ns.full else "check-criteria"
    else:
        p, key = _params_from(ns), "checks"
        results = quick_suite(p, ns.seed)
        experiment = "check"
    passed = all(r["passed"] for r in results)
    _emit({"experiment": experiment, key: results, "passed": passed, **_meta(p, ns)}, ns.output)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError (one-line JSON error, exit 1); value flags
    are kept by config key: an option string without dashes, '-' read as '_'."""

    def __init__(self, *args, **kwargs):
        self.config_keys = {}
        super().__init__(*args, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        # switches (--help, --full) take no value; a config file cannot name another
        if action.nargs != 0 and action.dest != "config":
            for opt in action.option_strings:
                self.config_keys[opt.lstrip("-").replace("-", "_")] = action
        return action

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


class _Repeat(argparse.Action):
    """Repeatable flag collecting a list; its first use on the command line
    replaces the default (a config file's list) instead of extending it."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [values])


def _positive_int(text: str) -> int:
    """Type of the size flags --n, --steps, --replicas, --n-max, --workers."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """Type of --seed, its config key and CONEBESSEL_SEED: the root of every
    SeedSequence, so a non-negative integer."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float]:
    """Type of the comma-separated float flags --eigs and --grid."""
    return [float(v) for v in text.split(",")]


def load_config(path, parser: _Parser) -> None:
    """Read a flat key = value file ('#' starts a comment, '-' in a key reads
    as '_') into parser: each value, typed and checked as its flag's own,
    becomes the default of the flag its key names."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if not key or not val:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            action = parser.config_keys.get(key)
            if action is None:
                raise ValueError(f"{path}:{lineno}: {key!r} names no value flag of {parser.prog}")
            try:
                value = action.type(val) if action.type else val
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"invalid choice {value!r} (choose from {', '.join(action.choices)})")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: field {key!r}: {exc}") from None
            action.default = (action.default or []) + [value] if isinstance(action, _Repeat) else value


def _build_parser() -> _Parser:
    ap = _Parser(
        prog="conebessel",
        description="Bessel convolution structures on matrix cones: evaluators, "
        "samplers, and limit-theorem experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run, parser=sp)
        sp.add_argument("--config", help="flat key=value file of this subcommand's flags; flags win")
        sp.add_argument("--q", type=int, help="matrix size")
        sp.add_argument("--d", type=int, help="1 real, 2 complex")
        sp.add_argument("--mu", type=float, help="index of the Bessel function")
        sp.add_argument("--seed", type=_seed, default=os.environ.get("CONEBESSEL_SEED", "0"), help="root seed")
        sp.add_argument("--workers", type=_positive_int, default=1,
                        help="threads of conv, wishart, check --full/--criterion (speed only: the "
                        "numbers are the same at any count); clt, slln, eval-bessel, quick check: one")
        sp.add_argument("--output", help="write the report/CSV here")
        return sp

    sp = common("eval-bessel", _cmd_eval_bessel, "evaluate the matrix-argument Bessel function")
    sp.add_argument("--x", help="matrix text file (argument)")
    sp.add_argument("--eigs", type=_float_list, help="comma-separated eigenvalues instead of --x")
    sp.add_argument("--tol", type=float, default=1e-10, help="truncation tolerance")

    sp = common("conv", _cmd_conv, "sample the convolution of two point masses")
    sp.add_argument("--r", help="matrix text file (required)")
    sp.add_argument("--s", help="matrix text file (required)")
    sp.add_argument("--n", "--n-samples", type=_positive_int, default=100_000, help="draws")

    sp = common("wishart", _cmd_wishart, "sample a squared Wishart law")
    sp.add_argument("--scale-sq", help="matrix text file (squared scale)")
    sp.add_argument("--t", type=float, default=1.0, help="semigroup time")
    sp.add_argument("--n", "--n-samples", type=_positive_int, default=100_000, help="draws")

    sp = common("clt", _cmd_clt, "central-limit experiment")
    sp.add_argument("--step", choices=("wishart", "point"), default="wishart", help="step law")
    sp.add_argument("--step-file", help="matrix file for point steps; I when not given")
    sp.add_argument("--steps", "--n-steps", type=_positive_int, default=64, help="walk length")
    sp.add_argument("--replicas", type=_positive_int, default=20_000, help="independent walks")
    sp.add_argument("--grid", type=_float_list, default="0.6,1.0,1.5", help="comma-separated multiples of I")

    sp = common("slln", _cmd_slln, "strong-law experiment")
    sp.add_argument("--rule", choices=("linear", "power"), default="linear", help="normalisation")
    sp.add_argument("--lam", type=float, help="exponent of the power rule; 1.0 when not given")
    sp.add_argument("--n-max", type=_positive_int, default=1024, help="last checkpoint")
    sp.add_argument("--replicas", type=_positive_int, default=200, help="independent walks")

    sp = common("check", _cmd_check, "invariant suite (quick) or acceptance criteria")
    sp.add_argument("--full", action="store_true", help="run all acceptance criteria")
    sp.add_argument("--criterion", type=int, action=_Repeat,
                    help="run one criterion by index (repeatable)")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
        if ns.config:
            load_config(ns.config, ns.parser)
            ns = ap.parse_args(argv)
        return ns.run(ns)
    except (ValueError, OSError, BesselSeriesError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
