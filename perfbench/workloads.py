"""The benchmark's three workloads.

Each workload makes all of its inputs from the seed (``inputs``), warms the
program's lazy caches (``setup``, counted in setup_s; it returns whatever of
the warm-up's results ``check`` should verify), does a fixed amount of
work (``round``; closed loop, one caller, the next call starts when the
previous one returns) with every operation timed by a ``Clock`` under a name
of the form ``part/op``, and then, untimed, gives the outputs that every
round at the seed must reproduce (``outputs``) and checks what the program
returned (``check``).  Library functions are always called through their module
(``jack_series.bessel_from_eigs``), so a traced round sees them.

``check`` returns how many operations were attempted and failed, the gate
errors (an output that is wrong, as opposed to an operation that raised or a
registry verdict that came out false) and counters such as bound violations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from conebessel import ball_measure, cli, cone_core, jack_series

SWEEP_CRITERIA = (1, 2, 8, 13, 17)
CLI_COMMANDS = ("conv", "wishart", "clt", "slln", "eval-bessel", "check")

# statistical gates the benchmark adds; at 5 (4) standard errors a correct
# program trips one per ~1.7e6 (~1.6e4) comparisons, so a tripped gate means
# a wrong output, not an unlucky seed
SLICE_SIGMAS = 5.0
PANEL_SIGMAS = 4.0


# The reference kernel: fixed work that touches nothing of the program, timed
# between a round's operations.  Shared virtual machines change speed by up to
# 1.5x for tens of seconds to minutes at a time; an operation's time divided by the
# reference time measured around it cancels most of that.  Its mix follows the
# program's: an interpreted loop (the series), batched 3x3 eigh and array work
# (the samplers).  eigh is bound here, before a traced round patches numpy.
# Times divided by the kernel's are reported in seconds at the reference
# speed: multiplied by REF_NOMINAL_S, about the kernel's time on the 2-vCPU
# virtual machine the benchmark was built on when that machine is fast.
REF_REPS = 4
REF_EVERY_S = 0.5
REF_NOMINAL_S = 0.04
_ref_mats = np.random.default_rng(12345).standard_normal((3000, 3, 3))
_ref_mats = _ref_mats + np.swapaxes(_ref_mats, 1, 2)
_ref_flat = _ref_mats.ravel().copy()
_ref_eigh = np.linalg.eigh


def reference_kernel() -> float:
    t0 = time.perf_counter()
    for _ in range(REF_REPS):
        x = 0.0
        for i in range(40_000):
            x += i * 0.5
        _ref_eigh(_ref_mats)
        np.sort(_ref_flat)
    return time.perf_counter() - t0


class Clock:
    """Times a round's operations, and the reference kernel before the first,
    after the last and between two of them once REF_EVERY_S has passed since
    the previous reference.  ``ops[name] = (seconds, k)``: the operation ran
    between ``refs[k]`` and ``refs[k + 1]``."""

    def __init__(self):
        self.ops: dict[str, tuple[float, int]] = {}
        self.refs: list[float] = []
        self._reference()

    def _reference(self):
        self.refs.append(reference_kernel())
        self._last = time.perf_counter()

    @contextlib.contextmanager
    def op(self, name: str):
        if time.perf_counter() - self._last > REF_EVERY_S:
            self._reference()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ops[name] = (time.perf_counter() - t0, len(self.refs) - 1)

    def close(self):
        self._reference()

    def at_ref_speed(self) -> dict[str, float]:
        """Each operation's time in seconds at the reference speed: over the
        mean of the references around it, times REF_NOMINAL_S."""
        return {name: secs * REF_NOMINAL_S / (0.5 * (self.refs[k] + self.refs[k + 1]))
                for name, (secs, k) in self.ops.items()}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *stream]))


def _psd(rng, q: int, d: int, rank: int | None = None, norm: float | None = None) -> np.ndarray:
    a = rng.standard_normal((q, rank or q))
    if d == 2:
        a = a + 1j * rng.standard_normal((q, rank or q))
    m = a @ a.conj().T
    return m * (norm / np.linalg.norm(m)) if norm is not None else m


def _rho(q: int, d: int) -> float:
    return d * (q - 0.5) + 1.0


def _warm_tables(configs, t: float) -> None:
    """Fill the series caches for each (q, d, mu) up to the degree that an
    argument of absolute eigenvalue sum t needs."""
    for q, d, mu in configs:
        eigs = np.zeros(q)
        eigs[0] = t
        try:
            jack_series.bessel_from_eigs(eigs, mu, d, 1e-10)
        except jack_series.BesselSeriesError:
            pass  # the caches are filled up to K_MAX on the way


def _hyp0f1(mu: float, x: float) -> float:
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.hyp0f1(mu, -x))


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _strip_runtimes(obj):
    if isinstance(obj, dict):
        return {k: _strip_runtimes(v) for k, v in obj.items() if k != "runtime_s"}
    if isinstance(obj, list):
        return [_strip_runtimes(v) for v in obj]
    return obj


class Verdict:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: dict[str, int] = {}
        self.stats: dict = {}

    def op(self, ok: bool, what: str, error: str | None = None) -> None:
        """One operation named what; error marks a wrong output (not merely a
        failure)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] = self.failures.get(what, 0) + 1
            if error:
                self.errors.append(error)


# ---------------------------------------------------------------------------
# sweep: registry criteria through the CLI plus the criterion-3 kernel


class Sweep:
    """``check --criterion i`` for each criterion in SWEEP_CRITERIA at the
    run's seed, one CLI call each, plus one criterion-3 comparison per
    (q, d): the character from a 100k-draw ball integral (phi_bochner)
    against the series value.  All of criterion 3 (300 such comparisons,
    about 200 s) does not fit one run."""

    n_samples = 100_000

    def inputs(self, seed):
        rng = _rng(seed, 1)
        cases = []
        for q in (1, 2, 3):
            for d in (1, 2):
                rho = _rho(q, d)
                mu = float(rng.choice([rho + 0.5, 2.0 * rho]))
                r = _psd(rng, q, d, norm=float(rng.uniform(0.3, 1.6)))
                s = _psd(rng, q, d, norm=float(rng.uniform(0.3, 1.6)))
                cases.append((q, d, mu, r, s, int(rng.integers(2**31))))
        return {"seed": seed, "cases": cases}

    def setup(self, inp):
        _warm_tables([(q, d, _rho(q, d) + 0.5) for q in (1, 2, 3) for d in (1, 2)], 8.0)
        return []

    def round(self, inp, clock):
        slice_rows = []
        for q, d, mu, r, s, sub_seed in inp["cases"]:
            with clock.op(f"bochner_slice/q{q}d{d}"):
                p = cone_core.HypergroupParams(q, d, mu)
                arg = s @ r @ r @ s
                eigs = 0.25 * np.linalg.eigvalsh(0.5 * (arg + arg.conj().T))
                try:
                    exact = jack_series.bessel_from_eigs(eigs, mu, d, target_tol=1e-9)
                    est, se = ball_measure.phi_bochner(p, s, r, self.n_samples, _rng(sub_seed))
                    slice_rows.append([q, d, mu, est, se, exact.value, exact.truncation_bound])
                except Exception as exc:  # a raised operation is a failure, not an abort
                    slice_rows.append([q, d, mu, f"{type(exc).__name__}: {exc}"])
        checks = []
        for idx in SWEEP_CRITERIA:
            with clock.op(f"check/{idx}"):
                code, text, err = _run_cli(["check", "--seed", str(inp["seed"]), "--criterion", str(idx)])
            checks.append((idx, code, text, err))
        return {"slice": slice_rows, "checks": checks}

    @staticmethod
    def _report(text):
        try:
            return json.loads(text)
        except ValueError:
            return None

    def outputs(self, inp, res, warm):
        return {
            "slice": res["slice"],
            "checks": [[idx, code, _strip_runtimes(self._report(text))]
                       for idx, code, text, err in res["checks"]],
        }

    def check(self, inp, res, warm):
        v = Verdict()
        for row in res["slice"]:
            if len(row) == 4:
                v.op(False, f"bochner q={row[0]} d={row[1]}: {row[3]}")
                continue
            q, d, mu, est, se, exact, bound = row
            dev = abs(est - exact)
            v.op(
                dev <= SLICE_SIGMAS * se + bound,
                f"bochner q={q} d={d}",
                f"bochner q={q} d={d} mu={mu}: |{est} - {exact}| > {SLICE_SIGMAS} * {se} + {bound}",
            )
        for idx, code, text, err in res["checks"]:
            report = self._report(text)
            if report is None:
                v.op(False, f"criterion {idx}", f"check exited {code} without a JSON report: {err[-300:]}")
                continue
            for crit in report["criteria"]:
                v.op(bool(crit["passed"]), f"criterion {crit['index']}")
            if code != (0 if report["passed"] else 2):
                v.errors.append(f"check --criterion {idx} exit code {code} disagrees with its report")
        return v


# ---------------------------------------------------------------------------
# series: jack_series alone, no sampling


class Series:
    """Single-point evaluations (bessel_from_eigs, character_phi) and batched
    character_phi_batch calls over q in {1, 2, 3}, d in {1, 2} and three
    indices per (q, d).  Every argument at q > 1 is rank deficient so that it
    has an independent reference: mpmath.hyp0f1 for a rank-one block, else the
    block restriction J^q(diag(r, 0)) = J^k(r)."""

    tol = 1e-10
    offsets = (0.6, 1.5, 3.0)  # mu - (d/2)(q - 1), the series' c_min
    # largest absolute eigenvalue sum per q.  q = 1, 2 reach the sizes where
    # the parent's series raises BesselSeriesError (c_min = 0.6, t > ~37);
    # q = 3 stops at 12 because its tables cost seconds beyond degree ~25
    # (about 30 s cold at degree 60)
    t_max = {1: 60.0, 2: 60.0, 3: 12.0}
    t_min = 0.05
    n_points = 2400
    batch_rows = 40_000
    batch_t_max = {1: 10.0, 2: 10.0, 3: 6.0}
    batch_checked = 32
    warm_q = (4, 5)
    warm_t = 6.0

    def _configs(self):
        return [
            (q, d, 0.5 * d * (q - 1) + off)
            for q in (1, 2, 3)
            for d in (1, 2)
            for off in self.offsets
        ]

    def inputs(self, seed):
        rng = _rng(seed, 2)
        configs = self._configs()
        points = []
        # log t is stratified per (config, kind), so every seed puts the same
        # number of points in each size range and the failing share is steady
        strata = math.ceil(self.n_points / (2 * len(configs)))
        for i in range(self.n_points):
            q, d, mu = configs[i % len(configs)]
            u = (i // (2 * len(configs)) + rng.uniform()) / strata
            t = math.exp(math.log(self.t_min) + u * math.log(self.t_max[q] / self.t_min))
            k = 1 if q == 1 else int(rng.integers(1, q))
            if (i // len(configs)) % 2 == 0:
                eigs = np.zeros(q)
                eigs[rng.permutation(q)[:k]] = t * rng.dirichlet(np.ones(k))
                points.append(("bessel", q, d, mu, k, eigs))
            else:
                s = np.zeros((q, q), dtype=np.float64 if d == 1 else np.complex128)
                s[:k, :k] = _psd(rng, k, d)
                r = _psd(rng, q, d)
                raw = np.linalg.norm(s @ r) ** 2 / 4.0  # trace of s r^2 s / 4
                points.append(("character", q, d, mu, k, (s * math.sqrt(t / raw), r)))
        batches = []
        for q in (1, 2, 3):
            for d in (1, 2):
                mu = 0.5 * d * (q - 1) + 1.5
                a = rng.standard_normal((self.batch_rows, q, q))
                if d == 2:
                    a = a + 1j * rng.standard_normal((self.batch_rows, q, q))
                rs = a @ np.swapaxes(a, -1, -2).conj()
                rs *= (rng.uniform(0.2, 1.5, self.batch_rows) / np.linalg.norm(rs, axis=(1, 2)))[:, None, None]
                k = max(1, q - 1)
                s = np.zeros((q, q), dtype=rs.dtype)
                s[:k, :k] = _psd(rng, k, d)
                t_rows = np.linalg.norm(s @ rs, axis=(1, 2)) ** 2 / 4.0
                s *= math.sqrt(self.batch_t_max[q] / t_rows.max())
                idx = rng.choice(self.batch_rows, self.batch_checked, replace=False)
                batches.append((q, d, mu, k, s, rs, idx))
        return {"points": points, "batches": batches}

    def setup(self, inp):
        for q in (1, 2, 3):
            _warm_tables([c for c in self._configs() if c[0] == q], self.t_max[q])
        warm = []
        for q in self.warm_q:
            for d in (1, 2):
                mu = 0.5 * d * (q - 1) + 1.5
                eigs = np.zeros(q)
                eigs[0] = self.warm_t
                warm.append((q, d, mu, jack_series.bessel_from_eigs(eigs, mu, d, self.tol).value))
        return warm

    def round(self, inp, clock):
        p_cache = {}
        results = []
        for i, (kind, q, d, mu, k, arg) in enumerate(inp["points"]):
            if kind == "character":
                p = p_cache.get((q, d, mu))
                if p is None:
                    p = p_cache[(q, d, mu)] = cone_core.HypergroupParams(q, d, mu, sampling_only=True)
            with clock.op(f"point/{i}"):
                try:
                    if kind == "bessel":
                        out = jack_series.bessel_from_eigs(arg, mu, d, self.tol)
                        res = (out.value, out.truncation_bound, out.degree_used)
                    else:
                        res = (jack_series.character_phi(p, arg[0], arg[1], self.tol),)
                except Exception as exc:  # a raised evaluation is a failed operation
                    res = f"{type(exc).__name__}"
            results.append(res)
        batch_vals = []
        for q, d, mu, k, s, rs, idx in inp["batches"]:
            with clock.op(f"batch/q{q}d{d}"):
                p = cone_core.HypergroupParams(q, d, mu, sampling_only=True)
                try:
                    batch_vals.append(jack_series.character_phi_batch(p, s, rs, self.tol))
                except Exception as exc:
                    batch_vals.append(f"{type(exc).__name__}")
        return {
            "counts": {"batch_rows": self.batch_rows * len(inp["batches"])},
            "points": results,
            "batch": batch_vals,
        }

    def outputs(self, inp, res, warm):
        return {
            "points": res["points"],
            "batch": [x if isinstance(x, str) else x.tolist() for x in res["batch"]],
            "warm": warm,
        }

    def _reference(self, block_eigs, mu, d):
        """(value, allowance): mpmath for one eigenvalue, else J^k by series."""
        if len(block_eigs) == 1:
            return _hyp0f1(mu, float(block_eigs[0])), self.tol
        ref = jack_series.bessel_from_eigs(np.asarray(block_eigs), mu, d, self.tol)
        return ref.value, self.tol + ref.truncation_bound

    def check(self, inp, res, warm):
        v = Verdict()
        violations = 0
        for (kind, q, d, mu, k, arg), out in zip(inp["points"], res["points"]):
            if isinstance(out, str):
                v.op(False, f"{kind} q={q} d={d} mu={mu:g}: {out}")
                continue
            if kind == "bessel":
                block = arg[arg != 0.0]
            else:
                s, r = arg
                m = s @ r @ r @ s
                block = np.sort(np.linalg.eigvalsh(0.125 * (m + m.conj().T)))[::-1][:k]
            ref, allow = self._reference(block, mu, d)
            err = abs(out[0] - ref)
            v.op(err <= allow, f"{kind} q={q} d={d} mu={mu:g}: wrong value",
                 f"{kind} q={q} d={d} mu={mu} eigs={list(block)}: error {err:.3e}")
            if kind == "bessel" and k == 1 and out[1] < err:
                violations += 1
        for (q, d, mu, k, s, rs, idx), vals in zip(inp["batches"], res["batch"]):
            if isinstance(vals, str):
                v.op(False, f"batch q={q} d={d}: {vals}")
                continue
            worst = 0.0
            for i in idx:
                m = s @ rs[i] @ rs[i] @ s
                block = np.sort(np.linalg.eigvalsh(0.125 * (m + m.conj().T)))[::-1][:k]
                ref, allow = self._reference(block, mu, d)
                worst = max(worst, abs(vals[i] - ref) / allow)
            v.op(worst <= 1.0, f"batch q={q} d={d}: wrong value",
                 f"batch q={q} d={d} mu={mu}: error {worst:.3g} x allowance")
        for q, d, mu, value in warm:
            ref = _hyp0f1(mu, self.warm_t)
            v.op(abs(value - ref) <= self.tol, f"warm-up q={q} d={d}: wrong value",
                 f"warm-up q={q} d={d}: {value} vs {ref}")
        v.stats["bound_violations"] = violations
        return v


# ---------------------------------------------------------------------------
# cli-jobs: the user-facing subcommands at --workers 2


class CliJobs:
    """conv at three (q, d), wishart, clt (Wishart step), slln (power rule),
    eval-bessel and the quick check, each through cli.main with --workers 2,
    writing into the round's directory."""

    workers = 2
    # sizes that keep a round near 5 s, so that one run holds several rounds
    conv_n = 25_000
    wishart_n = 25_000
    clt_replicas = 4000
    slln_n_max = 512

    def inputs(self, seed):
        rng = _rng(seed, 3)
        conv = []
        for q, d in ((2, 1), (2, 2), (3, 2)):
            r = _psd(rng, q, d, norm=float(rng.uniform(0.5, 1.5)))
            s = _psd(rng, q, d, norm=float(rng.uniform(0.5, 1.5)))
            conv.append((q, d, _rho(q, d) + 0.5, r, s))
        scale = _psd(rng, 2, 2, norm=1.0) + 0.3 * np.eye(2)
        x = float(rng.uniform(0.5, 8.0))
        return {"seed": seed, "conv": conv, "wishart_scale": scale, "eval_x": x}

    def setup(self, inp):
        _warm_tables([(q, d, _rho(q, d) + 0.5) for q in (1, 2, 3) for d in (1, 2)], 8.0)
        return []

    def _common(self, q, d, mu, seed):
        return ["--q", str(q), "--d", str(d), "--mu", repr(mu), "--seed", str(seed),
                "--workers", str(self.workers)]

    def jobs(self, inp):
        """(subcommand, argv, expected CSV rows or None)."""
        seed = inp["seed"]
        out = []
        for q, d, mu, r, s in inp["conv"]:
            stem = f"conv_q{q}_d{d}"
            cone_core.write_matrix_text(f"{stem}_r.txt", r, d)
            cone_core.write_matrix_text(f"{stem}_s.txt", s, d)
            argv = ["conv", *self._common(q, d, mu, seed), "--r", f"{stem}_r.txt",
                    "--s", f"{stem}_s.txt", "--n", str(self.conv_n), "--output", f"{stem}.csv"]
            out.append(("conv", argv, self.conv_n))
        cone_core.write_matrix_text("wishart_scale.txt", inp["wishart_scale"], 2)
        out.append(("wishart", ["wishart", *self._common(2, 2, _rho(2, 2) + 0.5, seed),
                                "--scale-sq", "wishart_scale.txt", "--t", "1.0",
                                "--n", str(self.wishart_n), "--output", "wishart.csv"], self.wishart_n))
        out.append(("clt", ["clt", *self._common(2, 1, 3.0, seed), "--step", "wishart",
                            "--steps", "64", "--replicas", str(self.clt_replicas), "--output", "clt.json"],
                    None))
        out.append(("slln", ["slln", *self._common(2, 1, 3.0, seed), "--rule", "power",
                             "--lam", "1.5", "--n-max", str(self.slln_n_max), "--replicas", "200",
                             "--output", "slln.json"], None))
        out.append(("eval-bessel", ["eval-bessel", *self._common(3, 2, 2.5, seed),
                                    "--eigs", f"{inp['eval_x']!r},0,0", "--tol", "1e-10"], None))
        out.append(("check", ["check", *self._common(2, 1, 3.0, seed)], None))
        return out

    def round(self, inp, clock):
        jobs = self.jobs(inp)  # input files are written before the first operation
        ran = []
        for cmd, argv, rows in jobs:
            with clock.op(f"{cmd}/{len(ran)}"):
                code, text, err = _run_cli(argv)
            ran.append((cmd, argv, rows, code, text, err))
        return {
            "jobs": ran,
            "counts": {"conv_draws": self.conv_n * len(inp["conv"]), "wishart_draws": self.wishart_n},
        }

    @staticmethod
    def _report(text):
        try:
            return json.loads(text)
        except ValueError:
            return None

    def outputs(self, inp, res, warm):
        out = []
        for cmd, argv, rows, code, text, err in res["jobs"]:
            report = self._report(text)
            if report is not None and rows is not None and "--output" in argv:
                path = Path(argv[argv.index("--output") + 1])
                if path.is_file():
                    report["csv_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
            out.append([cmd, code, _strip_runtimes(report)])
        return out

    def check(self, inp, res, warm):
        v = Verdict()
        for cmd, argv, rows, code, text, err in res["jobs"]:
            report = self._report(text)
            if report is None or code not in (0, 2) or (cmd != "check" and code != 0):
                v.op(False, cmd, f"{cmd} exited {code}: {err[-300:]}")
                continue
            errors = []
            if rows is not None:
                path = argv[argv.index("--output") + 1]
                got = ball_measure.EmpiricalMeasure.from_csv(path).points.shape[0]
                if got != rows:
                    errors.append(f"{path} holds {got} rows, expected {rows}")
            if cmd == "wishart":
                for row in report["fourier_panel"]:
                    if abs(row["estimate"] - row["target"]) > PANEL_SIGMAS * row["stderr"]:
                        errors.append(f"wishart panel c={row['c']}: {row}")
            if cmd == "eval-bessel":
                ref = _hyp0f1(2.5, inp["eval_x"])
                if abs(report["value"] - ref) > 1e-10:
                    errors.append(f"eval-bessel {report['value']} vs {ref}")
            # the quick check's verdict is statistical (4 se); exit 2 is a failed
            # operation, a wrong report is an error
            v.op(code == 0 and not errors, cmd, "; ".join(errors) or None)
        return v


WORKLOADS = {"sweep": Sweep(), "series": Series(), "cli-jobs": CliJobs()}
