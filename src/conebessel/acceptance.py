"""The checks behind `check`: the numbered acceptance criteria of `--full`
and `--criterion`, and the quick invariant suite.

Each check returns (passed, details) and draws only from its own seeded
streams, so none depends on another or on the run order.  One runner makes
each a report entry; a check that raises is a failed entry with its error.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .cone_core import (
    HypergroupParams,
    cone_rho,
    gaussian_entries,
    gram,
    psd_sqrt_batch,
    random_psd,
    two_sample,
)
from .jack_series import (
    bessel_from_eigs,
    character_from_squares,
    character_phi,
    character_panel,
    j_alpha_scalar,
    jack_C,
    partitions,
)
from .ball_measure import (
    EmpiricalMeasure,
    conv_expect,
    conv_factor_batch,
    conv_pairwise_batch,
    conv_sample_batch,
    conv_square_batch,
    phi_bochner,
    sample_ball_batch,
    support_window_fraction,
)
from .hypergroup_algebra import automorphism_apply
from .wishart import (
    WishartSpec,
    fourier_closed,
    sample_scaled_factor_batch,
    sample_standard_batch,
    translated_density,
)
from .randwalk_limits import (
    EmpiricalStep,
    WishartStep,
    clt_experiment,
    martingale_check,
    moment,
    moment_m2,
)


def stream_rng(seed: int, *stream) -> np.random.Generator:
    """The generator of stream (seed, *stream): a numpy SeedSequence child of
    the root seed, the same on every run and thread."""
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(s) for s in stream]))


def _tally(devs, tols) -> dict:
    """Passes (dev <= tol) and the worst dev / tol, tol floored at 1e-300, of
    paired deviations and tolerances.  A NaN deviation fails and leaves
    worst_ratio as it was: max keeps its first argument against a NaN."""
    n_pass, worst = 0, 0.0
    for dev, tol in zip(devs, tols):
        n_pass += bool(dev <= tol)
        worst = max(worst, float(dev) / max(tol, 1e-300))
    return {"n_pass": n_pass, "n_total": len(devs), "worst_ratio": worst}


def _trace_identity_error(eigs: np.ndarray, alpha: float, k_max: int) -> float:
    """Largest relative error of the trace identity sum_{|lam|=k} C_lam(x) = (tr x)^k
    over the rows x of eigs and 1 <= k <= k_max."""
    traces, q = eigs.sum(axis=1), eigs.shape[1]
    totals = {k: sum(jack_C(lam, alpha, eigs) for lam in partitions(k, q)) for k in range(1, k_max + 1)}
    return float(np.max([np.max(np.abs(t - traces ** k) / np.abs(traces) ** k) for k, t in totals.items()]))


def _criterion_1(seed: int) -> tuple[bool, dict]:
    """Trace identity: the weight-k Jack layer sums to (tr x)^k."""
    rng = stream_rng(seed, 101)
    errs = []
    for q in (1, 2, 3):
        for d in (1, 2):
            alpha = 2.0 / d
            eigs = np.empty((200, q))
            filled = 0
            while filled < 200:
                h = gaussian_entries(rng, (200, q, q), d)
                h = 0.5 * (h + np.swapaxes(h, -1, -2).conj())
                e = np.linalg.eigvalsh(h)
                keep = np.abs(e.sum(axis=1)) >= 0.3
                take = min(int(keep.sum()), 200 - filled)
                eigs[filled : filled + take] = e[keep][:take]
                filled += take
            errs.append(_trace_identity_error(eigs, alpha, 6))
    worst = float(np.max(errs))
    return worst <= 1e-8, {"max_rel_err": worst}


def _criterion_2(seed: int) -> tuple[bool, dict]:
    """Rank-one characters reduce to the scalar 0F1 Bessel series."""
    rng = stream_rng(seed, 102)
    errs = []
    for mu in (0.8, 1.5, 3.0, 7.5):
        p = HypergroupParams(1, 1, mu, sampling_only=True)
        for _ in range(125):
            s = float(rng.uniform(0.0, math.sqrt(10.0)))
            r = float(rng.uniform(0.0, math.sqrt(10.0)))
            via_matrix = character_phi(p, np.array([[s]]), np.array([[r]]), target_tol=1e-12)
            via_scalar = j_alpha_scalar(mu - 1.0, s * r)
            errs.append(abs(via_matrix - via_scalar))
    worst = float(np.max(errs))
    return worst <= 1e-10, {"max_abs_err": worst}


def _criterion_3(seed: int) -> tuple[bool, dict]:
    """Characters: series evaluation vs the oscillatory ball integral."""
    n_samples = 100_000
    combos = [
        HypergroupParams(q, d, mu)
        for q, d in itertools.product((1, 2, 3), (1, 2))
        for mu in (cone_rho(q, d) + 0.5, 2.0 * cone_rho(q, d))
    ]
    devs, tols = [], []
    for ci, p in enumerate(combos):
        rng = stream_rng(seed, 103, ci)
        for _ in range(25):
            r = random_psd(p, rng, norm=float(rng.uniform(0.3, 1.6)))
            s = random_psd(p, rng, norm=float(rng.uniform(0.3, 1.6)))
            [exact], [bound], _ = character_from_squares(p, s, (r @ r)[None], 1e-9)
            est, se = phi_bochner(p, s, r, n_samples, rng)
            devs.append(abs(est - exact))
            tols.append(3.0 * se + bound)
    tally = _tally(devs, tols)
    return tally["n_pass"] / tally["n_total"] >= 0.99, tally


def _criterion_4(seed: int) -> tuple[bool, dict]:
    """Product formula: conv_expect of a character splits into a product."""
    n_samples = 20_000
    combos = [
        HypergroupParams(q, d, mu)
        for q, d in itertools.product((1, 2), (1, 2))
        for mu in (cone_rho(q, d) + 0.5, 2.0 * cone_rho(q, d))
    ]
    devs, tols = [], []
    for ci, p in enumerate(combos):
        rng = stream_rng(seed, 104, ci)
        rs = [random_psd(p, rng, norm=float(rng.uniform(0.4, 1.3))) for _ in range(3)]
        ss = [random_psd(p, rng, norm=float(rng.uniform(0.4, 1.3))) for _ in range(3)]
        ts = [random_psd(p, rng, norm=float(rng.uniform(0.4, 1.3))) for _ in range(3)]
        for r, s, tt in itertools.product(rs, ss, ts):
            est, se = conv_expect(
                p, lambda z2s: character_from_squares(p, tt, z2s, 1e-9)[0], r, s, n_samples, rng
            )
            devs.append(abs(est - character_phi(p, tt, r) * character_phi(p, tt, s)))
            tols.append(3.0 * se + 1e-8)
    tally = _tally(devs, tols)
    return tally["n_pass"] == tally["n_total"], tally


def _criterion_5(seed: int) -> tuple[bool, dict]:
    """Convolution of r with c*r stays in the window [(1-c)r, (1+c)r]."""
    n_samples = 100_000
    runs = []
    cases = [(q, d, c, rank) for q, d in ((2, 1), (2, 2)) for c in (0.3, 1.0) for rank in (q, 1)]
    for ci, (q, d, c, rank) in enumerate(cases):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = stream_rng(seed, 105, ci)
        r = random_psd(p, rng, norm=1.0, rank=rank)
        zs = conv_sample_batch(p, r, c * r, n_samples, rng)
        frac = support_window_fraction(p, r, c, zs, tol=1e-8)
        runs.append({"q": q, "d": d, "c": c, "rank": rank, "fraction_inside": frac})
    return all(run["fraction_inside"] == 1.0 for run in runs), {"runs": runs}


def _criterion_6(seed: int) -> tuple[bool, dict]:
    """Norm bound ||z|| <= ||r|| + ||s|| on every draw of a sweep including
    rank-deficient pairs; ||z||_F = sqrt(Re tr z^2)."""
    excesses = []
    for ci, (q, d) in enumerate(itertools.product((1, 2, 3), (1, 2))):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = stream_rng(seed, 106, ci)
        r = random_psd(p, rng, norm=float(rng.uniform(0.5, 1.5)))
        s = random_psd(p, rng, norm=float(rng.uniform(0.5, 1.5)), rank=max(1, q - 1))
        z2 = conv_square_batch(p, r, s, 100_000, rng)
        norms = np.sqrt(np.trace(z2, axis1=1, axis2=2).real)
        excesses.append(np.max(norms - np.linalg.norm(r) - np.linalg.norm(s)))
    excess = float(np.max(excesses))
    return excess <= 1e-9, {"norm_excess_max": excess}


def _criterion_7(seed: int) -> tuple[bool, dict]:
    """Invertible maps commute with convolution (Fourier panel comparison)."""
    n_samples = 20_000
    p = HypergroupParams(2, 1, 3.0)
    devs, tols = [], []
    for ai in range(5):
        rng = stream_rng(seed, 107, ai)
        a = rng.standard_normal((2, 2))
        x = random_psd(p, rng, norm=1.0)
        y = random_psd(p, rng, norm=0.8)
        # the image sqrt(a z^2 a^T) of a draw z has the square a z^2 a^T
        za2 = a @ conv_square_batch(p, x, y, n_samples, rng) @ a.T
        zb2 = conv_square_batch(
            p, automorphism_apply(a, x), automorphism_apply(a, y), n_samples, rng
        )
        scale = 0.8 / max(float(np.abs(psd_sqrt_batch(za2)).max()), 1e-12)
        dirs = [np.eye(2), np.diag([1.0, 0.4])]
        h = random_psd(p, rng)
        dirs.append(h / np.linalg.norm(h, 2))
        for c in (0.5, 1.0):
            for direction in dirs:
                smat = c * scale * direction
                va = character_from_squares(p, smat, za2, 1e-10)[0]
                vb = character_from_squares(p, smat, zb2, 1e-10)[0]
                diff, se = two_sample(va, vb)
                devs.append(abs(diff))
                tols.append(3.0 * se)
    tally = _tally(devs, tols)
    return tally["n_pass"] == tally["n_total"], tally


def _criterion_8(seed: int) -> tuple[bool, dict]:
    """Bessel value only sees the nonzero block: J^q(blockdiag(r,0)) = J^k(r)."""
    rng = stream_rng(seed, 108)
    errs = []
    q = 3
    for d in (1, 2):
        mu = cone_rho(q, d) + 0.5
        for k in (1, 2):
            pk = HypergroupParams(k, d, mu, sampling_only=True)
            for _ in range(100):
                small = random_psd(pk, rng, norm=float(rng.uniform(0.2, 2.5)))
                eigs_small = np.linalg.eigvalsh(small)
                eigs_big = np.concatenate([eigs_small, np.zeros(q - k)])
                v_small = bessel_from_eigs(eigs_small, mu, d, target_tol=1e-12).value
                v_big = bessel_from_eigs(eigs_big, mu, d, target_tol=1e-12).value
                errs.append(abs(v_big - v_small))
    worst = float(np.max(errs))
    return worst <= 1e-9, {"max_abs_err": worst}


def _criterion_9(seed: int) -> tuple[bool, dict]:
    """Scaled Wishart sampler matches the closed Fourier transform."""
    n_samples = 100_000
    q = 2
    devs, tols = [], []
    for ci, d in enumerate((1, 2)):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = stream_rng(seed, 109, ci)
        g = random_psd(p, rng, norm=1.0)
        u = random_psd(p, rng, norm=1.0, rank=1)
        covs = [np.eye(q, dtype=p.dtype), g + 0.3 * np.eye(q, dtype=p.dtype), u]
        for cov in covs:
            spec = WishartSpec(p, cov)
            r2s = gram(sample_scaled_factor_batch(spec, n_samples, rng))
            v_scale = 1.0 / math.sqrt(max(np.linalg.norm(cov, 2), 1e-12))
            grid = [c * v_scale * np.eye(q) for c in np.linspace(0.3, 1.2, 6)]
            for _ in range(4):
                h = random_psd(p, rng)
                grid.append(v_scale * h / np.linalg.norm(h, 2))
            for smat, est, se in zip(grid, *character_panel(p, grid, r2s)):
                devs.append(abs(est - fourier_closed(p, cov, smat)))
                tols.append(3.0 * se)
    tally = _tally(devs, tols)
    return tally["n_pass"] == tally["n_total"], tally


def _semigroup_dev(p: HypergroupParams, a_sq, b_sq, n_samples: int, rng: np.random.Generator) -> float:
    """Sample X with squared scale a_sq, Y with b_sq, convolve pathwise, and
    return the largest |estimate - closed form| / stderr of the Fourier
    transform against the law with squared scale a_sq + b_sq, over eight
    spectral parameters: six multiples of the identity and two random
    directions, drawn from rng after the samples."""
    xs = sample_scaled_factor_batch(WishartSpec(p, a_sq), n_samples, rng)
    ys = sample_scaled_factor_batch(WishartSpec(p, b_sq), n_samples, rng)
    v_scale = 1.0 / np.sqrt(max(np.linalg.norm(a_sq + b_sq, 2), 1e-12))
    z2 = gram(conv_factor_batch(p, xs, ys, rng))
    grid = [c * v_scale * np.eye(p.q) for c in np.linspace(0.25, 1.1, 6)]
    for _ in range(2):
        h = random_psd(p, rng)
        grid.append(v_scale * h / np.linalg.norm(h, 2))
    return float(np.max([
        abs(est - fourier_closed(p, a_sq + b_sq, smat)) / max(se, 1e-300)
        for smat, est, se in zip(grid, *character_panel(p, grid, z2))
    ]))


def _criterion_10(seed: int) -> tuple[bool, dict]:
    """Semigroup: W(a^2) * W(b^2) has the transform of W(a^2 + b^2)."""
    runs = []
    for ci, (q, d) in enumerate(((2, 1), (2, 2))):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = stream_rng(seed, 110, ci)
        b2 = random_psd(p, rng, norm=1.2)
        dev = _semigroup_dev(p, np.eye(q, dtype=p.dtype), b2, 100_000, rng)
        runs.append({"q": q, "d": d, "max_dev_sigma": dev, "passed": dev <= 3.0})
    return all(r["passed"] for r in runs), {"runs": runs}


def _criterion_11(seed: int) -> tuple[bool, dict]:
    """Triangular-gamma sampler vs raw Gaussian matrix construction."""
    n_samples = 100_000
    q = 2
    rows = []
    for ci, (d, p_int) in enumerate(itertools.product((1, 2), (3, 5))):
        p = HypergroupParams(q, d, 0.5 * d * p_int, sampling_only=True)
        rng = stream_rng(seed, 111, ci)
        r_tri = sample_standard_batch(p, n_samples, rng)
        x = gaussian_entries(rng, (n_samples, q, p_int), d)
        a = x @ np.swapaxes(x, -1, -2).conj()
        a = 0.5 * (a + np.swapaxes(a, -1, -2).conj())
        r_gau = psd_sqrt_batch(a)
        for name, fn in (
            ("trace", lambda m: np.trace(m, axis1=-2, axis2=-1).real),
            ("trace_sq", lambda m: np.einsum("nij,nji->n", m, m).real),
            ("det", lambda m: np.linalg.det(m).real),
        ):
            diff, se = two_sample(fn(r_tri), fn(r_gau))
            dev = abs(diff) / max(se, 1e-300)
            rows.append({"d": d, "p": p_int, "stat": name, "dev_sigma": dev})
    return all(row["dev_sigma"] <= 3.0 for row in rows), {"rows": rows}


def _criterion_13(seed: int) -> tuple[bool, dict]:
    """Point mass convolved with the standard law: samples vs exact density."""
    n_samples = 100_000
    p = HypergroupParams(1, 1, 2.0)
    mu = p.mu
    leb_const = 2.0 * math.pi ** mu / math.gamma(mu)

    rows = []
    for xi, x in enumerate((0.5, 1.0, 2.0)):
        rng = stream_rng(seed, 113, xi)
        steps = sample_standard_batch(p, n_samples, rng)
        xs = np.broadcast_to(np.array([[x]]), (n_samples, 1, 1)).copy()
        zs = conv_pairwise_batch(p, xs, steps, rng)[:, 0, 0]
        grid = np.linspace(0.0, x + 7.5, 20_001)
        dens = translated_density(p, [[x]], [[1.0]], grid[:, None, None], target_tol=1e-12)
        dens = dens * leb_const * grid ** (2.0 * mu - 1.0)
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))]
        )
        norm_ok = abs(cdf[-1] - 1.0) <= 1e-6
        zs_sorted = np.sort(zs)
        f_quad = np.interp(zs_sorted, grid, cdf)
        idx = np.arange(1, n_samples + 1)
        sup = float(
            np.max(np.maximum(np.abs(idx / n_samples - f_quad), np.abs((idx - 1) / n_samples - f_quad)))
        )
        row_ok = norm_ok and sup <= 0.01
        rows.append({"x": x, "sup_cdf_dist": sup, "norm_defect": abs(cdf[-1] - 1.0), "passed": row_ok})
    return all(row["passed"] for row in rows), {"rows": rows}


def _criterion_14(seed: int) -> tuple[bool, dict]:
    """Mean of Z^2 under the convolution equals x^2 + y^2 entrywise."""
    n_samples = 20_000
    combos = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    devs = []
    for ci, (q, d) in enumerate((q, d) for q, d in combos for _ in range(4)):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.7)
        rng = stream_rng(seed, 114, ci)
        x = random_psd(p, rng, norm=float(rng.uniform(0.4, 1.4)))
        y = random_psd(p, rng, norm=float(rng.uniform(0.4, 1.4)))
        sq = conv_square_batch(p, x, y, n_samples, rng)
        target = x @ x + y @ y
        diff = sq.mean(axis=0) - target
        iu = np.triu_indices(q)
        comps = [(diff.real, sq.real, False)]
        if d == 2 and q > 1:
            comps.append((diff.imag, sq.imag, True))
        for dmat, smat_comp, drop_diag in comps:
            se = np.sqrt(smat_comp.var(axis=0, ddof=1) / n_samples)
            dev = np.abs(dmat[iu]) / np.maximum(se[iu], 1e-300)
            if drop_diag:
                # imaginary diagonal is identically zero
                dev = dev[iu[0] != iu[1]]
            devs.extend(np.atleast_1d(dev))
    tally = _tally(devs, [3.0] * len(devs))
    return tally["n_pass"] == tally["n_total"], tally


def _criterion_15(seed: int) -> tuple[bool, dict]:
    """Central limit: rescaled walk transform approaches the Wishart target,
    and the n=64 deviation beats the n=4 deviation on paired paths.

    The step law is the lazy two-atom mixture (3/4)delta_0 + (1/4)delta_{2I}.
    It has unit mean square, so the limit target is unchanged, but its fourth
    cumulant is four times the point mass one, which makes the n=4 transform
    bias orders of magnitude larger than replica noise while the n=64 bias
    stays well under the 0.02 budget.  Both biases are exactly computable
    (the step transform is 3/4 + phi(2I)/4), so the spectral grid is chosen
    where the paired comparison is decided by bias, not by noise."""
    replicas = 20_000
    n_final, n_small = 64, 4
    w_lazy = 0.25
    runs = []
    for ci, (q, d) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
        mu = cone_rho(q, d) - 0.5
        p = HypergroupParams(q, d, mu)
        eye = np.eye(q, dtype=p.dtype)
        atom = 2.0 * eye

        def exact_dev(c, n):
            f1 = 1.0 - w_lazy + w_lazy * character_phi(p, (c / math.sqrt(n)) * eye, atom)
            return abs(f1**n - math.exp(-c * c * q / (4.0 * mu)))

        cand = []
        for c in np.arange(1.0, 4.01, 0.2):
            tgt = math.exp(-c * c * q / (4.0 * mu))
            b4, b64 = exact_dev(c, n_small), exact_dev(c, n_final)
            if b64 <= 0.008 and abs(1.0 - tgt) > 0.05:
                cand.append((float(c), b4, b64))
        cand.sort(key=lambda t: t[1] - t[2], reverse=True)
        spread = []
        for c, b4, b64 in cand:
            if all(abs(c - c0) >= 0.35 for c0, _, _ in spread):
                spread.append((c, b4, b64))
            if len(spread) == 4:
                break
        if len(spread) < 2:
            return False, {"error": f"no usable spectral points found at q={q}, d={d}"}
        step_cloud = EmpiricalMeasure(
            p,
            np.stack([np.zeros((q, q), dtype=p.dtype), atom]),
            weights=np.array([1.0 - w_lazy, w_lazy]),
            seed=seed,
        )
        rng = stream_rng(seed, 115, ci)
        grid = [c * eye for c, _, _ in spread]
        rep = clt_experiment(p, EmpiricalStep(step_cloud), n_final, replicas, grid, rng, n_small=n_small)
        combo_ok = rep["sup_dev_final"] <= 0.02 and rep["all_eligible_improved"] and rep["n_eligible"] > 0
        runs.append(
            {
                "q": q,
                "d": d,
                "mu": mu,
                "c_values": [c for c, _, _ in spread],
                "bias_exact_small": [b4 for _, b4, _ in spread],
                "bias_exact_final": [b64 for _, _, b64 in spread],
                "sup_dev_final": rep["sup_dev_final"],
                "n_eligible": rep["n_eligible"],
                "n_improved": rep["n_improved"],
                "passed": combo_ok,
            }
        )
    return all(run["passed"] for run in runs), {"runs": runs}


def _criterion_17(seed: int) -> tuple[bool, dict]:
    """Character martingale: E[phi_s(S_n)] = mu_hat(s)^n along the walk."""
    p = HypergroupParams(2, 1, 3.0)
    rng = stream_rng(seed, 117)
    step = WishartStep(WishartSpec(p))
    rep = martingale_check(p, step, 0.25 * np.eye(2), 64, 10_000, rng)
    return rep["passed"], {
        "mu_hat": rep["mu_hat"],
        "max_dev_sigma": rep["max_dev_sigma"],
        "checkpoints": [(row["n"], row["dev_sigma"]) for row in rep["checkpoints"]],
    }


# an index names its criterion for good: 12 and 16 stay unused
CRITERIA = [
    (1, "trace-identity", _criterion_1),
    (2, "rank-one-reduction", _criterion_2),
    (3, "bochner-vs-series", _criterion_3),
    (4, "product-formula", _criterion_4),
    (5, "support-window", _criterion_5),
    (6, "norm-support-bound", _criterion_6),
    (7, "automorphism-covariance", _criterion_7),
    (8, "character-restriction", _criterion_8),
    (9, "wishart-fourier", _criterion_9),
    (10, "wishart-semigroup", _criterion_10),
    (11, "bartlett-vs-gaussian", _criterion_11),
    (13, "translated-wishart", _criterion_13),
    (14, "second-moment-additivity", _criterion_14),
    (15, "clt-wishart-limit", _criterion_15),
    (17, "character-martingale", _criterion_17),
]


def _run(fn, arg) -> dict:
    """The passed, runtime_s and details entries of the check fn(arg) ->
    (passed, details); a check that raises fails, with the error as details."""
    t0 = time.perf_counter()
    try:
        passed, details = fn(arg)
    except Exception as exc:  # a crash is a failure, not an abort
        return {"passed": False, "runtime_s": 0.0, "details": {"error": f"{type(exc).__name__}: {exc}"}}
    return {"passed": bool(passed), "runtime_s": round(time.perf_counter() - t0, 3), "details": details}


def run_criterion(index: int, seed: int = 0) -> dict:
    for idx, name, fn in CRITERIA:
        if idx == index:
            return {"index": idx, "name": name, **_run(fn, seed)}
    raise ValueError(f"no acceptance criterion {index}")


# ---------------------------------------------------------------------------
# quick invariant suite (default `check`)


def quick_suite(p: HypergroupParams, seed: int) -> list[dict]:
    """Five invariant checks; check i draws from its own stream (seed, 900, i),
    so none depends on another's draws or on the run order."""

    def trace_identity(rng):
        eigs = rng.uniform(-1.0, 1.0, size=(50, p.q))
        worst = _trace_identity_error(eigs[np.abs(eigs.sum(axis=1)) >= 0.2][:30], p.alpha, 4)
        return worst <= 1e-8, {"max_rel_err": worst}

    def ball_contraction(rng):
        vs = sample_ball_batch(p, 2000, rng)
        top = float(np.linalg.norm(vs, 2, axis=(1, 2)).max())
        return top < 1.0, {"max_spectral_norm": top}

    def product_formula(rng):
        r = random_psd(p, rng, norm=1.0)
        s = random_psd(p, rng, norm=0.9)
        tt = random_psd(p, rng, norm=0.8)
        est, se = conv_expect(p, lambda z2s: character_from_squares(p, tt, z2s, 1e-9)[0], r, s, 5000, rng)
        dev = abs(est - character_phi(p, tt, r) * character_phi(p, tt, s))
        return dev <= 4.0 * se + 1e-8, {"deviation": dev, "stderr": se}

    def wishart_fourier(rng):
        r2s = gram(sample_scaled_factor_batch(WishartSpec(p), 20_000, rng))
        grid = [c * np.eye(p.q) for c in (0.3, 0.6, 0.9)]
        worst_dev = float(np.max([
            abs(est - fourier_closed(p, np.eye(p.q), smat)) / max(4.0 * se, 1e-300)
            for smat, est, se in zip(grid, *character_panel(p, grid, r2s))
        ]))
        return worst_dev <= 1.0, {"worst_ratio_of_4se": worst_dev}

    def moment_closed_form(rng):
        r = random_psd(p, rng, norm=1.0)
        m2 = moment_m2(p, np.eye(p.q), np.eye(p.q), r)
        rel = abs(moment(p, (np.eye(p.q), np.eye(p.q)), r) - m2) / max(abs(m2), 1e-12)
        return rel <= 1e-12, {"relative_dev": rel}

    return [
        {"name": name, **_run(fn, stream_rng(seed, 900, i))}
        for i, (name, fn) in enumerate((
            ("trace-identity", trace_identity),
            ("ball-contraction", ball_contraction),
            ("product-formula", product_formula),
            ("wishart-fourier", wishart_fourier),
            ("moment-closed-form", moment_closed_form),
        ))
    ]
