"""Command-line harness: subcommands, config files, seeding, and the
acceptance-check registry.

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
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .cone_core import (
    HypergroupParams,
    check_matrix,
    cone_rho,
    gaussian_entries,
    gram,
    psd_sqrt_batch,
    random_psd,
    read_matrix_text,
    two_sample,
)
from .jack_series import (
    BesselSeriesError,
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
    conv_pairwise_batch,
    conv_sample_batch,
    conv_square_batch,
    norm_excess_watermark,
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
    semigroup_check,
    translated_density,
)
from .randwalk_limits import (
    EmpiricalStep,
    PointMassStep,
    WishartStep,
    clt_experiment,
    martingale_check,
    moment_m2,
    moment_numeric,
    slln_experiment,
)

def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + [int(s) for s in stream]))


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
    draw(m, _rng(seed, stream, b)) on whichever thread runs it, and the blocks
    concatenate in block order, so the result is the same at every worker count."""
    sizes = [min(_BLOCK, total - start) for start in range(0, total, _BLOCK)]
    blocks = _thread_map(lambda b: draw(sizes[b], _rng(seed, stream, b)), range(len(sizes)), workers)
    return np.concatenate(blocks, axis=0)


# ---------------------------------------------------------------------------
# acceptance criteria registry


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
    return max(0.0, *(float(np.max(np.abs(t - traces ** k) / np.abs(traces) ** k)) for k, t in totals.items()))


def _criterion_1(seed: int) -> tuple[bool, dict]:
    """Trace identity: the weight-k Jack layer sums to (tr x)^k."""
    rng = _rng(seed, 101)
    worst = 0.0
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
            worst = max(worst, _trace_identity_error(eigs, alpha, 6))
    return worst <= 1e-8, {"max_rel_err": worst}


def _criterion_2(seed: int) -> tuple[bool, dict]:
    """Rank-one characters reduce to the scalar 0F1 Bessel series."""
    rng = _rng(seed, 102)
    worst = 0.0
    for mu in (0.8, 1.5, 3.0, 7.5):
        p = HypergroupParams(1, 1, mu, sampling_only=True)
        for _ in range(125):
            s = float(rng.uniform(0.0, math.sqrt(10.0)))
            r = float(rng.uniform(0.0, math.sqrt(10.0)))
            via_matrix = character_phi(p, np.array([[s]]), np.array([[r]]), target_tol=1e-12)
            via_scalar = j_alpha_scalar(mu - 1.0, s * r)
            worst = max(worst, abs(via_matrix - via_scalar))
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
        rng = _rng(seed, 103, ci)
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
        rng = _rng(seed, 104, ci)
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
        rng = _rng(seed, 105, ci)
        r = random_psd(p, rng, norm=1.0, rank=rank)
        zs = conv_sample_batch(p, r, c * r, n_samples, rng)
        frac = support_window_fraction(p, r, c, zs, tol=1e-8)
        runs.append({"q": q, "d": d, "c": c, "rank": rank, "fraction_inside": frac})
    return all(run["fraction_inside"] == 1.0 for run in runs), {"runs": runs}


def _criterion_6(seed: int) -> tuple[bool, dict]:
    """Norm bound ||z|| <= ||r|| + ||s|| for every convolution sample; reads
    the process-wide watermark maintained by the samplers, then adds a
    dedicated sweep including rank-deficient pairs."""
    inherited = norm_excess_watermark()
    for ci, (q, d) in enumerate(itertools.product((1, 2, 3), (1, 2))):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = _rng(seed, 106, ci)
        r = random_psd(p, rng, norm=float(rng.uniform(0.5, 1.5)))
        s = random_psd(p, rng, norm=float(rng.uniform(0.5, 1.5)), rank=max(1, q - 1))
        conv_square_batch(p, r, s, 100_000, rng)
    watermark = norm_excess_watermark()
    return watermark <= 1e-9, {"watermark": watermark, "watermark_before_sweep": inherited}


def _criterion_7(seed: int) -> tuple[bool, dict]:
    """Invertible maps commute with convolution (Fourier panel comparison)."""
    n_samples = 20_000
    p = HypergroupParams(2, 1, 3.0)
    devs, tols = [], []
    for ai in range(5):
        rng = _rng(seed, 107, ai)
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
    rng = _rng(seed, 108)
    worst = 0.0
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
                worst = max(worst, abs(v_big - v_small))
    return worst <= 1e-9, {"max_abs_err": worst}


def _criterion_9(seed: int) -> tuple[bool, dict]:
    """Scaled Wishart sampler matches the closed Fourier transform."""
    n_samples = 100_000
    q = 2
    devs, tols = [], []
    for ci, d in enumerate((1, 2)):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = _rng(seed, 109, ci)
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


def _criterion_10(seed: int) -> tuple[bool, dict]:
    """Semigroup: W(a^2) * W(b^2) has the transform of W(a^2 + b^2)."""
    reports = []
    for ci, (q, d) in enumerate(((2, 1), (2, 2))):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = _rng(seed, 110, ci)
        b2 = random_psd(p, rng, norm=1.2)
        rep = semigroup_check(p, np.eye(q, dtype=p.dtype), b2, 100_000, rng)
        reports.append({"q": q, "d": d, "max_dev_sigma": rep["max_dev_sigma"], "passed": rep["passed"]})
    return all(r["passed"] for r in reports), {"runs": reports}


def _criterion_11(seed: int) -> tuple[bool, dict]:
    """Triangular-gamma sampler vs raw Gaussian matrix construction."""
    n_samples = 100_000
    q = 2
    rows = []
    ok = True
    for ci, (d, p_int) in enumerate(itertools.product((1, 2), (3, 5))):
        p = HypergroupParams(q, d, 0.5 * d * p_int, sampling_only=True)
        rng = _rng(seed, 111, ci)
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
            ok = ok and dev <= 3.0
            rows.append({"d": d, "p": p_int, "stat": name, "dev_sigma": dev})
    return ok, {"rows": rows}


def _criterion_13(seed: int) -> tuple[bool, dict]:
    """Point mass convolved with the standard law: samples vs exact density."""
    n_samples = 100_000
    p = HypergroupParams(1, 1, 2.0)
    mu = p.mu
    leb_const = 2.0 * math.pi ** mu / math.gamma(mu)

    rows = []
    ok = True
    for xi, x in enumerate((0.5, 1.0, 2.0)):
        rng = _rng(seed, 113, xi)
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
        ok = ok and row_ok
        rows.append({"x": x, "sup_cdf_dist": sup, "norm_defect": abs(cdf[-1] - 1.0), "passed": row_ok})
    return ok, {"rows": rows}


def _criterion_14(seed: int) -> tuple[bool, dict]:
    """Mean of Z^2 under the convolution equals x^2 + y^2 entrywise."""
    n_samples = 20_000
    combos = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    devs = []
    for ci, (q, d) in enumerate((q, d) for q, d in combos for _ in range(4)):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.7)
        rng = _rng(seed, 114, ci)
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
    ok = True
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
        rng = _rng(seed, 115, ci)
        grid = [c * eye for c, _, _ in spread]
        rep = clt_experiment(p, EmpiricalStep(step_cloud), n_final, replicas, grid, rng, n_small=n_small)
        combo_ok = rep["sup_dev_final"] <= 0.02 and rep["all_eligible_improved"] and rep["n_eligible"] > 0
        ok = ok and combo_ok
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
    return ok, {"runs": runs}


def _criterion_17(seed: int) -> tuple[bool, dict]:
    """Character martingale: E[phi_s(S_n)] = mu_hat(s)^n along the walk."""
    p = HypergroupParams(2, 1, 3.0)
    rng = _rng(seed, 117)
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


def _timed(fn, *args) -> tuple[bool, dict, float]:
    """Run a check that returns (passed, details); adds its wall time."""
    t0 = time.perf_counter()
    passed, details = fn(*args)
    return bool(passed), details, round(time.perf_counter() - t0, 3)


def run_criterion(index: int, seed: int = 0) -> dict:
    for idx, name, fn in CRITERIA:
        if idx == index:
            try:
                passed, details, runtime = _timed(fn, seed)
            except Exception as exc:  # a crash is a failure, not an abort
                passed, details, runtime = False, {"error": f"{type(exc).__name__}: {exc}"}, 0.0
            return {"index": idx, "name": name, "passed": passed, "runtime_s": runtime, "details": details}
    raise ValueError(f"no acceptance criterion {index}")


# ---------------------------------------------------------------------------
# quick invariant suite (default `check`)


def _quick_suite(p: HypergroupParams, seed: int) -> list[dict]:
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
        worst_dev = 0.0
        for smat, est, se in zip(grid, *character_panel(p, grid, r2s)):
            dev = abs(est - fourier_closed(p, np.eye(p.q), smat)) / max(4.0 * se, 1e-300)
            worst_dev = max(worst_dev, dev)
        return worst_dev <= 1.0, {"worst_ratio_of_4se": worst_dev}

    def moment_closed_form(rng):
        r = random_psd(p, rng, norm=1.0)
        m2 = moment_m2(p, np.eye(p.q), np.eye(p.q), r)
        num, err = moment_numeric(p, (np.eye(p.q), np.eye(p.q)), r)
        rel = abs(num - m2) / max(abs(m2), 1e-12)
        return rel <= 1e-6, {"relative_dev": rel, "fd_error_estimate": err}

    checks = []
    for i, (name, fn) in enumerate((
        ("trace-identity", trace_identity),
        ("ball-contraction", ball_contraction),
        ("product-formula", product_formula),
        ("wishart-fourier", wishart_fourier),
        ("moment-closed-form", moment_closed_form),
    )):
        passed, details, runtime = _timed(fn, _rng(seed, 900, i))
        checks.append({"name": name, "passed": passed, "runtime_s": runtime, "details": details})
    return checks


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
    rng = _rng(ns.seed, 3)
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
    rng = _rng(ns.seed, 4)
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
        # each named criterion once, in index order, but criterion 6 last: it
        # reads the global watermark the others raise
        indices = sorted(set(ns.criterion or [idx for idx, _, _ in CRITERIA]))
        rest = [i for i in indices if i != 6]
        results = _thread_map(lambda i: run_criterion(i, ns.seed), rest, ns.workers)
        results += [run_criterion(6, ns.seed)] if 6 in indices else []
        results.sort(key=lambda r: r["index"])
        p, key = None, "criteria"
        experiment = "check-full" if ns.full else "check-criteria"
    else:
        p, key = _params_from(ns), "checks"
        results = _quick_suite(p, ns.seed)
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
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
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
        sp.add_argument("--seed", type=int, default=os.environ.get("CONEBESSEL_SEED", "0"), help="root seed")
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
