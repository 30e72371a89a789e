"""Random walks driven by the cone convolution and their limit experiments.

A walk starts at 0 and moves by S_n = S_{n-1} * Y_n in the hypergroup sense:
the next position is a draw from the convolution of the current point mass
with the step law.  Characters turn these walks into products, which gives a
martingale diagnostic, a central limit theorem with squared Wishart limit,
and strong laws of large numbers; all three are exposed as seeded Monte
Carlo experiments with closed-form targets where available.  Every walk
takes its parameters, step law, sizes and generator as plain arguments, and
the moment functions take their directions as a sequence of matrices.

The walk carries square factors X_n with X_n* X_n = S_n^2, not the points
S_n: the convolution reads its arguments only through their squares, and so
do characters, second moments and norms.  A square root is taken only where
paths are returned as points (``walk_simulate``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .cone_core import HypergroupParams, gram, gram_schmidt, mats_first, psd_sqrt_batch, stack_zeros
from .jack_series import character_panel, character_phi, congruence_eigs, series_layer
from .ball_measure import EmpiricalMeasure, conv_factor_batch
from .hypergroup_algebra import fourier_empirical
from .wishart import WishartSpec, fourier_closed, sample_scaled_factor_batch


# ---------------------------------------------------------------------------
# step laws: each draws steps as square factors Y (Y* Y = y^2); a cone point
# is a factor of itself


class PointMassStep:
    """Deterministic step: every increment equals the fixed cone point."""

    def __init__(self, point):
        self.point = np.asarray(point)

    def factor_batch(self, p: HypergroupParams, n: int, rng: np.random.Generator):
        return np.broadcast_to(self.point, (n,) + self.point.shape)

    def mean_square(self, p: HypergroupParams) -> np.ndarray:
        return self.point @ self.point

    def fourier(self, p: HypergroupParams, s) -> float:
        return character_phi(p, np.asarray(s), self.point)


class WishartStep:
    """Steps drawn from a scaled square-root Wishart law."""

    def __init__(self, spec: WishartSpec):
        self.spec = spec

    def factor_batch(self, p: HypergroupParams, n: int, rng: np.random.Generator):
        return sample_scaled_factor_batch(self.spec, n, rng)

    def mean_square(self, p: HypergroupParams) -> np.ndarray:
        return 2.0 * p.mu * self.spec.covariance

    def fourier(self, p: HypergroupParams, s) -> float:
        return fourier_closed(p, self.spec.covariance, s)


class EmpiricalStep:
    """Steps resampled from a stored weighted sample cloud."""

    def __init__(self, measure: EmpiricalMeasure):
        self.measure = measure

    def factor_batch(self, p: HypergroupParams, n: int, rng: np.random.Generator):
        idx = rng.choice(self.measure.points.shape[0], size=n, p=self.measure.weights)
        return self.measure.points[idx]

    def mean_square(self, p: HypergroupParams) -> np.ndarray:
        pts = self.measure.points
        sq = pts @ pts
        return np.einsum("n,nij->ij", self.measure.weights, sq)

    def fourier(self, p: HypergroupParams, s) -> float:
        return fourier_empirical(p, self.measure, s)[0]


# ---------------------------------------------------------------------------
# walk engine


def _walk(p: HypergroupParams, step_law, n_max: int, n_replicas: int, rng: np.random.Generator):
    """Run the walk from 0, yielding (X_k, Y_k) for k = 1, ..., n_max: a
    square factor X_k of the position, X_k* X_k = S_k^2, and the factor Y_k
    of the step taken.

    Each step reduces the stacked 2q x q convolution factor F to its q x q
    R factor by ``gram_schmidt`` on F's columns in place, needing no positive
    definiteness: a zero column gives a zero row, so the zero start and
    singular states take the same path.  R has a nonnegative diagonal, so
    X_k is the upper Cholesky factor of S_k^2, a function of S_k^2 alone; at
    q = 1 it is S_k itself.  The state stays stack-last from step to step
    (see ``cone_core.stack_zeros``), as do the steps and factors the kernels
    return; no past state is kept."""
    x = stack_zeros((n_replicas, p.q, p.q), p.dtype)
    for _ in range(n_max):
        y = step_law.factor_batch(p, n_replicas, rng)
        f = conv_factor_batch(p, x, y, rng)
        x = stack_zeros(x.shape, f.dtype)
        gram_schmidt(mats_first(f).swapaxes(0, 1), mats_first(x))
        yield x, y


def _walk_snapshots(
    p: HypergroupParams,
    step_law,
    checkpoints,
    n_replicas: int,
    rng: np.random.Generator,
):
    """{n: X_n} at the requested times of one walk (``_walk``), X_0 = 0; each
    snapshot is a batch-first (C-contiguous) copy of its own."""
    wanted = set(int(c) for c in checkpoints)
    out = {0: np.zeros((n_replicas, p.q, p.q), p.dtype)} if 0 in wanted else {}
    steps = enumerate(_walk(p, step_law, max(wanted), n_replicas, rng), 1)
    out.update((k, np.ascontiguousarray(x)) for k, (x, _) in steps if k in wanted)
    return out


def walk_simulate(
    p: HypergroupParams,
    step_law,
    n_steps: int,
    n_replicas: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Full paths of the hypergroup random walk, shape
    (n_replicas, n_steps + 1, q, q), with S_0 = 0."""
    if n_steps < 1 or n_replicas < 1:
        raise ValueError("need n_steps >= 1 and n_replicas >= 1")
    times = range(n_steps + 1)
    snaps = _walk_snapshots(p, step_law, times, n_replicas, rng)
    return np.stack([psd_sqrt_batch(gram(snaps[k])) for k in times], axis=1)


def _geometric_checkpoints(n_max: int) -> list[int]:
    """Times 1, 2, 4, ... up to n_max, then n_max itself."""
    checkpoints = []
    k = 1
    while k <= n_max:
        checkpoints.append(k)
        k *= 2
    if checkpoints[-1] != n_max:
        checkpoints.append(n_max)
    return checkpoints


# ---------------------------------------------------------------------------
# moment functions


def moment_m2(p: HypergroupParams, s1, s2, r) -> float:
    """Second moment function: Re tr(s1 r^2 s2) / (2 mu)."""
    s1m = np.asarray(s1)
    s2m = np.asarray(s2)
    rm = np.asarray(r)
    return float(np.trace(s1m @ rm @ rm @ s2m).real / (2.0 * p.mu))


def moment(p: HypergroupParams, directions, r) -> float:
    """Moment function in the directions (s_1, ..., s_k) at the cone point r:
    (-1)^(k/2) times the k-th mixed derivative of s -> phi_s(r) at s = 0.
    The order k = len(directions) must be even and positive: odd moment
    functions vanish.

    The derivative reads series layer k/2 alone, L(s) = sum_{|lam| = k/2}
    C_lam(x)/(mu)_lam at the spectrum x of (1/4) s r^2 s, a form of degree k
    in s, so polarization gives it exactly: the sum of e_1 ... e_k
    L(e_1 s_1 + ... + e_k s_k) over the sign patterns e with e_1 = 1 (L is
    even), divided by 2^(k-1) (k/2)!: no step and no truncation, so no error
    estimate.
    """
    dirs = [np.asarray(s) for s in directions]
    k = len(dirs)
    if k == 0 or k % 2 != 0:
        raise ValueError(f"moment functions have even order >= 2 (odd ones vanish), got order {k}")
    signs = np.array(list(itertools.product((1, -1), repeat=k - 1)))
    combos = [dirs[0] + sum(e * s for e, s in zip(row, dirs[1:])) for row in signs]
    rm = np.asarray(r)
    eigs = np.concatenate(list(congruence_eigs(combos, (rm @ rm)[None])))
    layer = series_layer(eigs, p.mu, p.d, k // 2)
    return float(signs.prod(axis=1) @ layer) / (2 ** (k - 1) * math.factorial(k // 2))


# ---------------------------------------------------------------------------
# limit experiments

# the early time at which clt_experiment also snapshots the walk
CLT_N_SMALL = 4


def clt_experiment(
    p: HypergroupParams,
    step_law,
    n: int,
    replicas: int,
    s_grid,
    rng: np.random.Generator,
) -> dict:
    """Fourier-side central limit check against the squared Wishart target.

    Simulates the walk once, snapshots it at CLT_N_SMALL and n, rescales each
    snapshot by 1/sqrt(time), and compares the empirical character average at
    every grid point with exp(-tr(s sigma^2 s)/2).  The paired deviations on
    one common set of paths show the CLT_N_SMALL -> n improvement without
    replica noise swamping it.
    """
    if n <= CLT_N_SMALL:
        raise ValueError(f"need n > n_small = {CLT_N_SMALL}")
    # the theorem's sigma^2 is a population quantity; the experiment targets
    # its plug-in estimate, the mean of Y^2 over the very steps taken (closed
    # form reported too)
    acc = np.zeros((p.q, p.q), dtype=p.dtype)
    snaps = {}
    for k, (x, y) in enumerate(_walk(p, step_law, n, replicas, rng), 1):
        acc += gram(y).sum(axis=0) / replicas
        if k in (CLT_N_SMALL, n):
            snaps[k] = np.ascontiguousarray(x)
    sigma2_plugin = acc / n / (2.0 * p.mu)
    sigma2_plugin = 0.5 * (sigma2_plugin + sigma2_plugin.conj().T)
    closed_ms = step_law.mean_square(p)

    grid = [np.asarray(s) for s in s_grid]
    # one square per snapshot, rescaled by 1/time, read at every label
    panels = {
        m: list(zip(*character_panel(p, grid, gram(snaps[m]) / float(m)))) for m in (CLT_N_SMALL, n)
    }
    rows = []
    for i, smat in enumerate(grid):
        target = fourier_closed(p, sigma2_plugin, smat)
        entry = {"s_norm": float(np.linalg.norm(smat, 2)), "target": target}
        for label, m in (("small", CLT_N_SMALL), ("final", n)):
            est, se = panels[m][i]
            entry[f"est_{label}"] = est
            entry[f"stderr_{label}"] = se
            entry[f"dev_{label}"] = abs(est - target)
        entry["eligible"] = bool(abs(1.0 - target) > 0.05)
        entry["improved"] = bool(entry["dev_final"] < entry["dev_small"])
        rows.append(entry)

    eligible = [row for row in rows if row["eligible"]]
    return {
        "experiment": "clt",
        "n_small": CLT_N_SMALL,
        "n_final": n,
        "replicas": replicas,
        "sigma2_plugin": sigma2_plugin,
        "sigma2_closed": closed_ms / (2.0 * p.mu),
        "grid": rows,
        # np.max, not max(): a NaN deviation must not be dropped
        "sup_dev_final": float(np.max([0.0] + [row["dev_final"] for row in rows])),
        "n_eligible": len(eligible),
        "n_improved": sum(1 for row in eligible if row["improved"]),
        "all_eligible_improved": all(row["improved"] for row in eligible),
    }


def slln_experiment(
    p: HypergroupParams,
    step_law,
    a_rule: str,
    lam: float,
    n_max: int,
    replicas: int,
    rng: np.random.Generator,
) -> dict:
    """Strong-law trend experiment: tracks ||S_n|| / a_n along a geometric
    time schedule, for a_n = n or a_n = n^(1/lam) with lam in (0, 2)."""
    if a_rule not in ("linear", "power"):
        raise ValueError(f"unknown normalizer rule {a_rule!r}")
    if a_rule == "power" and not 0.0 < lam < 2.0:
        raise ValueError(f"power normalizer needs lam in (0, 2), got {lam}")

    # the linear rule is the power rule at lam = 1, bit for bit
    power = 1.0 if a_rule == "linear" else lam

    checkpoints = _geometric_checkpoints(n_max)
    snaps = _walk_snapshots(p, step_law, checkpoints, replicas, rng)

    def norm_of(nval):
        # ||S_n||_F = ||X_n||_F
        a = float(nval) ** (1.0 / power)
        mats = snaps[nval]
        return np.sqrt(np.einsum("nij,nij->n", mats, mats.conj()).real) / a

    ratios = {nval: norm_of(nval) for nval in checkpoints}
    medians = [float(np.median(ratios[nval])) for nval in checkpoints]
    maxima = [float(ratios[nval].max()) for nval in checkpoints]
    frac_below = float(np.mean(ratios[checkpoints[-1]] < ratios[checkpoints[0]]))

    # summability of a_n^{-2} tr E[Y^2]: the condition behind the strong law
    tr_ms = float(np.trace(step_law.mean_square(p)).real)
    exps = 2.0 / power
    partial = tr_ms * sum(1.0 / float(nval) ** exps for nval in range(1, n_max + 1))

    return {
        "experiment": "slln",
        "a_rule": a_rule,
        "lam": lam,
        "checkpoints": checkpoints,
        "replicas": replicas,
        "medians": medians,
        "maxima": maxima,
        "frac_final_below_first": frac_below,
        "condition_partial_sum": partial,
        "condition_summable": bool(exps > 1.0),
        "medians_decreasing": bool(
            all(medians[i + 1] < medians[i] for i in range(len(medians) - 1))
        ),
    }


def martingale_check(
    p: HypergroupParams,
    step_law,
    s,
    n: int,
    replicas: int,
    rng: np.random.Generator,
) -> dict:
    """Character and second-moment martingale identities along the walk.

    Checks E[phi_s(S_k)] = (step transform at s)^k at geometric times, and
    the entrywise identity E[S_n^2] = n E[Y^2] at the final time.
    """
    smat = np.asarray(s)
    mu_hat = step_law.fourier(p, smat)
    if mu_hat < 0.1:
        raise ValueError(
            f"step transform at s is {mu_hat:.4f} < 0.1; choose a smaller spectral parameter"
        )

    checkpoints = _geometric_checkpoints(n)
    snaps = _walk_snapshots(p, step_law, checkpoints, replicas, rng)

    rows = []
    for nval in checkpoints:
        (est,), (se,) = character_panel(p, [smat], gram(snaps[nval]))
        target = mu_hat ** nval
        # deterministic steps give se ~ 0; deviations at float noise are a pass
        floor = 1e-12 * max(1.0, abs(target))
        dev = abs(est - target) / max(se, floor)
        rows.append(
            {"n": nval, "estimate": est, "stderr": se, "target": target, "dev_sigma": dev}
        )

    sq = gram(snaps[checkpoints[-1]])
    target_sq = checkpoints[-1] * step_law.mean_square(p)
    diff = sq.mean(axis=0) - target_sq
    floor_mat = 1e-12 * np.maximum(1.0, np.abs(target_sq))
    mat_devs = []
    for part in (np.real, np.imag):  # over a real field the imaginary part gives 0 / floor
        se_mat = np.sqrt(part(sq).var(axis=0, ddof=1) / replicas)
        mat_devs.append(np.max(np.abs(part(diff)) / np.maximum(se_mat, floor_mat)))
    # np.max, not max(): a NaN deviation must not be dropped
    dev_mat = float(np.max(mat_devs))
    worst = float(np.max([row["dev_sigma"] for row in rows] + [dev_mat]))

    return {
        "experiment": "martingale",
        "mu_hat": mu_hat,
        "checkpoints": rows,
        "matrix_dev_sigma": dev_mat,
        "max_dev_sigma": worst,
        "replicas": replicas,
        "passed": bool(worst <= 3.0),
    }
