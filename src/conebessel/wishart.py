"""Square-root Wishart laws on the cone.

The standard law W is the distribution of sqrt(G) for G a cone Gamma variate
with density proportional to exp(-tr(g)/2) det(g)^(mu - n/q) in the flat
cone coordinates; scaled versions are its images under r -> sqrt(a r^2 a*).
These laws form a convolution semigroup: the hypergroup convolution of two of
them with squared scales b^2 and a^2 is the one with squared scale a^2 + b^2,
which is what makes them the Gaussians of this structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cone_core import HypergroupParams, as_matrix, gram, inner, psd_sqrt, psd_sqrt_batch, random_psd
from .jack_series import bessel_from_eigs, character_panel
from .ball_measure import conv_factor_batch, tri_factor_batch, tri_gamma_batch


@dataclass(frozen=True)
class WishartSpec:
    """Scaled square-root Wishart law: image of the standard one under
    r -> sqrt(t) * sqrt(a r^2 a) with a = sqrt(scale_sq)."""

    params: HypergroupParams
    scale_sq: np.ndarray = field(default=None)
    t: float = 1.0

    def __post_init__(self):
        q = self.params.q
        if self.scale_sq is None:
            ssq = np.eye(q, dtype=self.params.dtype)
        else:
            ssq = np.asarray(as_matrix(self.scale_sq))
            if ssq.shape != (q, q):
                raise ValueError(f"scale_sq must be ({q}, {q}), got {ssq.shape}")
            ssq = 0.5 * (ssq + ssq.conj().T)
            if np.linalg.eigvalsh(ssq)[0] < -1e-10 * max(1.0, np.linalg.norm(ssq)):
                raise ValueError("scale_sq must be positive semidefinite")
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"time parameter must be finite and nonnegative, got {self.t}")
        object.__setattr__(self, "scale_sq", ssq)

    @property
    def covariance(self) -> np.ndarray:
        """Squared-scale matrix including the time factor, t * scale_sq."""
        return self.t * self.scale_sq

    @cached_property
    def scale(self) -> np.ndarray:
        """sqrt(covariance), the right factor of every draw's square factor;
        taken once per law, not once per batch."""
        return psd_sqrt(self.covariance)

    @property
    def regular(self) -> bool:
        cov = self.covariance
        eigs = np.linalg.eigvalsh(cov)
        return bool(eigs[0] > 1e-12 * max(eigs[-1], 1e-300))


def sample_standard_batch(
    p: HypergroupParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws of the standard law via the triangular gamma construction.

    Valid on the full sampling range mu > (d/2)(q - 1)."""
    g = tri_gamma_batch(n, p.q, p.d, p.mu, rng)
    return psd_sqrt_batch(g)


def sample_scaled_factor_batch(
    spec: WishartSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n square factors X = T* a of draws r from the scaled law, with
    a = spec.scale and T from the triangular construction:
    X* X = a T T* a is the draw's square r^2."""
    p = spec.params
    if not np.any(spec.covariance):
        return np.zeros((n, p.q, p.q), dtype=p.dtype)
    t = tri_factor_batch(n, p.q, p.d, p.mu, rng)
    return np.swapaxes(t, -1, -2).conj() @ spec.scale


def sample_scaled_batch(
    spec: WishartSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws of the scaled law, as cone points."""
    return psd_sqrt_batch(gram(sample_scaled_factor_batch(spec, n, rng)))


def density(spec: WishartSpec, r) -> float:
    """Density of the scaled law with respect to the reference cone measure.

    Requires a regular (invertible) covariance; the value at r is
    (2 pi)^(-q mu) det(cov)^(-mu) exp(-tr(r^2 cov^(-1)) / 2).
    """
    p = spec.params
    if not spec.regular:
        raise ValueError("density needs a regular covariance (t > 0 and invertible scale)")
    cov = spec.covariance
    rmat = as_matrix(r)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance determinant must be positive")
    quad = float(np.trace(np.linalg.solve(cov, rmat @ rmat)).real)
    logf = -p.q * p.mu * np.log(2.0 * np.pi) - p.mu * logdet - 0.5 * quad
    return float(np.exp(logf))


def fourier_closed(p: HypergroupParams, cov, s) -> float:
    """Hypergroup Fourier transform of the law with squared scale cov:
    exp(-(cov | s^2) / 2).  Valid for any positive semidefinite cov."""
    smat = as_matrix(s)
    covm = as_matrix(cov)
    return float(np.exp(-0.5 * inner(covm, smat @ smat)))


def translated_density(p: HypergroupParams, x, s, y, target_tol: float = 1e-10) -> float:
    """Density at y of (point mass at x) convolved with the scaled law of
    scale matrix s, with respect to the reference cone measure.

    Written through the whitened points xt = sqrt(s^(-1) x^2 s^(-1)) and
    yt likewise:  (2 pi)^(-q mu) det(s^2)^(-mu) exp(-(tr xt^2 + tr yt^2)/2)
    times the Bessel value at -(1/4) xt^2 yt^2.
    """
    smat = as_matrix(s)
    eigs = np.linalg.eigvalsh(smat)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
        raise ValueError("translation density needs a regular scale matrix")
    si = np.linalg.inv(smat)
    xmat = as_matrix(x)
    ymat = as_matrix(y)
    xt2 = si @ xmat @ xmat @ si
    yt2 = si @ ymat @ ymat @ si
    xt2 = 0.5 * (xt2 + xt2.conj().T)
    yt2 = 0.5 * (yt2 + yt2.conj().T)
    xt = psd_sqrt(xt2)
    arg = xt @ yt2 @ xt
    bessel_eigs = -0.25 * np.linalg.eigvalsh(0.5 * (arg + arg.conj().T))
    bes = bessel_from_eigs(bessel_eigs, p.mu, p.d, target_tol=target_tol)
    sign, logdet_s = np.linalg.slogdet(smat)
    logf = (
        -p.q * p.mu * np.log(2.0 * np.pi)
        - 2.0 * p.mu * logdet_s
        - 0.5 * float(np.trace(xt2).real + np.trace(yt2).real)
    )
    return float(np.exp(logf) * bes.value)


def semigroup_check(
    p: HypergroupParams,
    a_sq,
    b_sq,
    n_samples: int,
    rng: np.random.Generator,
) -> dict:
    """Sample X with squared scale a_sq, Y with b_sq, convolve pathwise, and
    compare the empirical Fourier transform against the closed form for
    squared scale a_sq + b_sq on eight spectral parameters: six multiples of
    the identity and two fixed random directions."""
    a_mat = as_matrix(a_sq)
    b_mat = as_matrix(b_sq)
    xs = sample_scaled_factor_batch(WishartSpec(p, a_mat), n_samples, rng)
    ys = sample_scaled_factor_batch(WishartSpec(p, b_mat), n_samples, rng)
    v_scale = 1.0 / np.sqrt(max(np.linalg.norm(a_mat + b_mat, 2), 1e-12))

    grid = [c * v_scale * np.eye(p.q) for c in np.linspace(0.25, 1.1, 6)]
    rng_dir = np.random.default_rng(417)
    for _ in range(2):
        h = random_psd(p, rng_dir)
        grid.append(v_scale * h / np.linalg.norm(h, 2))

    z2 = gram(conv_factor_batch(p, xs, ys, rng))
    target_cov = a_mat + b_mat
    rows = []
    worst = 0.0
    for smat, est, se in zip(grid, *character_panel(p, grid, z2)):
        tgt = fourier_closed(p, target_cov, smat)
        dev = abs(est - tgt) / max(se, 1e-300)
        worst = max(worst, dev)
        rows.append(
            {
                "s_norm": float(np.linalg.norm(smat, 2)),
                "estimate": est,
                "stderr": se,
                "target": tgt,
                "dev_sigma": dev,
            }
        )
    return {
        "n_samples": n_samples,
        "grid": rows,
        "max_dev_sigma": worst,
        "passed": bool(worst <= 3.0),
    }
