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

from .cone_core import (
    HypergroupParams,
    check_matrix,
    gram,
    mats_first,
    psd_sqrt,
    psd_sqrt_batch,
    stack_empty,
    stack_zeros,
)
from .jack_series import bessel_series_eigs, congruence_eigs
from .ball_measure import tri_factor_batch, tri_gamma_batch


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
            ssq = np.asarray(self.scale_sq)
            if ssq.shape != (q, q):
                raise ValueError(f"scale_sq must be ({q}, {q}), got {ssq.shape}")
            check_matrix(ssq, cone=True)
            ssq = 0.5 * (ssq + ssq.conj().T)
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"time parameter must be finite and nonnegative, got {self.t}")
        object.__setattr__(self, "scale_sq", ssq)

    @property
    def covariance(self) -> np.ndarray:
        """Squared-scale matrix including the time factor, t * scale_sq."""
        return self.t * self.scale_sq

    @cached_property
    def scale(self) -> np.ndarray:
        """sqrt(covariance) = sqrt(t) sqrt(scale_sq), the right factor of every
        draw's square factor; taken once per law, not once per batch."""
        return math.sqrt(self.t) * psd_sqrt(self.scale_sq)


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
    X* X = a T T* a is the draw's square r^2.  The stack is stack-last."""
    p = spec.params
    q = p.q
    if not np.any(spec.covariance):
        return stack_zeros((n, q, q), p.dtype)
    t = tri_factor_batch(n, q, p.d, p.mu, rng)
    a = spec.scale
    x = stack_empty((n, q, q), np.result_type(t, a))
    np.einsum("ki...,kj->ij...", mats_first(t).conj(), a, out=mats_first(x))
    return x


def sample_scaled_batch(
    spec: WishartSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws of the scaled law, as cone points."""
    return psd_sqrt_batch(gram(sample_scaled_factor_batch(spec, n, rng)))


def fourier_closed(p: HypergroupParams, cov, s) -> float:
    """Hypergroup Fourier transform of the law with squared scale cov:
    exp(-(cov | s^2) / 2).  Valid for any positive semidefinite cov."""
    smat = np.asarray(s)
    covm = np.asarray(cov)
    return float(np.exp(-0.5 * float(np.real(np.sum(covm * (smat @ smat).conj())))))


def translated_density(p: HypergroupParams, x, s, y, target_tol: float = 1e-10) -> float | np.ndarray:
    """Density at y of (point mass at x) convolved with the scaled law of
    scale matrix s, with respect to the reference cone measure.

    Written through the whitened points xt = sqrt(s^(-1) x^2 s^(-1)) and
    yt likewise:  (2 pi)^(-q mu) det(s^2)^(-mu) exp(-(tr xt^2 + tr yt^2)/2)
    times the Bessel value at -(1/4) xt yt^2 xt, whose spectrum is the
    characters' own (``congruence_eigs`` with label xt).  y may be one point
    (a float is returned) or a stack (n, q, q) (an (n,) array is returned,
    with one series degree for the whole stack).
    """
    xmat, smat, ymat = np.asarray(x), np.asarray(s), np.asarray(y)
    for name, arr in (("x", xmat), ("s", smat)):
        if arr.shape != (p.q, p.q):
            raise ValueError(f"{name} must be ({p.q}, {p.q}), got shape {arr.shape}")
    if ymat.shape[-2:] != (p.q, p.q):
        raise ValueError(f"y must be (..., {p.q}, {p.q}), got shape {ymat.shape}")
    eigs = np.linalg.eigvalsh(smat)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1e-300):
        raise ValueError("translation density needs a regular scale matrix")
    si = np.linalg.inv(smat)
    xt2 = si @ xmat @ xmat @ si
    yt2 = si @ ymat @ ymat @ si
    xt2 = 0.5 * (xt2 + xt2.conj().T)
    yt2 = 0.5 * (yt2 + np.swapaxes(yt2, -1, -2).conj())
    (spectrum,) = congruence_eigs([psd_sqrt(xt2)], yt2)
    bes = bessel_series_eigs(-spectrum.reshape(-1, p.q), p.mu, p.d, target_tol)[0]
    sign, logdet_s = np.linalg.slogdet(smat)
    logf = (
        -p.q * p.mu * np.log(2.0 * np.pi)
        - 2.0 * p.mu * logdet_s
        - 0.5 * (np.trace(xt2).real + np.trace(yt2, axis1=-2, axis2=-1).real)
    )
    dens = np.exp(logf) * bes.reshape(ymat.shape[:-2])
    return float(dens) if ymat.ndim == 2 else dens
