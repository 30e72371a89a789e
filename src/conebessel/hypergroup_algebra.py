"""Cone automorphisms and their action on characters.

Invertible matrices act on the cone by r -> sqrt(a r^2 a*), and these maps
permute the characters by the adjoint parameter swap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone_core import HypergroupParams, as_matrix, psd_sqrt_batch
from .jack_series import character_phi_batch
from .ball_measure import EmpiricalMeasure


@dataclass(frozen=True)
class Automorphism:
    """Cone map r -> sqrt(a r^2 a*) for a square matrix a."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got {arr.shape}")
        object.__setattr__(self, "a", arr)

    @property
    def q(self) -> int:
        return self.a.shape[0]

    @property
    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.a, compute_uv=False)

    @property
    def invertible(self) -> bool:
        sv = self.singular_values
        return bool(sv[-1] > 1e-12 * max(sv[0], 1e-300))

    def require_invertible(self) -> None:
        if not self.invertible:
            raise ValueError("matrix is numerically singular; this map is not invertible")

    def adjoint(self) -> "Automorphism":
        return Automorphism(self.a.conj().T)


def automorphism_apply(t: Automorphism, r) -> np.ndarray:
    """Image sqrt(a r^2 a*) of a cone point under an invertible map."""
    return automorphism_apply_batch(t, as_matrix(r)[None])[0]


def automorphism_apply_batch(t: Automorphism, rs: np.ndarray) -> np.ndarray:
    """Images sqrt(a r^2 a*) of an (n, q, q) stack of cone points."""
    t.require_invertible()
    m = np.einsum("ij,njk,nkl,lm->nim", t.a, rs, rs, t.a.conj().T)
    return psd_sqrt_batch(0.5 * (m + np.swapaxes(m, -1, -2).conj()))


def fourier_empirical(p: HypergroupParams, measure: EmpiricalMeasure, s) -> tuple[float, float]:
    """Weighted character average over an empirical measure, with its
    weighted standard error."""
    vals = character_phi_batch(p, as_matrix(s), measure.points)
    w = measure.weights
    est = float(np.sum(w * vals))
    se = float(np.sqrt(np.sum((w * (vals - est)) ** 2)))
    return est, se
