"""Cone automorphisms and their action on characters.

An invertible matrix a, passed as a plain array, acts on the cone by
r -> sqrt(a r^2 a*); these maps permute the characters by the adjoint
parameter swap (the map of a* = a.conj().T).
"""

from __future__ import annotations

import numpy as np

from .cone_core import HypergroupParams, psd_sqrt_batch
from .jack_series import character_phi_batch
from .ball_measure import EmpiricalMeasure


def automorphism_apply(a: np.ndarray, r) -> np.ndarray:
    """Image sqrt(a r^2 a*) of a cone point under the map of an invertible a."""
    return automorphism_apply_batch(a, np.asarray(r)[None])[0]


def automorphism_apply_batch(a: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Images sqrt(a r^2 a*) of an (n, q, q) stack of cone points under the
    map of a square a, which must be invertible: sigma_min > 1e-12 sigma_max."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    sv = np.linalg.svd(a, compute_uv=False)
    if not sv[-1] > 1e-12 * max(sv[0], 1e-300):
        raise ValueError("matrix is numerically singular; this map is not invertible")
    m = np.einsum("ij,njk,nkl,lm->nim", a, rs, rs, a.conj().T)
    return psd_sqrt_batch(0.5 * (m + np.swapaxes(m, -1, -2).conj()))


def fourier_empirical(p: HypergroupParams, measure: EmpiricalMeasure, s) -> tuple[float, float]:
    """Weighted character average over an empirical measure, with its
    weighted standard error."""
    vals = character_phi_batch(p, np.asarray(s), measure.points)
    w = measure.weights
    est = float(np.sum(w * vals))
    se = float(np.sqrt(np.sum((w * (vals - est)) ** 2)))
    return est, se
