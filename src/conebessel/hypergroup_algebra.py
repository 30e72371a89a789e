"""Structure maps of the cone hypergroup.

Invertible matrices act on the cone by r -> sqrt(a r^2 a*), and these maps
permute the characters by the adjoint parameter swap.  Non-invertible a of
rank k give proper maps onto a rank-k copy of the cone whose kernel is a
sub-hypergroup carried by a unitary change of frame; quotients by such
kernels are again cone hypergroups of smaller size.  In the complex case the
entrywise conjugation is an extra involutive automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone_core import HypergroupParams, as_matrix, psd_sqrt, psd_sqrt_batch, random_psd, two_sample
from .jack_series import character_from_squares, character_phi_batch
from .ball_measure import EmpiricalMeasure, conv_square_batch


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


@dataclass(frozen=True)
class Subhypergroup:
    """Rank-k cone copy sitting inside the big cone in the frame u.

    Elements are u @ blockdiag(r_small, 0) @ u* for r_small in the k-cone.
    """

    k: int
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"frame must be square, got {u.shape}")
        q = u.shape[0]
        if not 0 <= self.k <= q:
            raise ValueError(f"need 0 <= k <= {q}, got {self.k}")
        defect = np.linalg.norm(u.conj().T @ u - np.eye(q))
        if defect > 1e-12 * q:
            raise ValueError(f"frame is not unitary (defect {defect:.2e})")
        object.__setattr__(self, "u", u)

    @property
    def q(self) -> int:
        return self.u.shape[0]


def automorphism_apply(t: Automorphism, r) -> np.ndarray:
    """Image sqrt(a r^2 a*) of a cone point under an invertible map."""
    t.require_invertible()
    return project_quotient(t, r)


def automorphism_apply_batch(t: Automorphism, rs: np.ndarray) -> np.ndarray:
    t.require_invertible()
    return _proper_map_batch(t.a, rs)


def _proper_map_batch(a: np.ndarray, rs: np.ndarray) -> np.ndarray:
    m = np.einsum("ij,njk,nkl,lm->nim", a, rs, rs, a.conj().T)
    m = 0.5 * (m + np.swapaxes(m, -1, -2).conj())
    return psd_sqrt_batch(m)


def fourier_empirical(p: HypergroupParams, measure: EmpiricalMeasure, s) -> tuple[float, float]:
    """Weighted character average over an empirical measure, with its
    weighted standard error."""
    vals = character_phi_batch(p, as_matrix(s), measure.points)
    w = measure.weights
    est = float(np.sum(w * vals))
    se = float(np.sqrt(np.sum((w * (vals - est)) ** 2)))
    return est, se


def embed_sub(h: Subhypergroup, r_small) -> np.ndarray:
    """Lift a k-cone point into the big cone through the frame of h."""
    small = as_matrix(r_small)
    if small.shape != (h.k, h.k):
        raise ValueError(f"expected a ({h.k}, {h.k}) matrix, got {small.shape}")
    q = h.q
    big = np.zeros((q, q), dtype=np.result_type(h.u.dtype, small.dtype))
    big[: h.k, : h.k] = small
    out = h.u @ big @ h.u.conj().T
    return 0.5 * (out + out.conj().T)


def quotient_kernel(t: Automorphism) -> Subhypergroup:
    """Sub-hypergroup annihilated by a proper (rank-deficient) map.

    The frame lists an orthonormal basis of the null space of a first, so the
    kernel consists of the embeddings of the (q - rank) cone through it.
    """
    a = t.a
    _, sv, vh = np.linalg.svd(a)
    rank = int(np.sum(sv > 1e-10 * max(sv[0], 1e-300)))
    v = vh.conj().T
    frame = np.concatenate([v[:, rank:], v[:, :rank]], axis=1)
    return Subhypergroup(k=a.shape[0] - rank, u=frame)


def project_quotient(t: Automorphism, r) -> np.ndarray:
    """Image of a cone point under a proper map (rank deficiency allowed)."""
    rmat = as_matrix(r)
    m = t.a @ rmat @ rmat @ t.a.conj().T
    return psd_sqrt(0.5 * (m + m.conj().T))


def transpose_automorphism_check(
    p: HypergroupParams,
    x,
    y,
    n_samples: int,
    rng: np.random.Generator,
) -> dict:
    """Two-sample comparison of conj(x * y) against conj(x) * conj(y).

    Entrywise conjugation is an automorphism only in the complex case, so
    p.d must be 2.  Compares trace, squared trace, determinant, and two
    character values across independent convolution samples; reports each
    deviation in combined standard-error units.
    """
    if p.d != 2:
        raise ValueError("entrywise conjugation is only an automorphism for d = 2")
    xmat = as_matrix(x)
    ymat = as_matrix(y)
    za2 = conv_square_batch(p, xmat, ymat, n_samples, rng).conj()
    zb2 = conv_square_batch(p, xmat.conj(), ymat.conj(), n_samples, rng)

    s_scale = 0.8 / max(1.0, float(np.linalg.norm(xmat) + np.linalg.norm(ymat)))
    s1 = s_scale * np.eye(p.q)
    h = random_psd(p, np.random.default_rng(12061))
    s2 = s_scale * h / np.linalg.norm(h, 2)

    def stats(z2):
        # only the trace and the determinant read the draw z itself
        z = psd_sqrt_batch(z2)
        tr = np.trace(z, axis1=-2, axis2=-1).real
        tr2 = np.trace(z2, axis1=-2, axis2=-1).real
        det = np.linalg.det(z).real
        p1 = character_from_squares(p, s1, z2, 1e-10)[0]
        p2 = character_from_squares(p, s2, z2, 1e-10)[0]
        return {"trace": tr, "trace_sq": tr2, "det": det, "phi_1": p1, "phi_2": p2}

    sa = stats(za2)
    sb = stats(zb2)
    report = {"n_samples": n_samples, "stats": {}}
    worst = 0.0
    for name in sa:
        diff, se = two_sample(sa[name], sb[name])
        dev = abs(diff) / max(se, 1e-300)
        worst = max(worst, dev)
        report["stats"][name] = {"diff": diff, "stderr": se, "dev_sigma": dev}
    report["max_dev_sigma"] = worst
    report["passed"] = bool(worst <= 3.0)
    return report
