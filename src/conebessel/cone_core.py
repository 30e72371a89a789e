"""Field-generic Hermitian matrix arithmetic on the positive semidefinite cone.

Everything downstream works with q x q Hermitian matrices over R (d=1) or
C (d=2).  This module owns the field layer (what d means for storage and
sampling: entry dtype, Gaussian entry law, real components), the index
bookkeeping (rho, alpha), the spectral primitives, the plain-text matrix
serialization used by the CLI and the two-sample mean comparison shared by
the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative eigenvalue tolerance below which near-cone matrices are clamped
PSD_CLAMP_REL = 1e-9


# ---------------------------------------------------------------------------
# the field layer: everything the real dimension d of the scalar field means
# for storage and sampling

# d -> (entry dtype, suffixes naming an entry's real components in storage order)
_FIELDS = {1: (np.float64, ("",)), 2: (np.complex128, ("_re", "_im"))}
FIELD_DIMS = tuple(_FIELDS)


def field_dtype(d: int):
    if d not in _FIELDS:
        raise ValueError(f"unsupported field dimension d={d}: need one of {FIELD_DIMS}")
    return _FIELDS[d][0]


def component_suffixes(d: int) -> tuple:
    return _FIELDS[d][1]


def field_of(a) -> int:
    """Field dimension d read off an array's dtype."""
    return 2 if np.iscomplexobj(a) else 1


def cone_rho(q: int, d: int) -> float:
    """Index rho = d (q - 1/2) + 1 of the cone of q x q matrices over the field."""
    return d * (q - 0.5) + 1.0


def to_components(a, d: int) -> np.ndarray:
    """Real components of field entries along a new trailing axis of length d
    (over the reals, the real part); signs of zero are kept."""
    c = np.ascontiguousarray(np.real(a) if field_of(a) > d else a, dtype=field_dtype(d))
    return c.view(np.float64).reshape(c.shape + (d,))


def from_components(c, d: int, axis: int = -1) -> np.ndarray:
    """Field entries from real components stored along ``axis`` (length d);
    the inverse of to_components, signs of zero included."""
    c = np.ascontiguousarray(np.moveaxis(c, axis, -1), dtype=np.float64)
    return c.view(field_dtype(d))[..., 0]


def gaussian_entries(rng: np.random.Generator, shape, d: int) -> np.ndarray:
    """Entries with independent standard normal real components; all real
    parts are drawn before all imaginary parts."""
    return from_components(rng.standard_normal((d, *shape)), d, axis=0)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class HypergroupParams:
    """Index data (q, d, mu) of the convolution structure on the cone.

    q is the matrix size, d the real dimension of the scalar field (1 for R,
    2 for C) and mu the continuous index, a finite number.  The convolution
    exists for mu > rho - 1; Wishart-type sampling alone is meaningful down
    to mu > (d/2)(q-1), which ``sampling_only=True`` admits.
    """

    q: int
    d: int
    mu: float
    sampling_only: bool = False

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 1:
            raise ValueError("q must be a positive integer")
        if self.d not in FIELD_DIMS:
            raise ValueError("field dimension d must be 1 (real) or 2 (complex)")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "mu", float(self.mu))
        bound = self.rho - 1.0 if not self.sampling_only else 0.5 * self.d * (self.q - 1)
        if not (math.isfinite(self.mu) and self.mu > bound):
            raise ValueError(
                f"mu={self.mu} out of range: need a finite mu > {bound}"
                + ("" if self.sampling_only else " (= rho - 1)")
            )

    @property
    def rho(self) -> float:
        return cone_rho(self.q, self.d)

    @property
    def alpha(self) -> float:
        return 2.0 / self.d

    @property
    def convolution_valid(self) -> bool:
        return self.mu > self.rho - 1.0

    @property
    def dtype(self):
        return field_dtype(self.d)

    def require_convolution(self) -> None:
        if not self.convolution_valid:
            raise ValueError(
                f"operation requires mu > rho - 1 = {self.rho - 1}, got mu = {self.mu}"
            )


# ---------------------------------------------------------------------------
# matrix wrappers


def _coerce_square(entries, d: int | None) -> tuple[np.ndarray, int]:
    """A copy of entries as a square matrix over the field d (read off the
    dtype when None), and that d."""
    a = np.asarray(getattr(entries, "array", entries))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    d = field_of(a) if d is None else d
    if field_of(a) > d and np.abs(a.imag).max() > 0:
        raise ValueError("real field (d=1) but matrix has imaginary entries")
    return from_components(to_components(a, d), d).copy(), d


class HermitianMatrix:
    """Hermitian q x q matrix; the input is symmetrized on entry."""

    __slots__ = ("array", "q", "d")

    def __init__(self, entries, d: int | None = None):
        a, self.d = _coerce_square(entries, d)
        herm_defect = np.abs(a - a.conj().T).max()
        if herm_defect > 1e-8 * (1.0 + np.abs(a).max()):
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        self.array = 0.5 * (a + a.conj().T)
        self.array.setflags(write=False)
        self.q = a.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(q={self.q}, d={self.d})"


class ConePoint:
    """Positive semidefinite Hermitian matrix (a point of the cone).

    Eigenvalues in (-tol, 0) with tol = PSD_CLAMP_REL * (1 + ||x||) are
    clamped to 0 and the matrix is rebuilt from the clamped spectrum;
    anything more negative raises.
    """

    __slots__ = ("array", "q", "d", "_eigs")

    def __init__(self, entries, d: int | None = None):
        h = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries, d)
        eigs, vecs = np.linalg.eigh(h.array)
        tol = PSD_CLAMP_REL * (1.0 + float(np.linalg.norm(h.array)))
        if eigs[0] < -tol:
            raise ValueError(f"matrix is not positive semidefinite (min eig {eigs[0]:.3e})")
        eigs = np.maximum(eigs, 0.0)
        self._eigs = eigs
        self.array = (vecs * eigs) @ vecs.conj().T
        self.array = 0.5 * (self.array + self.array.conj().T)
        self.array.setflags(write=False)
        self.q = h.q
        self.d = h.d

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigs

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.array))

    def __repr__(self):
        return f"ConePoint(q={self.q}, d={self.d}, norm={self.norm:.4g})"


def as_matrix(x) -> np.ndarray:
    """Unwrap a matrix wrapper (or pass an ndarray through)."""
    return np.asarray(getattr(x, "array", x))


# ---------------------------------------------------------------------------
# spectral primitives


# eigenvalues within this multiple of machine epsilon times the spectral
# scale are indistinguishable from zero; flooring them before a square root
# keeps true rank deficiency exact instead of smearing it to sqrt(eps)
_ZERO_FLOOR_EPS = 64.0 * np.finfo(np.float64).eps


def _floor_spectrum(eigs: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(eigs), axis=-1, keepdims=True)
    return np.where(eigs <= _ZERO_FLOOR_EPS * scale, 0.0, eigs)


def psd_sqrt(s) -> np.ndarray:
    """Unique positive semidefinite square root of a cone point."""
    a = as_matrix(s)
    eigs, vecs = np.linalg.eigh(a)
    tol = PSD_CLAMP_REL * (1.0 + float(np.linalg.norm(a)))
    if eigs[0] < -tol:
        raise ValueError(f"psd_sqrt: input not in the cone (min eig {eigs[0]:.3e})")
    root = (vecs * np.sqrt(_floor_spectrum(eigs))) @ vecs.conj().T
    return 0.5 * (root + root.conj().T)


def eigvalsh_2x2(a00, a11, b) -> np.ndarray:
    """Ascending eigenvalues, shape (..., 2), of the stack of 2x2 Hermitian
    matrices with real diagonals a00, a11 and off-diagonal entry b.

    Closed form: the root of larger magnitude is m + sign(m) hypot(h, |b|)
    with m = (a00 + a11)/2 and h = (a00 - a11)/2, which adds two numbers of
    one sign; the other is det / large, which avoids cancellation.  Both are
    0 where the larger is.  The error is a few eps ||A||_2 (absolute), as for
    LAPACK, with entries up to about 1e150 in magnitude.
    """
    babs = np.abs(b)
    m = 0.5 * (a00 + a11)
    large = m + np.copysign(np.hypot(0.5 * (a00 - a11), babs), m)
    det = a00 * a11 - babs * babs
    other = np.divide(det, large, out=np.zeros_like(large), where=large != 0.0)
    eigs = np.empty(large.shape + (2,))
    np.minimum(other, large, out=eigs[..., 0])
    np.maximum(other, large, out=eigs[..., 1])
    return eigs


def psd_sqrt_batch(mats: np.ndarray) -> np.ndarray:
    """Batched PSD square root of an (..., q, q) stack of Hermitian matrices.

    Eigenvalues below -PSD_CLAMP_REL * (1 + q max|a_ij|) raise; eigenvalues
    at the eigensolver's noise floor are taken as exact zeros.  The lower
    triangle is read, as LAPACK's eigh reads it.  At q <= 2 there is no
    eigensolver: q = 1 is the diagonal, and at q = 2 the spectrum comes from
    ``eigvalsh_2x2`` and the root is R = (A + sqrt(l1 l2) I) / (sqrt(l1) +
    sqrt(l2)), with R = 0 where the denominator is 0 (A = 0).
    """
    q = mats.shape[-1]
    if q > 2:
        eigs, vecs = np.linalg.eigh(mats)
    elif q == 2:
        a00, a11, a10 = mats[..., 0, 0].real, mats[..., 1, 1].real, mats[..., 1, 0]
        eigs = eigvalsh_2x2(a00, a11, a10)
    else:
        eigs = mats[..., 0].real
    tol = PSD_CLAMP_REL * (1.0 + float(np.abs(mats).max(initial=0.0)) * q)
    if eigs.size and eigs.min() < -tol:
        raise ValueError(f"psd_sqrt_batch: indefinite input (min eig {eigs.min():.3e})")
    root = np.sqrt(_floor_spectrum(eigs))
    if q > 2:
        out = np.einsum("...ij,...j,...kj->...ik", vecs, root, vecs.conj())
        return 0.5 * (out + np.swapaxes(out, -1, -2).conj())
    out = np.zeros_like(mats)
    if q == 1:
        out[..., 0, 0] = root[..., 0]
        return out
    geo = root[..., 0] * root[..., 1]
    den = root[..., 0] + root[..., 1]

    def over_den(num):
        return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)

    out[..., 0, 0] = over_den(a00 + geo)
    out[..., 1, 1] = over_den(a11 + geo)
    out[..., 1, 0] = over_den(a10)
    out[..., 0, 1] = out[..., 1, 0].conj()
    return out


def gram(f: np.ndarray) -> np.ndarray:
    """F* F for a stack of (..., m, q) factors: the square z^2 of the cone
    point that F is a factor of."""
    return np.swapaxes(f, -1, -2).conj() @ f


# Gram-Schmidt kernels: vectorised over the stack, looping only over q.  For
# the 2x2-3x3 matrices the samplers produce, the cost of a batched LAPACK call
# is its per-matrix overhead, not its arithmetic.


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """sum_k |a_k|^2 along the last axis."""
    if np.iscomplexobj(a):
        return np.einsum("...k,...k->...", a.real, a.real) + np.einsum(
            "...k,...k->...", a.imag, a.imag
        )
    return np.einsum("...k,...k->...", a, a)


def orthonormal_rows(m: np.ndarray) -> np.ndarray:
    """Overwrite each (q, k) matrix M of the stack m (full row rank, q <= k)
    with Q = L^-1 M, where L is the lower Cholesky factor of M M*; return m.

    Modified Gram-Schmidt on the rows: M = L Q with Q Q* = I to O(kappa eps),
    against O(kappa^2 eps) through the Cholesky factor of the Gram matrix.
    Every step is a pass over the rows m[..., i, :], which are contiguous
    when m is a view of a (q, ..., k) buffer.
    """
    rows = [m[..., i, :] for i in range(m.shape[-2])]
    for i, a in enumerate(rows):
        a /= np.sqrt(_sq_norms(a))[..., None]
        ac = a.conj()
        for b in rows[i + 1:]:
            b -= np.einsum("...k,...k->...", b, ac)[..., None] * a
    return m


def r_factor(f: np.ndarray) -> np.ndarray:
    """Upper triangular R with nonnegative real diagonal and R* R = F* F for
    each (m, q) matrix F of the stack f; f is left unchanged.

    Modified Gram-Schmidt on the columns, whose R factor is backward stable
    (Bjorck 1967, BIT 7).  A column that is zero after projection gives a
    zero row of R, so singular F take the same path as regular ones.
    """
    q = f.shape[-1]
    cols = np.moveaxis(f, -1, 0).copy()  # (q, ..., m): each column contiguous
    r = np.zeros(f.shape[:-2] + (q, q), dtype=f.dtype)
    for j, a in enumerate(cols):
        norm = np.sqrt(_sq_norms(a))
        r[..., j, j] = norm
        a *= np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)[..., None]
        ac = a.conj()
        for k in range(j + 1, q):
            c = np.einsum("...k,...k->...", cols[k], ac)
            r[..., j, k] = c
            cols[k] -= c[..., None] * a
    return r


def inner(x, y) -> float:
    """Real trace form Re tr(x y*) on matrices."""
    a, b = as_matrix(x), as_matrix(y)
    return float(np.real(np.sum(a * b.conj())))


def frob_norm(x) -> float:
    return float(np.linalg.norm(as_matrix(x)))


def two_sample(va: np.ndarray, vb: np.ndarray) -> tuple[float, float]:
    """Difference of the means of two independent samples and its standard
    error sqrt(var_a/n_a + var_b/n_b), with unbiased variances."""
    diff = float(va.mean() - vb.mean())
    return diff, math.sqrt(va.var(ddof=1) / len(va) + vb.var(ddof=1) / len(vb))


# ---------------------------------------------------------------------------
# random test matrices (plumbing shared by the CLI suite and tests)


def random_psd(
    p: HypergroupParams,
    rng: np.random.Generator,
    norm: float | None = None,
    rank: int | None = None,
) -> np.ndarray:
    """Random PSD matrix, optionally rescaled to a target Frobenius norm / rank."""
    k = p.q if rank is None else rank
    a = gaussian_entries(rng, (p.q, k), p.d)
    m = a @ a.conj().T
    if norm is not None:
        cur = np.linalg.norm(m)
        if cur > 0:
            m = m * (norm / cur)
    return m


# ---------------------------------------------------------------------------
# plain-text serialization


def write_matrix_text(path, x, d: int | None = None) -> None:
    """Write a matrix as: header line "q d", then q*q lines of d components."""
    a = as_matrix(x)
    d = field_of(a) if d is None else d
    rows = to_components(a, d).reshape(-1, d).tolist()
    lines = [f"{a.shape[0]} {d}"] + [" ".join(map(repr, row)) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_text(path) -> tuple[np.ndarray, int]:
    """Read the text format of write_matrix_text; returns (matrix, d)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: truncated matrix file")
    q, d = int(tokens[0]), int(tokens[1])
    if d not in FIELD_DIMS:
        raise ValueError(f"{path}: unsupported field dimension d={d}")
    vals = [float(t) for t in tokens[2:]]
    if len(vals) != q * q * d:
        raise ValueError(f"{path}: expected {q * q * d} components, found {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return from_components(np.reshape(vals, (q, q, d)), d), d
