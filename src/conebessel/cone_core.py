"""Field-generic Hermitian matrix arithmetic on the positive semidefinite cone.

Everything downstream works with q x q Hermitian matrices over R (d=1) or
C (d=2), held as plain arrays.  This module owns the field layer (what d
means for storage and sampling: entry dtype, Gaussian entry law, real
components), the index bookkeeping (rho, alpha), the spectral primitives,
the plain-text matrix serialization used by the CLI with the Hermitian and
cone check its matrix files pass, and the two-sample mean comparison shared
by the checks.
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
    (over the reals, the real part, which must be all there is); signs of
    zero are kept."""
    if field_of(a) > d and np.any(np.imag(a)):
        raise ValueError(f"d={d} is a real field, but the matrix has nonzero imaginary parts")
    c = np.ascontiguousarray(np.real(a) if field_of(a) > d else a, dtype=field_dtype(d))
    return c.view(np.float64).reshape(c.shape + (d,))


def from_components(c, d: int) -> np.ndarray:
    """Field entries from real components stored along the last axis (length
    d); the inverse of to_components, signs of zero included."""
    c = np.ascontiguousarray(c, dtype=np.float64)
    return c.view(field_dtype(d))[..., 0]


def gaussian_entries(rng: np.random.Generator, shape, d: int, out=None) -> np.ndarray:
    """Entries with independent standard normal real components; all real
    parts are drawn before all imaginary parts, each in C order of shape.
    They fill out (of any layout) if it is given, else a new C-contiguous
    array."""
    g = rng.standard_normal((d, *shape))
    if out is None:
        if d == 1:
            return g[0]
        out = np.empty(shape, dtype=field_dtype(d))
    out.real = g[0]
    if d == 2:
        out.imag = g[1]
    return out


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
    def dtype(self):
        return field_dtype(self.d)

    def require_convolution(self) -> None:
        if not self.mu > self.rho - 1.0:
            raise ValueError(
                f"operation requires mu > rho - 1 = {self.rho - 1}, got mu = {self.mu}"
            )


# ---------------------------------------------------------------------------
# the matrix-file check


def check_matrix(a: np.ndarray, cone: bool) -> None:
    """Raise ValueError unless the square matrix a is Hermitian and, when
    cone is set, its Hermitian part h has no eigenvalue below
    -PSD_CLAMP_REL * (1 + ||h||_F)."""
    herm_defect = np.abs(a - a.conj().T).max()
    if herm_defect > 1e-8 * (1.0 + np.abs(a).max()):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    if cone:
        h = 0.5 * (a + a.conj().T)
        min_eig = np.linalg.eigh(h)[0][0]
        if min_eig < -PSD_CLAMP_REL * (1.0 + float(np.linalg.norm(h))):
            raise ValueError(f"matrix is not positive semidefinite (min eig {min_eig:.3e})")


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
    """Unique positive semidefinite square root of a cone point: the stack of
    one of ``psd_sqrt_batch``."""
    return psd_sqrt_batch(np.asarray(s)[None])[0]


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


def eigvalsh_batch(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shape (..., q), of an (..., q, q) stack of
    Hermitian matrices, from the lower triangle: the entry at q = 1,
    ``eigvalsh_2x2`` at q = 2 and LAPACK's eigvalsh at q >= 3."""
    q = mats.shape[-1]
    if q == 1:
        return mats[..., 0].real
    if q == 2:
        return eigvalsh_2x2(mats[..., 0, 0].real, mats[..., 1, 1].real, mats[..., 1, 0])
    return np.linalg.eigvalsh(mats)


def psd_sqrt_batch(mats: np.ndarray) -> np.ndarray:
    """Batched PSD square root of an (..., q, q) stack of Hermitian matrices.

    Each matrix A is judged by its own scale: an eigenvalue below
    -PSD_CLAMP_REL * (1 + q ||A||_2) raises.  Eigenvalues at the
    eigensolver's noise floor are taken as exact zeros.  The lower triangle
    is read, as LAPACK's eigh reads it.  At q <= 2 there is no eigensolver:
    the spectrum comes from ``eigvalsh_batch``, and at q = 2 the root is
    R = (A + sqrt(l1 l2) I) / (sqrt(l1) + sqrt(l2)), with R = 0 where the
    denominator is 0 (A = 0).
    """
    mats = np.asarray(mats, dtype=np.result_type(mats, 1.0))  # integer entries have float roots
    q = mats.shape[-1]
    if q > 2:
        eigs, vecs = np.linalg.eigh(mats)
    else:
        eigs = eigvalsh_batch(mats)
    low = eigs[..., 0]
    # the rule's threshold is below -PSD_CLAMP_REL: only a negative eigenvalue can fail it
    if (low < 0.0).any():
        bad = low < -PSD_CLAMP_REL * (1.0 + q * np.maximum(eigs[..., -1], -low))
        if bad.any():
            raise ValueError(f"psd_sqrt_batch: indefinite input (min eig {low[bad].min():.3e})")
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

    out[..., 0, 0] = over_den(mats[..., 0, 0].real + geo)
    out[..., 1, 1] = over_den(mats[..., 1, 1].real + geo)
    out[..., 1, 0] = over_den(mats[..., 1, 0])
    out[..., 0, 1] = out[..., 1, 0].conj()
    return out


# Stack kernels.  The samplers, the convolution factor and the walk hold
# their (n, m, k) stacks of small matrices stack-last: the memory order is
# (k, m, n), so that entry (i, j) of every matrix is one contiguous length-n
# vector, while callers index the usual batch-first (n, m, k) view (a
# Fortran-ordered array: ``stack_empty``, ``stack_zeros``).  The kernels
# work on the entry-first view (m, k, n) of ``mats_first``: they loop over
# the few rows or columns, and each operation is an elementwise pass or a
# stack-last einsum over a handful of contiguous length-n vectors.  For the
# 2x2-3x3 matrices the samplers produce, this costs a fraction of numpy's
# stacked ``@`` or of a short-axis einsum on batch-first arrays, whose time
# is per-matrix overhead, not arithmetic.  The kernels accept stacks of any
# layout (a broadcast step, a batch-first array); only their speed depends
# on it.


def stack_empty(shape, dtype) -> np.ndarray:
    """Uninitialised (..., m, k) stack, stored stack-last."""
    return np.empty(shape, dtype=dtype, order="F")


def stack_zeros(shape, dtype) -> np.ndarray:
    """(..., m, k) stack of zeros, stored stack-last."""
    return np.zeros(shape, dtype=dtype, order="F")


def mats_first(a: np.ndarray) -> np.ndarray:
    """The (m, k, ...) view of an (..., m, k) stack: entry (i, j) of every
    matrix is a[i, j]."""
    nd = a.ndim
    return a.transpose((nd - 2, nd - 1) + tuple(range(nd - 2)))


def sq_norms(a: np.ndarray, lead: int = 1) -> np.ndarray:
    """sum |a|^2 over the first lead axes of a, as a real array."""
    sub = "ij"[:lead] + "..."
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    total = np.einsum(f"{sub},{sub}->...", parts[0], parts[0])
    for w in parts[1:]:
        total += np.einsum(f"{sub},{sub}->...", w, w)
    return total


def gram(f: np.ndarray) -> np.ndarray:
    """F* F for a stack of (..., m, q) factors: the square z^2 of the cone
    point that F is a factor of; stack-last."""
    q = f.shape[-1]
    out = stack_empty(f.shape[:-2] + (q, q), f.dtype)
    f1 = mats_first(f)
    np.einsum("ki...,kj...->ij...", f1.conj(), f1, out=mats_first(out))
    return out


def orthonormal_rows(m: np.ndarray) -> np.ndarray:
    """Overwrite each (q, k) matrix M of the stack m (full row rank, q <= k)
    with Q = L^-1 M, where L is the lower Cholesky factor of M M*; return m.

    Modified Gram-Schmidt on the rows: M = L Q with Q Q* = I to O(kappa eps),
    against O(kappa^2 eps) through the Cholesky factor of the Gram matrix.
    """
    rows = mats_first(m)
    for i, a in enumerate(rows):
        a /= np.sqrt(sq_norms(a))
        rest = rows[i + 1:]
        if len(rest):
            c = np.einsum("rk...,k...->r...", rest, a.conj())
            rest -= c[:, None] * a
    return m


def r_factor(f: np.ndarray) -> np.ndarray:
    """Upper triangular R with nonnegative real diagonal and R* R = F* F for
    each (m, q) matrix F of the stack f; f is left unchanged, and R is
    stack-last.

    Modified Gram-Schmidt on the columns, whose R factor is backward stable
    (Bjorck 1967, BIT 7).  A column that is zero after projection gives a
    zero row of R, so singular F take the same path as regular ones.
    """
    q = f.shape[-1]
    cols = mats_first(f.copy(order="F")).swapaxes(0, 1)  # (q, m, ...)
    r = stack_zeros(f.shape[:-2] + (q, q), f.dtype)
    r1 = mats_first(r)
    for j, a in enumerate(cols):
        norm = np.sqrt(sq_norms(a))
        r1[j, j] = norm
        if j + 1 == q:  # nothing left to project out
            break
        a *= np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)
        rest = cols[j + 1:]
        c = np.einsum("rk...,k...->r...", rest, a.conj(), out=r1[j, j + 1:])
        rest -= c[:, None] * a
    return r


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
    a = np.asarray(x)
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
    try:
        q, d = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ValueError(f"{path}: header must be two integers 'q d', got {tokens[0]} {tokens[1]}") from None
    if q < 1:
        raise ValueError(f"{path}: matrix size q={q} must be at least 1")
    if d not in FIELD_DIMS:
        raise ValueError(f"{path}: unsupported field dimension d={d}")
    try:
        vals = [float(t) for t in tokens[2:]]
    except ValueError as exc:
        raise ValueError(f"{path}: matrix entries must be numbers ({exc})") from None
    if len(vals) != q * q * d:
        raise ValueError(f"{path}: expected {q * q * d} components, found {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return from_components(np.reshape(vals, (q, q, d)), d), d
