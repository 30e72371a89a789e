"""Field-generic Hermitian matrix arithmetic on the positive semidefinite cone.

Everything downstream works with q x q Hermitian matrices over R (d=1) or
C (d=2).  This module owns the index bookkeeping (rho, n, gamma, alpha), the
spectral primitives, the cone order, the minor power functions and the two
special constants (generalized Pochhammer symbol, cone gamma factor), plus the
plain-text matrix serialization used by the CLI and the two-sample mean
comparison shared by the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# relative eigenvalue tolerance below which near-cone matrices are clamped
PSD_CLAMP_REL = 1e-9


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class HypergroupParams:
    """Index data (q, d, mu) of the convolution structure on the cone.

    q is the matrix size, d the real dimension of the scalar field (1 for R,
    2 for C) and mu the continuous index.  The convolution exists for
    mu > rho - 1; Wishart-type sampling alone is meaningful down to
    mu > (d/2)(q-1), which ``sampling_only=True`` admits.
    """

    q: int
    d: int
    mu: float
    sampling_only: bool = False

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 1:
            raise ValueError("q must be a positive integer")
        if self.d not in (1, 2):
            raise ValueError("field dimension d must be 1 (real) or 2 (complex)")
        object.__setattr__(self, "q", int(self.q))
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "mu", float(self.mu))
        bound = self.rho - 1.0 if not self.sampling_only else 0.5 * self.d * (self.q - 1)
        if not self.mu > bound:
            raise ValueError(
                f"mu={self.mu} out of range: need mu > {bound}"
                + ("" if self.sampling_only else " (= rho - 1)")
            )

    @property
    def rho(self) -> float:
        return self.d * (self.q - 0.5) + 1.0

    @property
    def n(self) -> float:
        # real dimension of the space of Hermitian q x q matrices
        return self.q + 0.5 * self.d * self.q * (self.q - 1)

    @property
    def gamma(self) -> float:
        return self.mu - self.n / self.q

    @property
    def alpha(self) -> float:
        return 2.0 / self.d

    @property
    def convolution_valid(self) -> bool:
        return self.mu > self.rho - 1.0

    @property
    def dtype(self):
        return np.float64 if self.d == 1 else np.complex128

    def require_convolution(self) -> None:
        if not self.convolution_valid:
            raise ValueError(
                f"operation requires mu > rho - 1 = {self.rho - 1}, got mu = {self.mu}"
            )


# ---------------------------------------------------------------------------
# matrix wrappers


def _coerce_square(entries, d: int | None) -> np.ndarray:
    a = np.asarray(getattr(entries, "array", entries))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if d == 1:
        if np.iscomplexobj(a) and np.abs(a.imag).max() > 0:
            raise ValueError("real field (d=1) but matrix has imaginary entries")
        return a.real.astype(np.float64)
    if d == 2:
        return a.astype(np.complex128)
    # infer field from dtype
    return a.astype(np.complex128) if np.iscomplexobj(a) else a.astype(np.float64)


class SquareMatrix:
    """General q x q matrix over the field; no symmetry constraint."""

    __slots__ = ("array", "q", "d")

    def __init__(self, entries, d: int | None = None):
        self.array = _coerce_square(entries, d)
        self.q = self.array.shape[0]
        self.d = d if d is not None else (2 if np.iscomplexobj(self.array) else 1)
        self.array.setflags(write=False)

    def __repr__(self):
        return f"SquareMatrix(q={self.q}, d={self.d})"


class HermitianMatrix:
    """Hermitian q x q matrix; the input is symmetrized on entry."""

    __slots__ = ("array", "q", "d")

    def __init__(self, entries, d: int | None = None):
        a = _coerce_square(entries, d)
        herm_defect = np.abs(a - a.conj().T).max()
        if herm_defect > 1e-8 * (1.0 + np.abs(a).max()):
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        self.array = 0.5 * (a + a.conj().T)
        self.array.setflags(write=False)
        self.q = a.shape[0]
        self.d = d if d is not None else (2 if np.iscomplexobj(a) else 1)

    def __repr__(self):
        return f"HermitianMatrix(q={self.q}, d={self.d})"


class ConePoint:
    """Positive semidefinite Hermitian matrix (a point of the cone).

    Eigenvalues in (-tol, 0) with tol = PSD_CLAMP_REL * (1 + ||x||) are
    clamped to 0 and the matrix is rebuilt from the clamped spectrum;
    anything more negative raises.
    """

    __slots__ = ("array", "q", "d", "_eigs", "_vecs")

    def __init__(self, entries, d: int | None = None):
        h = entries if isinstance(entries, HermitianMatrix) else HermitianMatrix(entries, d)
        eigs, vecs = np.linalg.eigh(h.array)
        tol = PSD_CLAMP_REL * (1.0 + float(np.linalg.norm(h.array)))
        if eigs[0] < -tol:
            raise ValueError(f"matrix is not positive semidefinite (min eig {eigs[0]:.3e})")
        eigs = np.maximum(eigs, 0.0)
        self._eigs = eigs
        self._vecs = vecs
        self.array = (vecs * eigs) @ vecs.conj().T
        if np.iscomplexobj(self.array) and h.d == 1:
            self.array = self.array.real
        self.array = 0.5 * (self.array + self.array.conj().T)
        self.array.setflags(write=False)
        self.q = h.q
        self.d = h.d

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigs

    def sqrt(self) -> "ConePoint":
        root = (self._vecs * np.sqrt(self._eigs)) @ self._vecs.conj().T
        return ConePoint(root, self.d)

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


def eig_herm(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary basis) with
    basis @ diag(eigenvalues) @ basis* reconstructing the input.
    """
    a = as_matrix(h)
    return np.linalg.eigh(a)


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


def psd_sqrt_batch(mats: np.ndarray) -> np.ndarray:
    """Batched PSD square root of an (..., q, q) stack of Hermitian matrices.

    Eigenvalues below -PSD_CLAMP_REL * (1 + max row norm) raise; eigenvalues
    at the eigensolver's noise floor are taken as exact zeros.
    """
    eigs, vecs = np.linalg.eigh(mats)
    tol = PSD_CLAMP_REL * (1.0 + float(np.abs(mats).max(initial=0.0)) * mats.shape[-1])
    if eigs.size and eigs.min() < -tol:
        raise ValueError(f"psd_sqrt_batch: indefinite input (min eig {eigs.min():.3e})")
    root = np.sqrt(_floor_spectrum(eigs))
    out = np.einsum("...ij,...j,...kj->...ik", vecs, root, vecs.conj())
    return 0.5 * (out + np.swapaxes(out, -1, -2).conj())


def loewner_leq(a, b, tol: float) -> bool:
    """Cone order predicate: a <= b iff min eig(b - a) >= -tol."""
    diff = as_matrix(b) - as_matrix(a)
    return bool(np.linalg.eigvalsh(diff)[0] >= -tol)


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
# minors, Pochhammer, cone gamma


def power_function(x, lam) -> float:
    """Minor power product D_1^{l1-l2} * ... * D_q^{lq} for integer partitions.

    D_i is the i-th leading principal minor; parts beyond len(lam) count as 0.
    """
    a = as_matrix(x)
    q = a.shape[0]
    parts = list(lam) + [0] * (q - len(tuple(lam)))
    if len(parts) > q:
        raise ValueError(f"partition has more than q={q} parts")
    out = 1.0
    for i in range(q):
        expo = parts[i] - (parts[i + 1] if i + 1 < q else 0)
        if expo != 0:
            minor = float(np.linalg.det(a[: i + 1, : i + 1]).real)
            out *= minor ** expo
    return out


def pochhammer_general(p: HypergroupParams, mu: float, lam) -> float:
    """Generalized rising factorial prod_j (mu - (d/2)(j-1))_{lam_j}."""
    out = 1.0
    half_d = 0.5 * p.d
    for j, part in enumerate(tuple(lam)):
        base = mu - half_d * j
        for i in range(int(part)):
            factor = base + i
            if factor == 0.0:
                raise ValueError(
                    f"generalized Pochhammer hits a pole: factor (mu - {half_d}*{j} + {i}) = 0"
                )
            out *= factor
    return out


def gamma_cone(p: HypergroupParams, mu: float) -> float:
    """Gamma factor of the cone: (2 pi)^{(n-q)/2} prod_j Gamma(mu - (d/2)(j-1))."""
    args = [mu - 0.5 * p.d * j for j in range(p.q)]
    if min(args) <= 0.0:
        raise ValueError(f"gamma_cone argument pole: smallest argument {min(args)}")
    out = (2.0 * math.pi) ** (0.5 * (p.n - p.q))
    for a in args:
        out *= math.gamma(a)
    return out


# ---------------------------------------------------------------------------
# random test matrices (plumbing shared by the CLI suite and tests)


def random_hermitian(p: HypergroupParams, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((p.q, p.q))
    if p.d == 2:
        a = a + 1j * rng.standard_normal((p.q, p.q))
    h = 0.5 * (a + a.conj().T)
    return scale * h


def random_psd(
    p: HypergroupParams,
    rng: np.random.Generator,
    norm: float | None = None,
    rank: int | None = None,
) -> np.ndarray:
    """Random PSD matrix, optionally rescaled to a target Frobenius norm / rank."""
    k = p.q if rank is None else rank
    a = rng.standard_normal((p.q, k))
    if p.d == 2:
        a = a + 1j * rng.standard_normal((p.q, k))
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
    d = d if d is not None else (2 if np.iscomplexobj(a) else 1)
    q = a.shape[0]
    lines = [f"{q} {d}"]
    for i in range(q):
        for j in range(q):
            z = complex(a[i, j])
            if d == 1:
                lines.append(repr(z.real))
            else:
                lines.append(f"{z.real!r} {z.imag!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_text(path) -> tuple[np.ndarray, int]:
    """Read the text format of write_matrix_text; returns (matrix, d)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: truncated matrix file")
    q, d = int(tokens[0]), int(tokens[1])
    if d not in (1, 2):
        raise ValueError(f"{path}: unsupported field dimension d={d}")
    vals = [float(t) for t in tokens[2:]]
    if len(vals) != q * q * d:
        raise ValueError(f"{path}: expected {q * q * d} components, found {len(vals)}")
    if d == 1:
        m = np.array(vals, dtype=np.float64).reshape(q, q)
    else:
        arr = np.array(vals, dtype=np.float64).reshape(q * q, 2)
        m = (arr[:, 0] + 1j * arr[:, 1]).reshape(q, q)
    return m, d
