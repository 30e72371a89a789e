"""The mixing measure on the matrix ball and the cone convolution.

The convolution of two point masses on the cone is the image of the measure
with density det(I - v v*)^(mu - rho) / kappa_mu on the open matrix ball
D = {v : v v* < I} under v -> sqrt(r^2 + s^2 + s v r + r v* s).  This module
samples that measure exactly: [v, W] = Q = L^-1 [Z, T], the rows of a square
Ginibre matrix Z beside a triangular cone-Gamma factor T orthonormalised by
row Gram-Schmidt, where L is the Cholesky factor of Z Z* + T T* (the Cholesky
form of the matrix Beta law: Olkin & Rubin 1964, Ann. Math. Statist. 35;
Muirhead 1982, Aspects of Multivariate Statistical Theory, Thm 3.3.1).  It
evaluates characters through their oscillatory-integral representation, and
exposes the convolution both as a sampler and as an expectation operator.

The convolution is computed on square factors: a factor of a cone point r is
any X with X* X = r^2, r itself among them.  ``conv_factor_batch`` returns a
2q x q factor of the convolution draw, so consumers that read only z^2
(characters, second moments, norms, random walks) never take a square root.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .cone_core import (
    HypergroupParams,
    component_suffixes,
    eigvalsh_batch,
    field_dtype,
    from_components,
    gaussian_entries,
    gram,
    mats_first,
    orthonormal_rows,
    psd_sqrt_batch,
    sq_norms,
    stack_empty,
    to_components,
)

_CHUNK = 50_000
_CSV_ROWS = 4096

# largest observed excess of ||z|| over ||r|| + ||s|| across every convolution
# sample drawn in this process; the support theorem says it stays at round-off.
# Read by perfbench/child.py (as norm_excess_max) and by the CI step
# "Benchmark tracer binds"; no criterion reads it
_norm_excess = 0.0
_norm_excess_lock = threading.Lock()


def norm_excess_watermark() -> float:
    return _norm_excess


def _record_norm_excess(fs: np.ndarray, budget) -> None:
    """Raise the watermark to the largest row of ||F||_F - budget; a factor F
    of z has ||F||_F = ||z||_F."""
    global _norm_excess
    excess = float(np.max(np.sqrt(sq_norms(mats_first(fs), 2)) - budget))
    if excess > _norm_excess:
        with _norm_excess_lock:
            if excess > _norm_excess:
                _norm_excess = excess


def _chunked_moments(n_samples: int, draw) -> list[tuple[float, float]]:
    """Mean and mean square of each value stream over n_samples draws, kept
    as a running sum and sum of squares, _CHUNK draws at a time: draw(m)
    returns one array of m values per stream."""
    sums = None
    for done in range(0, n_samples, _CHUNK):
        streams = draw(min(_CHUNK, n_samples - done))
        sums = sums or [[0.0, 0.0] for _ in streams]
        for acc, vals in zip(sums, streams):
            acc[0] += float(vals.sum())
            acc[1] += float((vals * vals).sum())
    return [(total / n_samples, total_sq / n_samples) for total, total_sq in sums]


# ---------------------------------------------------------------------------
# triangular gamma construction (shared with the Wishart sampler)


def _tri_fill(t: np.ndarray, d: int, shape: float, rng: np.random.Generator) -> np.ndarray:
    """Fill the (n, q, q) stack t with the draws of ``tri_factor_batch``;
    return t."""
    n, q = t.shape[0], t.shape[-1]
    shapes = [shape - 0.5 * d * j for j in range(q)]
    if min(shapes) <= 0.0:
        raise ValueError(
            f"triangular gamma construction needs shape > {0.5 * d * (q - 1)}, got {shape}"
        )
    for j in range(q):
        np.sqrt(rng.gamma(shape=shapes[j], scale=2.0, size=n), out=t[:, j, j])
    if q > 1:
        pairs = [(i, j) for i in range(q) for j in range(i)]  # row-major
        g = gaussian_entries(rng, (n, len(pairs)), d)
        for k, (i, j) in enumerate(pairs):
            t[:, i, j] = g[:, k]
            t[:, j, i] = 0.0
    return t


def tri_factor_batch(
    n: int, q: int, d: int, shape: float, rng: np.random.Generator
) -> np.ndarray:
    """n lower triangular T with t_jj^2 ~ Gamma(shape - (d/2)j, scale 2) and
    each real component of the strictly-lower entries standard normal;
    stack-last."""
    return _tri_fill(stack_empty((n, q, q), field_dtype(d)), d, shape, rng)


def tri_gamma_batch(
    n: int, q: int, d: int, shape: float, rng: np.random.Generator
) -> np.ndarray:
    """n draws of T T* with T from ``tri_factor_batch``."""
    t = tri_factor_batch(n, q, d, shape, rng)
    return gram(np.swapaxes(t, -1, -2).conj())


# ---------------------------------------------------------------------------
# ball sampling


def sample_ball_batch(p: HypergroupParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the density det(I - v v*)^(mu - rho) / kappa on the ball.

    Cholesky form of the matrix Beta law (Olkin & Rubin 1964, Ann. Math.
    Statist. 35; Muirhead 1982, Aspects of Multivariate Statistical Theory,
    Thm 3.3.1).  Z is a square Ginibre matrix, so Z Z* is cone-Gamma with
    shape dq/2; T T* is an independent cone-Gamma variate with shape
    mu - dq/2 (triangular gamma construction, exact when mu > rho - 1); L is
    the Cholesky factor of Z Z* + T T*; and v = L^-1 Z, the first q columns
    of the row Gram-Schmidt orthonormalisation of [Z, T] (``_ball_solve``).
    Then v v* = L^-1 Z Z* L^-* is matrix Beta (dq/2, mu - dq/2), the law of
    the squared polar factor of the target.  Z -> Z u leaves Z Z* and L
    unchanged, so the unitary polar factor of v is Haar and independent of
    v v*.  The target density is invariant under unitaries on both sides,
    hence v has the target law.  The draws are a stack-last view.
    """
    return _ball_solve(p, n, rng)[..., : p.q]


# ---------------------------------------------------------------------------
# characters by oscillatory integral, convolution


def phi_bochner(
    p: HypergroupParams,
    s,
    r,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo value of the character as a ball integral of exp(-i (r v | s)).

    The exact value is real; the real part and its standard error are
    returned, and a grossly nonvanishing imaginary average (beyond six
    standard errors) raises, signaling a sampler defect.
    """
    sr = np.asarray(s) @ np.asarray(r)

    def cos_sin(m):
        # Re tr(v sr), summed row by row in the order of the batch-first einsum "nik,ki->n"
        rows = mats_first(sample_ball_batch(p, m, rng))
        x = sum(np.einsum("k...,k->...", row, col) for row, col in zip(rows, sr.T)).real
        return np.cos(x), np.sin(x)

    (est, cos_sq), (sin_mean, sin_sq) = _chunked_moments(n_samples, cos_sin)
    se = float(np.sqrt(max(cos_sq - est * est, 0.0) / n_samples))
    im = -sin_mean
    im_se = float(np.sqrt(max(sin_sq - sin_mean ** 2, 0.0) / n_samples))
    if abs(im) > 6.0 * max(im_se, 1e-300) and abs(im) > 1e-12:
        raise RuntimeError(
            f"imaginary part of the character integral did not vanish: {im:.3e} ± {im_se:.3e}"
        )
    return est, se


def _ball_solve(p: HypergroupParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """[v, W] = Q = L^-1 [Z, T], shape (n, q, 2q), by row Gram-Schmidt on
    [Z, T] drawn as in sample_ball_batch: v is a ball draw, and
    W W* = I - v v* because Q Q* = I.

    The result is stack-last (the batch-first view of a (2q, q, n) buffer),
    so that each Gram-Schmidt step is a pass over contiguous entries."""
    p.require_convolution()
    q, d = p.q, p.d
    zt = stack_empty((n, q, 2 * q), field_dtype(d))
    gaussian_entries(rng, (n, q, q), d, out=zt[..., :q])
    _tri_fill(zt[..., q:], d, p.mu - 0.5 * d * q, rng)
    return orthonormal_rows(zt)


def conv_factor_batch(
    p: HypergroupParams, xs: np.ndarray, ys: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One convolution draw per row, as a stacked (n, 2q, q) factor F,
    stack-last.

    xs and ys are factors of the two points: X* X = r^2 and Y* Y = s^2.  With
    [v, W] = L^-1 [Z, T] from one ball draw (row Gram-Schmidt on [Z, T], see
    ``_ball_solve``), I - v v* = W W*, so
    F = [X + v* Y; W* Y] has F* F = r^2 + s^2 + Y* v X + X* v* Y.  Writing
    X = U r and Y = V s with unitaries U, V independent of v, that is
    z^2 = r^2 + s^2 + s v' r + r v'* s with v' = V* v U, which has the ball
    law because the ball law is invariant under unitaries on both sides.
    """
    q, n = p.q, xs.shape[0]
    vw = _ball_solve(p, n, rng)
    f = stack_empty((n, 2 * q, q), np.result_type(vw, ys))
    f1, x1, y1 = mats_first(f), mats_first(xs), mats_first(ys)
    np.einsum("ia...,ij...->aj...", mats_first(vw).conj(), y1, out=f1)
    f1[:q] += x1
    # z^2 = F* F is PSD by construction, so the clamp guard of psd_sqrt_batch
    # has nothing to catch on this path; the norm audit still sees every draw
    budget = np.sqrt(sq_norms(x1, 2)) + np.sqrt(sq_norms(y1, 2))
    _record_norm_excess(f, budget)
    return f


def conv_square_batch(
    p: HypergroupParams, r, s, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Squares z^2 of n draws z from the convolution of the point masses at r
    and s, with no square root taken."""
    rmat = np.asarray(r)
    smat = np.asarray(s)
    shape = (n,) + rmat.shape
    return gram(conv_factor_batch(p, np.broadcast_to(rmat, shape), np.broadcast_to(smat, shape), rng))


def conv_sample_batch(
    p: HypergroupParams, r, s, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws from the convolution of the point masses at r and s."""
    return psd_sqrt_batch(conv_square_batch(p, r, s, n, rng))


def conv_pairwise_batch(
    p: HypergroupParams, rs: np.ndarray, ss: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One convolution draw per row of the paired stacks rs, ss."""
    return psd_sqrt_batch(gram(conv_factor_batch(p, rs, ss, rng)))


def conv_expect(
    p: HypergroupParams,
    f,
    r,
    s,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo mean of f over convolution draws z, with standard error.

    f maps a stack of squares z^2 (m, q, q) to their m values.
    """

    def values(m):
        return (np.asarray(f(conv_square_batch(p, r, s, m, rng)), dtype=np.float64),)

    [(mean, mean_sq)] = _chunked_moments(n_samples, values)
    return mean, float(np.sqrt(max(mean_sq - mean * mean, 0.0) / n_samples))


def support_window_fraction(
    p: HypergroupParams, r, c: float, zs: np.ndarray, tol: float
) -> float:
    """Fraction of a sample stack zs with (1-c) r <= z <= (1+c) r in the cone
    order, within tol."""
    if not 0.0 < c <= 1.0:
        raise ValueError(f"need c in (0, 1], got {c}")
    rmat = np.asarray(r)
    lo = eigvalsh_batch(zs - (1.0 - c) * rmat)[..., 0]
    hi = eigvalsh_batch((1.0 + c) * rmat - zs)[..., 0]
    ok = (lo >= -tol) & (hi >= -tol)
    return float(np.mean(ok))


# ---------------------------------------------------------------------------
# empirical measures


def _csv_plan(table: np.ndarray) -> list:
    """How ``to_csv`` prints each column of the float64 (n, k) table, n >= 1,
    so that a value is formatted once however often it repeats:

    - ("const", s): every row has the same bits; s is their repr.
    - ("same", j): bit for bit equal to column j.
    - ("neg", j): column j with every sign bit flipped and no NaN in it; for
      every other float, repr(-x) is repr(x) with its leading "-" toggled.
    - ("fmt", None): none of these; each entry is formatted.

    j is always an earlier "fmt" column.  Sampled cone points are Hermitian,
    so their lower triangle is "same" (real parts) and "neg" (imaginary
    parts) of the upper one; any other table only gets more "fmt" columns.
    """
    bits = table.view(np.int64)
    sign = np.iinfo(np.int64).min
    plan, fmt = [], []
    for c in range(table.shape[1]):
        col = bits[:, c]
        if (col == col[0]).all():
            plan.append(("const", repr(float(table[0, c]))))
            continue
        for j in fmt:
            # the first row rules out most candidates before a full pass
            flip = col[0] ^ bits[0, j]
            if flip == 0 and (col == bits[:, j]).all():
                plan.append(("same", j))
                break
            if (
                flip == sign
                and ((col ^ bits[:, j]) == sign).all()
                and not np.isnan(table[:, j]).any()
            ):
                plan.append(("neg", j))
                break
        else:
            plan.append(("fmt", None))
            fmt.append(c)
    return plan


@dataclass
class EmpiricalMeasure:
    """Weighted sample cloud on the cone with sampling provenance."""

    params: HypergroupParams
    points: np.ndarray
    weights: np.ndarray = field(default=None)
    seed: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points)
        if self.points.ndim != 3 or self.points.shape[1] != self.points.shape[2]:
            raise ValueError(f"points must be a (N, q, q) stack, got {self.points.shape}")
        n = self.points.shape[0]
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (n,):
                raise ValueError("weights must match the number of points")
            if not np.isfinite(w).all():
                raise ValueError("weights must be finite")
            if (w < 0).any():
                raise ValueError("weights must be nonnegative")
            total = w.sum()
            if total <= 0:
                raise ValueError("weights must have positive mass")
            # equal weights are exactly 1/n, as without weights; w / total
            # is an ulp off whenever the sum rounds, so a CSV read back would
            # not write the same bytes again
            self.weights = np.full(n, 1.0 / n) if (w == w[0]).all() else w / total

    def to_csv(self, path, version: str = "") -> None:
        """Write a metadata line, a column header and one row per point: every
        real component of the full q x q matrix, row-major, then the weight.

        Each value is printed as Python's shortest round-trip ``repr``, so
        ``from_csv`` reads back the same bits, signs of zero included.  The
        bytes depend only on the measure: not on the block size, nor on which
        columns the writer finds repeated and formats once (``_csv_plan``).
        """
        p = self.params
        q, d = p.q, p.d
        sfxs = component_suffixes(d)
        cols = [f"e_{i}_{j}{sfx}" for i in range(q) for j in range(q) for sfx in sfxs] + ["weight"]
        n = self.points.shape[0]
        header_meta = f"# version={version},q={q},d={d},mu={p.mu!r},seed={self.seed},n_raw={n}"
        table = np.empty((n, d * q * q + 1))
        table[:, :-1] = to_components(self.points, d).reshape(n, -1)
        table[:, -1] = self.weights
        plan = _csv_plan(table)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header_meta + "\n" + ",".join(cols) + "\n")
            # a block of rows at a time: the strings of the whole table would
            # outweigh the table itself many times over
            for lo in range(0, n, _CSV_ROWS):
                block = table[lo:lo + _CSV_ROWS]
                strs = []
                for c, (kind, arg) in enumerate(plan):
                    if kind == "const":
                        strs.append([arg] * len(block))
                    elif kind == "same":
                        strs.append(strs[arg])
                    elif kind == "neg":
                        strs.append([s[1:] if s[0] == "-" else "-" + s for s in strs[arg]])
                    else:
                        strs.append(list(map(repr, block[:, c].tolist())))
                fh.write("\n".join(map(",".join, zip(*strs))) + "\n")

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        with open(path, "r", encoding="utf-8") as fh:
            meta_line = fh.readline().strip()
            if not meta_line.startswith("#"):
                raise ValueError(f"{path}: missing metadata header line")
            fh.readline()  # column header
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        meta = {}
        for item in meta_line.lstrip("# ").split(","):
            key, _, val = item.partition("=")
            meta[key.strip()] = val.strip()
        q, d = int(meta["q"]), int(meta["d"])
        params = HypergroupParams(q, d, float(meta["mu"]), sampling_only=True)
        n = data.shape[0]
        pts = from_components(data[:, : d * q * q].reshape(n, q, q, d), d)
        weights = data[:, -1]
        return cls(
            params=params,
            points=pts,
            weights=weights,
            seed=int(meta.get("seed", 0)),
        )
