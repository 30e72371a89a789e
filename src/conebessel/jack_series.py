"""Partition combinatorics, Jack polynomial evaluation, and the matrix-argument
Bessel series with a computable truncation bound.

The Jack polynomials C_lambda used here are normalized by the trace identity
sum_{|lambda|=k} C_lambda(x) = (tr x)^k.  Coefficient tables in the monomial
basis are built once per (weight, alpha, variable count) by the triangular
eigenoperator recurrence and cached; the layer normalization is solved
directly against the multinomial expansion of (sum xi)^k, so the trace
identity holds at every weight by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cone_core import HypergroupParams, as_matrix, eigvalsh_2x2

# hard cap on the series degree
K_MAX = 60
# largest (rows x terms) block the series evaluates at once, in float64 elements
_BLOCK_ELEMS = 1 << 16


class BesselSeriesError(RuntimeError):
    """Raised when the series would need more than K_MAX layers."""


class Partition(tuple):
    """Nonincreasing tuple of nonnegative integers (trailing zeros trimmed)."""

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError("partition parts must be nonnegative")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be nonincreasing, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)


@lru_cache(maxsize=None)
def partitions(k: int, q: int) -> tuple[Partition, ...]:
    """All partitions of weight k with at most q parts, lexicographically descending."""
    if k < 0 or q < 1:
        raise ValueError("need k >= 0 and q >= 1")

    def gen(remaining, max_part, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first, slots - 1):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(k, k, q))


def _eigenvalue(lam: tuple, alpha: float) -> float:
    # n-independent part of the Jack eigenoperator eigenvalue
    return sum(0.5 * alpha * p * (p - 1) - i * p for i, p in enumerate(lam))


def _unpinch_moves(k: int, q: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per partition sigma of partitions(k, q): the moves sigma -> nu that
    raise dominance by one transfer (part i gains t, part j loses t, i < j),
    as (positions of nu in partitions(k, q), contributions
    sigma_i - sigma_j + 2t), ordered by i, then j, then t."""
    parts = partitions(k, q)
    index = {lam: pos for pos, lam in enumerate(parts)}
    moves = []
    for sigma in parts:
        targets, contribs = [], []
        ell = len(sigma)
        for i in range(ell):
            for j in range(i + 1, ell):
                for t in range(1, sigma[j] + 1):
                    nu = list(sigma)
                    nu[i] += t
                    nu[j] -= t
                    targets.append(index[tuple(sorted((p for p in nu if p > 0), reverse=True))])
                    contribs.append(float(sigma[i] - sigma[j] + 2 * t))
        moves.append((np.array(targets, dtype=np.intp), np.array(contribs)))
    return moves


@lru_cache(maxsize=None)
def _monic_tables(k: int, q: int, alpha: float):
    """Monomial-basis coefficients of the monic Jack polynomials of weight k.

    Returns (parts, coeffs, norms): coeffs[lam][kap] is the coefficient of the
    monomial symmetric function m_kap, with coeffs[lam][lam] = 1; norms[lam]
    rescales the monic polynomial to the trace-identity normalization.

    The eigenoperator recurrence gives the coefficient of m_sigma in row lam
    as the sum of c_lam[nu] * contribution over the unpinch moves
    sigma -> nu, divided by E(lam) - E(sigma).  It runs over all rows at once,
    one target sigma at a time in lex-descending order, so every nu (lex
    larger than sigma) is complete when sigma is reached.  A row holds exact
    zeros outside the partitions lam dominates, and a move to a zero adds an
    exact zero, so each coefficient is the same float as a per-row sum over
    only the present terms, in move order.  The norms solve the triangular
    system sum_lam g_lam c_lam[mu] = k!/prod(mu_i!) in order of mu, each sum
    taken in order of lam.
    """
    parts = partitions(k, q)
    n = len(parts)
    eig = np.array([_eigenvalue(lam, alpha) for lam in parts])
    # cols[j, i] is the coefficient of m_{parts[j]} in row parts[i]; row i is
    # zero left of i, so target j reads rows i < j only.  add.accumulate adds
    # strictly in order, where add.reduce may sum pairwise
    cols = np.eye(n)
    for j, (targets, contribs) in enumerate(_unpinch_moves(k, q)[1:], start=1):
        acc = np.add.accumulate(cols[targets, :j] * contribs[:, None], axis=0)[-1]
        np.divide(acc, eig[:j] - eig[j], out=cols[j, :j], where=acc != 0.0)

    norms = np.empty(n)
    terms = np.empty(n)
    k_fact = math.factorial(k)
    for mi, mu in enumerate(parts):
        target = k_fact
        for p in mu:
            target //= math.factorial(p)
        # target - g_0 c_0 - g_1 c_1 - ..., rounded after each step
        terms[0] = float(target)
        np.multiply(norms[:mi], cols[mi, :mi], out=terms[1:mi + 1])
        np.negative(terms[1:mi + 1], out=terms[1:mi + 1])
        norms[mi] = np.add.accumulate(terms[:mi + 1])[-1]

    coeffs: dict[tuple, dict[tuple, float]] = {}
    for lam, row in zip(parts, cols.T):
        kept = np.flatnonzero(row)
        coeffs[lam] = dict(zip([parts[j] for j in kept], row[kept].tolist()))
    return parts, coeffs, dict(zip(parts, norms.tolist()))


@lru_cache(maxsize=None)
def _arrangements(kap: tuple, q: int) -> tuple[tuple, ...]:
    """Distinct exponent vectors of length q whose sorted form is kap."""
    padded = tuple(kap) + (0,) * (q - len(kap))
    return tuple(sorted(set(itertools.permutations(padded))))


def _monomial_sym(kap: tuple, powers: list[np.ndarray]) -> np.ndarray:
    """Monomial symmetric function m_kap evaluated on a batch.

    powers[e] has shape (..., q) and holds the e-th entrywise power of the
    eigenvalue block.
    """
    q = powers[0].shape[-1]
    total = None
    for arrangement in _arrangements(tuple(kap), q):
        prod = None
        for col, expo in enumerate(arrangement):
            if expo == 0:
                continue
            factor = powers[expo][..., col]
            prod = factor if prod is None else prod * factor
        if prod is None:  # kap == ()
            prod = np.ones_like(powers[0][..., 0])
        total = prod if total is None else total + prod
    return total


def jack_C(lam, alpha: float, xi):
    """Jack polynomial C_lambda^alpha (trace-identity normalization) at each
    row of eigenvalues xi, shape (..., q): a float for one row, else an
    array of shape xi.shape[:-1]."""
    lam = Partition(lam)
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim < 1:
        raise ValueError("xi must hold rows of eigenvalues, shape (..., q)")
    q = xi.shape[-1]
    total = np.zeros(xi.shape[:-1])
    if len(lam) <= q:
        _, coeffs, norms = _monic_tables(lam.weight, q, float(alpha))
        # pow rounds each power once, where repeated products round e - 1 times
        powers = [xi ** e for e in range(max(lam, default=0) + 1)]
        for kap, c in coeffs[lam].items():
            total += c * _monomial_sym(kap, powers)
        total *= norms[lam]
    return float(total) if xi.ndim == 1 else total


def zonal_Z(p: HypergroupParams, lam, x) -> float:
    """Zonal polynomial Z_lambda(x) = C_lambda^{2/d}(eigenvalues of x)."""
    eigs = np.linalg.eigvalsh(as_matrix(x))
    return jack_C(lam, p.alpha, eigs)


# ---------------------------------------------------------------------------
# Bessel series


@dataclass(frozen=True)
class BesselEval:
    value: float
    truncation_bound: float
    degree_used: int


def _poch(mu: float, lam: tuple, d: int) -> float:
    out = 1.0
    for j, part in enumerate(lam):
        base = mu - 0.5 * d * j
        for i in range(part):
            out *= base + i
    return out


@lru_cache(maxsize=None)
def _layer_weights(k: int, q: int, d: int, mu: float):
    """Per-monomial weights of series layer k.

    Collapses sum_lam C_lam(x)/(mu)_lam into sum_kap W_kap m_kap(x) so each
    monomial symmetric function is evaluated once per layer.
    """
    alpha = 2.0 / d
    parts, coeffs, norms = _monic_tables(k, q, alpha)
    weights: dict[tuple, float] = {}
    for lam in parts:
        scale = norms[lam] / _poch(mu, lam, d)
        for kap, c in coeffs[lam].items():
            weights[kap] = weights.get(kap, 0.0) + scale * c
    return tuple(weights.items())


@lru_cache(maxsize=None)
def _layer_min_poch(k: int, q: int, d: int, mu: float) -> float:
    return min(_poch(mu, lam, d) for lam in partitions(k, q))


# _LOG_TAIL[k] = log (k+1)!, summed as log 1 + ... + log k, then + log(k + 1)
_LOG_TAIL = tuple(
    log_fact + math.log(k + 1)
    for k, log_fact in enumerate(
        itertools.accumulate((math.log(j) for j in range(1, K_MAX + 1)), initial=0.0)
    )
)


def _tail_bounds(t, log_t, k: int, q: int, d: int, mu: float, c_min: float) -> np.ndarray:
    """Tail bound after layer k for each absolute eigenvalue sum in t."""
    log_b = (k + 1) * log_t - _LOG_TAIL[k] - math.log(_layer_min_poch(k + 1, q, d, mu))
    rho = t / ((k + 2) * c_min)
    with np.errstate(over="ignore"):
        bounds = np.where(
            (rho < 1.0) & (t > 0.0),
            np.exp(log_b) / np.maximum(1.0 - rho, 1e-300),
            np.inf,
        )
    return np.where(t == 0.0, 0.0, bounds)


def _degree(t: float, log_t: float, q: int, d: int, mu: float, c_min: float,
            target_tol: float) -> tuple[int, float]:
    """Smallest k >= 1 whose tail bound at the sum t is <= target_tol, and
    that bound.

    Scalar form of _tail_bounds, with the same operations in the same order.
    """
    log_tol = math.log(target_tol) if target_tol > 0.0 else -math.inf
    for k in range(1, K_MAX + 1):
        rho = t / ((k + 2) * c_min)
        if not rho < 1.0:
            continue
        log_b = (k + 1) * log_t - _LOG_TAIL[k] - math.log(_layer_min_poch(k + 1, q, d, mu))
        # the bound is at least exp(log_b): skip the exp where that alone exceeds the tolerance
        if log_b > log_tol + 1e-9:
            continue
        bound = float(np.exp(log_b) / max(1.0 - rho, 1e-300))
        if bound <= target_tol:
            return k, bound
    raise BesselSeriesError(
        f"Bessel series needs more than {K_MAX} layers at absolute eigenvalue sum {t:.3g} "
        f"(target tolerance {target_tol:g}); for a character value, ball_measure.phi_bochner "
        "estimates the ball integral instead"
    )


# (-1)^k/k!, the sign and factorial of series layer k
_LAYER_SCALE = np.array([(-1.0) ** k / math.factorial(k) for k in range(K_MAX + 1)])


@dataclass(frozen=True)
class _SeriesTable:
    """Every monomial x^e of the series up to degree `degree`, in degree order.

    Column i of exps (shape (q, M)) is the exponent vector e of term i; the
    terms of degree <= k are the first ends[k] columns, so a truncation at
    any degree is a prefix.  weights (shape (degree + 1, M)) holds W_kap of
    the sorted form kap of e (_layer_weights) in row |e| and zeros elsewhere,
    so weights @ monomials gives every layer sum at once.
    """

    degree: int
    ends: tuple[int, ...]
    exps: np.ndarray
    weights: np.ndarray


# one table per (q, d, mu); a grown table replaces the old one in a single
# assignment, so a concurrent reader sees either whole table
_TABLES: dict[tuple[int, int, float], _SeriesTable] = {}


def _series_table(q: int, d: int, mu: float, degree: int) -> _SeriesTable:
    """The (q, d, mu) table, grown to at least `degree` if it is shorter."""
    old = _TABLES.get((q, d, mu))
    if old is not None and old.degree >= degree:
        return old
    ends = [] if old is None else list(old.ends)
    first = ends[-1] if ends else 0
    exps, layer, weights = [], [], []
    for k in range(len(ends), degree + 1):
        for kap, w in _layer_weights(k, q, d, mu):
            arrangements = _arrangements(kap, q)
            exps.extend(arrangements)
            layer.extend([k] * len(arrangements))
            weights.extend([w] * len(arrangements))
        ends.append(first + len(weights))
    all_exps = np.array(exps, dtype=np.intp).T
    all_weights = np.zeros((degree + 1, ends[-1]))
    all_weights[layer, np.arange(first, ends[-1])] = weights
    if old is not None:
        all_exps = np.concatenate([old.exps, all_exps], axis=1)
        all_weights[:old.degree + 1, :first] = old.weights
    table = _SeriesTable(degree, tuple(ends), np.ascontiguousarray(all_exps), all_weights)
    table.exps.flags.writeable = False
    table.weights.flags.writeable = False
    _TABLES[(q, d, mu)] = table
    return table


def _series_values(eigs: np.ndarray, table: _SeriesTable, degree: int) -> np.ndarray:
    """The series truncated after layer `degree` at each row of eigs (n, q).

    Each layer is summed on its own, scaled by (-1)^k/k! and added to the
    running total in order of k, as layer-by-layer summation does: a single
    dot over all terms would put terms of equal parity, which do not cancel,
    into the same partial sum and lose accuracy once the terms grow.
    """
    m = table.ends[degree]
    exps, weights = table.exps[:, :m], table.weights[:degree + 1, :m]
    scale = _LAYER_SCALE[:degree + 1, None]
    n, q = eigs.shape
    values = np.empty(n)
    step = max(1, _BLOCK_ELEMS // m)
    for lo in range(0, n, step):
        x = eigs[lo:lo + step].T
        # a few rows take one accumulate call where many take one call per degree
        few = x.shape[1] <= 16
        # powers[j, e] = x_j^e by repeated multiplication
        powers = np.empty((q, degree + 1, x.shape[1]))
        powers[:, 0] = 1.0
        if few:
            powers[:, 1:] = x[:, None, :]
            np.multiply.accumulate(powers, axis=1, out=powers)
        else:
            for e in range(1, degree + 1):
                np.multiply(powers[:, e - 1], x, out=powers[:, e])
        monomials = powers[0][exps[0]]
        for j in range(1, q):
            monomials *= powers[j][exps[j]]
        layers = weights @ monomials
        layers *= scale
        # both add the layers in order of k; add.reduce does so only when
        # axis 0 is not the contiguous one, that is for more than one row
        if few:
            values[lo:lo + step] = np.cumsum(layers, axis=0)[-1]
        else:
            values[lo:lo + step] = np.add.reduce(layers, axis=0)
    return values


def bessel_series_eigs(
    eigs: np.ndarray,
    mu: float,
    d: int,
    target_tol: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Batched Bessel series over eigenvalue rows.

    eigs has shape (..., q); entries may have either sign (the series is
    entire).  Returns (values, truncation bounds, degree used).  The tail
    after layer K is bounded by t^{K+1}/((K+1)! m_{K+1}) / (1 - rho) with
    t the absolute eigenvalue sum, m_k the smallest Pochhammer factor of
    layer k, and rho = t/((K+2) c_min); every one-box extension multiplies
    the Pochhammer by at least c_min = mu - (d/2)(q-1) > 0.

    Two phases.  The bound depends on a row only through t and grows with
    it, so the row of largest t fixes the degree K, the smallest one whose
    bound is <= target_tol; BesselSeriesError is raised when no K <= K_MAX
    qualifies, and ValueError when that row is not finite, before any layer
    is built.  Then every row's bound is taken at K, and every row is
    evaluated from the terms of degree <= K, a prefix of the degree-ordered
    (q, d, mu) monomial table, in blocks of at most _BLOCK_ELEMS (rows x
    terms): one power table, one gather and product per column, one
    weights @ monomials for the layer sums, and the layers added in order of
    degree.
    """
    eigs = np.atleast_2d(np.asarray(eigs, dtype=np.float64))
    q = eigs.shape[-1]
    c_min = mu - 0.5 * d * (q - 1)
    if c_min <= 0.0:
        raise ValueError(
            f"series index mu={mu} too small for q={q}, d={d}: need mu > {0.5 * d * (q - 1)}"
        )
    rows = eigs.reshape(-1, q)
    t = np.abs(rows).sum(axis=1)
    top = int(np.argmax(t))  # the first NaN when there is one
    if not np.isfinite(t[top]):
        raise ValueError(f"Bessel series argument is not finite: eigenvalues {rows[top]}")
    if not t[top] > 0.0:
        return np.ones(eigs.shape[:-1]), np.zeros(eigs.shape[:-1]), 0

    log_t = np.log(np.where(t > 0.0, t, 1.0))
    degree, top_bound = _degree(float(t[top]), float(log_t[top]), q, d, mu, c_min, target_tol)
    # every step of the bound is nondecreasing in t, so no row's bound exceeds
    # the top row's; a single row's bound is the one _degree computed
    if t.size > 1:
        bounds = _tail_bounds(t, log_t, degree, q, d, mu, c_min)
    else:
        bounds = np.array([top_bound])
    values = _series_values(rows, _series_table(q, d, mu, degree), degree)
    return values.reshape(eigs.shape[:-1]), bounds.reshape(eigs.shape[:-1]), degree


def bessel_from_eigs(eigs, mu: float, d: int, target_tol: float = 1e-10) -> BesselEval:
    """Bessel series value for one eigenvalue vector."""
    vals, bnds, k = bessel_series_eigs(np.asarray(eigs, dtype=np.float64)[None, :], mu, d, target_tol)
    return BesselEval(float(vals[0]), float(bnds[0]), k)


def bessel_J(p: HypergroupParams, mu: float, x, target_tol: float = 1e-10) -> BesselEval:
    """Matrix-argument Bessel function at a Hermitian matrix x (series mode)."""
    eigs = np.linalg.eigvalsh(as_matrix(x))
    return bessel_from_eigs(eigs, mu, p.d, target_tol)


def _hermitian_coords(x: np.ndarray, cplx: bool) -> np.ndarray:
    """Real coordinates (..., k) of the Hermitian part of a stack of q x q
    matrices, q <= 2: (x00) at q = 1, else (x00, x11, Re x10[, Im x10])."""
    q = x.shape[-1]
    coords = np.empty(x.shape[:-2] + (1 if q == 1 else 3 + cplx,))
    coords[..., 0] = x[..., 0, 0].real
    if q == 2:
        off = 0.5 * (x[..., 1, 0] + x[..., 0, 1].conj())
        coords[..., 1] = x[..., 1, 1].real
        coords[..., 2] = off.real
        if cplx:
            coords[..., 3] = off.imag
    return coords


def _coordinate_basis(q: int, cplx: bool) -> np.ndarray:
    """The Hermitian q x q matrices (q <= 2) whose ``_hermitian_coords`` are
    the unit vectors, stacked (k, q, q); read-only."""
    if q == 1:
        basis = np.ones((1, 1, 1))
    else:
        basis = np.zeros((3 + cplx, 2, 2), dtype=complex if cplx else float)
        basis[0, 0, 0] = basis[1, 1, 1] = basis[2, 1, 0] = basis[2, 0, 1] = 1.0
        if cplx:
            basis[3, 1, 0], basis[3, 0, 1] = 1j, -1j
    basis.flags.writeable = False
    return basis


# built once and shared by every call of _congruence_eigs
_BASES = {(q, cplx): _coordinate_basis(q, cplx) for q in (1, 2) for cplx in (False, True)}


def _congruence_eigs(labels, r2: np.ndarray):
    """Per label s in labels, the eigenvalues (..., q) of the Hermitian part
    of (1/4) s r^2 s, in order.

    At q <= 2 there is no eigensolver: x -> (1/4) s x s is a fixed
    real-linear map on Hermitian matrices, so the coordinates of every
    argument are one (..., k) @ (k, k) product, with the map's rows the
    images of the coordinate basis; then ``eigvalsh_2x2``.  The coordinates
    of r2 are formed once per field and shared by every label.  q >= 3 forms
    s r^2 s and calls ``eigvalsh``."""
    q = r2.shape[-1]
    r2_coords = {}
    for s in labels:
        smat = as_matrix(s)
        if q > 2:
            arg = smat @ r2 @ smat
            yield np.linalg.eigvalsh(0.125 * (arg + np.swapaxes(arg, -1, -2).conj()))
            continue
        cplx = np.iscomplexobj(smat) or np.iscomplexobj(r2)
        if cplx not in r2_coords:
            r2_coords[cplx] = _hermitian_coords(r2, cplx)
        image = 0.25 * smat @ _BASES[q, cplx] @ smat
        coords = r2_coords[cplx] @ _hermitian_coords(image, cplx)
        if q == 1:
            yield coords
        else:
            b = np.hypot(coords[..., 2], coords[..., 3]) if cplx else coords[..., 2]
            yield eigvalsh_2x2(coords[..., 0], coords[..., 1], b)


def character_from_squares(
    p: HypergroupParams, s, r2s: np.ndarray, target_tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Multiplicative character with label s at a stack (N, q, q) of squared
    cone points r^2: the Bessel series at (1/4) s r^2 s, read through its
    Hermitian part.  Returns (values, truncation bounds, degree used), as
    ``bessel_series_eigs`` does.  The character reads a point only through
    its square, so every character evaluator is a case of this one or, for
    many labels at once, of ``character_panel``."""
    (eigs,) = _congruence_eigs([s], r2s)
    return bessel_series_eigs(eigs, p.mu, p.d, target_tol)


def character_phi(p: HypergroupParams, s, r, target_tol: float = 1e-10) -> float:
    """Character value at one cone point r with label s; symmetric in (s, r)."""
    r = as_matrix(r)[None]
    return float(character_from_squares(p, s, r @ r, target_tol)[0][0])


def character_phi_batch(
    p: HypergroupParams, s, r_batch: np.ndarray, target_tol: float = 1e-10
) -> np.ndarray:
    """Character values at a stack of cone points (N, q, q) for one label s."""
    r_batch = np.asarray(r_batch)
    return character_from_squares(p, s, r_batch @ r_batch, target_tol)[0]


def character_panel(p: HypergroupParams, grid, r2s: np.ndarray) -> tuple[list[float], list[float]]:
    """Monte Carlo character transform at every label in grid, from a stack
    r2s of squared cone points z^2: the sample mean of phi_s and its
    standard error, per label.  Each value is the ``character_from_squares``
    one at tolerance 1e-10.  A standard error needs at least 2 rows."""
    if len(r2s) < 2:
        raise ValueError(f"a character panel needs at least 2 samples, got {len(r2s)}")
    est, se = [], []
    for eigs in _congruence_eigs(grid, r2s):
        vals = bessel_series_eigs(eigs, p.mu, p.d, 1e-10)[0]
        est.append(float(vals.mean()))
        se.append(float(np.sqrt(vals.var(ddof=1) / len(vals))))
    return est, se


def j_alpha_scalar(alpha: float, z: float) -> float:
    """Normalized one-dimensional Bessel series 0F1(alpha+1; -z^2/4)."""
    w = -0.25 * z * z
    term = 1.0
    total = 1.0
    for k in range(1, 400):
        term *= w / (k * (alpha + k))
        total += term
        if abs(term) <= 1e-18 * max(1.0, abs(total)):
            return total
    raise BesselSeriesError(f"scalar Bessel series did not converge at z={z}")
