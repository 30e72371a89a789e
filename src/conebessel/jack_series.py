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

from .cone_core import HypergroupParams, as_matrix

# hard cap on the series degree; larger arguments go to the integral evaluator
K_MAX = 60


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


def _dominated_by(mu: tuple, lam: tuple) -> bool:
    # mu <= lam in the dominance order (equal weights assumed)
    total_m = 0
    total_l = 0
    for i in range(max(len(mu), len(lam))):
        total_m += mu[i] if i < len(mu) else 0
        total_l += lam[i] if i < len(lam) else 0
        if total_m > total_l:
            return False
    return True


def _eigenvalue(lam: tuple, alpha: float) -> float:
    # n-independent part of the Jack eigenoperator eigenvalue
    return sum(0.5 * alpha * p * (p - 1) - i * p for i, p in enumerate(lam))


def _unpinch_moves(sigma: tuple):
    """Moves sigma -> nu raising dominance by one transfer: part i gains t,
    part j loses t (i < j).  Yields (nu, contribution)."""
    ell = len(sigma)
    for i in range(ell):
        for j in range(i + 1, ell):
            for t in range(1, sigma[j] + 1):
                parts = list(sigma)
                parts[i] += t
                parts[j] -= t
                nu = tuple(sorted((p for p in parts if p > 0), reverse=True))
                yield nu, float(sigma[i] - sigma[j] + 2 * t)


@lru_cache(maxsize=None)
def _monic_tables(k: int, q: int, alpha: float):
    """Monomial-basis coefficients of the monic Jack polynomials of weight k.

    Returns (parts, coeffs, norms): coeffs[lam][kap] is the coefficient of the
    monomial symmetric function m_kap, with coeffs[lam][lam] = 1; norms[lam]
    rescales the monic polynomial to the trace-identity normalization.
    """
    parts = partitions(k, q)
    coeffs: dict[tuple, dict[tuple, float]] = {}
    for li, lam in enumerate(parts):
        row = {lam: 1.0}
        d_lam = _eigenvalue(lam, alpha)
        # process targets in lex-descending order so every dominance-larger
        # coefficient is already available
        for sigma in parts[li + 1:]:
            if not _dominated_by(sigma, lam):
                continue
            acc = 0.0
            for nu, contrib in _unpinch_moves(sigma):
                cv = row.get(nu)
                if cv is not None:
                    acc += cv * contrib
            if acc != 0.0:
                row[sigma] = acc / (d_lam - _eigenvalue(sigma, alpha))
        coeffs[lam] = row

    k_fact = math.factorial(k)
    norms: dict[tuple, float] = {}
    for mi, mu in enumerate(parts):
        target = k_fact
        for p in mu:
            target //= math.factorial(p)
        acc = float(target)
        for lam in parts[:mi]:
            g = norms[lam]
            c = coeffs[lam].get(mu)
            if c is not None:
                acc -= g * c
        norms[mu] = acc
    return parts, coeffs, norms


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


def jack_C(lam, alpha: float, xi) -> float:
    """Jack polynomial C_lambda^alpha at the point xi (trace-identity normalization)."""
    lam = Partition(lam)
    xi = np.asarray(xi, dtype=np.float64)
    if xi.ndim != 1:
        raise ValueError("xi must be a 1-d sequence of eigenvalues")
    q = xi.shape[0]
    if len(lam) > q:
        return 0.0
    k = lam.weight
    if k == 0:
        return 1.0
    parts, coeffs, norms = _monic_tables(k, q, float(alpha))
    max_e = lam[0]
    powers = [np.ones_like(xi)]
    for _ in range(max_e):
        powers.append(powers[-1] * xi)
    row = coeffs[lam]
    total = 0.0
    for kap, c in row.items():
        total += c * float(_monomial_sym(kap, powers))
    return norms[lam] * total


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
    """
    eigs = np.atleast_2d(np.asarray(eigs, dtype=np.float64))
    q = eigs.shape[-1]
    c_min = mu - 0.5 * d * (q - 1)
    if c_min <= 0.0:
        raise ValueError(
            f"series index mu={mu} too small for q={q}, d={d}: need mu > {0.5 * d * (q - 1)}"
        )
    t = np.abs(eigs).sum(axis=-1)
    values = np.ones(eigs.shape[:-1], dtype=np.float64)
    bounds = np.zeros_like(values)
    if not np.any(t > 0.0):
        return values, bounds, 0

    powers = [np.ones_like(eigs)]
    log_t = np.log(np.where(t > 0.0, t, 1.0))
    sign = 1.0
    log_fact = 0.0
    for k in range(1, K_MAX + 1):
        sign = -sign
        log_fact += math.log(k)
        while len(powers) <= k:
            powers.append(powers[-1] * eigs)
        layer = None
        for kap, w in _layer_weights(k, q, d, mu):
            term = w * _monomial_sym(kap, powers)
            layer = term if layer is None else layer + term
        values = values + (sign / math.factorial(k)) * layer

        m_next = _layer_min_poch(k + 1, q, d, mu)
        log_b = (k + 1) * log_t - (log_fact + math.log(k + 1)) - math.log(m_next)
        rho = t / ((k + 2) * c_min)
        with np.errstate(over="ignore"):
            bounds = np.where(
                (rho < 1.0) & (t > 0.0),
                np.exp(log_b) / np.maximum(1.0 - rho, 1e-300),
                np.inf,
            )
        bounds = np.where(t == 0.0, 0.0, bounds)
        if bounds.max() <= target_tol:
            return values, bounds, k
    raise BesselSeriesError(
        f"Bessel series needs more than {K_MAX} layers at this argument size "
        "(absolute eigenvalue sum up to "
        f"{float(t.max()):.3g}); use the integral (ball-measure) evaluator instead"
    )


def bessel_from_eigs(eigs, mu: float, d: int, target_tol: float = 1e-10) -> BesselEval:
    """Bessel series value for one eigenvalue vector."""
    vals, bnds, k = bessel_series_eigs(np.asarray(eigs, dtype=np.float64)[None, :], mu, d, target_tol)
    return BesselEval(float(vals[0]), float(bnds[0]), k)


def bessel_J(p: HypergroupParams, mu: float, x, target_tol: float = 1e-10) -> BesselEval:
    """Matrix-argument Bessel function at a Hermitian matrix x (series mode)."""
    eigs = np.linalg.eigvalsh(as_matrix(x))
    return bessel_from_eigs(eigs, mu, p.d, target_tol)


def character_phi(p: HypergroupParams, s, r, target_tol: float = 1e-10) -> float:
    """Multiplicative character at the cone point r with label s.

    Equals the Bessel function at (1/4) s r^2 s; symmetric in (s, r).
    """
    smat = as_matrix(s)
    rmat = as_matrix(r)
    arg = smat @ (rmat @ rmat) @ smat
    eigs = np.linalg.eigvalsh(0.125 * (arg + arg.conj().T))
    return bessel_from_eigs(eigs, p.mu, p.d, target_tol).value


def character_phi_batch(
    p: HypergroupParams, s, r_batch: np.ndarray, target_tol: float = 1e-10
) -> np.ndarray:
    """Character values at a stack of cone points (N, q, q) for one label s."""
    smat = as_matrix(s)
    r_batch = np.asarray(r_batch)
    r2 = r_batch @ r_batch
    arg = np.einsum("ij,njk,kl->nil", smat, r2, smat)
    arg = 0.125 * (arg + np.swapaxes(arg, -1, -2).conj())
    eigs = np.linalg.eigvalsh(arg)
    vals, _, _ = bessel_series_eigs(eigs, p.mu, p.d, target_tol)
    return vals


def character_panel(p: HypergroupParams, grid, zs: np.ndarray) -> tuple[list[float], list[float]]:
    """Monte Carlo character transform of the sample stack zs at every label
    in grid: the sample mean of phi_s and its standard error, per label."""
    est, se = [], []
    for s in grid:
        vals = character_phi_batch(p, s, zs)
        est.append(float(vals.mean()))
        se.append(float(np.sqrt(vals.var(ddof=1) / len(vals))))
    return est, se


class CharacterFunctional:
    """Character s fixed as a functional of cone points; batch-aware.

    Instances are accepted by the convolution expectation operator, which
    routes stacks of samples through on_batch.
    """

    def __init__(self, p: HypergroupParams, s, target_tol: float = 1e-10):
        self.params = p
        self.s = as_matrix(s)
        self.target_tol = target_tol

    def __call__(self, z) -> float:
        return character_phi(self.params, self.s, as_matrix(z), self.target_tol)

    def on_batch(self, zs: np.ndarray) -> np.ndarray:
        return character_phi_batch(self.params, self.s, zs, self.target_tol)


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
