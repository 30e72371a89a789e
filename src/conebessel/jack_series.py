"""Partition combinatorics, Jack polynomial evaluation, and the matrix-argument
Bessel series with a computable truncation bound.

The Jack polynomials C_lambda used here are normalized by the trace identity
sum_{|lambda|=k} C_lambda(x) = (tr x)^k.  Their tables are arrays, cached per
(weight, variable count) for the moves and exponent vectors (``_layer``), per
alpha for the triangular eigenoperator recurrence (``_monic_tables``), whose
norms solve against the multinomial expansion of (sum xi)^k so the trace
identity holds at every weight by construction, and per (d, mu) for the series.
A layer's exponent vectors are held once, in the series table's term order.
``jack_C`` weights those terms with one coefficient each; it, one layer
(``series_layer``) and series calls of at most 16 rows take every monomial x^e
from one kernel, ``_monomials``; larger stacks build each series layer from the
one before, one multiply per monomial (``_series_values``).  The spectrum of
(1/4) s r^2 s, the Bessel argument of a character and of
``wishart.translated_density``, comes from ``congruence_eigs``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cone_core import HypergroupParams, eigvalsh_2x2

# hard cap on the series degree
K_MAX = 60
# largest (rows x terms) block the series evaluates at once, in float64 elements
_BLOCK_ELEMS = 1 << 16
# calls of at most this many rows take the paths with the fewest numpy calls:
# the series' monomial kernel and, at q = 3, LAPACK's eigvalsh in congruence_eigs
_SMALL_ROWS = 16


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


class _Layer(NamedTuple):
    """What weight k in q variables fixes, whatever alpha, d and mu; every
    array read-only.

    moves[s] holds the unpinch moves sigma -> nu of sigma = parts[s], parts =
    partitions(k, q): those that raise dominance by one transfer (part i
    gains t, part j loses t, i < j), as (positions of nu in parts,
    contributions sigma_i - sigma_j + 2t), ordered by i, then j, then t.
    The columns of terms (q, M) are the exponent vectors of weight k in
    lexicographically descending order, the series table's order, and
    orbits[i] is the position in parts of the sorted form of terms[:, i];
    the terms from suffixes[j] on are those with e_0 = ... = e_{j-1} = 0.
    """

    moves: tuple
    terms: np.ndarray
    orbits: np.ndarray
    suffixes: tuple[int, ...]


@lru_cache(maxsize=None)
def _layer(k: int, q: int) -> _Layer:
    """The ``_Layer`` of weight k in q variables."""
    parts = partitions(k, q)
    rows = np.array([lam + (0,) * (q - len(lam)) for lam in parts], dtype=np.intp)

    def key(vecs):
        # one sortable key per row, sorted descending: equal partitions, equal keys
        vecs = np.ascontiguousarray(-np.sort(-vecs, axis=1))
        return vecs.view(np.dtype((np.void, vecs.itemsize * q)))[:, 0]

    by_key = np.argsort(key(rows))
    sorted_keys = key(rows)[by_key]

    # np.nonzero lists the moves by sigma, then pair (i, j), then t: the move
    # order.  t <= sigma_j never moves a zero part
    pair_i, pair_j = np.array(list(itertools.combinations(range(q), 2)), dtype=np.intp).reshape(-1, 2).T
    src, pair, t = np.nonzero(np.arange(1, k + 1) <= rows[:, pair_j, None])
    i, j, t = pair_i[pair], pair_j[pair], t + 1
    unit = np.eye(q, dtype=np.intp)
    targets = by_key[np.searchsorted(sorted_keys, key(rows[src] + t[:, None] * (unit[i] - unit[j])))]
    contribs = (rows[src, i] - rows[src, j] + 2 * t).astype(np.float64)
    bounds = np.searchsorted(src, np.arange(len(parts) + 1))

    # every exponent vector of weight k in lexicographic order: each row
    # splits into one row per value e = 0..rest of the next variable
    exps, rest = [], np.array([k])
    for _ in range(q - 1):
        run = np.repeat(np.arange(rest.size), rest + 1)
        e = np.arange(run.size) - np.searchsorted(run, run)
        exps = [col[run] for col in exps] + [e]
        rest = rest[run] - e
    lex = np.array(exps + [rest])
    owner = by_key[np.searchsorted(sorted_keys, key(lex.T))]
    terms, orbits = np.ascontiguousarray(lex[:, ::-1]), owner[::-1].copy()
    for array in (targets, contribs, terms, orbits):
        array.flags.writeable = False  # shared by every caller
    moves = tuple((targets[a:b], contribs[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
    # the terms with e_0 = ... = e_{j-1} = 0 are the compositions of k into q - j parts
    suffixes = tuple(lex.shape[1] - math.comb(k + q - j - 1, q - j - 1) for j in range(q))
    return _Layer(moves, terms, orbits, suffixes)


@lru_cache(maxsize=None)
def _monic_tables(k: int, q: int, alpha: float):
    """Monomial-basis coefficients of the monic Jack polynomials of weight k.

    Returns (parts, cols, norms), read-only: cols[j, i] is the coefficient
    of the monomial symmetric function m_{parts[j]} in the monic polynomial
    of parts[i], with cols[i, i] = 1 and zeros wherever parts[i] does not
    dominate parts[j]; norms[i] rescales it to the trace-identity
    normalization.

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
    # target j reads rows i < j only.  add.accumulate adds strictly in
    # order, where add.reduce may sum pairwise
    cols = np.eye(n)
    for j, (targets, contribs) in enumerate(_layer(k, q).moves[1:], start=1):
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
    cols.flags.writeable = norms.flags.writeable = False
    return parts, cols, norms


def _monomials(x: np.ndarray, exps: np.ndarray, top: int) -> np.ndarray:
    """x^e, shape (M, n), for each column x of x (q, n) and e of exps (q, M), entries <= top: powers
    by repeated multiplication, multiplied in order of the variables; a column alone gets the same bits."""
    powers = np.empty((top + 1,) + x.shape)
    powers[0] = 1.0
    powers[1:] = x
    np.multiply.accumulate(powers, out=powers)
    monomials = powers[exps[0], 0]
    for j in range(1, len(x)):
        monomials *= powers[exps[j], j]
    return monomials


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
        parts, cols, norms = _monic_tables(lam.weight, q, float(alpha))
        layer = _layer(lam.weight, q)
        i = parts.index(lam)
        # only terms with a nonzero coefficient, so 0 * inf never enters; their
        # sorted forms are dominated by lam, so no exponent exceeds lam_1
        coefs = cols[layer.orbits, i]
        nonzero = coefs != 0.0
        terms = _monomials(xi.reshape(-1, q).T, layer.terms[:, nonzero], max(lam, default=0))
        terms *= coefs[nonzero, None]
        # reduceat sums each column by the same loop, so a row alone and in a stack agree
        total = np.add.reduceat(terms, [0], axis=0)[0].reshape(total.shape) * norms[i]
    return float(total) if xi.ndim == 1 else total


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
def _layer_weights(k: int, q: int, d: int, mu: float) -> np.ndarray:
    """Per-monomial weights of series layer k, in order of partitions(k, q).

    Collapses sum_lam C_lam(x)/(mu)_lam into sum_kap W_kap m_kap(x) so each
    monomial symmetric function is evaluated once per layer; each W_kap adds
    its terms in order of lam.
    """
    parts, cols, norms = _monic_tables(k, q, 2.0 / d)
    scale = norms / np.array([_poch(mu, lam, d) for lam in parts])
    # a copy, so the cache does not keep the (n, n) sums alive
    return np.add.accumulate(cols * scale, axis=1)[:, -1].copy()


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
    any degree is a prefix.  Within a layer the terms are in lexicographically
    descending order of e, which orders them by their lowest variable (the
    first j with e_j > 0): suffixes[k][j] is the first term of layer k whose
    lowest variable is >= j, and layer k is x_j times the terms of layer
    k - 1 from suffixes[k - 1][j] on, for j = 0, ..., q - 1 in turn.
    weights[i] (shape (M,)) is W_kap of the sorted form kap of e
    (_layer_weights).
    """

    degree: int
    ends: tuple[int, ...]
    suffixes: tuple[tuple[int, ...], ...]
    exps: np.ndarray
    weights: np.ndarray


# one table per (q, d, mu); a grown table replaces the old one in a single
# assignment, so a concurrent reader sees either whole table
_TABLES: dict[tuple[int, int, float], _SeriesTable] = {}


def _series_table(q: int, d: int, mu: float, degree: int) -> _SeriesTable:
    """The (q, d, mu) table, grown to at least `degree` if it is shorter:
    the old table's layers, then layers old.degree + 1, ..., degree."""
    old = _TABLES.get((q, d, mu))
    if old is not None and old.degree >= degree:
        return old
    low = 0 if old is None else old.degree + 1
    layers = [_layer(k, q) for k in range(low, degree + 1)]
    ends, suffixes = ((), ()) if old is None else (old.ends, old.suffixes)
    ends += tuple(itertools.accumulate((len(layer.orbits) for layer in layers), initial=ends[-1] if ends else 0))[1:]
    suffixes += tuple(layer.suffixes for layer in layers)
    exps = np.empty((q, ends[-1]), dtype=np.intp)
    weights = np.empty(ends[-1])
    if old is not None:
        exps[:, :old.ends[-1]], weights[:old.ends[-1]] = old.exps, old.weights
    for k, layer in enumerate(layers, start=low):
        cols = slice(ends[k] - len(layer.orbits), ends[k])
        exps[:, cols] = layer.terms
        weights[cols] = _layer_weights(k, q, d, mu)[layer.orbits]
    table = _SeriesTable(degree, ends, suffixes, exps, weights)
    table.exps.flags.writeable = table.weights.flags.writeable = False
    _TABLES[(q, d, mu)] = table
    return table


def _series_values(eigs: np.ndarray, table: _SeriesTable, degree: int) -> np.ndarray:
    """The series truncated after layer `degree` at each row of eigs (n, q).

    Each layer is summed on its own, scaled by (-1)^k/k! and added to the
    running total in order of k, as layer-by-layer summation does: a single
    dot over all terms would put terms of equal parity, which do not cancel,
    into the same partial sum and lose accuracy once the terms grow.

    At most _SMALL_ROWS rows, in blocks of at most _BLOCK_ELEMS (rows x
    terms), take every term from ``_monomials``, weight it and sum each
    layer with np.add.reduceat: a few calls, 6-20x faster on one row than
    the layer loop below, whose cost is numpy calls, not terms.  More rows build layer
    k from layer k - 1 in blocks of _BLOCK_ELEMS // (widest layer) rows,
    stack-last (each term a contiguous vector over the block's rows): one
    multiply per term, as the table's suffixes order them, and each layer
    summed by einsum in the table's order, so a row's value does not depend
    on the rows around it.  Neither path calls BLAS.
    """
    scale = _LAYER_SCALE[:degree + 1]
    values = np.empty(len(eigs))
    if len(eigs) <= _SMALL_ROWS:
        m = table.ends[degree]
        step = max(1, _BLOCK_ELEMS // m)
        for lo in range(0, len(eigs), step):
            terms = _monomials(eigs[lo:lo + step].T, table.exps[:, :m], degree)
            terms *= table.weights[:m, None]
            layers = np.add.reduceat(terms, (0,) + table.ends[:degree], axis=0)
            layers *= scale[:, None]
            values[lo:lo + step] = np.cumsum(layers, axis=0)[-1]
        return values
    widest = table.ends[degree] - table.ends[degree - 1]
    step = max(2, _BLOCK_ELEMS // widest)
    # einsum sums a one-row layer with SIMD partial sums, not in table order,
    # so a last block of one row joins the block before it
    cuts = list(range(0, len(eigs) - 1, step)) + [len(eigs)]
    buffers = np.empty((2, widest * min(step + 1, len(eigs))))
    layer_sum = np.empty(min(step + 1, len(eigs)))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x = np.ascontiguousarray(eigs[lo:hi].T)
        n = hi - lo
        total, part = values[lo:hi], layer_sum[:n]
        # layer 0 is the constant term
        total[:] = table.weights[0] * scale[0]
        layer = np.ones((1, n))
        for k in range(1, degree + 1):
            nxt = buffers[k % 2, :(table.ends[k] - table.ends[k - 1]) * n].reshape(-1, n)
            at = 0
            for j, start in enumerate(table.suffixes[k - 1]):
                np.multiply(layer[start:], x[j], out=nxt[at:at + len(layer) - start])
                at += len(layer) - start
            layer = nxt
            np.einsum("i,ij->j", table.weights[table.ends[k - 1]:table.ends[k]], layer, out=part)
            part *= scale[k]
            total += part
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
    (q, d, mu) monomial table (``_series_values``): at most _SMALL_ROWS rows
    from ``_monomials`` and one segmented sum per layer, more rows layer by
    layer in blocks of _BLOCK_ELEMS // (widest layer) rows; either way with
    no BLAS call, and the layers added in order of degree.
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


def series_layer(eigs, mu: float, d: int, k: int) -> np.ndarray:
    """Series layer k, sum_{|lam| = k} C_lam(x)/(mu)_lam, a form of degree k,
    at each row x of eigs (..., q): the layer's terms of the (q, d, mu)
    table, each x^e times its weight, summed in table order."""
    eigs = np.asarray(eigs, dtype=np.float64)
    q = eigs.shape[-1]
    table = _series_table(q, d, mu, k)
    lo, hi = ((0,) + table.ends)[k:k + 2]
    terms = _monomials(eigs.reshape(-1, q).T, table.exps[:, lo:hi], k)
    terms *= table.weights[lo:hi, None]
    return np.add.reduceat(terms, [0], axis=0)[0].reshape(eigs.shape[:-1])


# the lower triangle's positions, row by row, per q <= 3
_LOWER = {1: (), 2: ((1, 0),), 3: ((1, 0), (2, 0), (2, 1))}


def _hermitian_coords(x: np.ndarray, cplx: bool) -> np.ndarray:
    """Real coordinates (k, ...) of the Hermitian part of a stack (..., q, q)
    of matrices, q <= 3, stack-last so that each is one contiguous vector:
    the diagonal, then Re and, when cplx, Im of the lower triangle (1, 0)[,
    (2, 0), (2, 1)]; (x00) at q = 1, (x00, x11, Re x10[, Im x10]) at q = 2."""
    q = x.shape[-1]
    lower = _LOWER[q]
    coords = np.empty((q + (1 + cplx) * len(lower),) + x.shape[:-2])
    for i in range(q):
        coords[i] = x[..., i, i].real
    for j, (row, col) in enumerate(lower):
        off = 0.5 * (x[..., row, col] + x[..., col, row].conj())
        coords[q + j] = off.real
        if cplx:
            coords[q + len(lower) + j] = off.imag
    return coords


def _coordinate_basis(q: int, cplx: bool) -> np.ndarray:
    """The Hermitian q x q matrices (q <= 3) whose ``_hermitian_coords`` are
    the unit vectors, stacked (k, q, q); read-only."""
    lower = _LOWER[q]
    basis = np.zeros((q + (1 + cplx) * len(lower), q, q), dtype=complex if cplx else float)
    for i in range(q):
        basis[i, i, i] = 1.0
    for j, (row, col) in enumerate(lower):
        basis[q + j, row, col] = basis[q + j, col, row] = 1.0
        if cplx:
            basis[q + len(lower) + j, row, col], basis[q + len(lower) + j, col, row] = 1j, -1j
    basis.flags.writeable = False
    return basis


def _eigvalsh_3x3(coords: np.ndarray, cplx: bool) -> np.ndarray:
    """Eigenvalues, shape (..., 3), of the stack of 3 x 3 Hermitian matrices
    whose ``_hermitian_coords`` (k, ...) are given.

    Trigonometric closed form (Smith, Comm. ACM 4, 1961): with m = tr/3,
    B = A - m I and p^2 = tr(B^2)/6, the roots are m + 2p cos(phi + 2 pi j/3)
    for phi = arccos(det B / (2 p^3)) / 3, the argument clipped to [-1, 1].
    The largest is m + 2p cos(phi), the smallest m - p (cos(phi) +
    sqrt(3) sin(phi)) and the middle one the trace minus the other two.  A
    zero or scalar matrix (p^3 = 0) gives m three times.  The symmetric
    functions of the roots, all a character reads, are within a few
    eps ||A||^k of LAPACK's; a root near a repeated one only within about
    sqrt(eps) ||A|| (Kopp, Int. J. Mod. Phys. C 19, 2008), so the order of
    two such roots may come out swapped.  Entries up to about 1e100 in
    magnitude, where det B and p^3 do not overflow.
    """
    a0, a1, a2, b10, b20, b21 = coords[:6]
    tr = a0 + a1 + a2
    m = tr / 3.0
    d0, d1, d2 = a0 - m, a1 - m, a2 - m
    sq10, sq20, sq21 = b10 * b10, b20 * b20, b21 * b21
    if cplx:
        c10, c20, c21 = coords[6:9]
        sq10 += c10 * c10
        sq20 += c20 * c20
        sq21 += c21 * c21
        # Re(b10 b21 conj(b20)), with b the complex entries
        cycle = (b10 * b21 - c10 * c21) * b20 + (b10 * c21 + c10 * b21) * c20
    else:
        cycle = b10 * b21 * b20
    det = d0 * d1 * d2 + 2.0 * cycle - d0 * sq21 - d1 * sq20 - d2 * sq10
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (sq10 + sq20 + sq21)) / 6.0)
    cube = 2.0 * p * p * p
    ratio = np.divide(det, cube, out=np.zeros_like(det), where=cube > 0.0)
    cos = np.cos(np.arccos(np.clip(ratio, -1.0, 1.0, out=ratio)) / 3.0)
    # phi is in [0, pi/3], so sin(phi) >= 0
    sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    eigs = np.empty((3,) + tr.shape)
    np.add(m, 2.0 * p * cos, out=eigs[2])
    np.subtract(m, p * (cos + math.sqrt(3.0) * sin), out=eigs[0])
    np.subtract(tr, eigs[2], out=eigs[1])
    eigs[1] -= eigs[0]
    return np.moveaxis(eigs, 0, -1)


# built once and shared by every call of congruence_eigs
_BASES = {(q, cplx): _coordinate_basis(q, cplx) for q in (1, 2, 3) for cplx in (False, True)}


def congruence_eigs(labels, r2: np.ndarray):
    """Per label s in labels, the eigenvalues (..., q) of the Hermitian part
    of (1/4) s r^2 s, for a stack r2 (..., q, q).

    At q <= 2, and at q = 3 on stacks of more than _SMALL_ROWS rows, there is
    no eigensolver: x -> (1/4) s x s is a fixed real-linear map on Hermitian
    matrices, so the coordinates (k, ...) of every argument are one
    (k, k) @ (k, ...) product, with the map's columns the images of the
    coordinate basis; then the entry, ``eigvalsh_2x2`` or ``_eigvalsh_3x3``.
    The coordinates of r2 are formed once per field and shared by every
    label.  At q = 3 the symmetric functions of the spectrum are LAPACK's to
    rounding, but two roots closer than about sqrt(eps) ||A|| may come
    swapped (``_eigvalsh_3x3``).  Calls of at most _SMALL_ROWS rows at q = 3,
    and every call at q >= 4, form s r^2 s and call ``eigvalsh``: on a few
    rows its one call costs less than the closed form's many."""
    q = r2.shape[-1]
    lapack = q > 3 or (q == 3 and r2.size // 9 <= _SMALL_ROWS)
    r2_coords = {}
    for s in labels:
        smat = np.asarray(s)
        if lapack:
            arg = smat @ r2 @ smat
            yield np.linalg.eigvalsh(0.125 * (arg + np.swapaxes(arg, -1, -2).conj()))
            continue
        cplx = np.iscomplexobj(smat) or np.iscomplexobj(r2)
        if cplx not in r2_coords:
            r2_coords[cplx] = _hermitian_coords(r2, cplx)
        image = _hermitian_coords(0.25 * smat @ _BASES[q, cplx] @ smat, cplx)
        coords = (image @ r2_coords[cplx].reshape(len(image), -1)).reshape(r2_coords[cplx].shape)
        if q == 1:
            yield coords[0][..., None]
        elif q == 2:
            yield eigvalsh_2x2(coords[0], coords[1], np.hypot(coords[2], coords[3]) if cplx else coords[2])
        else:
            yield _eigvalsh_3x3(coords, cplx)


def character_from_squares(
    p: HypergroupParams, s, r2s: np.ndarray, target_tol: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Multiplicative character with label s at a stack (N, q, q) of squared
    cone points r^2: the Bessel series at (1/4) s r^2 s, read through its
    Hermitian part.  Returns (values, truncation bounds, degree used), as
    ``bessel_series_eigs`` does.  The character reads a point only through
    its square, so every character evaluator is a case of this one or, for
    many labels at once, of ``character_panel``.  The spectrum comes from
    ``congruence_eigs``: in closed form at q <= 2 and on q = 3 stacks of
    more than _SMALL_ROWS rows, from LAPACK otherwise."""
    (eigs,) = congruence_eigs([s], r2s)
    return bessel_series_eigs(eigs, p.mu, p.d, target_tol)


def character_phi(p: HypergroupParams, s, r, target_tol: float = 1e-10) -> float:
    """Character value at one cone point r with label s; symmetric in (s, r)."""
    r = np.asarray(r)[None]
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
    for eigs in congruence_eigs(grid, r2s):
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
