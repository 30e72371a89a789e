import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma, hyp0f1, jv

from conebessel import jack_series
from conebessel.cone_core import HypergroupParams, random_psd
from conebessel.jack_series import (
    K_MAX,
    BesselSeriesError,
    Partition,
    bessel_from_eigs,
    bessel_series_eigs,
    character_from_squares,
    character_panel,
    character_phi,
    character_phi_batch,
    j_alpha_scalar,
    jack_C,
    partitions,
)

# ---------------------------------------------------------------------------
# exact rational oracle for Jack polynomials, built from first principles:
# Gram-Schmidt of the monomial basis under the alpha-deformed power-sum
# inner product, then the hook-product normalization.  Everything is done
# in Fraction arithmetic, so any agreement with the float engine is real.


def _parts_of(k, max_part=None):
    if k == 0:
        return [()]
    if max_part is None:
        max_part = k
    out = []
    for first in range(min(k, max_part), 0, -1):
        for rest in _parts_of(k - first, first):
            out.append((first,) + rest)
    return out


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return out


def _power_sum_poly(r, nvars):
    out = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = r
        out[tuple(e)] = Fraction(1)
    return out


def _p_rho_in_m(rho, nvars):
    poly = {tuple([0] * nvars): Fraction(1)}
    for r in rho:
        poly = _poly_mul(poly, _power_sum_poly(r, nvars))
    # collect: the coefficient of m_kap is read off the descending
    # representative of each orbit (the polynomial is symmetric)
    out = {}
    for e, c in poly.items():
        if list(e) == sorted(e, reverse=True):
            out[tuple(x for x in e if x)] = c
    return out


def _z_of(rho):
    counts = {}
    for part in rho:
        counts[part] = counts.get(part, 0) + 1
    z = Fraction(1)
    for part, m in counts.items():
        z *= Fraction(part) ** m * math.factorial(m)
    return z


def _hook_products(lam, alpha):
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    c_lo = Fraction(1)
    c_hi = Fraction(1)
    for i, part in enumerate(lam):
        for j in range(part):
            arm = part - j - 1
            leg = conj[j] - i - 1
            c_lo *= alpha * arm + leg + 1
            c_hi *= alpha * (arm + 1) + leg
    return c_lo, c_hi


def _jack_C_exact_in_m(k, alpha):
    """All C_lambda^alpha of weight k as m-basis coefficient maps (Fractions)."""
    parts = sorted(_parts_of(k))  # ascending lex refines dominance upward
    idx = {lam: i for i, lam in enumerate(parts)}
    nvars = k

    # p-to-m matrix, then invert for the Gram matrix of the m basis
    nmat = len(parts)
    R = [[Fraction(0)] * nmat for _ in range(nmat)]
    for i, rho in enumerate(parts):
        for kap, c in _p_rho_in_m(rho, nvars).items():
            R[i][idx[kap]] = c
    inv = [[Fraction(1 if i == j else 0) for j in range(nmat)] for i in range(nmat)]
    work = [row[:] for row in R]
    for col in range(nmat):
        piv = next(r for r in range(col, nmat) if work[r][col] != 0)
        work[col], work[piv] = work[piv], work[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(nmat):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    diag = [_z_of(rho) * alpha ** len(rho) for rho in parts]
    gram = [
        [sum(inv[i][r] * inv[j][r] * diag[r] for r in range(nmat)) for j in range(nmat)]
        for i in range(nmat)
    ]

    def dot(u, v):
        return sum(
            cu * gram[idx[ku]][idx[kv]] * cv
            for ku, cu in u.items()
            for kv, cv in v.items()
        )

    basis = {}
    for lam in parts:  # ascending order: everything below is already built
        vec = {lam: Fraction(1)}
        for mu_prev, pvec in basis.items():
            coef = dot(vec, pvec) / dot(pvec, pvec)
            if coef:
                for kap, c in pvec.items():
                    vec[kap] = vec.get(kap, Fraction(0)) - coef * c
        basis[lam] = {kap: c for kap, c in vec.items() if c}

    out = {}
    for lam in parts:
        _, c_hi = _hook_products(lam, alpha)
        scale = alpha**k * math.factorial(k) / c_hi
        out[lam] = {kap: scale * c for kap, c in basis[lam].items()}
    return out


def _m_eval_exact(kap, xi):
    if len(kap) > len(xi):
        return Fraction(0)
    padded = tuple(kap) + (0,) * (len(xi) - len(kap))
    total = Fraction(0)
    for arr in set(itertools.permutations(padded)):
        term = Fraction(1)
        for x, e in zip(xi, arr):
            term *= x**e
        total += term
    return total


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_jack_engine_matches_exact_gram_schmidt_oracle(alpha):
    xis = [
        (Fraction(1), Fraction(1)),
        (Fraction(3, 2), Fraction(-1, 3)),
        (Fraction(2), Fraction(1, 2), Fraction(-5, 4)),
        (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 7), Fraction(-1), Fraction(4, 3)),
    ]
    for k in range(1, 7):
        exact = _jack_C_exact_in_m(k, alpha)
        # internal consistency: the C's of weight k add up to the power of the trace
        for xi in xis:
            total = sum(
                sum(c * _m_eval_exact(kap, xi) for kap, c in vec.items())
                for vec in exact.values()
            )
            assert total == sum(xi) ** k
        for lam, vec in exact.items():
            for xi in xis:
                want = sum(c * _m_eval_exact(kap, xi) for kap, c in vec.items())
                got = jack_C(lam, float(alpha), [float(x) for x in xi])
                assert got == pytest.approx(float(want), rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# the eigenoperator recurrence one row at a time, regenerating each target's
# moves for every row: the float reference for the all-rows table build


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


def _monic_tables_by_rows(k: int, q: int, alpha: float):
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


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q, k_max", [(2, 40), (3, 20), (4, 12), (5, 12)])
def test_monic_tables_match_the_row_recurrence_bit_for_bit(q, k_max, alpha):
    for k in range(k_max + 1):
        want_parts, want_coeffs, want_norms = _monic_tables_by_rows(k, q, alpha)
        parts, cols, norms = jack_series._monic_tables(k, q, alpha)
        assert parts == want_parts
        assert list(want_coeffs) == list(want_norms) == list(parts)
        assert cols.shape == (len(parts), len(parts)) and norms.shape == (len(parts),)
        for i, lam in enumerate(parts):
            # the partitions present in row lam, in order: the nonzero pattern of column i
            kept = np.flatnonzero(cols[:, i])
            assert [parts[j] for j in kept] == list(want_coeffs[lam]), (k, lam)
            got = [c.hex() for c in cols[kept, i].tolist()] + [norms[i].item().hex()]
            want = [c.hex() for c in want_coeffs[lam].values()] + [want_norms[lam].hex()]
            assert got == want, (k, lam)


# ---------------------------------------------------------------------------
# the q = 2 tables against their closed form, in exact rationals


def _two_variable_monic(lam: tuple, poch: list) -> dict:
    """The monic Jack polynomial P_lam in two variables as {sigma: coefficient
    of m_sigma}, exactly, from poch[j] = (1/alpha)_j / j!: P_(a, b) =
    (x1 x2)^b P_(a - b), and the one-row P_(m) has coefficient
    poch[j] poch[m - j] on x1^j x2^(m - j), rescaled so that x1^m has
    coefficient 1."""
    a, b = (tuple(lam) + (0, 0))[:2]
    m = a - b
    return {Partition((b + j, b + m - j)): poch[j] * poch[m - j] / poch[m] for j in range((m + 1) // 2, m + 1)}


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(2)])
def test_monic_tables_match_the_two_variable_closed_form(alpha):
    # measured worst relative errors over k <= 60: 2.7e-16 for the
    # coefficients, 4.2e-15 for the norms, whose triangular solve accumulates
    # rounding over the weight (4.4e-16 and 4.2e-13 at alpha = 1/2)
    # poch[j] = (1/alpha)_j / j!
    poch = [Fraction(1)]
    for j in range(1, 61):
        poch.append(poch[-1] * (1 / alpha + j - 1) / j)
    worst_coef = worst_norm = 0.0
    for k in range(61):
        parts, cols, norms = jack_series._monic_tables(k, 2, float(alpha))
        assert parts == tuple(Partition((k - b, b)) for b in range(k // 2 + 1))
        for i, lam in enumerate(parts):
            exact = _two_variable_monic(lam, poch)
            for j, sigma in enumerate(parts):
                want = exact.get(sigma, 0)
                if want == 0:
                    assert cols[j, i] == 0.0, (k, lam, sigma)  # an exact zero
                else:
                    worst_coef = max(worst_coef, float(abs(Fraction(cols[j, i]) - want) / want))
            want = alpha**k * math.factorial(k) / _hook_products(lam, alpha)[1]
            worst_norm = max(worst_norm, float(abs(Fraction(norms[i]) - want) / want))
    assert worst_coef <= 4e-15 and worst_norm <= 4e-14, (worst_coef, worst_norm)


def _arrangements(kap: tuple, q: int) -> tuple[tuple, ...]:
    """Distinct exponent vectors of length q whose sorted form is kap."""
    padded = tuple(kap) + (0,) * (q - len(kap))
    return tuple(sorted(set(itertools.permutations(padded))))


def _layer_weights_by_monomials(k: int, q: int, d: int, mu: float) -> dict:
    """W_kap of series layer k, one kap at a time, each summed in order of lam."""
    parts, coeffs, norms = _monic_tables_by_rows(k, q, 2.0 / d)
    weights: dict[tuple, float] = {}
    for lam in parts:
        scale = norms[lam] / jack_series._poch(mu, lam, d)
        for kap, c in coeffs[lam].items():
            weights[kap] = weights.get(kap, 0.0) + scale * c
    return weights


def _series_table_by_monomials(q: int, d: int, mu: float, degree: int):
    """(exps, ends, weights) of the series table: every exponent vector of
    each layer, in lexicographically descending order, with the W of its
    sorted form."""
    exps, weights, ends = [], [], []
    for k in range(degree + 1):
        by_kap = _layer_weights_by_monomials(k, q, d, mu)
        for e in sorted({e for kap in by_kap for e in _arrangements(kap, q)}, reverse=True):
            exps.append(e)
            weights.append(by_kap[Partition(sorted(e, reverse=True))])
        ends.append(len(weights))
    return np.array(exps, dtype=np.intp).T, tuple(ends), np.array(weights)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("q, degree", [(2, 40), (3, 25), (4, 12), (5, 12)])
def test_series_table_matches_the_monomial_loop_bit_for_bit(q, degree, d):
    unit = np.eye(q, dtype=np.intp)[:, :, None]
    for c_min in (0.6, 2.25):
        mu = 0.5 * d * (q - 1) + c_min
        jack_series._TABLES.pop((q, d, mu), None)
        fresh = jack_series._series_table(q, d, mu, degree)
        jack_series._TABLES.pop((q, d, mu))
        jack_series._series_table(q, d, mu, degree // 2)  # then grown once
        table = jack_series._series_table(q, d, mu, degree)
        exps, ends, weights = _series_table_by_monomials(q, d, mu, degree)
        assert table.ends == ends, mu
        assert table.exps.dtype == exps.dtype and np.array_equal(table.exps, exps), mu
        assert [w.hex() for w in table.weights.tolist()] == [w.hex() for w in weights.tolist()], mu
        assert (fresh.ends, fresh.suffixes) == (table.ends, table.suffixes), mu
        assert np.array_equal(fresh.exps, table.exps) and np.array_equal(fresh.weights, table.weights), mu
        # every composition of k once, and layer k is x_j times layer k - 1 from
        # its suffix j on, for j = 0, ..., q - 1 in turn
        layers = np.split(table.exps, ends[:-1], axis=1)
        for k, block in enumerate(layers):
            assert len({tuple(e) for e in block.T}) == block.shape[1] == math.comb(k + q - 1, q - 1)
            lowest = np.argmax(block > 0, axis=0) if k else np.full(1, q)
            assert table.suffixes[k] == tuple(np.searchsorted(lowest, np.arange(q)).tolist()), (mu, k)
            if k:
                prev, suffix = layers[k - 1], table.suffixes[k - 1]
                grown = np.concatenate([prev[:, start:] + unit[j] for j, start in enumerate(suffix)], axis=1)
                assert np.array_equal(block, grown), (mu, k)


def test_jack_pinned_values():
    assert jack_C((2,), 2.0, (1.0, 1.0)) == pytest.approx(8.0 / 3.0, rel=1e-13)
    assert jack_C((1, 1), 2.0, (1.0, 1.0)) == pytest.approx(4.0 / 3.0, rel=1e-13)
    # schur case alpha=1: C_(11)/C_2 weights on s_lambda
    assert jack_C((1, 1), 1.0, (1.0, 1.0)) == pytest.approx(1.0, rel=1e-13)


def test_jack_homogeneity_and_truncation_to_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        xi = rng.uniform(-2, 2, size=3)
        c = float(rng.uniform(0.2, 3.0))
        for lam in ((3,), (2, 1), (1, 1, 1)):
            assert jack_C(lam, 0.5, c * xi) == pytest.approx(
                c ** sum(lam) * jack_C(lam, 0.5, xi), rel=1e-11, abs=1e-12
            )
    # more parts than variables kills the polynomial
    assert jack_C((1, 1, 1), 2.0, (1.0, 1.0)) == 0.0


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_jack_row_alone_equals_row_in_a_stack(q):
    # every row takes the same operations whatever the stack around it
    rng = np.random.default_rng(40 + q)
    for alpha in (0.5, 1.0, 2.0):
        for k in range(9):
            x = rng.uniform(-2.0, 2.0, size=(40, q))
            for lam in partitions(k, q):
                stack = [v.hex() for v in jack_C(lam, alpha, x).tolist()]
                assert stack == [jack_C(lam, alpha, row).hex() for row in x], (lam, alpha)


def test_jack_edge_rows():
    inf, nan = math.inf, math.nan
    # a zero coefficient never meets an infinite monomial: (1, 1) holds no m_(2),
    # and (3, 1, 1, 1), lex above (2, 2, 2), does not dominate it
    assert jack_C((1, 1), 1.0, (inf, 1.0)) == inf
    assert jack_C((3, 1, 1, 1), 1.0, (inf, 1.0, 1.0, 1.0)) == inf
    for q in (1, 2, 3):
        empty = jack_C((2, 1), 1.0, np.empty((0, q)))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert jack_C((), 2.0, (3.0, -1.0)) == 1.0
    assert jack_C((), 0.5, (nan, 1.0)) == 1.0
    assert math.isnan(jack_C((2, 1), 0.5, (nan, 1.0, 2.0)))
    vals = jack_C((1,), 1.0, np.array([[1.0, 2.0], [nan, 1.0]]))
    assert vals[0] == 3.0 and math.isnan(vals[1])


def test_partitions_enumeration():
    assert partitions(4, 2) == (Partition((4,)), Partition((3, 1)), Partition((2, 2)))
    assert len(partitions(6, 6)) == 11
    assert all(sum(lam) == 5 and len(lam) <= 2 for lam in partitions(5, 2))
    assert partitions(0, 3) == (Partition(()),)


def test_trace_identity_numeric():
    rng = np.random.default_rng(12)
    for q, d in ((2, 1), (3, 1), (2, 2), (3, 2)):
        alpha = 2.0 / d
        for _ in range(5):
            x = rng.standard_normal((q, q))
            if d == 2:
                x = x + 1j * rng.standard_normal((q, q))
            x = x @ x.conj().T
            tr = float(np.trace(x).real)
            for k in range(1, 7):
                total = sum(jack_C(lam, alpha, np.linalg.eigvalsh(x)) for lam in partitions(k, q))
                assert total == pytest.approx(tr**k, rel=1e-8)


def test_scalar_bessel_against_scipy():
    # j_alpha(z) = Gamma(alpha+1) (2/z)^alpha J_alpha(z)
    for alpha in (0.5, 1.0, 2.5):
        for z in (0.1, 1.0, 4.0, 9.5):
            want = sp_gamma(alpha + 1.0) * (2.0 / z) ** alpha * jv(alpha, z)
            assert j_alpha_scalar(alpha, z) == pytest.approx(want, rel=1e-10)
    assert j_alpha_scalar(1.5, 0.0) == 1.0


def test_rank_one_reduction():
    p = HypergroupParams(1, 1, 2.25)
    for s in (0.3, 1.0, 2.4):
        for r in (0.5, 1.7, 4.0):
            if s * r > 10.0:
                continue
            got = character_phi(p, np.array([[s]]), np.array([[r]]))
            want = j_alpha_scalar(p.mu - 1.0, s * r)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_scalar_case_is_hyp0f1():
    for mu in (1.5, 3.0):
        for x in (0.2, 1.0, 5.0):
            got = bessel_from_eigs(np.array([x]), mu, 1, target_tol=1e-14).value
            assert got == pytest.approx(float(hyp0f1(mu, -x)), rel=1e-11, abs=1e-13)


def test_block_restriction_padding():
    rng = np.random.default_rng(13)
    for d in (1, 2):
        mu = 4.0
        for _ in range(10):
            eigs = np.sort(rng.uniform(0.0, 3.0, size=2))
            small = bessel_from_eigs(eigs, mu, d, target_tol=1e-14).value
            padded = bessel_from_eigs(np.concatenate([eigs, [0.0]]), mu, d, target_tol=1e-14).value
            assert padded == pytest.approx(small, rel=1e-11, abs=1e-13)


def test_truncation_bound_is_honest_and_monotone():
    eigs = np.linalg.eigvalsh(np.array([[2.0, 0.4], [0.4, 1.1]]))
    loose = bessel_from_eigs(eigs, 3.0, 1, target_tol=1e-6)
    tight = bessel_from_eigs(eigs, 3.0, 1, target_tol=1e-12)
    assert abs(loose.value - tight.value) <= loose.truncation_bound
    assert tight.truncation_bound <= 1e-12
    assert tight.degree_used >= loose.degree_used


def test_series_overflow_raises():
    with pytest.raises(BesselSeriesError):
        bessel_from_eigs(np.array([4000.0, 3500.0]), 2.0, 1, target_tol=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_raises(bad):
    # a non-finite row is neither the zero argument nor a series overflow
    with pytest.raises(ValueError, match="not finite"):
        bessel_from_eigs(np.array([bad, 0.0]), 3.0, 1)
    with pytest.raises(ValueError, match="not finite"):
        bessel_from_eigs(np.array([1.0, bad]), 3.0, 1)
    batch = np.array([[0.5, 0.25], [bad, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not finite"):
        bessel_series_eigs(batch, 3.0, 2, 1e-10)


def test_character_symmetry_and_scaling():
    p = HypergroupParams(2, 2, 4.0)
    rng = np.random.default_rng(14)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    s = a @ a.conj().T
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    r = b @ b.conj().T
    s /= np.linalg.norm(s)
    r /= np.linalg.norm(r)
    assert character_phi(p, s, r) == pytest.approx(character_phi(p, r, s), rel=1e-12)
    assert character_phi(p, 1.7 * s, r) == pytest.approx(
        character_phi(p, s, 1.7 * r), rel=1e-12
    )
    assert character_phi(p, np.zeros((2, 2)), r) == 1.0


def test_character_batch_matches_loop():
    p = HypergroupParams(2, 1, 2.5)
    rng = np.random.default_rng(15)
    s = np.eye(2) * 0.7
    rs = np.stack([m @ m.T for m in rng.standard_normal((6, 2, 2))])
    # batch and single paths may truncate at different degrees; both promise
    # the same absolute target
    batch = character_phi_batch(p, s, rs)
    for val, r in zip(batch, rs):
        assert val == pytest.approx(character_phi(p, s, r), abs=3e-10)


@pytest.mark.parametrize("d", [1, 2])
def test_character_panel_is_the_exact_mean_and_stderr(d):
    p = HypergroupParams(2, d, 3.5)
    rng = np.random.default_rng(16)
    a = rng.standard_normal((9, 2, 2))
    if d == 2:
        a = a + 1j * rng.standard_normal((9, 2, 2))
    zs = a @ np.swapaxes(a, -1, -2).conj()
    grid = [c * np.eye(2) for c in (0.3, 0.9)] + [np.diag([0.2, 0.6])]
    # the panel reads squared points z^2; the batch squares its points
    est, se = character_panel(p, grid, zs @ zs)
    assert len(est) == len(se) == len(grid)
    for s, e, sd in zip(grid, est, se):
        vals = character_phi_batch(p, s, zs)
        assert e == float(vals.mean())
        assert sd == math.sqrt(vals.var(ddof=1) / len(zs))


@pytest.mark.parametrize("q, d", list(itertools.product((1, 2, 3), (1, 2))))
def test_one_point_reads_one_way(q, d):
    p = HypergroupParams(q, d, float(q * d))
    rng = np.random.default_rng(18)
    for _ in range(300):
        s = random_psd(p, rng, norm=float(rng.uniform(0.3, 1.6)))
        r = random_psd(p, rng, norm=float(rng.uniform(0.3, 1.6)))
        one = character_phi(p, s, r)
        assert one == character_phi_batch(p, s, r[None])[0], (s, r)
        assert isinstance(one, float)


def _symmetric_functions(eigs):
    """e1, e2, e3 of each row of a (..., 3) spectrum, stacked last."""
    x0, x1, x2 = np.moveaxis(eigs, -1, 0)
    return np.stack([x0 + x1 + x2, x0 * x1 + x0 * x2 + x1 * x2, x0 * x1 * x2], axis=-1)


@pytest.mark.parametrize("q, d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_closed_form_characters_match_the_eigensolver(q, d):
    p = HypergroupParams(q, d, 1.0 + d * q)
    rng = np.random.default_rng(17 + 2 * q + d)

    def herm(n):
        a = rng.standard_normal((n, q, q))
        if d == 2:
            a = a + 1j * rng.standard_normal((n, q, q))
        return a, 0.5 * (a + np.swapaxes(a, -1, -2).conj())

    # more than _SMALL_ROWS rows, so that q = 3 takes the closed form too
    a, _ = herm(500)
    r2 = a @ np.swapaxes(a, -1, -2).conj()
    r2[:3] = 0.0
    r2[3, 0, -1] += 1e-3  # read through its Hermitian part, as the eigensolver path does
    b, indefinite = herm(3)
    labels = [0.8 * np.eye(q), b[0] @ b[0].conj().T / q, *indefinite]
    eps = np.finfo(float).eps
    for s in labels:
        s = s / np.linalg.norm(s, 2)
        arg = s @ r2 @ s
        arg = 0.125 * (arg + np.swapaxes(arg, -1, -2).conj())
        want = np.linalg.eigvalsh(arg)
        (got,) = jack_series.congruence_eigs([s], r2)
        # both paths round while forming (1/4) s r^2 s, at the scale ||s||^2 ||r^2|| / 4
        scale = 0.25 * np.linalg.norm(r2, 2, axis=(-2, -1))[:, None]
        if q < 3:
            assert (np.abs(got - want) <= 8.0 * eps * scale).all()
        else:
            # a single root near a repeated one is only good to about sqrt(eps);
            # the symmetric functions, all a character reads, are good to rounding
            err = np.abs(_symmetric_functions(got) - _symmetric_functions(want))
            assert (err <= 32.0 * eps * scale ** np.arange(1, 4)).all(), err.max(axis=0)
        vals, bounds, degree = character_from_squares(p, s, r2, 1e-12)
        want_vals = bessel_series_eigs(want, p.mu, p.d, 1e-12)[0]
        np.testing.assert_allclose(vals, want_vals, rtol=0, atol=1e-13)
        # the returned bound and degree are the series' own at this spectrum
        _, got_bounds, got_degree = bessel_series_eigs(got, p.mu, p.d, 1e-12)
        np.testing.assert_array_equal(bounds, got_bounds)
        assert degree == got_degree


def _adversarial_spectra(d, rng, n=64):
    """Hermitian 3 x 3 matrices (n per kind), ||A||_2 <= 2, whose spectra
    are hard for a closed form: zero, rank one and two, a double and a
    nearly double root of either sign, scalar, and random."""
    a = rng.standard_normal((8 * n, 3, 3))
    if d == 2:
        a = a + 1j * rng.standard_normal((8 * n, 3, 3))
    u = np.linalg.qr(a)[0]
    lam = rng.uniform(-2.0, 2.0, (8, n, 3))
    lam[0] = 0.0
    lam[1, :, 1:] = 0.0
    lam[2, :, 2] = 0.0
    lam[3, :, 1] = lam[3, :, 0]
    lam[4, :, 1] = -lam[4, :, 0]
    lam[4, :, 2] = lam[4, :, 0]
    lam[5, :, 1] = lam[5, :, 0] * (1.0 + 1e-9)
    lam[6] = lam[6, :, :1]
    lam = lam.reshape(8 * n, 3)
    return (u * lam[:, None, :]) @ np.swapaxes(u, -1, -2).conj()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2])
def test_q3_closed_form_on_adversarial_spectra(d):
    p = HypergroupParams(3, d, 1.0 + 3 * d)
    mats = _adversarial_spectra(d, np.random.default_rng(40 + d))
    want = np.linalg.eigvalsh(mats)
    # with s = 2 I the argument (1/4) s A s is A itself, formed without rounding
    (got,) = jack_series.congruence_eigs([2.0 * np.eye(3)], mats)
    norm = np.linalg.norm(mats, 2, axis=(-2, -1))[:, None]
    eps = np.finfo(float).eps
    assert np.isfinite(got).all()
    assert (np.abs(np.sort(got, axis=-1) - want) <= 1e-7 * norm).all()
    err = np.abs(_symmetric_functions(got) - _symmetric_functions(want))
    assert (err <= 32.0 * eps * norm ** np.arange(1, 4)).all(), err.max(axis=0)
    zero = ~mats.any(axis=(-2, -1))
    assert zero.any() and not got[zero].any()
    vals = character_from_squares(p, 2.0 * np.eye(3), mats, 1e-12)[0]
    np.testing.assert_allclose(vals, bessel_series_eigs(want, p.mu, p.d, 1e-12)[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2])
def test_small_q3_stacks_keep_the_eigensolver(d, monkeypatch):
    p = HypergroupParams(3, d, 1.0 + 3 * d)
    rng = np.random.default_rng(50 + d)
    s = random_psd(p, rng, norm=1.2)
    rs = np.stack([random_psd(p, rng, norm=1.0) for _ in range(jack_series._SMALL_ROWS + 1)])
    r2 = rs @ rs
    for n in (1, 2, jack_series._SMALL_ROWS):
        # the eigvalsh path, operation for operation
        arg = s @ r2[:n] @ s
        want = np.linalg.eigvalsh(0.125 * (arg + np.swapaxes(arg, -1, -2).conj()))
        (got,) = jack_series.congruence_eigs([s], r2[:n])
        assert got.tobytes() == want.tobytes()
        vals = character_from_squares(p, s, r2[:n], 1e-10)[0]
        assert vals.tobytes() == bessel_series_eigs(want, p.mu, p.d, 1e-10)[0].tobytes()
    # one point reads as a stack of one: test_one_point_reads_one_way, q = 3

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("a stack of more than _SMALL_ROWS rows called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    assert np.isfinite(character_phi_batch(p, s, rs)).all()


# ---------------------------------------------------------------------------
# degree choice and batched evaluation of the Bessel series


def _docstring_bound(t, k, q, d, mu):
    """The bessel_series_eigs tail bound after layer k, from exact Pochhammer
    products: t^{k+1}/((k+1)! m_{k+1}) / (1 - rho), rho = t/((k+2) c_min)."""
    c_min = Fraction(mu) - Fraction(d, 2) * (q - 1)
    rho = Fraction(t) / ((k + 2) * c_min)
    if rho >= 1:
        return math.inf
    m_next = min(
        math.prod(
            Fraction(mu) - Fraction(d, 2) * j + i for j, part in enumerate(lam) for i in range(part)
        )
        for lam in _parts_of(k + 1)
        if len(lam) <= q
    )
    exact = Fraction(t) ** (k + 1) / (math.factorial(k + 1) * m_next) / (1 - rho)
    return float(exact)


@pytest.mark.parametrize(
    "q, d, mu, eigs, tol",
    [
        (1, 1, 0.6, [7.5], 1e-10),
        (1, 1, 1.5, [25.0], 1e-12),
        (2, 1, 2.0, [3.0, 1.25], 1e-10),
        (2, 2, 2.5, [-4.0, 9.0], 1e-8),
        (3, 1, 3.5, [0.5, 2.0, 1.0], 1e-10),
        (3, 2, 4.0, [1.5, -0.75, 0.25], 1e-12),
    ],
)
def test_series_degree_is_the_smallest_that_meets_the_tolerance(q, d, mu, eigs, tol):
    out = bessel_from_eigs(np.array(eigs), mu, d, target_tol=tol)
    t = sum(abs(e) for e in eigs)
    k = out.degree_used
    assert _docstring_bound(t, k - 1, q, d, mu) > tol
    assert _docstring_bound(t, k, q, d, mu) <= tol
    assert out.truncation_bound == pytest.approx(_docstring_bound(t, k, q, d, mu), rel=1e-12)


@pytest.mark.parametrize("q, d, mu", [(1, 1, 1.5), (2, 1, 2.5), (2, 2, 3.0), (3, 2, 4.0)])
def test_series_batch_matches_rows_at_the_batch_degree(q, d, mu):
    rng = np.random.default_rng(17)
    n = 70_000 if q == 1 else 6000
    eigs = rng.uniform(-1.0, 1.0, size=(n, q)) * rng.uniform(0.0, 2.0, size=(n, 1))
    eigs[::7] = 0.0
    eigs[5] = 9.0 / q  # the largest absolute eigenvalue sum
    values, bounds, degree = bessel_series_eigs(eigs, mu, d, 1e-10)
    # the batch is evaluated in several blocks of _BLOCK_ELEMS // (widest layer) rows
    table = jack_series._series_table(q, d, mu, degree)
    assert n > jack_series._BLOCK_ELEMS // (table.ends[degree] - table.ends[degree - 1])
    assert degree == bessel_from_eigs(eigs[5], mu, d, 1e-10).degree_used
    assert np.all(values[::7] == 1.0) and np.all(bounds[::7] == 0.0)
    assert bounds.max() <= 1e-10
    # a row stacked with the largest one is evaluated at the batch degree
    for i in range(0, n, 61):
        vals, bnds, k = bessel_series_eigs(eigs[[i, 5]], mu, d, 1e-10)
        assert k == degree
        assert bnds[0] == bounds[i]
        assert abs(vals[0] - values[i]) <= 1e-14 * max(1.0, abs(values[i]))


@pytest.mark.parametrize("q, d", [(1, 1), (2, 1), (3, 2), (4, 1)])
def test_stack_rows_do_not_depend_on_their_neighbours(q, d):
    # more than 16 rows sum each layer in table order: a row has the same bits in any
    # stack at the same degree, also in a short last block
    mu = 0.5 * d * (q - 1) + 1.5
    rng = np.random.default_rng(50 + q)
    top = np.full(q, 7.0 / q)  # the largest absolute eigenvalue sum, so the degree
    degree = bessel_from_eigs(top, mu, d, 1e-10).degree_used
    table = jack_series._series_table(q, d, mu, degree)
    step = jack_series._BLOCK_ELEMS // (table.ends[degree] - table.ends[degree - 1])
    eigs = rng.uniform(-1.0, 1.0, size=(step + 5, q)) * (7.0 / q)
    eigs[0] = eigs[-1] = top
    values, _, k = bessel_series_eigs(eigs, mu, d, 1e-10)
    cut = step // 2 + 3
    halves = [bessel_series_eigs(part, mu, d, 1e-10) for part in (eigs[:cut], eigs[cut:])]
    assert k == degree and [h[2] for h in halves] == [degree, degree]
    assert min(cut, len(eigs) - cut) > 16
    got = [v.hex() for v in np.concatenate([h[0] for h in halves]).tolist()]
    assert got == [v.hex() for v in values.tolist()]
    # step + 1 rows would end in a block of one row; rows step, step + 1, ...
    # lie in a block of five above
    for j in range(step, len(eigs)):
        head, _, k = bessel_series_eigs(np.concatenate([eigs[:step], eigs[j:j + 1]]), mu, d, 1e-10)
        assert k == degree and head[-1].hex() == values[j].hex(), j
        assert [v.hex() for v in head[:-1].tolist()] == [v.hex() for v in values[:step].tolist()]


@pytest.mark.parametrize("q, d", list(itertools.product((2, 3), (1, 2))))
def test_rank_one_stacks_match_hyp0f1(q, d):
    # block restriction: J^q(diag(t, 0, ..., 0)) = 0F1(mu; -t), on the stack path
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(60 + 2 * q + d)
    t = np.geomspace(0.05, 10.0, 120)
    eigs = np.zeros((t.size, q))
    eigs[np.arange(t.size), rng.integers(0, q, t.size)] = t
    for c_min in (0.6, 1.5):
        mu = 0.5 * d * (q - 1) + c_min
        values, bounds, _ = bessel_series_eigs(eigs, mu, d, 1e-10)
        for x, value, bound in zip(t, values, bounds):
            with mpmath.workdps(40):
                want = float(mpmath.hyp0f1(mu, -x))
            assert abs(value - want) <= 1e-10 + bound, (mu, x)


def _scalar_series_by_layers(x, mu, degree):
    """0F1(mu; -x) truncated after `degree`, in float64, layer after layer."""
    total, power, poch = 1.0, 1.0, 1.0
    for k in range(1, degree + 1):
        power *= x
        poch *= mu + (k - 1)
        total += ((-1.0) ** k / math.factorial(k)) * ((1.0 / poch) * power)
    return total


@pytest.mark.parametrize("mu", [0.6, 2.5])
def test_scalar_series_adds_layers_in_order(mu):
    # summing the alternating layers in order of degree keeps the rounding of
    # a layer-by-layer sum; single rows and many rows take different paths
    xs = np.linspace(0.5, 30.0, 40)
    values, _, degree = bessel_series_eigs(xs[:, None], mu, 1, 1e-10)
    for x, value in zip(xs, values):
        assert value == _scalar_series_by_layers(x, mu, degree)
        one = bessel_from_eigs(np.array([x]), mu, 1)
        assert one.value == _scalar_series_by_layers(x, mu, one.degree_used)


def _cached_entries() -> int:
    """Entries held by every lru_cache in jack_series, summed."""
    return sum(
        obj.cache_info().currsize for obj in vars(jack_series).values() if hasattr(obj, "cache_info")
    )


def test_series_raises_before_building_tables():
    # the per-(k, q) layer cache and the monic tables are among those summed
    assert hasattr(jack_series._layer, "cache_info") and hasattr(jack_series._monic_tables, "cache_info")
    before = _cached_entries()
    tables = set(jack_series._TABLES)
    with pytest.raises(BesselSeriesError, match=f"more than {K_MAX} layers"):
        bessel_from_eigs(np.array([6000.0, 2500.0, 1000.0, 500.0]), 5.25, 1, target_tol=1e-10)
    assert _cached_entries() == before
    assert set(jack_series._TABLES) == tables


@pytest.mark.parametrize("mu", [0.6, 1.5])
def test_scalar_series_matches_hyp0f1_up_to_t_30(mu):
    mpmath = pytest.importorskip("mpmath")
    for x in np.geomspace(0.5, 30.0, 25):
        got = bessel_from_eigs(np.array([x]), mu, 1).value
        with mpmath.workdps(40):
            want = float(mpmath.hyp0f1(mu, -x))
        assert abs(got - want) <= 1e-10


def test_series_table_grown_by_concurrent_callers():
    # threads growing one (q, d, mu) table to different degrees at once must
    # each get the serial result
    q, d, mu = 2, 2, 3.75  # an index no other test uses
    eigs = [np.array([[0.1 * i, 0.05 * i]]) for i in range(1, 201)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(bessel_series_eigs, e, mu, d, 1e-12) for e in eigs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    jack_series._TABLES.pop((q, d, mu))
    for e, (vals, bnds, k) in zip(eigs, threaded):
        want_vals, want_bnds, want_k = bessel_series_eigs(e, mu, d, 1e-12)
        assert k == want_k and bnds[0] == want_bnds[0]
        assert vals[0] == want_vals[0]
