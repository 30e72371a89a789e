import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conebessel.cone_core import HypergroupParams, gaussian_entries, random_psd
from conebessel.jack_series import character_phi
from conebessel.ball_measure import EmpiricalMeasure, conv_sample_batch
from conebessel.hypergroup_algebra import (
    automorphism_apply,
    automorphism_apply_batch,
    fourier_empirical,
)


def test_automorphism_validation():
    automorphism_apply(np.array([[2.0, 1.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="singular"):
        automorphism_apply(np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError, match="square"):
        automorphism_apply(np.zeros((2, 3)), np.eye(2))


def test_apply_is_conjugation_on_squares():
    rng = np.random.default_rng(40)
    p = HypergroupParams(3, 2, 7.0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = random_psd(p, rng)
    out = automorphism_apply(a, r)
    assert_allclose(out @ out, a @ r @ r @ a.conj().T, atol=1e-9)


def test_group_law():
    rng = np.random.default_rng(41)
    p = HypergroupParams(2, 1, 3.0)
    for _ in range(10):
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        if abs(np.linalg.det(a)) < 0.1 or abs(np.linalg.det(b)) < 0.1:
            continue
        r = random_psd(p, rng)
        lhs = automorphism_apply(a, automorphism_apply(b, r))
        rhs = automorphism_apply(a @ b, r)
        assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


def test_batch_apply_matches_single():
    # one point maps one way: alone or inside a stack, the same bits
    rng = np.random.default_rng(42)
    for q in (1, 2, 3):
        for d in (1, 2):
            p = HypergroupParams(q, d, float(q * d))
            a = gaussian_entries(rng, (q, q), d)
            rs = np.stack([random_psd(p, rng) for _ in range(50)])
            batch = automorphism_apply_batch(a, rs)
            for one, r in zip(batch, rs):
                assert np.array_equal(one, automorphism_apply(a, r)), (q, d)


def test_character_swaps_to_the_adjoint_parameter():
    # phi_s(T_a r) = phi_{T_{a*} s}(r), pointwise
    rng = np.random.default_rng(43)
    for d in (1, 2):
        p = HypergroupParams(2, d, 3.5)
        a = rng.standard_normal((2, 2))
        if d == 2:
            a = a + 1j * rng.standard_normal((2, 2))
        a = 0.6 * a
        for _ in range(5):
            r = random_psd(p, rng, norm=1.0)
            s = random_psd(p, rng, norm=1.0)
            lhs = character_phi(p, s, automorphism_apply(a, r))
            rhs = character_phi(p, automorphism_apply(a.conj().T, s), r)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)


def test_fourier_empirical_weighted_average():
    p = HypergroupParams(2, 1, 2.5)
    pts = np.stack([np.eye(2), 2.0 * np.eye(2)])
    m = EmpiricalMeasure(p, pts, weights=np.array([1.0, 3.0]))
    s = 0.4 * np.eye(2)
    est, se = fourier_empirical(p, m, s)
    want = 0.25 * character_phi(p, s, pts[0]) + 0.75 * character_phi(p, s, pts[1])
    assert est == pytest.approx(want, rel=1e-12)
    assert se >= 0.0


def test_pushforward_identity_in_law():
    # T_a(conv(x, y)) has the law of conv(T_a x, T_a y): compare transforms
    rng = np.random.default_rng(48)
    p = HypergroupParams(2, 1, 2.5)
    a = np.array([[1.2, 0.3], [0.0, 0.8]])
    x = random_psd(p, rng, norm=1.0)
    y = random_psd(p, rng, norm=0.9)
    n = 20_000
    za = automorphism_apply_batch(a, conv_sample_batch(p, x, y, n, rng))
    zb = conv_sample_batch(p, automorphism_apply(a, x), automorphism_apply(a, y), n, rng)
    for c in (0.3, 0.7):
        s = c * np.eye(2) / max(np.linalg.norm(a), 1.0)
        ma = EmpiricalMeasure(p, za)
        mb = EmpiricalMeasure(p, zb)
        ea, sa = fourier_empirical(p, ma, s)
        eb, sb = fourier_empirical(p, mb, s)
        assert abs(ea - eb) <= 4.0 * math.hypot(sa, sb)
