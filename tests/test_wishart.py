"""Square-root Wishart laws: sampling, densities, Fourier transform, semigroup."""

import math
import re

import numpy as np
import pytest
import scipy.stats

from conebessel import wishart
from conebessel.ball_measure import tri_factor_batch
from conebessel.cone_core import HypergroupParams, psd_sqrt, random_psd
from conebessel.jack_series import character_phi_batch
from conebessel.wishart import (
    WishartSpec,
    fourier_closed,
    sample_scaled_batch,
    sample_scaled_factor_batch,
    sample_standard_batch,
    semigroup_check,
    translated_density,
)


def _rng(k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([2026, 5, k]))


def _radial_weight(mu: float, r: np.ndarray) -> np.ndarray:
    # reference cone measure on the half line: (2 pi)^mu 2^(1-mu)/Gamma(mu) r^(2mu-1) dr
    return (2.0 * np.pi) ** mu * 2.0 ** (1.0 - mu) / math.gamma(mu) * r ** (2.0 * mu - 1.0)


class TestSpecValidation:
    def test_default_scale_is_identity(self):
        p = HypergroupParams(2, 1, 3.0)
        spec = WishartSpec(p)
        assert np.array_equal(spec.scale_sq, np.eye(2))
        assert np.array_equal(spec.covariance, np.eye(2))

    def test_covariance_multiplies_time(self):
        p = HypergroupParams(2, 1, 3.0)
        ssq = np.array([[2.0, 0.5], [0.5, 1.0]])
        spec = WishartSpec(p, ssq, t=0.25)
        assert np.allclose(spec.covariance, 0.25 * ssq)

    def test_wrong_shape_rejected(self):
        p = HypergroupParams(2, 1, 3.0)
        with pytest.raises(ValueError, match="scale_sq"):
            WishartSpec(p, np.eye(3))

    def test_indefinite_scale_rejected(self):
        p = HypergroupParams(2, 1, 3.0)
        with pytest.raises(ValueError, match="positive semidefinite"):
            WishartSpec(p, np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_negative_time_rejected(self):
        p = HypergroupParams(1, 1, 2.0)
        for t in (-0.1, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                WishartSpec(p, t=t)

    def test_zero_time_is_point_mass_at_zero(self):
        p = HypergroupParams(2, 2, 4.0)
        spec = WishartSpec(p, t=0.0)
        z = sample_scaled_batch(spec, 5, _rng(0))
        assert z.shape == (5, 2, 2)
        assert np.all(z == 0)

    def test_scale_root_is_taken_once_per_law(self, monkeypatch):
        p = HypergroupParams(2, 2, 4.0)
        spec = WishartSpec(p, np.array([[2.0, 0.5j], [-0.5j, 1.0]]), t=0.5)
        calls = []
        monkeypatch.setattr(wishart, "psd_sqrt", lambda a: calls.append(a) or psd_sqrt(a))
        rng = _rng(11)
        factors = [sample_scaled_factor_batch(spec, 7, rng) for _ in range(3)]
        assert len(calls) == 1
        # the draws are T* sqrt(t) sqrt(scale_sq), T from the triangular
        # construction, up to the rounding of the sums
        rng = _rng(11)
        root = math.sqrt(spec.t) * psd_sqrt(spec.scale_sq)
        for f in factors:
            t = tri_factor_batch(7, 2, 2, 4.0, rng)
            want = np.swapaxes(t, -1, -2).conj() @ root
            np.testing.assert_allclose(f, want, rtol=0, atol=1e-15 * np.abs(want).max())

    def test_rank_deficient_scale_not_regular(self):
        # the root of a rank-one scale has a rounding-sized eigenvalue, not an exact 0
        p = HypergroupParams(2, 1, 2.0)
        u = np.array([0.6, 0.8])
        spec = WishartSpec(p, np.outer(u, u))
        with pytest.raises(ValueError, match="regular"):
            translated_density(p, np.zeros((2, 2)), spec.scale, np.eye(2))

    def test_density_requires_regular_covariance(self):
        # the t = 0 law is the point mass at 0: its zero scale has no density
        p = HypergroupParams(2, 1, 2.0)
        spec = WishartSpec(p, t=0.0)
        with pytest.raises(ValueError, match="regular"):
            translated_density(p, np.zeros((2, 2)), spec.scale, np.eye(2))

    def test_translated_density_rejects_singular_scale(self):
        p = HypergroupParams(2, 1, 2.0)
        s = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="regular"):
            translated_density(p, np.eye(2), s, np.eye(2))

    @pytest.mark.parametrize("name,value,message", [
        ("x", 1.0, "x must be (2, 2), got shape ()"),
        ("x", np.eye(2)[None], "x must be (2, 2), got shape (1, 2, 2)"),
        ("s", 1.0, "s must be (2, 2), got shape ()"),
        ("y", 1.0, "y must be (..., 2, 2), got shape ()"),
        ("y", np.ones(2), "y must be (..., 2, 2), got shape (2,)"),
    ], ids=["x-scalar", "x-stack", "s-scalar", "y-scalar", "y-vector"])
    def test_translated_density_names_a_misshapen_argument(self, name, value, message):
        p = HypergroupParams(2, 1, 2.0)
        args = {"x": np.eye(2), "s": np.eye(2), "y": np.eye(2)} | {name: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            translated_density(p, **args)


class TestScalarLaw:
    """q = 1 reduces to a chi distribution, which pins every constant."""

    @pytest.mark.parametrize("mu", [1.0, 2.5])
    def test_standard_samples_follow_chi(self, mu):
        p = HypergroupParams(1, 1, mu)
        z = sample_standard_batch(p, 20_000, _rng(1))[:, 0, 0]
        stat = scipy.stats.kstest(z, scipy.stats.chi(2.0 * mu).cdf)
        assert stat.pvalue > 1e-3

    def test_scaled_samples_follow_scaled_chi(self):
        mu = 2.0
        p = HypergroupParams(1, 1, mu)
        spec = WishartSpec(p, np.array([[1.69]]), t=0.5)
        sigma = math.sqrt(1.69 * 0.5)
        z = sample_scaled_batch(spec, 20_000, _rng(2))[:, 0, 0]
        stat = scipy.stats.kstest(z, scipy.stats.chi(2.0 * mu, scale=sigma).cdf)
        assert stat.pvalue > 1e-3

    @pytest.mark.parametrize("mu,cov", [(1.5, 1.0), (2.5, 1.96), (0.8, 0.49)])
    def test_density_matches_chi_pdf(self, mu, cov):
        # the law's density is its translate by 0, taken against the reference
        # cone measure, so multiplying by the measure's radial weight must
        # reproduce the Lebesgue chi pdf
        p = HypergroupParams(1, 1, mu)
        spec = WishartSpec(p, np.array([[cov]]))
        chi = scipy.stats.chi(2.0 * mu, scale=math.sqrt(cov))
        for r in (0.3, 0.8, 1.5, 2.4):
            dens = translated_density(p, np.zeros((1, 1)), spec.scale, np.array([[r]]))
            lhs = dens * _radial_weight(mu, np.array(r))
            assert lhs == pytest.approx(chi.pdf(r), rel=1e-12)

    def test_density_integrates_to_one(self):
        mu = 1.7
        p = HypergroupParams(1, 1, mu)
        spec = WishartSpec(p)
        grid = np.linspace(1e-6, 12.0, 4001)
        vals = translated_density(p, np.zeros((1, 1)), spec.scale, grid[:, None, None])
        total = np.trapezoid(vals * _radial_weight(mu, grid), grid)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestTranslatedDensity:
    """Point mass convolved with the scaled law, against the noncentral
    chi-square reduction available at q = 1."""

    @pytest.mark.parametrize("mu", [1.5, 2.5])
    @pytest.mark.parametrize("x,s", [(0.5, 1.0), (1.2, 1.0), (0.9, 1.4)])
    def test_scalar_case_is_noncentral_chi_square(self, mu, x, s):
        p = HypergroupParams(1, 1, mu)
        ncx2 = scipy.stats.ncx2(df=2.0 * mu, nc=(x / s) ** 2)
        for y in (0.3, 0.8, 1.7, 2.6):
            # y^2/s^2 follows the noncentral law, so the Lebesgue pdf of y
            # is ncx2.pdf(y^2/s^2) * 2y/s^2
            lebesgue = ncx2.pdf((y / s) ** 2) * 2.0 * y / s**2
            got = translated_density(
                p, np.array([[x]]), np.array([[s]]), np.array([[y]]), target_tol=1e-13
            )
            assert got * _radial_weight(mu, np.array(y)) == pytest.approx(lebesgue, rel=1e-9)

    def test_zero_translation_recovers_plain_density(self):
        # (2 pi)^(-q mu) det(cov)^(-mu) exp(-tr(y^2 cov^(-1)) / 2), cov = s^2
        for d, mu, s, y in (
            (1, 2.5, np.array([[1.1, 0.2], [0.2, 0.9]]), np.array([[0.9, 0.1], [0.1, 0.6]])),
            (2, 4.5, np.array([[1.1, 0.2 - 0.1j], [0.2 + 0.1j, 0.9]]), np.array([[0.9, 0.1j], [-0.1j, 0.6]])),
        ):
            p = HypergroupParams(2, d, mu)
            cov = s @ s
            quad = np.trace(np.linalg.solve(cov, y @ y)).real
            want = (2.0 * np.pi) ** (-2 * p.mu) * np.linalg.det(cov).real ** (-p.mu) * np.exp(-0.5 * quad)
            got = translated_density(p, np.zeros((2, 2), dtype=p.dtype), s, y)
            assert got == pytest.approx(want, rel=1e-10), d

    def test_symmetric_in_translation_and_argument(self):
        # the convolution kernel is symmetric, so swapping x and y is free
        p = HypergroupParams(2, 2, 4.0)
        s = np.eye(2)
        x = np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 0.7]])
        y = np.array([[0.5, -0.2j], [0.2j, 1.2]])
        assert translated_density(p, x, s, y) == pytest.approx(
            translated_density(p, y, s, x), rel=1e-12
        )


    @pytest.mark.parametrize("q,d", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_stack_gives_the_pointwise_values(self, q, d):
        p = HypergroupParams(q, d, 0.5 * d * (q - 1) + 2.5)
        rng = _rng(20 + 2 * q + d)
        x = random_psd(p, rng, norm=0.8)
        s = psd_sqrt(random_psd(p, rng, norm=0.5) + np.eye(q))
        ys = np.stack([random_psd(p, rng, norm=c) for c in (0.0, 0.4, 1.1, 2.3)])
        got = translated_density(p, x, s, ys, target_tol=1e-13)
        assert isinstance(got, np.ndarray) and got.shape == (4,)
        one = [translated_density(p, x, s, y, target_tol=1e-13) for y in ys]
        assert all(type(v) is float for v in one)
        # one series degree serves the whole stack, so bits may differ
        np.testing.assert_allclose(got, one, rtol=1e-12, atol=0)


class TestFourier:
    def test_transform_at_zero_is_one(self):
        p = HypergroupParams(2, 2, 4.0)
        assert fourier_closed(p, np.eye(2), np.zeros((2, 2))) == 1.0

    def test_scalar_closed_form(self):
        p = HypergroupParams(1, 1, 2.0)
        got = fourier_closed(p, np.array([[0.7]]), np.array([[1.3]]))
        assert got == pytest.approx(math.exp(-0.5 * 0.7 * 1.3**2), rel=1e-14)

    def test_matches_empirical_transform(self):
        p = HypergroupParams(2, 2, 4.0)
        cov = np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]])
        spec = WishartSpec(p, cov)
        z = sample_scaled_batch(spec, 20_000, _rng(3))
        for c in (0.4, 0.9):
            s = c * np.eye(2)
            vals = character_phi_batch(p, s, z)
            se = float(np.sqrt(vals.var(ddof=1) / len(vals)))
            tgt = fourier_closed(p, cov, s)
            assert abs(float(vals.mean()) - tgt) <= 4.0 * se + 1e-9


class TestSemigroup:
    def test_convolution_adds_squared_scales(self):
        p = HypergroupParams(2, 1, 2.5)
        a_sq = np.eye(2)
        b_sq = np.array([[1.0, 0.3], [0.3, 0.7]])
        rep = semigroup_check(p, a_sq, b_sq, 20_000, _rng(4))
        assert rep["passed"]
        assert rep["max_dev_sigma"] <= 3.0
        assert len(rep["grid"]) >= 6

    def test_complex_case(self):
        p = HypergroupParams(2, 2, 4.0)
        rep = semigroup_check(p, 0.5 * np.eye(2), 0.5 * np.eye(2), 20_000, _rng(5))
        assert rep["passed"]


class TestStructuralLaws:
    def test_rank_deficient_scale_embeds_a_line(self):
        # scale u u^T confines samples to the span of u; the surviving
        # eigenvalue squared is a chi-square with the full degree count
        p = HypergroupParams(2, 1, 2.0)
        u = np.array([0.6, 0.8])
        spec = WishartSpec(p, np.outer(u, u))
        z = sample_scaled_batch(spec, 20_000, _rng(6))
        proj = np.outer(u, u)
        off = z - np.einsum("ij,njk,kl->nil", proj, z, proj)
        assert np.max(np.abs(off)) < 1e-10
        lam_sq = np.einsum("i,nij,j->n", u, np.einsum("nij,njk->nik", z, z), u)
        stat = scipy.stats.kstest(lam_sq, scipy.stats.chi2(2.0 * p.mu).cdf)
        assert stat.pvalue > 1e-3

    def test_standard_law_is_unitary_invariant(self):
        p = HypergroupParams(2, 2, 4.0)
        theta = 0.7
        u = np.array(
            [
                [math.cos(theta), -math.sin(theta) * np.exp(0.4j)],
                [math.sin(theta) * np.exp(-0.4j), math.cos(theta)],
            ]
        )
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        za = sample_standard_batch(p, 15_000, _rng(7))
        zb = sample_standard_batch(p, 15_000, _rng(8))
        zb = np.einsum("ij,njk,kl->nil", u, zb, u.conj().T)
        # the corner entry of the square is not rotation invariant, so it
        # probes the law beyond spectral statistics
        xa = np.einsum("nij,nji->n", za, za).real  # sanity: trace statistic
        xb = np.einsum("nij,nji->n", zb, zb).real
        assert scipy.stats.ks_2samp(xa, xb).pvalue > 1e-3
        ca = (za @ za)[:, 0, 0].real
        cb = (zb @ zb)[:, 0, 0].real
        assert scipy.stats.ks_2samp(ca, cb).pvalue > 1e-3

    def test_small_time_mass_escapes_slower_than_linearly(self):
        p = HypergroupParams(2, 1, 2.0)
        radius = math.sqrt(1.55)
        ratios = []
        for k, t in enumerate((0.1, 0.05)):
            z = sample_scaled_batch(WishartSpec(p, t=t), 20_000, _rng(9 + k))
            norms = np.sqrt(np.einsum("nij,nji->n", z, z).real)
            ratios.append(float(np.mean(norms > radius)) / t)
        assert ratios[1] < 0.25 * ratios[0]

    def test_samples_are_on_the_cone(self):
        for q, d in ((2, 1), (2, 2), (3, 1)):
            p = HypergroupParams(q, d, d * (q - 0.5) + 1.5)
            z = sample_standard_batch(p, 200, _rng(20 + q + d))
            herm = np.max(np.abs(z - np.swapaxes(z, -1, -2).conj()))
            assert herm < 1e-12
            eigs = np.linalg.eigvalsh(z)
            assert eigs.min() > -1e-10
