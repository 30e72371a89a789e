"""Walk engine, moment functions, and the three limit experiments."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from conebessel import ball_measure, randwalk_limits
from conebessel.ball_measure import (
    EmpiricalMeasure,
    conv_factor_batch,
    norm_excess_watermark,
    sample_ball_batch,
    tri_factor_batch,
)
from conebessel.cone_core import HypergroupParams, cone_rho, gram, psd_sqrt_batch, random_psd, two_sample
from conebessel.jack_series import character_panel, character_phi
from conebessel.randwalk_limits import (
    EmpiricalStep,
    PointMassStep,
    WishartStep,
    _walk_snapshots,
    clt_experiment,
    martingale_check,
    moment,
    moment_m2,
    slln_experiment,
    walk_simulate,
)
from conebessel.wishart import WishartSpec, sample_scaled_batch


def _rng(k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([2026, 6, k]))


def _hermitian(p, rng):
    """A random Hermitian matrix of the field, neither sign definite."""
    return random_psd(p, rng, norm=rng.uniform(0.3, 1.5)) - random_psd(p, rng, norm=rng.uniform(0.3, 1.5))


def _layer_two(p, s, r):
    """Series layer 2 at the spectrum of a = (1/4) s r^2 s, from the power sums
    p1 = tr a, p2 = tr a^2: C_(2)/(mu)_(2) + C_(1,1)/(mu)_(1,1), with no table."""
    a = 0.25 * s @ r @ r @ s
    p1, p2 = np.trace(a).real, np.trace(a @ a).real
    alpha, mu = p.alpha, p.mu
    return (p1**2 + alpha * p2) / ((1 + alpha) * mu * (mu + 1)) + alpha * (p1**2 - p2) / (
        (1 + alpha) * mu * (mu - 0.5 * p.d)
    )


class TestMomentSpec:
    """The directions moment accepts: their count is the order."""

    def test_odd_order_rejected(self):
        p = HypergroupParams(1, 1, 2.0)
        with pytest.raises(ValueError, match="odd"):
            moment(p, (np.eye(1),), np.eye(1))

    def test_empty_directions_rejected(self):
        p = HypergroupParams(1, 1, 2.0)
        with pytest.raises(ValueError, match="even order"):
            moment(p, (), np.eye(1))


class TestMomentFunctions:
    @pytest.mark.parametrize("d", [1, 2])
    def test_second_moment_closed_form_vs_differentiation(self, d):
        p = HypergroupParams(2, d, 3.5)
        if d == 1:
            s1 = np.diag([1.0, 0.5])
            s2 = np.array([[0.3, 0.2], [0.2, 1.0]])
            r = np.array([[1.2, 0.4], [0.4, 0.7]])
        else:
            s1 = np.array([[1.0, 0.2j], [-0.2j, 0.5]])
            s2 = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 1.0]])
            r = np.array([[1.2, 0.4 + 0.3j], [0.4 - 0.3j, 0.9]])
        assert moment(p, (s1, s2), r) == pytest.approx(moment_m2(p, s1, s2, r), rel=1e-13)

    @pytest.mark.parametrize("c", [0.7, 1.3])
    def test_scalar_fourth_moment_closed_form(self, c):
        # for q = 1 the character is a normalized scalar Bessel function whose
        # Taylor coefficient gives m4 = 3 c^4 / (4 mu (mu + 1)) in direction 1
        mu = 2.0
        p = HypergroupParams(1, 1, mu)
        got = moment(p, tuple(np.eye(1) for _ in range(4)), np.array([[c]]))
        assert got == pytest.approx(3.0 * c**4 / (4.0 * mu * (mu + 1.0)), rel=1e-14)

    @pytest.mark.parametrize("order", [2, 4, 6])
    @pytest.mark.parametrize("d, mu", [(1, 0.75), (2, 2.5)])
    def test_scalar_moments_are_taylor_coefficients(self, order, d, mu):
        # phi_s(c) = 0F1(mu; -(s c)^2 / 4): in direction 1, the moment of order
        # 2j is (2j)! c^(2j) / (j! 4^j (mu)_j)
        p = HypergroupParams(1, d, mu)
        j = order // 2
        for c in (0.4, 1.0, 2.3):
            poch = math.prod(mu + i for i in range(j))
            want = math.factorial(order) * c**order / (math.factorial(j) * 4**j * poch)
            got = moment(p, (np.eye(1, dtype=p.dtype),) * order, np.array([[c]], dtype=p.dtype))
            assert got == pytest.approx(want, rel=1e-14), c

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_second_moment_at_every_q(self, q, d):
        # q = 4 takes the spectra from LAPACK (congruence_eigs)
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = _rng(60 + 2 * q + d)
        for _ in range(10):
            s1, s2 = _hermitian(p, rng), _hermitian(p, rng)
            r = random_psd(p, rng, norm=rng.uniform(0.3, 2.0))
            want = moment_m2(p, s1, s2, r)
            scale = moment_m2(p, s1, s1, r) + moment_m2(p, s2, s2, r)  # Cauchy-Schwarz: >= 2 |want|
            assert abs(moment(p, (s1, s2), r) - want) <= 1e-13 * scale

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_fourth_moment_in_one_direction_is_layer_two(self, q, d):
        # the fourth derivative of the quartic form L_2 along s is 24 L_2(s);
        # over 2! this is the moment
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = _rng(70 + 2 * q + d)
        for _ in range(10):
            s = _hermitian(p, rng)
            r = random_psd(p, rng, norm=rng.uniform(0.3, 2.0))
            assert moment(p, (s,) * 4, r) == pytest.approx(12.0 * _layer_two(p, s, r), rel=1e-13)

    @pytest.mark.parametrize("q, d", [(2, 1), (3, 2), (4, 1)])
    def test_fourth_moment_is_symmetric_in_its_directions(self, q, d):
        p = HypergroupParams(q, d, cone_rho(q, d) + 0.5)
        rng = _rng(80 + q)
        dirs = [random_psd(p, rng, norm=rng.uniform(0.3, 1.5)) for _ in range(4)]
        r = random_psd(p, rng, norm=1.2)
        values = [moment(p, [dirs[i] for i in perm], r) for perm in itertools.permutations(range(4))]
        # the polarization's terms are at most about the moment along the sum
        # of the (PSD) directions; the spread measured 1.4e-17 of it
        assert max(values) - min(values) <= 1e-15 * moment(p, (sum(dirs),) * 4, r)

    def test_moment_bound_in_operator_norms(self):
        p = HypergroupParams(2, 1, 3.0)
        s1 = np.diag([1.0, 0.5])
        s2 = np.array([[0.3, 0.2], [0.2, 1.0]])
        r = np.array([[1.2, 0.4], [0.4, 0.7]])
        val = moment(p, (s1, s2), r)
        cap = np.linalg.norm(r, 2) ** 2 * np.linalg.norm(s1, 2) * np.linalg.norm(s2, 2)
        assert abs(val) <= 1.05 * cap
        val4 = moment(p, (s1, s1, s2, s2), r)
        cap4 = np.linalg.norm(r, 2) ** 4 * (
            np.linalg.norm(s1, 2) ** 2 * np.linalg.norm(s2, 2) ** 2
        )
        assert abs(val4) <= 1.05 * cap4


class TestStepLaws:
    def test_point_mass_step(self):
        p = HypergroupParams(2, 1, 2.5)
        atom = np.diag([0.8, 0.4])
        step = PointMassStep(atom)
        y = step.factor_batch(p, 7, _rng(0))
        assert y.shape == (7, 2, 2)
        assert np.all(y == atom)
        assert np.allclose(step.mean_square(p), atom @ atom)
        s = 0.3 * np.eye(2)
        assert step.fourier(p, s) == pytest.approx(character_phi(p, s, atom), abs=1e-15)

    def test_empirical_step_mixture_transform(self):
        p = HypergroupParams(2, 1, 2.5)
        atoms = np.stack([np.zeros((2, 2)), 2.0 * np.eye(2)])
        meas = EmpiricalMeasure(p, atoms, weights=np.array([0.75, 0.25]))
        step = EmpiricalStep(meas)
        s = 0.4 * np.eye(2)
        want = 0.75 + 0.25 * character_phi(p, s, 2.0 * np.eye(2))
        assert step.fourier(p, s) == pytest.approx(want, abs=1e-13)
        assert np.allclose(step.mean_square(p), 0.25 * 4.0 * np.eye(2))
        y = step.factor_batch(p, 400, _rng(1))
        traces = np.einsum("nii->n", y).real
        assert set(np.round(traces, 12)) <= {0.0, 4.0}

    def test_wishart_step_mean_square(self):
        p = HypergroupParams(2, 1, 2.5)
        cov = np.array([[1.0, 0.3], [0.3, 0.7]])
        step = WishartStep(WishartSpec(p, cov))
        assert np.allclose(step.mean_square(p), 2.0 * p.mu * cov)
        y = step.factor_batch(p, 20_000, _rng(2))
        tr_sq = np.einsum("nij,nij->n", y, y.conj()).real  # tr y^2 = ||Y||_F^2
        se = float(np.sqrt(tr_sq.var(ddof=1) / len(tr_sq)))
        assert abs(tr_sq.mean() - 2.0 * p.mu * np.trace(cov)) <= 4.0 * se


class TestWalkEngine:
    def test_config_validation(self):
        p = HypergroupParams(1, 1, 1.0)
        step = PointMassStep(np.eye(1))
        with pytest.raises(ValueError, match="n_steps"):
            walk_simulate(p, step, 0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_steps"):
            walk_simulate(p, step, 10, 0, np.random.default_rng(0))

    def test_paths_start_at_zero_with_full_shape(self):
        p = HypergroupParams(2, 1, 2.5)
        paths = walk_simulate(p, PointMassStep(np.diag([0.8, 0.4])), 6, 50, np.random.default_rng(3))
        assert paths.shape == (50, 7, 2, 2)
        assert np.all(paths[:, 0] == 0)

    def test_first_step_is_the_atom(self):
        # convolving the origin with a point mass must return the point
        p = HypergroupParams(2, 1, 2.5)
        atom = np.diag([0.8, 0.4])
        paths = walk_simulate(p, PointMassStep(atom), 1, 32, np.random.default_rng(4))
        assert np.allclose(paths[:, 1], atom, atol=1e-12)

    def test_support_bound_along_paths(self):
        # spectral norms add under the convolution, so ||S_n|| <= n ||atom||
        p = HypergroupParams(2, 2, 4.0)
        atom = np.eye(2)
        paths = walk_simulate(p, PointMassStep(atom), 8, 64, np.random.default_rng(5))
        for k in range(9):
            top = np.linalg.eigvalsh(paths[:, k])[:, -1].max()
            assert top <= k + 1e-9

    @pytest.mark.parametrize("d", [1, 2])
    def test_singular_point_steps_stay_in_their_face(self, d):
        # steps at the singular point diag(1, 0): every state has rank one
        p = HypergroupParams(2, d, d * 1.5 + 1.5)
        replicas = 2000
        step = PointMassStep(np.diag([1.0, 0.0]))
        paths = walk_simulate(p, step, 16, replicas, np.random.default_rng(14))
        for k in range(1, 17):
            sq = paths[:, k] @ paths[:, k]
            assert np.abs(sq[:, 1, :]).max() <= 1e-12
            assert np.abs(sq[:, :, 1]).max() <= 1e-12
            e00 = sq[:, 0, 0].real
            se = float(e00.std(ddof=1)) / math.sqrt(replicas)
            # E[S_k^2] = k E[Y^2]; at k = 1 the law is a point mass
            assert abs(float(e00.mean()) - k) <= 5.0 * se + 1e-12 * k

    def test_zero_steps_from_the_origin_stay_exactly_zero(self):
        p = HypergroupParams(2, 2, 4.5)
        paths = walk_simulate(p, PointMassStep(np.zeros((2, 2))), 4, 50, np.random.default_rng(15))
        assert np.all(paths == 0)

    def test_norm_audit_sees_every_walk_step(self, monkeypatch):
        p = HypergroupParams(2, 1, 3.0)
        step = WishartStep(WishartSpec(p))
        monkeypatch.setattr(ball_measure, "_norm_excess", 0.0)
        _walk_snapshots(p, step, [8], 500, _rng(16))
        assert norm_excess_watermark() <= 1e-9
        rows = []
        record = ball_measure._record_norm_excess

        def spy(fs, budget):
            rows.append(fs.shape[0])
            record(fs, budget)

        monkeypatch.setattr(ball_measure, "_record_norm_excess", spy)
        _walk_snapshots(p, step, [8], 500, _rng(17))
        assert rows == [500] * 8


# A reference walk step in the batch-first formulas the stack-last kernels
# replaced: stacked @, einsum over the short trailing axis, and column MGS on
# copied columns.  Each draws from the generator in the order of the library:
# the step, then the ball's Z, then its triangular factor T.


def _ref_gaussian(rng, shape, d):
    g = rng.standard_normal((d, *shape))
    return g[0] if d == 1 else g[0] + 1j * g[1]


def _ref_tri(n, q, d, shape, rng):
    t = np.zeros((n, q, q), dtype=complex if d == 2 else float)
    for j in range(q):
        t[:, j, j] = np.sqrt(rng.gamma(shape=shape - 0.5 * d * j, scale=2.0, size=n))
    rows, cols = np.tril_indices(q, k=-1)
    if len(rows):
        t[:, rows, cols] = _ref_gaussian(rng, (n, len(rows)), d)
    return t


def _ref_ball(p, n, rng):
    q, d = p.q, p.d
    m = np.concatenate(
        [_ref_gaussian(rng, (n, q, q), d), _ref_tri(n, q, d, p.mu - 0.5 * d * q, rng)], axis=-1
    )
    rows = [m[:, i, :] for i in range(q)]  # row modified Gram-Schmidt
    for i, a in enumerate(rows):
        a /= np.sqrt(np.einsum("nk,nk->n", a, a.conj()).real)[:, None]
        for b in rows[i + 1:]:
            b -= np.einsum("nk,nk->n", b, a.conj())[:, None] * a
    return m


def _ref_conv(p, xs, ys, rng):
    f = np.swapaxes(_ref_ball(p, xs.shape[0], rng), -1, -2).conj() @ ys
    f[:, : p.q] += xs
    return f


def _ref_r(f):
    q = f.shape[-1]
    cols = np.moveaxis(f, -1, 0).copy()
    r = np.zeros(f.shape[:-2] + (q, q), dtype=f.dtype)
    for j, a in enumerate(cols):
        norm = np.sqrt(np.einsum("nk,nk->n", a, a.conj()).real)
        r[:, j, j] = norm
        a *= np.divide(1.0, norm, out=np.zeros_like(norm), where=norm > 0.0)[:, None]
        for k in range(j + 1, q):
            c = np.einsum("nk,nk->n", cols[k], a.conj())
            r[:, j, k] = c
            cols[k] -= c[:, None] * a
    return r


def _step_laws(p, rng):
    """(law, reference draw of its factors) for the three step laws."""
    scale_sq = random_psd(p, rng, norm=1.0) + 0.2 * np.eye(p.q)
    spec = WishartSpec(p, scale_sq)
    point = random_psd(p, rng, norm=1.3) + 0.1 * np.eye(p.q)
    atoms = np.stack([random_psd(p, rng, norm=c) for c in (0.5, 1.0, 1.5)])
    weights = np.array([0.5, 0.3, 0.2])
    return [
        (
            WishartStep(spec),
            lambda n, g: np.swapaxes(_ref_tri(n, p.q, p.d, p.mu, g), -1, -2).conj() @ spec.scale,
        ),
        (PointMassStep(point), lambda n, g: np.broadcast_to(point, (n, p.q, p.q))),
        (
            EmpiricalStep(EmpiricalMeasure(p, atoms, weights=weights)),
            lambda n, g: atoms[g.choice(3, size=n, p=weights)],
        ),
    ]


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


_FIELDS = [(q, d) for q in (1, 2, 3) for d in (1, 2)]


@pytest.mark.parametrize("q, d", _FIELDS)
class TestSameDrawsSameNumbers:
    """The stack-last kernels make the draws of the batch-first formulas, in
    the same order, and agree with them to round-off."""

    n = 60

    def test_walk_matches_the_reference_step(self, q, d):
        p = HypergroupParams(q, d, d * (q - 0.5) + 1.5)
        for law, ref_factors in _step_laws(p, _rng(300 + 10 * q + d)):
            rng, ref_rng = _rng(400 + q), _rng(400 + q)
            snaps = _walk_snapshots(p, law, [0, 16], self.n, rng)
            x = np.zeros((self.n, q, q), dtype=p.dtype)
            for _ in range(16):
                x = _ref_r(_ref_conv(p, x, ref_factors(self.n, ref_rng), ref_rng))
            assert not snaps[0].any()  # the zero start
            _assert_close(snaps[16], x)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_kernels_match_the_reference(self, q, d):
        p = HypergroupParams(q, d, d * (q - 0.5) + 1.5)
        mu_t = p.mu - 0.5 * d * q
        rng, ref_rng = _rng(500 + q), _rng(500 + q)
        _assert_close(tri_factor_batch(self.n, q, d, mu_t, rng), _ref_tri(self.n, q, d, mu_t, ref_rng))
        _assert_close(ball_measure._ball_solve(p, self.n, rng), _ref_ball(p, self.n, ref_rng))
        xs = _ref_tri(self.n, q, d, p.mu, _rng(600))
        ys = _ref_tri(self.n, q, d, p.mu, _rng(601))  # batch-first, unlike the walk state
        _assert_close(conv_factor_batch(p, xs, ys, rng), _ref_conv(p, xs, ys, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSnapshots:
    def test_checkpoints_do_not_move_while_the_walk_goes_on(self):
        p = HypergroupParams(2, 2, 4.5)
        step = WishartStep(WishartSpec(p))
        short = _walk_snapshots(p, step, [1, 2, 3], 40, _rng(700))
        long = _walk_snapshots(p, step, [1, 2, 3, 12], 40, _rng(700))
        for k in (1, 2, 3):
            np.testing.assert_array_equal(long[k], short[k])
            assert long[k].flags.c_contiguous
        arrays = list(long.values())
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_paths_are_distinct_at_every_time(self):
        p = HypergroupParams(2, 1, 3.0)
        paths = walk_simulate(p, WishartStep(WishartSpec(p)), 6, 30, _rng(701))
        for i in range(7):
            for j in range(i + 1, 7):
                assert not np.array_equal(paths[:, i], paths[:, j]), (i, j)

def _random_unitaries(p, n, rng):
    g = rng.standard_normal((n, p.q, p.q))
    if p.d == 2:
        g = g + 1j * rng.standard_normal((n, p.q, p.q))
    return np.linalg.qr(g)[0]


def _conv_square_from_points(p, rs, ss, rng):
    """Reference: the square z^2 = r^2 + s^2 + s v r + r v* s of one
    convolution draw per row, from the points themselves."""
    v = sample_ball_batch(p, rs.shape[0], rng)
    m = ss @ v @ rs
    z2 = rs @ rs + ss @ ss + m + np.swapaxes(m, -1, -2).conj()
    return 0.5 * (z2 + np.swapaxes(z2, -1, -2).conj())


def _assert_same_law(p, za2, zb2, grid):
    """Two-sample 5-se comparison of character means at the labels in grid
    and of every entry of E[z^2], from two stacks of squares."""
    for ea, sa, eb, sb in zip(*character_panel(p, grid, za2), *character_panel(p, grid, zb2)):
        assert abs(ea - eb) <= 5.0 * math.hypot(sa, sb)
    iu = np.triu_indices(p.q)
    parts = [np.real] + ([np.imag] if p.d == 2 else [])
    for part in parts:
        for i, j in zip(*iu):
            if part is np.imag and i == j:
                continue
            diff, se = two_sample(part(za2[:, i, j]), part(zb2[:, i, j]))
            assert abs(diff) <= 5.0 * se


@pytest.mark.parametrize("d", [1, 2])
def test_scalar_factor_walk_is_the_point_walk(d):
    # at q = 1 the signed factor is the point itself, so the same draws give
    # the same path as convolving the points
    p = HypergroupParams(1, d, 0.5 * d + 1.0)
    spec = WishartSpec(p)
    n = 2000
    rng_points, rng_factors = _rng(18), _rng(18)
    points = np.zeros((n, 1, 1), dtype=p.dtype)
    for _ in range(8):
        z2 = _conv_square_from_points(p, points, sample_scaled_batch(spec, n, rng_points), rng_points)
        points = psd_sqrt_batch(z2)
    x = _walk_snapshots(p, WishartStep(spec), [8], n, rng_factors)[8]
    np.testing.assert_allclose(x, points, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
class TestSquareFactorLaw:
    """The factor path has the law of the point path: z^2 from rotated
    factors U r, V s against the point formula, at 200k draws."""

    n = 200_000

    def test_one_convolution_step(self, q, d):
        p = HypergroupParams(q, d, d * (q - 0.5) + 1.5)
        rng = _rng(100 + 10 * q + d)
        r = random_psd(p, rng, norm=1.0)
        s = random_psd(p, rng, norm=0.8)
        n = self.n
        za2 = _conv_square_from_points(
            p, np.broadcast_to(r, (n, q, q)), np.broadcast_to(s, (n, q, q)), rng
        )
        xs = _random_unitaries(p, n, rng) @ r
        ys = _random_unitaries(p, n, rng) @ s
        zb2 = gram(conv_factor_batch(p, xs, ys, rng))
        h = random_psd(p, rng, norm=1.0)
        _assert_same_law(p, za2, zb2, [0.6 * np.eye(q), 1.2 * np.eye(q), h])

    def test_eight_wishart_steps(self, q, d):
        p = HypergroupParams(q, d, d * (q - 0.5) + 1.5)
        rng = _rng(200 + 10 * q + d)
        spec = WishartSpec(p)
        n = self.n
        points = np.zeros((n, q, q), dtype=p.dtype)
        for _ in range(8):
            za2 = _conv_square_from_points(p, points, sample_scaled_batch(spec, n, rng), rng)
            points = psd_sqrt_batch(za2)
        zb2 = gram(_walk_snapshots(p, WishartStep(spec), [8], n, rng)[8])
        c = 1.0 / math.sqrt(8 * 2.0 * p.mu)
        h = random_psd(p, rng, norm=c)
        _assert_same_law(p, za2, zb2, [c * np.eye(q), 2.0 * c * np.eye(q), h])


class TestMartingale:
    def test_character_and_matrix_identities_hold(self):
        p = HypergroupParams(2, 1, 2.5)
        step = PointMassStep(np.diag([0.8, 0.4]))
        rep = martingale_check(p, step, 0.3 * np.eye(2), 16, 4000, _rng(6))
        assert rep["passed"]
        assert rep["max_dev_sigma"] <= 3.0
        assert [row["n"] for row in rep["checkpoints"]] == [1, 2, 4, 8, 16]
        assert rep["mu_hat"] == pytest.approx(
            character_phi(p, 0.3 * np.eye(2), np.diag([0.8, 0.4])), abs=1e-14
        )

    def test_decayed_transform_rejected(self):
        # around its zeros the transform gives no signal-to-noise at large n
        p = HypergroupParams(1, 1, 1.0)
        step = PointMassStep(np.eye(1))
        with pytest.raises(ValueError, match="< 0.1"):
            martingale_check(p, step, 5.0 * np.eye(1), 8, 100, _rng(7))


class TestCentralLimit:
    def test_needs_room_between_checkpoints(self):
        p = HypergroupParams(1, 1, 1.5)
        with pytest.raises(ValueError, match="n_small"):
            clt_experiment(p, PointMassStep(np.eye(1)), 4, 100, [np.eye(1)], _rng(8))

    def test_scalar_walk_converges_to_rayleigh(self):
        # mu = 1 makes the limit law an exact Rayleigh, testable pathwise
        p = HypergroupParams(1, 1, 1.0)
        paths = walk_simulate(p, PointMassStep(np.eye(1)), 64, 4000, np.random.default_rng(9))
        final = paths[:, -1, 0, 0] / 8.0
        stat = scipy.stats.kstest(final, scipy.stats.rayleigh(scale=1.0 / math.sqrt(2.0)).cdf)
        assert stat.pvalue > 1e-3

    def test_fourier_deviations_shrink_with_time(self):
        p = HypergroupParams(1, 1, 1.5)
        step = PointMassStep(np.eye(1))
        grid = [0.8 * np.eye(1), 1.6 * np.eye(1)]
        rep = clt_experiment(p, step, 32, 3000, grid, _rng(10))
        assert rep["n_small"] == 4 and rep["n_final"] == 32
        # point-mass steps make the plug-in second moment exact
        assert np.allclose(rep["sigma2_plugin"], rep["sigma2_closed"], atol=1e-12)
        assert np.allclose(rep["sigma2_closed"], np.eye(1) / (2.0 * p.mu))
        assert rep["n_eligible"] >= 1
        assert rep["sup_dev_final"] < 0.05
        for row in rep["grid"]:
            assert set(row) >= {"target", "est_small", "est_final", "eligible", "improved"}


def _nan_panel(p, grid, r2s):
    return [math.nan] * len(grid), [1.0] * len(grid)


def test_nan_characters_fail_the_martingale_and_clt_reports(monkeypatch):
    # a NaN character estimate must reach the verdict: no fold of the deviations drops it
    monkeypatch.setattr(randwalk_limits, "character_panel", _nan_panel)
    p = HypergroupParams(2, 1, 2.5)
    step = PointMassStep(np.diag([0.8, 0.4]))
    rep = martingale_check(p, step, 0.3 * np.eye(2), 8, 200, _rng(11))
    assert not rep["passed"] and math.isnan(rep["max_dev_sigma"]), rep
    assert math.isfinite(rep["matrix_dev_sigma"])
    rep = clt_experiment(p, step, 8, 200, [2.0 * np.eye(2), 3.0 * np.eye(2)], _rng(12))
    assert rep["n_eligible"] == 2 and not rep["all_eligible_improved"], rep
    assert math.isnan(rep["sup_dev_final"]), rep


class TestStrongLaw:
    def test_normalizer_rule_validation(self):
        p = HypergroupParams(1, 1, 1.0)
        step = PointMassStep(np.eye(1))
        with pytest.raises(ValueError, match="unknown normalizer"):
            slln_experiment(p, step, "cubic", 1.0, 8, 10, _rng(11))
        with pytest.raises(ValueError, match="lam in"):
            slln_experiment(p, step, "power", 2.5, 8, 10, _rng(11))

    def test_linear_normalizer_drives_ratio_down(self):
        for q, d, mu in ((1, 1, 1.0), (2, 1, 3.0)):
            p = HypergroupParams(q, d, mu)
            step = WishartStep(WishartSpec(p))
            rep = slln_experiment(p, step, "linear", 0.0, 256, 200, _rng(12))
            assert rep["checkpoints"] == [1, 2, 4, 8, 16, 32, 64, 128, 256]
            assert rep["condition_summable"]
            assert rep["medians_decreasing"], (q, d, mu)
            assert rep["frac_final_below_first"] >= 0.9, (q, d, mu)

    def test_power_normalizer_summability_flag(self):
        p = HypergroupParams(1, 1, 1.0)
        step = PointMassStep(np.eye(1))
        rep = slln_experiment(p, step, "power", 1.5, 8, 20, _rng(13))
        assert rep["condition_summable"]  # exponent 2/lam = 4/3 > 1
        assert rep["checkpoints"][-1] == 8
