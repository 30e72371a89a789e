import math

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist, kstest

from conebessel import ball_measure
from conebessel.cone_core import (
    HypergroupParams,
    gaussian_entries,
    gram,
    psd_sqrt_batch,
    random_psd,
)
from conebessel.jack_series import character_from_squares, character_phi
from conebessel.ball_measure import (
    EmpiricalMeasure,
    conv_expect,
    conv_factor_batch,
    conv_pairwise_batch,
    conv_sample_batch,
    conv_square_batch,
    norm_excess_watermark,
    phi_bochner,
    sample_ball_batch,
    support_window_fraction,
    tri_gamma_batch,
)


def test_ball_sampler_matches_beta_moments():
    rng = np.random.default_rng(21)
    n = 40_000
    # q=1, d=1: v^2 ~ Beta(1/2, mu - 1/2)
    mu = 1.8
    v = sample_ball_batch(HypergroupParams(1, 1, mu), n, rng)[:, 0, 0]
    want = 1.0 / (2.0 * mu)
    se = np.std(v * v) / math.sqrt(n)
    assert abs(np.mean(v * v) - want) <= 4.0 * se
    assert abs(np.mean(v)) <= 4.0 * np.std(v) / math.sqrt(n)
    # q=1, d=2: |v|^2 ~ Beta(1, mu - 1)
    mu = 2.6
    v = sample_ball_batch(HypergroupParams(1, 2, mu), n, rng)[:, 0, 0]
    u = np.abs(v) ** 2
    se = np.std(u) / math.sqrt(n)
    assert abs(np.mean(u) - 1.0 / mu) <= 4.0 * se


def test_ball_samples_are_contractions():
    rng = np.random.default_rng(22)
    for q, d, mu in ((2, 1, 1.7), (3, 2, 5.6)):
        p = HypergroupParams(q, d, mu)
        vs = sample_ball_batch(p, 500, rng)
        tops = np.linalg.norm(vs, ord=2, axis=(1, 2))
        assert tops.max() <= 1.0 + 1e-12


def _rho(q, d):
    return d * (q - 0.5) + 1.0


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "mu_of_rho", [lambda rho: rho + 0.5, lambda rho: 2.0 * rho], ids=["rho+1/2", "2rho"]
)
def test_ball_sampler_entry_second_moments(q, d, mu_of_rho):
    # E|v_ij|^2 = d / (2 mu) for every entry: E[v v*] = (d q / (2 mu)) I by the
    # matrix Beta mean, spread evenly over the columns by the right invariance
    # of the target; a sampler without a Haar factor on the right misses it
    p = HypergroupParams(q, d, mu_of_rho(_rho(q, d)))
    n = 200_000
    vs = sample_ball_batch(p, n, np.random.default_rng(31))
    sq = np.abs(vs) ** 2
    se = sq.std(axis=0) / math.sqrt(n)
    dev = np.abs(sq.mean(axis=0) - d / (2.0 * p.mu)) / se
    assert dev.max() <= 5.0, dev


@pytest.mark.parametrize("q, d", [(2, 1), (2, 2), (3, 2)])
def test_ball_sampler_near_the_admissibility_edge(q, d):
    # mu just above rho - 1 puts mass against the unit sphere, where rounding
    # in the triangular solve can push a draw's norm past 1
    p = HypergroupParams(q, d, _rho(q, d) - 1.0 + 1e-3)
    n = 50_000
    vs = sample_ball_batch(p, n, np.random.default_rng(32))
    tops = np.linalg.norm(vs, ord=2, axis=(1, 2))
    assert tops.max() - 1.0 <= 1e-9
    rng = np.random.default_rng(33)
    rs = np.stack([random_psd(p, rng) for _ in range(n)])
    ss = np.stack([random_psd(p, rng) for _ in range(n)])
    zs = conv_pairwise_batch(p, rs, ss, np.random.default_rng(32))  # the same ball draws
    assert np.isfinite(zs).all()


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "mu_of_rho", [lambda rho: rho - 1.0 + 1e-3, lambda rho: 2.0 * rho], ids=["edge", "2rho"]
)
def test_ball_solve_rows_are_orthonormal(q, d, mu_of_rho):
    # [v, W] = L^-1 [Z, T] has orthonormal rows: v v* + W W* = I, the identity
    # the convolution factor F = [X + v* Y; W* Y] rests on
    p = HypergroupParams(q, d, mu_of_rho(_rho(q, d)))
    n = 20_000
    vw = ball_measure._ball_solve(p, n, np.random.default_rng(35))
    v, w = vw[..., :q], vw[..., q:]
    eye = np.eye(q)
    dev = v @ np.swapaxes(v, -1, -2).conj() + w @ np.swapaxes(w, -1, -2).conj() - eye
    assert np.abs(dev).max() <= 1e-12
    # sample_ball_batch is the v block of the same draws
    vs = sample_ball_batch(p, n, np.random.default_rng(35))
    assert vs.flags.f_contiguous
    np.testing.assert_array_equal(vs, v)


def test_tri_gamma_scalar_is_gamma_law():
    rng = np.random.default_rng(24)
    mu = 2.3
    g = tri_gamma_batch(20_000, 1, 1, mu, rng)[:, 0, 0]
    stat = kstest(g, gamma_dist(a=mu, scale=2.0).cdf)
    assert stat.pvalue > 1e-3
    with pytest.raises(ValueError):
        tri_gamma_batch(10, 3, 2, 1.9, rng)  # shape at the third diagonal <= 0


def test_convolution_support_bound_and_watermark(monkeypatch):
    rng = np.random.default_rng(25)
    p = HypergroupParams(2, 1, 2.0)
    r = random_psd(p, rng, norm=1.3)
    s = random_psd(p, rng, norm=0.6)
    monkeypatch.setattr(ball_measure, "_norm_excess", 0.0)
    zs = conv_sample_batch(p, r, s, 5000, rng)
    budget = np.linalg.norm(r) + np.linalg.norm(s)
    assert np.linalg.norm(zs, axis=(1, 2)).max() <= budget + 1e-9
    assert 0.0 <= norm_excess_watermark() <= 1e-9
    monkeypatch.setattr(ball_measure, "_norm_excess", 0.0)
    assert norm_excess_watermark() == 0.0


def test_conv_point_and_pairwise_agree_with_batch_shapes():
    rng = np.random.default_rng(26)
    p = HypergroupParams(2, 2, 4.5)
    r = random_psd(p, rng)
    s = random_psd(p, rng)
    z = conv_sample_batch(p, r, s, 1, rng)
    assert z.shape == (1, 2, 2)
    rs = np.stack([r] * 7)
    ss = np.stack([s] * 7)
    zs = conv_pairwise_batch(p, rs, ss, rng)
    assert zs.shape == (7, 2, 2)
    assert np.abs(zs - np.swapaxes(zs, -1, -2).conj()).max() < 1e-12


def test_convolution_commutes_in_law():
    rng = np.random.default_rng(27)
    p = HypergroupParams(2, 1, 2.5)
    r = random_psd(p, rng, norm=1.0)
    s = random_psd(p, rng, norm=0.8)
    n = 20_000
    za = conv_sample_batch(p, r, s, n, rng)
    zb = conv_sample_batch(p, s, r, n, rng)
    for stat in (
        lambda z: np.trace(z, axis1=-2, axis2=-1),
        lambda z: np.einsum("nij,nji->n", z, z),
        lambda z: np.linalg.det(z),
    ):
        va, vb = stat(za).real, stat(zb).real
        se = math.sqrt(va.var() / n + vb.var() / n)
        assert abs(va.mean() - vb.mean()) <= 4.0 * se


def test_product_formula_single_triple():
    rng = np.random.default_rng(28)
    p = HypergroupParams(2, 1, 2.0)
    r = random_psd(p, rng, norm=1.0)
    s = random_psd(p, rng, norm=1.2)
    t = random_psd(p, rng, norm=0.9)
    est, se = conv_expect(
        p, lambda z2s: character_from_squares(p, t, z2s, 1e-10)[0], r, s, 20_000, rng
    )
    want = character_phi(p, t, r) * character_phi(p, t, s)
    assert abs(est - want) <= 4.0 * se + 1e-8


@pytest.mark.parametrize("q, d", [(1, 1), (2, 2), (3, 1)])
def test_squares_contract(q, d):
    p = HypergroupParams(q, d, q * d + 1.0)
    rng = np.random.default_rng(31)
    r = random_psd(p, rng, norm=1.1)
    s = random_psd(p, rng, norm=0.7)
    n = 500
    z2s = conv_square_batch(p, r, s, n, np.random.default_rng(5))
    shape = (n, q, q)
    fs = conv_factor_batch(
        p, np.broadcast_to(r, shape), np.broadcast_to(s, shape), np.random.default_rng(5)
    )
    np.testing.assert_array_equal(z2s, gram(fs))
    zs = conv_sample_batch(p, r, s, n, np.random.default_rng(5))
    np.testing.assert_array_equal(psd_sqrt_batch(z2s), zs)
    # E tr z^2 = tr(r^2 + s^2): conv_expect's f reads the squares
    est, se = conv_expect(
        p, lambda sq: np.trace(sq, axis1=-2, axis2=-1).real, r, s, 20_000, rng
    )
    assert abs(est - np.trace(r @ r + s @ s).real) <= 4.0 * se


def test_chunked_moments_match_the_concatenated_stream():
    n = 2 * ball_measure._CHUNK + 7  # the last chunk is partial
    stream = np.random.default_rng(30).standard_normal((2, n)) + np.array([[0.3], [-2.0]])
    sizes = []

    def draw(m):
        lo = sum(sizes)
        sizes.append(m)
        return stream[0, lo:lo + m], stream[1, lo:lo + m]

    moments = ball_measure._chunked_moments(n, draw)
    assert sizes == [ball_measure._CHUNK, ball_measure._CHUNK, 7]
    for (mean, mean_sq), vals in zip(moments, stream, strict=True):
        assert mean == pytest.approx(vals.mean(), rel=1e-12)
        se = math.sqrt(max(mean_sq - mean * mean, 0.0) / n)
        assert se == pytest.approx(vals.std() / math.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("q, d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_bochner_sums_round_as_the_batch_first_einsum(q, d):
    # phi_bochner reads the stack-last ball draws row by row; its phases must
    # have the bits of the batch-first einsum on a C-ordered copy
    p = HypergroupParams(q, d, _rho(q, d) + 0.5)
    rng = np.random.default_rng(37)
    r, s = random_psd(p, rng, norm=1.3), random_psd(p, rng, norm=0.9)
    n = 3000
    vs = np.ascontiguousarray(sample_ball_batch(p, n, np.random.default_rng(38)))
    cos = np.cos(np.einsum("nik,ki->n", vs, s @ r).real)
    est = float(cos.sum()) / n
    se = float(np.sqrt(max(float((cos * cos).sum()) / n - est * est, 0.0) / n))
    assert phi_bochner(p, s, r, n, np.random.default_rng(38)) == (est, se)


def test_bochner_integral_matches_series():
    rng = np.random.default_rng(29)
    p = HypergroupParams(2, 1, 2.4)
    s = random_psd(p, rng, norm=0.9)
    r = random_psd(p, rng, norm=1.1)
    est, se = phi_bochner(p, s, r, 40_000, rng)
    want = character_phi(p, s, r)
    assert abs(est - want) <= 4.0 * se + 1e-9


def test_bochner_integral_matches_series_complex_q3():
    rng = np.random.default_rng(34)
    p = HypergroupParams(3, 2, 6.5)
    s = random_psd(p, rng, norm=0.9)
    r = random_psd(p, rng, norm=1.1)
    est, se = phi_bochner(p, s, r, 200_000, rng)
    want = character_phi(p, s, r)
    assert abs(est - want) <= 5.0 * se + 1e-9


def test_support_window_predicates():
    p = HypergroupParams(2, 1, 2.0)
    r = np.diag([1.0, 2.0])
    assert support_window_fraction(p, r, 0.5, (1.2 * r)[None], 1e-12) == 1.0
    assert support_window_fraction(p, r, 0.1, (1.2 * r)[None], 1e-12) == 0.0
    with pytest.raises(ValueError):
        support_window_fraction(p, r, 0.0, r[None], 1e-12)
    zs = np.stack([0.95 * r, 1.05 * r, 2.5 * r])
    assert support_window_fraction(p, r, 0.2, zs, 1e-12) == pytest.approx(2.0 / 3.0)
    # the window's edge at q = 2: rank-one r, c = 1, so every draw of r * r
    # has a zero eigenvalue in z or 2r - z; the closed-form spectrum must
    # judge each as LAPACK does
    rng = np.random.default_rng(36)
    for d in (1, 2):
        p = HypergroupParams(2, d, _rho(2, d) + 0.5)
        r = random_psd(p, rng, norm=1.0, rank=1)
        zs = np.concatenate([np.stack([0.0 * r, r, 2.0 * r, 2.0 * r + 1e-6 * np.eye(2)]),
                             conv_sample_batch(p, r, r, 2000, rng)])
        lo = np.linalg.eigvalsh(zs)[:, 0]
        hi = np.linalg.eigvalsh(2.0 * r - zs)[:, 0]
        want = np.mean((lo >= -1e-12) & (hi >= -1e-12))
        assert 0.0 < want < 1.0
        assert support_window_fraction(p, r, 1.0, zs, 1e-12) == want


def test_empirical_measure_validation():
    p = HypergroupParams(2, 1, 2.0)
    pts = np.stack([np.eye(2), 2.0 * np.eye(2)])
    m = EmpiricalMeasure(p, pts)
    assert np.allclose(m.weights, [0.5, 0.5])
    m2 = EmpiricalMeasure(p, pts, weights=np.array([3.0, 1.0]))
    assert np.allclose(m2.weights, [0.75, 0.25])
    with pytest.raises(ValueError):
        EmpiricalMeasure(p, pts, weights=np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(p, pts, weights=np.array([1.0]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(p, np.eye(2))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_empirical_measure_rejects_non_finite_weights(bad, tmp_path):
    p = HypergroupParams(2, 1, 2.0)
    pts = np.stack([np.eye(2), 2.0 * np.eye(2)])
    with pytest.raises(ValueError, match="weights must be finite"):
        EmpiricalMeasure(p, pts, weights=np.array([bad, 1.0]))
    # a CSV builds through the same check
    path = tmp_path / "m.csv"
    EmpiricalMeasure(p, pts, weights=np.array([3.0, 1.0])).to_csv(path)
    head, cols, first, second = path.read_text().splitlines()
    path.write_text("\n".join([head, cols, first.rsplit(",", 1)[0] + f",{bad!r}", second]) + "\n")
    with pytest.raises(ValueError, match="weights must be finite"):
        EmpiricalMeasure.from_csv(path)


@pytest.mark.parametrize("d", [1, 2])
def test_empirical_measure_csv_roundtrip(tmp_path, d):
    rng = np.random.default_rng(30)
    p = HypergroupParams(2, d, 3.5)
    pts = np.stack([random_psd(p, rng) for _ in range(5)])
    w = rng.uniform(0.5, 2.0, size=5)
    m = EmpiricalMeasure(p, pts, weights=w, seed=77)
    path = tmp_path / "m.csv"
    m.to_csv(path, version="x")
    back = EmpiricalMeasure.from_csv(path)
    assert back.params.q == 2 and back.params.d == d and back.params.mu == 3.5
    assert back.seed == 77
    assert path.read_text().splitlines()[0].endswith(",seed=77,n_raw=5")  # the row count
    np.testing.assert_array_equal(back.points, pts)
    # weights renormalize on load; only that division can wiggle the last ulp
    np.testing.assert_allclose(back.weights, m.weights, rtol=0, atol=1e-15)


def _csv_by_entry_loop(m: EmpiricalMeasure, version: str) -> str:
    """Reference: the per-entry complex()/repr writer that to_csv replaced."""
    q, d = m.params.q, m.params.d
    lines = [
        f"# version={version},q={q},d={d},mu={m.params.mu!r},seed={m.seed},n_raw={len(m.points)}"
    ]
    cols = []
    for i in range(q):
        for j in range(q):
            cols.extend([f"e_{i}_{j}"] if d == 1 else [f"e_{i}_{j}_re", f"e_{i}_{j}_im"])
    lines.append(",".join(cols + ["weight"]))
    for row, w in zip(m.points, m.weights):
        vals = []
        for i in range(q):
            for j in range(q):
                z = complex(row[i, j])
                vals.append(repr(z.real))
                if d == 2:
                    vals.append(repr(z.imag))
        vals.append(repr(float(w)))
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [1, 2])
def test_csv_table_writer_matches_entry_loop_byte_for_byte(tmp_path, monkeypatch, d):
    monkeypatch.setattr(ball_measure, "_CSV_ROWS", 4)  # six rows: two blocks, the last one short
    rng = np.random.default_rng(31)
    p = HypergroupParams(2, d, 3.5)
    pts = np.stack([random_psd(p, rng) for _ in range(6)])
    pts[0, 0, 0] = -0.0
    pts[1, 0, 1] = 1e-300
    pts[2, 1, 1] = 1e16
    if d == 2:
        pts[3, 0, 1] = complex(-0.0, 1e-300)
        pts[4, 1, 0] = complex(1e16, -0.0)
        pts[5, 1, 0] = complex(-0.0, -2.5)
    w = rng.uniform(0.5, 2.0, size=6)
    w[5] = 1e-300
    m = EmpiricalMeasure(p, pts, weights=w, seed=5)
    path = tmp_path / "m.csv"
    m.to_csv(path, version="t")
    assert path.read_bytes() == _csv_by_entry_loop(m, "t").encode("utf-8")
    back = EmpiricalMeasure.from_csv(path)
    np.testing.assert_array_equal(back.points, pts)
    for part in (np.real, np.imag):  # equal values, and the same signs of zero
        np.testing.assert_array_equal(np.signbit(part(back.points)), np.signbit(part(pts)))
    np.testing.assert_allclose(back.weights, m.weights, rtol=0, atol=1e-15)


def _recording_plans(monkeypatch) -> list:
    """Make to_csv record each column plan it builds, kinds only."""
    plans, plan = [], ball_measure._csv_plan

    def record(table):
        steps = plan(table)
        plans.append([kind for kind, _ in steps])
        return steps

    monkeypatch.setattr(ball_measure, "_csv_plan", record)
    return plans


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_csv_of_convolution_samples_matches_entry_loop(tmp_path, monkeypatch, q, d):
    monkeypatch.setattr(ball_measure, "_CSV_ROWS", 3)  # seven rows: three blocks
    plans = _recording_plans(monkeypatch)
    rng = np.random.default_rng(33)
    p = HypergroupParams(q, d, _rho(q, d) + 0.5)
    zs = conv_sample_batch(p, random_psd(p, rng), random_psd(p, rng), 7, rng)
    m = EmpiricalMeasure(p, zs, seed=3)
    path = tmp_path / "m.csv"
    m.to_csv(path, version="c")
    assert path.read_bytes() == _csv_by_entry_loop(m, "c").encode("utf-8")
    # seven weights of 1/7 sum to an ulp below 1; reading back still gives 1/7
    again = tmp_path / "again.csv"
    EmpiricalMeasure.from_csv(path).to_csv(again, version="c")
    assert again.read_bytes() == path.read_bytes()
    # the samples are Hermitian: the strict lower triangle and the uniform
    # weight are not formatted again
    kinds = plans[0]
    assert kinds[-1] == "const"
    lower = [(i * q + j) * d + c for i in range(q) for j in range(i) for c in range(d)]
    assert all(kinds[col] != "fmt" for col in lower)


@pytest.mark.parametrize("d", [1, 2])
def test_csv_of_unmirrored_columns_matches_entry_loop(tmp_path, monkeypatch, d):
    monkeypatch.setattr(ball_measure, "_CSV_ROWS", 4)
    plans = _recording_plans(monkeypatch)
    rng = np.random.default_rng(34)
    p = HypergroupParams(4, d, 9.5)
    a = gaussian_entries(rng, (6, 4, 4), d)
    pts = a + np.swapaxes(a, 1, 2).conj()
    pts[3, 3, 2] = pts[3, 3, 2] + 1e-12  # the mirror of (2, 3) broken in one row
    pts[2, 1, 3] = 0.0
    pts[2, 3, 1] = complex(-0.0, -0.0) if d == 2 else -0.0  # and of (1, 3), but only under ==
    pts[:, 0, 0] = 0.0  # a column of 0.0 next to one of -0.0: const compares bits
    pts[:, 0, 1] = -0.0
    pts[:, 1, 1] = 0.0
    pts[4, 1, 1] = -0.0  # equal under ==, not bit for bit
    nan_col = np.array([np.nan, 1.0, -np.nan, 2.0, np.nan, -3.0])
    pts[:, 0, 2] = nan_col
    pts[:, 2, 0] = (nan_col.view(np.int64) ^ np.iinfo(np.int64).min).view(np.float64)
    pts[:, 1, 2] = [np.inf, -np.inf, 1.5, -0.0, 2.5, np.inf]
    pts[:, 2, 1] = -pts[:, 1, 2]
    m = EmpiricalMeasure(p, pts, weights=rng.uniform(0.5, 2.0, size=6), seed=6)
    path = tmp_path / "m.csv"
    m.to_csv(path, version="u")
    assert path.read_bytes() == _csv_by_entry_loop(m, "u").encode("utf-8")
    assert {"const", "same", "neg", "fmt"} <= set(plans[0])


def test_csv_rejects_missing_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("e_0_0,weight\n1.0,1.0\n")
    with pytest.raises(ValueError):
        EmpiricalMeasure.from_csv(path)
