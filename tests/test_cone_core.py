import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conebessel.cone_core import (
    ConePoint,
    HermitianMatrix,
    HypergroupParams,
    as_matrix,
    eigvalsh_2x2,
    frob_norm,
    gaussian_entries,
    gram,
    inner,
    orthonormal_rows,
    psd_sqrt,
    psd_sqrt_batch,
    r_factor,
    random_psd,
    read_matrix_text,
    write_matrix_text,
)
from conebessel.jack_series import _poch


def test_params_derived_constants():
    p = HypergroupParams(2, 1, 3.0)
    assert p.rho == 2.5
    assert p.alpha == 2.0
    pc = HypergroupParams(3, 2, 7.0)
    assert pc.rho == 6.0
    assert pc.alpha == 1.0
    assert pc.dtype == np.complex128


def test_params_mu_bound():
    with pytest.raises(ValueError):
        HypergroupParams(2, 1, 1.5)  # needs mu > rho - 1 = 1.5
    # the same index is fine for sampling-only use
    p = HypergroupParams(2, 1, 0.8, sampling_only=True)
    assert not p.convolution_valid
    with pytest.raises(ValueError):
        p.require_convolution()
    with pytest.raises(ValueError):
        HypergroupParams(2, 4, 5.0)  # quaternions rejected
    with pytest.raises(ValueError):
        HypergroupParams(0, 1, 5.0)
    for sampling_only in (False, True):
        with pytest.raises(ValueError, match="finite"):
            HypergroupParams(1, 1, math.inf, sampling_only=sampling_only)


def test_wrappers():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    h = HermitianMatrix(np.array([[2.0, 1j], [-1j, 3.0]]), d=2)
    assert h.d == 2
    with pytest.raises(ValueError, match="imaginary entries"):
        HermitianMatrix(h.array, d=1)
    with pytest.raises(ValueError, match="square matrix"):
        HermitianMatrix(np.zeros((2, 3)))


def test_cone_point_clamps_roundoff_but_rejects_indefinite():
    eps = 1e-12
    x = ConePoint(np.array([[1.0, 0.0], [0.0, -eps]]))
    assert x.eigenvalues.min() == 0.0
    with pytest.raises(ValueError):
        ConePoint(np.array([[1.0, 0.0], [0.0, -1e-3]]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(5)
    p = HypergroupParams(3, 2, 8.0)
    for _ in range(25):
        x = random_psd(p, rng)
        r = psd_sqrt(x)
        assert_allclose(r @ r, x, atol=1e-11 * max(1.0, np.abs(x).max()))
    # eigenvalues of the root are the square roots
    u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    lam = np.array([4.0, 1.0, 0.25, 0.0])
    x = (u * lam) @ u.T
    r = psd_sqrt(x)
    assert_allclose(np.linalg.eigvalsh(r), np.sort(np.sqrt(lam)), atol=1e-12)


def test_psd_sqrt_keeps_rank_deficiency_sharp():
    rng = np.random.default_rng(6)
    p = HypergroupParams(3, 1, 4.0)
    x = random_psd(p, rng, rank=1)
    # a naive eigh + sqrt smears the zero eigenvalues of x to sqrt(eps)-sized
    # eigenvalues of the root; flooring keeps them at plain round-off size
    naive_floor = np.sqrt(np.finfo(float).eps * np.linalg.norm(x, 2))
    for root in (psd_sqrt(x), *psd_sqrt_batch(np.stack([x, 4.0 * x]))):
        small = np.abs(np.linalg.eigvalsh(root))[:2]
        assert small.max() < 1e-4 * naive_floor


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        psd_sqrt_batch(np.diag([1.0, -0.5])[None])


def test_inner_and_norm():
    x = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert inner(x, np.eye(2)) == pytest.approx(np.trace(x))
    assert frob_norm(x) == pytest.approx(np.linalg.norm(x))
    z = np.array([[1.0, 1j], [-1j, 2.0]])
    assert inner(z, z) == pytest.approx(np.linalg.norm(z) ** 2)


def test_pochhammer_trailing_zeros_and_values():
    assert _poch(2.5, (2, 1), 1) == _poch(2.5, (2, 1, 0), 1)
    # (mu)_2 * (mu - 1/2)_1 by hand
    mu = 2.5
    assert _poch(mu, (2, 1), 1) == pytest.approx(mu * (mu + 1) * (mu - 0.5))
    assert _poch(3.0, (1, 1), 2) == pytest.approx(3.0 * 2.0)


def test_random_psd_rank_and_norm():
    rng = np.random.default_rng(8)
    p = HypergroupParams(4, 2, 10.0)
    x = random_psd(p, rng, norm=2.5, rank=2)
    assert np.linalg.norm(x) == pytest.approx(2.5)
    eigs = np.linalg.eigvalsh(x)
    assert (eigs[:-2] < 1e-12).all() and (eigs[-2:] > 1e-12).all()


def test_gaussian_entries_draw_real_parts_first():
    # every seeded result depends on this stream: all real parts, then all
    # imaginary parts, each in C order
    for d in (1, 2):
        a = gaussian_entries(np.random.default_rng(3), (4, 2, 3), d)
        rng = np.random.default_rng(3)
        want = rng.standard_normal((4, 2, 3))
        if d == 2:
            want = want + 1j * rng.standard_normal((4, 2, 3))
        assert a.dtype == want.dtype and a.flags.c_contiguous
        assert a.tobytes() == want.tobytes()


_KERNEL_CASES = [(q, d) for q in (1, 2, 3, 5) for d in (1, 2)]


@pytest.mark.parametrize("q, d", _KERNEL_CASES)
def test_orthonormal_rows_is_the_cholesky_solve(q, d):
    rng = np.random.default_rng(40 + q)
    m = gaussian_entries(rng, (200, q, 2 * q), d)
    want = np.linalg.solve(np.linalg.cholesky(m @ np.swapaxes(m, -1, -2).conj()), m)
    # the samplers pass a view of a (q, n, 2q) buffer: same values, rows contiguous
    batch_major = np.ascontiguousarray(np.swapaxes(m, 0, 1)).swapaxes(0, 1)
    for got in (orthonormal_rows(m.copy()), orthonormal_rows(batch_major)):
        assert_allclose(got, want, rtol=0, atol=1e-12)
        qq = got @ np.swapaxes(got, -1, -2).conj()
        assert_allclose(qq, np.broadcast_to(np.eye(q), qq.shape), rtol=0, atol=1e-12)


def _signed_qr_r(f):
    r = np.linalg.qr(f, mode="r")
    return r * np.where(np.diagonal(r, axis1=-2, axis2=-1).real < 0.0, -1.0, 1.0)[..., None]


@pytest.mark.parametrize("q, d", _KERNEL_CASES)
def test_r_factor_is_the_signed_qr_r(q, d):
    f = gaussian_entries(np.random.default_rng(50 + q), (200, 2 * q, q), d)
    f_in = f.copy()
    r = r_factor(f)
    np.testing.assert_array_equal(f, f_in)
    assert_allclose(r, _signed_qr_r(f), rtol=0, atol=1e-12)
    assert_allclose(gram(r), gram(f), rtol=0, atol=1e-12)
    assert not np.tril(r, -1).any()
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    assert not np.imag(diag).any() and (np.real(diag) >= 0.0).all()


@pytest.mark.parametrize("q, d", _KERNEL_CASES)
def test_r_factor_of_singular_factors_is_finite_and_warning_free(q, d):
    rng = np.random.default_rng(60 + q)
    f = gaussian_entries(rng, (50, 2 * q, q), d)
    zero_col = f.copy()
    zero_col[..., q // 2] = 0.0
    cases = [np.zeros_like(f), zero_col]
    if q > 1:
        repeated = f.copy()
        repeated[..., -1] = repeated[..., 0]
        cases.append(repeated)
    for g in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = r_factor(g)
        assert np.isfinite(r).all()
        scale = 1.0 + np.abs(gram(g)).max()
        assert_allclose(gram(r), gram(g), rtol=0, atol=1e-12 * scale)
    assert not r_factor(cases[0]).any()
    assert not r_factor(zero_col)[..., q // 2, :].any()  # a zero column, a zero row


# closed-form 2x2 spectra: the bound is 8 eps ||A||_2 absolute; LAPACK's own
# eigvalsh differs from a long-double reference by up to about 6 eps ||A||_2
# on random complex stacks, so eps ||A||_2 against it cannot be met
_EPS = np.finfo(np.float64).eps


def _hermitian(rng, n, d):
    a = gaussian_entries(rng, (n, 2, 2), d)
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


def _adversarial_2x2(d):
    """Stacks of 2x2 Hermitian matrices where a closed form can go wrong."""
    rng = np.random.default_rng(70 + d)
    v = gaussian_entries(rng, (200, 2, 1), d)
    herm = _hermitian(rng, 200, d)
    cases = {
        "equal": np.linspace(-3.0, 3.0, 13)[:, None, None] * np.eye(2),
        "rank_one": v @ np.swapaxes(v, -1, -2).conj(),
        "zero": np.zeros((4, 2, 2)),
        "big": 1e150 * herm,
        "small": 1e-150 * herm,
        "indefinite": herm,
        "diagonal_gap": np.stack([np.diag([1.0, -1e-17]), np.diag([1e-300, 1.0])]),
    }
    if d == 2:
        imag_off = np.zeros((200, 2, 2), dtype=complex)
        imag_off[:, 0, 0], imag_off[:, 1, 1] = rng.standard_normal((2, 200))
        imag_off[:, 1, 0] = 1j * rng.standard_normal(200)
        imag_off[:, 0, 1] = imag_off[:, 1, 0].conj()
        cases["imaginary_off_diagonal"] = imag_off
    return cases


@pytest.mark.parametrize("d", [1, 2])
def test_eigvalsh_2x2_matches_lapack_on_adversarial_stacks(d):
    for name, a in _adversarial_2x2(d).items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = eigvalsh_2x2(a[..., 0, 0].real, a[..., 1, 1].real, a[..., 1, 0])
        want = np.linalg.eigvalsh(a)
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert (got[..., 0] <= got[..., 1]).all(), name
        assert (np.abs(got - want) <= 8.0 * _EPS * scale).all(), name
    assert not eigvalsh_2x2(np.zeros(3), np.zeros(3), np.zeros(3)).any()


@pytest.mark.parametrize("d", [1, 2])
def test_psd_sqrt_batch_closed_form_root(d):
    rng = np.random.default_rng(80 + d)
    a = gaussian_entries(rng, (2000, 2, 2), d)
    # condition numbers up to about 60: the eigh root is accurate enough to compare
    well = a @ np.swapaxes(a, -1, -2).conj() + 0.5 * np.eye(2)
    well *= 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1, 1))
    cases = {k: v for k, v in _adversarial_2x2(d).items() if k in ("equal", "rank_one", "zero")}
    cases["equal"] = np.abs(cases["equal"])
    unit = well[:50] / np.abs(well[:50]).max(axis=(-2, -1), keepdims=True)
    cases.update(random=well, big=1e150 * unit, small=1e-150 * unit)
    for name, x in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = psd_sqrt_batch(x)
        assert r.dtype == x.dtype and r.shape == x.shape, name
        np.testing.assert_array_equal(r, np.swapaxes(r, -1, -2).conj())
        norm = np.linalg.norm(x, 2, axis=(-2, -1))
        resid = np.linalg.norm(r @ r - x, 2, axis=(-2, -1))
        assert (resid <= 8.0 * _EPS * norm).all(), name
    eigs, vecs = np.linalg.eigh(well)
    want = np.einsum("...ij,...j,...kj->...ik", vecs, np.sqrt(eigs), vecs.conj())
    err = np.linalg.norm(psd_sqrt_batch(well) - want, axis=(-2, -1))
    assert (err <= 1e-14 * np.linalg.norm(want, axis=(-2, -1))).all()
    assert not psd_sqrt_batch(np.zeros((3, 2, 2), dtype=well.dtype)).any()
    with pytest.raises(ValueError, match="psd_sqrt_batch: indefinite input"):
        psd_sqrt_batch(_hermitian(rng, 10, d))


def test_psd_sqrt_batch_small_q_edges():
    for q in (1, 2):
        for dtype in (np.float64, np.complex128):
            assert psd_sqrt_batch(np.zeros((0, q, q), dtype=dtype)).shape == (0, q, q)
        with pytest.raises(ValueError, match="psd_sqrt_batch: indefinite input"):
            psd_sqrt_batch(-np.eye(q)[None])
    # q = 1 is the entry's square root, clamped within the tolerance; the dtype stays
    x = np.array([[[4.0]], [[0.25]], [[-1e-12]]], dtype=np.complex128)
    r = psd_sqrt_batch(x)
    assert r.dtype == np.complex128
    np.testing.assert_array_equal(r, np.array([[[2.0]], [[0.5]], [[0.0]]]))
    np.testing.assert_array_equal(psd_sqrt_batch(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_matrix_text_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    for d in (1, 2):
        p = HypergroupParams(3, d, 8.0)
        x = random_psd(p, rng)
        # a zero real part keeps its sign through the file
        x[0, 1], x[1, 0] = (complex(-0.0, 0.5), complex(-0.0, -0.5)) if d == 2 else (-0.0, -0.0)
        path = tmp_path / f"m{d}.txt"
        write_matrix_text(path, x)
        back, dd = read_matrix_text(path)
        assert dd == d
        assert_allclose(back, x, rtol=0, atol=0)
        for part in (np.real, np.imag):
            np.testing.assert_array_equal(np.signbit(part(back)), np.signbit(part(x)))


def test_matrix_text_diagnostics(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1.0 2.0\n")
    with pytest.raises(ValueError):
        read_matrix_text(path)
    path.write_text("2 4\n" + "0\n" * 8)
    with pytest.raises(ValueError):
        read_matrix_text(path)


def test_as_matrix_unwraps():
    x = ConePoint(np.eye(2))
    assert as_matrix(x) is x.array
    arr = np.eye(2)
    assert as_matrix(arr) is arr
