import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedlattice import operator
from curvedlattice.metric import MetricModel, SampledMetric
from curvedlattice.operator import (
    GammaAlgebra,
    OperatorError,
    band_blocks,
    band_matrix,
    band_norm,
    band_similarity,
    build,
    column_norms,
    flat_dispersion,
    gamma_algebra,
    hermitian_residual,
    naive_build,
)

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# -- per-site reference assembly ---------------------------------------------
# The site-by-site loops that `build` and `naive_build` replace with
# vectorized assembly; the vectorized code must reproduce them byte for byte.


def _reference_hop(alpha_from, alpha_to, beta_from):
    prod = alpha_from * alpha_to
    if prod == 0.0:
        return 0.0
    value = np.sqrt(prod) / beta_from
    if not np.isfinite(value):
        raise OperatorError(f"divergent hopping: sqrt({prod:g})/{beta_from:g}")
    return value


def reference_build(metric, M, a, bc="open"):
    alpha, beta, dlog = metric.alpha, metric.beta, metric.dlog_beta_dt
    L = metric.L
    K = gamma_algebra().hop_kernel
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    fwd = -1.0j / (2.0 * a) * K
    bwd = +1.0j / (2.0 * a) * K
    for n in range(L):
        i = 2 * n
        H[i : i + 2, i : i + 2] += M * alpha[n] * SX
        H[i : i + 2, i : i + 2] += -0.5j * dlog[n] * np.eye(2)
        if n + 1 < L or bc == "periodic":
            j = 2 * ((n + 1) % L)
            H[i : i + 2, j : j + 2] += _reference_hop(alpha[n], alpha[(n + 1) % L], beta[n]) * fwd
        if n - 1 >= 0 or bc == "periodic":
            j = 2 * ((n - 1) % L)
            H[i : i + 2, j : j + 2] += _reference_hop(alpha[n], alpha[(n - 1) % L], beta[n]) * bwd
    return H


def reference_naive_build(metric, M, a):
    alpha, beta, dlog = metric.alpha, metric.beta, metric.dlog_beta_dt
    L = metric.L
    K = gamma_algebra().hop_kernel
    dalpha = np.gradient(alpha, a)
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    for n in range(L):
        i = 2 * n
        H[i : i + 2, i : i + 2] += M * alpha[n] * SX
        H[i : i + 2, i : i + 2] += -0.5j * dlog[n] * np.eye(2)
        H[i : i + 2, i : i + 2] += -0.5j * (dalpha[n] / beta[n]) * K
        if n + 1 < L:
            H[i : i + 2, i + 2 : i + 4] += -1.0j / (2.0 * a) * (alpha[n] / beta[n]) * K
        if n - 1 >= 0:
            H[i : i + 2, i - 2 : i] += +1.0j / (2.0 * a) * (alpha[n] / beta[n]) * K
    return H


def _assert_byte_identical(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()  # also the signs of zeros


# Random profiles: alpha >= 0 with zeros, beta = inf where alpha vanishes
# (a decoupled horizon site), arbitrary d(log beta)/dt.
_SITE = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0)),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
_PROFILES = st.integers(min_value=2, max_value=9).flatmap(
    lambda L: st.lists(_SITE, min_size=L, max_size=L)
)


def _sampled(sites):
    alpha, beta, dlog = (np.array(col) for col in zip(*sites))
    beta = np.where(alpha == 0.0, np.inf, beta)
    return SampledMetric(t=0.0, alpha=alpha, beta=beta, dlog_beta_dt=dlog)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    sites=_PROFILES,
    M=st.floats(min_value=0.0, max_value=3.0),
    a=st.sampled_from([1.0, 0.5, 0.3]),
    bc=st.sampled_from(["open", "periodic"]),
)
def test_build_matches_per_site_reference(sites, M, a, bc):
    s = _sampled(sites)
    _assert_byte_identical(build(s, M=M, a=a, bc=bc).matrix, reference_build(s, M, a, bc))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sites=_PROFILES, M=st.floats(min_value=0.0, max_value=3.0), a=st.sampled_from([1.0, 0.5]))
def test_naive_build_matches_per_site_reference(sites, M, a):
    s = _sampled(sites)
    _assert_byte_identical(naive_build(s, M=M, a=a).matrix, reference_naive_build(s, M, a))


@pytest.mark.parametrize(
    "model",
    [
        MetricModel.rindler(q=0.01, L=13),
        MetricModel.de_sitter(q=1.0 / 12, L=13),
        MetricModel.weyl(q=0.1, r=0.5, L=13),
        MetricModel.linear_conformal(q=0.1, r=0.0, L=13),  # alpha_0 = beta_0 = 0
        MetricModel.linear_conformal(q=0.1, r=0.5, L=2),
    ],
    ids=["rindler", "de_sitter", "weyl", "linear_conformal_r0", "linear_conformal_L2"],
)
def test_build_matches_per_site_reference_on_catalog(model):
    s = model.sample(0.4)
    for bc in ("open", "periodic"):
        _assert_byte_identical(build(s, M=0.7, a=1.0, bc=bc).matrix, reference_build(s, 0.7, 1.0, bc))


def test_divergent_hop_raises():
    # nonvanishing alphas with beta = 0: sqrt(alpha_n alpha_m)/beta_n diverges
    s = SampledMetric(
        t=0.0, alpha=np.array([1.0, 2.0, 1.0]), beta=np.array([1.0, 0.0, 1.0]),
        dlog_beta_dt=np.zeros(3),
    )
    with pytest.raises(OperatorError, match="divergent hopping"):
        build(s, M=0.0, a=1.0)


def test_gamma_algebra_relations():
    g = gamma_algebra()
    anti = g.gamma0 @ g.gamma1 + g.gamma1 @ g.gamma0
    assert np.allclose(anti, 0.0)
    assert np.allclose(g.gamma0 @ g.gamma0, np.eye(2))
    assert np.allclose(g.gamma1 @ g.gamma1, -np.eye(2))
    assert np.array_equal(g.hop_kernel, -SZ)
    assert np.array_equal(g.mass_kernel, SX)
    ik = 1.0j * g.hop_kernel
    assert np.array_equal(ik.conj().T, -ik)  # i·γ₀γ¹ is anti-hermitian


def test_hop_kernel_is_the_read_only_product():
    SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    K = operator._HOP_KERNEL
    assert not K.flags.writeable and not operator._SIGMA_X.flags.writeable
    assert K.tobytes() == (SX @ (1.0j * SY)).tobytes()  # the signs of zeros too
    with pytest.raises(ValueError, match="read-only"):
        K[0, 0] = 1.0


_CATALOG = [
    MetricModel.rindler(q=0.01, L=13).sample(),
    MetricModel.de_sitter(q=1.0 / 12, L=13).sample(),
    MetricModel.linear_conformal(q=0.1, r=0.5, L=9).sample(0.4),
    MetricModel.weyl(q=0.1, r=0.5, L=2).sample(0.3),
]


def test_build_needs_no_gamma_algebra(monkeypatch):
    expected = [
        (reference_build(s, 0.7, 0.5, bc), reference_naive_build(s, 0.7, 0.5))
        for s in _CATALOG for bc in ("open", "periodic")
    ]

    def refuse():
        raise AssertionError("build called gamma_algebra")

    monkeypatch.setattr(operator, "gamma_algebra", refuse)
    got = [
        (build(s, M=0.7, a=0.5, bc=bc).matrix, naive_build(s, M=0.7, a=0.5).matrix)
        for s in _CATALOG for bc in ("open", "periodic")
    ]
    for (H, naive), (ref, ref_naive) in zip(got, expected):
        _assert_byte_identical(H, ref)
        _assert_byte_identical(naive, ref_naive)


def test_gamma_algebra_returns_writable_copies():
    before = [build(s, M=0.7, a=1.0).matrix for s in _CATALOG]
    g = gamma_algebra()
    for name in ("gamma0", "gamma1", "gamma0_inv", "hop_kernel", "mass_kernel"):
        array = getattr(g, name)
        assert array.flags.writeable
        array[...] = 7.0
    for s, H in zip(_CATALOG, before):
        _assert_byte_identical(build(s, M=0.7, a=1.0).matrix, H)
    assert np.array_equal(gamma_algebra().hop_kernel, -SZ)


def _block(H, n, m):
    return H.matrix[2 * n : 2 * n + 2, 2 * m : 2 * m + 2]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 3, 7])
def test_band_blocks_match_the_dense_blocks(L, bc, dtype):
    # random bands on the lattice's offsets; under periodic boundaries the
    # corners sit at ±(2L−2), which for L = 2 are the offsets ±2 again
    rng = np.random.default_rng(10 * L + (bc == "periodic"))
    n = 2 * L
    offsets = {0, 1, -1, 2, -2} | ({2 * L - 2, 2 - 2 * L} if bc == "periodic" else set())
    diagonals = {}
    for k in sorted(offsets):
        d = rng.normal(size=n - abs(k))
        diagonals[k] = d + 1j * rng.normal(size=d.size) if dtype is complex else d
    dense = band_matrix(diagonals, n, dtype).reshape(L, 2, L, 2)
    X = band_blocks(diagonals, L)
    assert all(x.dtype == dtype for x in X.values())
    for m in range(1 - L, L):
        p = np.arange(L - abs(m)) + max(-m, 0)
        expected = dense[p, :, p + m, :]  # the blocks (p, p + m)
        assert np.array_equal(X.get(m, np.zeros_like(expected)), expected)
        assert (m in X) == bool(expected.any())


def test_flat_massless_blocks():
    H = build(MetricModel.flat(L=6).sample(), M=0.0, a=1.0)
    for n in range(6):
        assert np.array_equal(_block(H, n, n), np.zeros((2, 2)))
    for n in range(5):
        assert np.allclose(np.abs(_block(H, n, n + 1)[0, 0]), 0.5)
        assert np.array_equal(_block(H, n, n + 1), -0.5j * (-SZ))
        assert np.array_equal(_block(H, n + 1, n), +0.5j * (-SZ))


def test_rindler_hopping_and_decoupled_site():
    q, L = 0.002, 12
    H = build(MetricModel.rindler(q=q, L=L).sample(), M=0.5, a=1.0)
    for n in range(1, L - 1):
        coeff = _block(H, n, n + 1)[0, 0] / (-SZ)[0, 0] / (-1.0j / 2.0)
        assert coeff.real == pytest.approx(q * np.sqrt(n * (n + 1)), rel=1e-14)
    # alpha_0 = 0: site 0 has no hopping and no mass term
    assert np.array_equal(_block(H, 0, 1), np.zeros((2, 2)))
    assert np.array_equal(_block(H, 1, 0), np.zeros((2, 2)))
    assert np.array_equal(_block(H, 0, 0), np.zeros((2, 2)))


def test_rindler_exactly_hermitian():
    for M in (0.0, 1.0):
        H = build(MetricModel.rindler(q=0.01, L=40).sample(), M=M, a=1.0)
        assert np.array_equal(H.matrix, H.matrix.conj().T)
        assert hermitian_residual(H) == 0.0


def test_time_dependent_rindler_like_exactly_hermitian():
    # beta = 1 with alpha depending on both x and t
    model = MetricModel.custom("(0.1+0.05*t)*x", "1", L=30)
    for t in (0.0, 0.7, 2.0):
        H = build(model.sample(t), M=1.0, a=1.0)
        assert np.array_equal(H.matrix, H.matrix.conj().T)


def test_weyl_blocks():
    q, r, a = 0.01, 0.5, 1.0
    H = build(MetricModel.weyl(q=q, r=r, L=10).sample(0.0), M=0.0, a=a)
    for n in range(9):
        f = _block(H, n, n + 1)[0, 0] / (-1.0j / (2 * a) * (-SZ)[0, 0])
        b = _block(H, n + 1, n)[0, 0] / (+1.0j / (2 * a) * (-SZ)[0, 0])
        np.testing.assert_allclose(f.real, np.exp(q * a / 2), rtol=1e-14)
        np.testing.assert_allclose(b.real, np.exp(-q * a / 2), rtol=1e-14)
    for n in range(10):
        assert np.allclose(_block(H, n, n), -0.5j * r * np.eye(2))


def test_static_weyl_spectrum_survives_an_underflowing_alpha_product():
    # massless Weyl hops are e^{±qa/2}/(2a) at every t, though α_n α_{n+1}
    # underflows at t = 0.5 (e^{-1000}); the spectrum must not move
    model = MetricModel.weyl(q=0.01, r=-1000.0, L=8)

    def levels(t):
        return np.sort_complex(np.linalg.eigvals(build(model.sample(t), M=0.0, a=1.0).matrix))

    np.testing.assert_allclose(levels(0.5), levels(0.0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("q", [1e-170, 1e160])
def test_rindler_spectrum_scales_with_q_past_the_product_range(q):
    # H(q) = q·H(1): every hop q·√(nm) and mass term q·M·n is an ordinary
    # float, though the product α_n α_m leaves the float range
    def levels(scale):
        H = build(MetricModel.rindler(q=scale, L=4).sample(), M=0.5, a=1.0)
        return np.linalg.eigvalsh(H.matrix)

    unit = levels(1.0)
    np.testing.assert_allclose(levels(q) / q, unit, rtol=0.0, atol=1e-12 * np.abs(unit).max())


def test_linear_conformal_forward_coefficient():
    q, r, a, t = 0.1, 0.5, 1.0, 0.5
    model = MetricModel.linear_conformal(q=q, r=r, L=8)
    H = build(model.sample(t), M=0.0, a=a)
    w = r * t + q * np.arange(8) * a
    for n in range(7):
        coeff = _block(H, n, n + 1)[0, 0] / (-1.0j / (2 * a) * (-SZ)[0, 0])
        assert coeff.real == pytest.approx(np.sqrt((w[n] + q * a) / w[n]), rel=1e-13)


def test_de_sitter_horizon_guarded():
    L = 40
    model = MetricModel.de_sitter(q=1.0 / (L - 1), L=L)
    H = build(model.sample(), M=1.0, a=1.0)
    assert np.all(np.isfinite(H.matrix))
    # pinned horizon site decouples exactly
    assert np.array_equal(_block(H, L - 1, L - 2), np.zeros((2, 2)))
    assert np.array_equal(_block(H, L - 2, L - 1), np.zeros((2, 2)))
    assert np.array_equal(_block(H, L - 1, L - 1), np.zeros((2, 2)))


def test_block_tridiagonal_structure():
    H = build(MetricModel.weyl(q=0.1, r=0.3, L=9).sample(0.2), M=1.0, a=0.5)
    A = np.abs(H.matrix)
    for n in range(9):
        for m in range(9):
            if abs(n - m) > 1:
                assert np.all(A[2 * n : 2 * n + 2, 2 * m : 2 * m + 2] == 0.0)


def test_periodic_corner_blocks():
    H = build(MetricModel.flat(L=5).sample(), M=0.0, a=1.0, bc="periodic")
    assert np.array_equal(_block(H, 4, 0), -0.5j * (-SZ))
    assert np.array_equal(_block(H, 0, 4), +0.5j * (-SZ))
    assert hermitian_residual(H) == 0.0


def test_flat_pbc_dispersion_oracle():
    # independent oracle: analytic momentum-space eigenvalues
    for L, M in [(8, 0.0), (8, 1.0), (16, 0.5)]:
        H = build(MetricModel.flat(L=L).sample(), M=M, a=1.0, bc="periodic")
        ev = np.sort(np.linalg.eigvalsh(H.matrix))
        np.testing.assert_allclose(ev, flat_dispersion(L, M), atol=1e-12)


def test_naive_build_flat_identical():
    s = MetricModel.flat(L=8).sample()
    assert np.array_equal(build(s, M=0.7, a=1.0).matrix, naive_build(s, M=0.7, a=1.0).matrix)


def test_naive_build_rindler_nonhermitian_and_spectrally_distinct():
    s = MetricModel.rindler(q=0.05, L=50).sample()
    Hn = naive_build(s, M=0.0, a=1.0)
    Hr = build(s, M=0.0, a=1.0)
    assert hermitian_residual(Hn) > 1e-3
    assert hermitian_residual(Hr) == 0.0
    # spectra differ (library oracle): the naive scheme picks up a spurious
    # imaginary onsite shift ±q/2 per spinor chain, the regularized one is real
    en = np.linalg.eigvals(Hn.matrix)
    er = np.linalg.eigvalsh(Hr.matrix)
    assert np.max(np.abs(en.imag)) > 1e-3
    assert np.max(np.abs(en.imag)) == pytest.approx(0.05 / 2, rel=1e-6)
    dist = np.abs(en[:, None] - er[None, :]).min(axis=1)
    assert dist.max() > 1e-3


def test_invalid_inputs():
    s = MetricModel.flat(L=4).sample()
    with pytest.raises(OperatorError):
        build(s, M=0.0, a=0.0)
    with pytest.raises(OperatorError):
        build(s, M=0.0, a=1.0, bc="twisted")


def test_band_similarity_limits_at_a_horizon():
    # off the main diagonal, entry (i, j) times s_i/s_j; the main diagonal
    # passes unchanged; an exact zero stays zero against s = inf, and a
    # coupled entry against it is left non-finite for the caller
    s = np.array([2.0, np.inf, 0.5])
    A = {
        0: np.array([1.0, 2.0, 3.0j]),
        1: np.array([3.0, 4.0 + 0j]),
        -1: np.array([0.0, 5.0 + 0j]),
        2: np.array([0.25 + 1j]),
    }
    out = band_similarity(A, 3, s)
    assert out[0] is A[0]
    assert out[1][0] == 0.0 and not np.isfinite(out[1][1])
    assert np.array_equal(out[-1], [0.0, 0.0])
    assert np.array_equal(out[2], [(0.25 + 1j) * (2.0 / 0.5)])


def test_norms_keep_the_plain_sum_in_range():
    # entries from 1e-150 to 1e150: no square overflows, so both norms are
    # the plain sums of squares, byte for byte
    rng = np.random.default_rng(7)
    A = (rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))) * 10.0 ** rng.integers(
        -150, 150, size=(40, 6)
    )
    assert np.array_equal(column_norms(A), np.sqrt(np.sum(np.abs(A) ** 2, axis=0)))
    pieces = {k: A[:, k] for k in range(6)}
    plain = np.sqrt(sum(float(np.vdot(d, d).real) for d in pieces.values()))
    assert band_norm(pieces) == plain


def test_norms_rescale_a_sum_of_squares_that_overflows():
    big = 3e300
    A = np.array([[big, 1.0, np.inf], [4j * big / 3, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = column_norms(A)
        assert norms[0] == pytest.approx(5e300, rel=1e-15)
        assert norms[1] == 1.0 and norms[2] == np.inf  # a non-finite entry stays non-finite
        assert band_norm({0: A[:, 0], 1: A[:, 1]}) == pytest.approx(np.hypot(5e300, 1.0))
        assert band_norm({0: np.full(3, 1.5e308)}) == np.inf  # beyond the float range
