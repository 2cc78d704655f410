import json
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedlattice.metric import MetricModel, SampledMetric
from curvedlattice.operator import band_distance, build, hermitian_residual
from curvedlattice.spectral import eig_general, eig_hermitian, spectral_mismatch
from curvedlattice.symmetry import (
    _PT_SPINORS, SymmetryError, classify, imaginary_gauge, unbroken_pt,
)


def _rel_herm(A):
    return np.linalg.norm(A - A.conj().T) / np.linalg.norm(A)


def test_gauge_flat_is_identity():
    s = MetricModel.flat(L=8).sample()
    H = build(s, M=0.3, a=1.0)
    G = imaginary_gauge(H, s.beta)
    assert np.allclose(G.matrix, H.matrix, atol=1e-16)


def test_gauge_de_sitter_hermitian():
    L = 60
    s = MetricModel.de_sitter(q=1.0 / (L - 1), L=L).sample()
    H = build(s, M=1.0, a=1.0)
    assert _rel_herm(H.matrix) > 1e-3  # genuinely nonhermitian before
    G = imaginary_gauge(H, s.beta)
    assert _rel_herm(G.matrix) < 1e-13


def test_gauge_weyl_static_gives_uniform_chain():
    q, a, L = 0.2, 1.0, 12
    s = MetricModel.weyl(q=q, r=0.0, L=L).sample()
    H = build(s, M=0.0, a=a)
    G = imaginary_gauge(H, s.beta)
    assert _rel_herm(G.matrix) < 1e-13
    for n in range(L - 1):
        hop = abs(G.matrix[2 * n, 2 * (n + 1)])
        assert hop == pytest.approx(1.0 / (2 * a), rel=1e-14)


def test_gauge_rejects_nonpositive_beta():
    s = MetricModel.linear_conformal(q=0.1, r=0.0, L=6).sample()  # beta_0 = 0
    H = build(s, M=0.0, a=1.0)
    with pytest.raises(SymmetryError):
        imaginary_gauge(H, s.beta)


def _dense_gauge(A, beta):
    s = np.repeat(np.sqrt(beta), 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s[:, None] / s[None, :]
        np.fill_diagonal(ratio, 1.0)
        return np.where(A == 0.0, 0.0, A * ratio)


@pytest.mark.parametrize("bc", ["open", "periodic"])
def test_gauge_on_band_matches_dense_similarity(bc):
    # the similarity runs diagonal by diagonal; its dense view has the bytes
    # of the entrywise guarded similarity, horizon site (beta = inf) included
    for model, M in [
        (MetricModel.de_sitter(q=1.0 / 19, L=20), 1.0),
        (MetricModel.anti_de_sitter(q=0.05, L=20), 0.5),
        (MetricModel.weyl(q=0.3, r=0.0, L=2), 1.0),
    ]:
        s = model.sample()
        H = build(s, M=M, a=1.0, bc=bc)
        G = imaginary_gauge(H, s.beta)
        assert G.matrix.tobytes() == _dense_gauge(H.matrix, s.beta).tobytes()


def test_gauge_rejects_divergent_scale_on_coupled_entry():
    # beta = inf on a site whose mass term couples its two components
    s = SampledMetric(
        t=0.0, alpha=np.ones(3), beta=np.array([1.0, np.inf, 1.0]), dlog_beta_dt=np.zeros(3)
    )
    with pytest.raises(SymmetryError, match="divergent scale"):
        imaginary_gauge(build(s, M=1.0, a=1.0), s.beta)


def test_gauge_isospectral_on_catalog():
    for model, M in [
        (MetricModel.de_sitter(q=1.0 / 49, L=50), 1.0),
        (MetricModel.anti_de_sitter(q=0.02, L=50), 0.0),
        (MetricModel.weyl(q=0.05, r=0.0, L=50), 1.0),
    ]:
        s = model.sample()
        H = build(s, M=M, a=1.0)
        G = imaginary_gauge(H, s.beta)
        e1 = eig_general(H, compute_vectors=False).eigenvalues
        e2 = eig_general(G, compute_vectors=False).eigenvalues
        assert spectral_mismatch(e1, e2) < 1e-9


_POSITIVE = st.floats(min_value=0.2, max_value=5.0)
_STATIC_PROFILES = st.integers(min_value=2, max_value=8).flatmap(
    lambda L: st.tuples(
        st.lists(_POSITIVE, min_size=L, max_size=L),
        st.lists(_POSITIVE, min_size=L, max_size=L),
    )
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(profiles=_STATIC_PROFILES, M=st.floats(min_value=0.0, max_value=2.0))
def test_gauge_isospectral_random_static_metric(profiles, M):
    # any positive static (alpha, beta) gives a quasi-hermitian operator:
    # the general path must see a real spectrum equal to the hermitian
    # path's spectrum of the gauge partner
    alpha, beta = (np.array(p) for p in profiles)
    s = SampledMetric(t=0.0, alpha=alpha, beta=beta, dlog_beta_dt=np.zeros_like(alpha))
    H = build(s, M=M, a=1.0)
    ev = eig_general(H).eigenvalues
    assert np.abs(ev.imag).max() <= 1e-9 * np.abs(ev).max()
    partner = eig_hermitian(imaginary_gauge(H, beta)).eigenvalues
    assert spectral_mismatch(ev, partner) < 1e-9


_SPINORS = {
    "I": np.eye(2),
    "sigma_x": np.array([[0, 1], [1, 0]]),
    "sigma_y": np.array([[0, -1j], [1j, 0]]),
    "sigma_z": np.array([[1, 0], [0, -1]]),
}


def _dense_classify(A, beta, tol=1e-12):
    """Dense reference of classify's three residuals and label."""
    scale = np.linalg.norm(A)
    herm = np.linalg.norm(A - A.conj().T) / scale
    try:
        eta = np.repeat(beta, 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.outer(eta, 1.0 / eta)
            np.fill_diagonal(ratio, 1.0)
            sim = np.where(A == 0.0, 0.0, A * ratio)
        if not np.all(np.isfinite(sim)):
            raise SymmetryError("divergent")
        quasi = np.linalg.norm(sim - A.conj().T) / scale
    except SymmetryError:
        quasi = np.inf
    L = A.shape[0] // 2
    flipped = A.conj().reshape(L, 2, L, 2)[::-1, :, ::-1, :]
    pt = {
        name: np.linalg.norm(
            A - np.einsum("ab,ibjc,cd->iajd", sigma, flipped, sigma).reshape(2 * L, 2 * L)
        ) / scale
        for name, sigma in _SPINORS.items()
    }
    best = min(pt, key=pt.get)  # first minimum, in the order I, σx, σy, σz
    label = next(
        (lab for lab, res in [("Hermitian", herm), ("QuasiHermitian", quasi), ("PTPseudoHermitian", pt[best])]
         if res <= tol),
        "NonHermitian",
    )
    return herm, quasi, pt[best], best, label


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize(
    "sample,M",
    [
        (MetricModel.de_sitter(q=1.0 / 29, L=30).sample(), 1.0),  # horizon site, beta = inf
        (MetricModel.de_sitter(q=1.0 / 29, L=30).sample(), 0.0),
        (MetricModel.anti_de_sitter(q=0.04, L=30).sample(), 1.0),
        (MetricModel.weyl(q=0.05, r=0.0, L=30).sample(), 1.0),
        (MetricModel.weyl(q=0.05, r=0.4, L=30).sample(0.3), 0.5),
        (MetricModel.linear_conformal(q=0.05, r=0.5, L=30).sample(0.5), 1.0),
        (MetricModel.linear_conformal(q=0.1, r=0.0, L=30).sample(), 1.0),  # beta = 0 at site 0
        (MetricModel.rindler(q=0.02, L=30).sample(), 1.0),
        (MetricModel.weyl(q=0.3, r=0.2, L=2).sample(), 1.0),
        (MetricModel.de_sitter(q=1.0, L=2).sample(), 1.0),
        # beta = inf on a coupled site: no η-similarity
        (SampledMetric(t=0.0, alpha=np.ones(3), beta=np.array([1.0, np.inf, 1.0]),
                       dlog_beta_dt=np.zeros(3)), 1.0),
    ],
    ids=["de_sitter", "de_sitter_massless", "anti_de_sitter", "weyl_static", "weyl", "linear_conformal",
         "linear_conformal_beta_zero", "rindler", "weyl_L2", "de_sitter_L2", "divergent_eta"],
)
def test_classify_on_band_matches_dense_reference(sample, M, bc):
    H = build(sample, M=M, a=1.0, bc=bc)
    herm, quasi, pt, spinor, label = _dense_classify(H.matrix, sample.beta)
    rep = classify(H, sample)
    assert rep.classification == label
    assert rep.pt_spinor == spinor
    assert abs(rep.hermitian_residual - herm) <= 1e-15
    assert abs(rep.pt_residual - pt) <= 1e-15
    if np.isinf(quasi):
        assert np.isinf(rep.quasi_hermitian_residual)
    else:
        assert abs(rep.quasi_hermitian_residual - quasi) <= 1e-15


# complex entries from ±0, subnormals, ordinary values and 1e150-scale ones,
# whose squares overflow a plain sum of squares
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0, -1.0]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e149, max_value=1e151),
    st.floats(min_value=-1e151, max_value=-1e149),
)
# a stack of L blocks and a second stack of L blocks, side by side
_STACKS = st.integers(min_value=1, max_value=6).flatmap(
    lambda L: st.lists(st.lists(_ENTRY, min_size=16, max_size=16), min_size=L, max_size=L)
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=_STACKS)
def test_pt_image_by_index_is_the_sandwich(rows):
    # the same residual to the bit as σ·x·σ by matrix products, for each spinor
    x, y = np.array(rows).view(complex).reshape(-1, 2, 2, 2).transpose(1, 0, 2, 3)
    x = x[::-1].conj()  # as classify takes it from the band
    assert list(_PT_SPINORS) == list(_SPINORS)  # ties resolve in this order
    for name, sigma in _SPINORS.items():
        sigma = sigma.astype(complex)
        by_index = band_distance({0: y, 1: x}, {0: _PT_SPINORS[name](x)})
        by_product = band_distance({0: y, 1: x}, {0: sigma @ x @ sigma})
        assert by_index.hex() == by_product.hex()


def test_classify_rindler_hermitian_exact_zero():
    s = MetricModel.rindler(q=0.01, L=40).sample()
    H = build(s, M=1.0, a=1.0)
    rep = classify(H, s)
    assert rep.classification == "Hermitian"
    assert rep.hermitian_residual == 0.0
    assert rep.spectrum_real


@pytest.mark.parametrize(
    "model,M",
    [
        (MetricModel.de_sitter(q=1.0 / 39, L=40), 0.0),
        (MetricModel.de_sitter(q=1.0 / 39, L=40), 1.0),
        (MetricModel.anti_de_sitter(q=0.02, L=40), 1.0),
        (MetricModel.weyl(q=0.05, r=0.0, L=40), 1.0),
    ],
)
def test_classify_quasi_hermitian_catalog(model, M):
    s = model.sample()
    H = build(s, M=M, a=1.0)
    rep = classify(H, s)
    assert rep.classification == "QuasiHermitian"
    assert rep.quasi_hermitian_residual < 1e-12
    assert rep.hermitian_residual > 1e-12
    assert rep.spectrum_real


def test_classify_weyl_time_dependent_nonhermitian():
    r = 0.5
    s = MetricModel.weyl(q=0.05, r=r, L=30).sample(0.0)
    H = build(s, M=0.0, a=1.0)
    dec = eig_general(H)
    rep = classify(H, s, decomposition=dec)
    assert rep.classification == "NonHermitian"
    assert not rep.spectrum_real
    # H = H0 - i(r/2): every eigenvalue picks up the same imaginary shift
    np.testing.assert_allclose(dec.eigenvalues.imag, -r / 2, atol=1e-10)


def test_classify_linear_conformal_nonhermitian():
    s = MetricModel.linear_conformal(q=0.05, r=0.5, L=30).sample(0.5)
    H = build(s, M=0.0, a=1.0)
    rep = classify(H, s)
    assert rep.classification == "NonHermitian"


def test_report_json_roundtrip():
    s = MetricModel.flat(L=6).sample()
    rep = classify(build(s, M=0.0, a=1.0), s)
    data = json.loads(json.dumps(asdict(rep)))
    assert data["classification"] == "Hermitian"
    assert set(data) >= {
        "hermitian_residual",
        "quasi_hermitian_residual",
        "pt_residual",
        "classification",
        "spectrum_real",
    }


def test_unbroken_pt():
    s = MetricModel.de_sitter(q=1.0 / 29, L=30).sample()
    H = build(s, M=0.0, a=1.0)
    assert unbroken_pt(eig_general(H, compute_vectors=False))
    sw = MetricModel.weyl(q=0.05, r=0.4, L=30).sample()
    Hw = build(sw, M=0.0, a=1.0)
    assert not unbroken_pt(eig_general(Hw, compute_vectors=False))
    sh = MetricModel.rindler(q=0.1, L=30).sample()
    assert unbroken_pt(eig_general(build(sh, M=1.0, a=1.0), compute_vectors=False))


def test_uniform_imaginary_shift_property():
    # H0 quasi-hermitian plus c·iI: all eigenvalues have Im E = c
    c = -0.35
    s = MetricModel.anti_de_sitter(q=0.03, L=25).sample()
    H0 = build(s, M=1.0, a=1.0)
    shifted = H0.matrix + 1j * c * np.eye(50)
    ev = eig_general(shifted, compute_vectors=False).eigenvalues
    np.testing.assert_allclose(ev.imag, c, atol=1e-10)


_GUARD_H = build(MetricModel.flat(L=3).sample(), M=0.5, a=1.0)


@pytest.mark.parametrize("call, args, message", [
    (imaginary_gauge, (_GUARD_H, np.ones(2)), "beta length 2 does not match operator (6, 6)"),
    (unbroken_pt, (eig_general(np.zeros((0, 0)), compute_vectors=False),), "empty spectrum"),
], ids=["imaginary_gauge-beta-length", "unbroken_pt-empty"])
def test_library_guards_raise_symmetry_error(call, args, message):
    with pytest.raises(SymmetryError, match=f"^{re.escape(message)}$"):
        call(*args)
