import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedlattice import cli, spectral
from curvedlattice.config import RunConfig
from curvedlattice.evolve import _eta_norm, gaussian_packet
from curvedlattice.metric import MetricModel, SampledMetric
from curvedlattice.observables import horizon_modes
from curvedlattice.operator import (
    LatticeOperator, band_chains, band_matrix, build, column_norms, flat_dispersion, hermitian_residual,
    naive_build,
)
from curvedlattice.spectral import (
    SpectralError,
    eig_general,
    eig_hermitian,
    expm,
    expm_apply,
    match_eigenvalues,
    propagator,
    spectral_mismatch,
)


def test_eig_hermitian_trivial():
    dec = eig_hermitian(np.eye(2))
    assert np.array_equal(dec.eigenvalues, np.array([1.0 + 0j, 1.0 + 0j]))
    dec = eig_hermitian(np.diag([1.0, -1.0]))
    assert np.array_equal(dec.eigenvalues, np.array([-1.0 + 0j, 1.0 + 0j]))
    assert np.all(dec.eigenvalues.imag == 0.0)


def _open_chain_levels(L, M, a):
    """Open flat chain: E = ±√(M² + cos²(jπ/(L+1))/a²), j = 1..L, sorted.

    Each spinor component hops uniformly with standing waves sin(jπn/(L+1));
    the mass couples the two branches at equal |cos|.
    """
    c = np.cos(np.arange(1, L + 1) * np.pi / (L + 1)) / a
    e = np.sqrt(M**2 + c**2)
    return np.sort(np.concatenate([-e, e]))


def test_eig_hermitian_flat_chain_dispersion():
    cases = [("periodic", 8, 0.0, 1.0)] + [
        ("open", L, M, a) for L, M, a in [(2, 0.0, 1.0), (7, 0.5, 1.0), (40, 1.0, 0.5), (101, 0.3, 1.0)]
    ]
    for bc, L, M, a in cases:
        H = build(MetricModel.flat(L=L, a=a).sample(), M=M, a=a, bc=bc)
        ref = flat_dispersion(L, M, a) if bc == "periodic" else _open_chain_levels(L, M, a)
        dec = eig_hermitian(H)
        np.testing.assert_allclose(dec.eigenvalues.real, ref, atol=1e-12)
        assert np.all(dec.eigenvalues.imag == 0.0)
        assert dec.max_residual <= 1e-12 * dec.h_norm
        if bc == "open":
            gen = eig_general(H)
            np.testing.assert_allclose(gen.eigenvalues.real, ref, atol=1e-12)
            assert np.abs(gen.eigenvalues.imag).max() <= 1e-12


def test_eig_general_hatano_nelson_open_chain():
    # static Weyl chain (r = 0, M = 0, open ends): each spinor component is a
    # Hatano-Nelson chain with hoppings e^{±qa/2}/(2a), whose open-chain
    # spectrum is that of the uniform chain, ±|cos(jπ/(L+1))|/a
    for L, q, a in [(2, 0.1, 1.0), (10, 0.2, 1.0), (60, 0.05, 0.5), (101, 0.02, 1.0)]:
        H = build(MetricModel.weyl(q=q, r=0.0, L=L, a=a).sample(), M=0.0, a=a, bc="open")
        assert hermitian_residual(H) > 1e-3
        for vectors in (True, False):
            dec = eig_general(H, compute_vectors=vectors)
            np.testing.assert_allclose(dec.eigenvalues.real, _open_chain_levels(L, 0.0, a), atol=1e-12)
            assert np.abs(dec.eigenvalues.imag).max() <= 1e-12


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(SpectralError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_vs_library_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 17, 40):
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = B + B.conj().T
        dec = eig_hermitian(A)
        ref = np.sort(np.linalg.eigvalsh(A))
        np.testing.assert_allclose(dec.eigenvalues.real, ref, atol=1e-11 * max(1, np.abs(ref).max()))
        # orthonormality of the eigenbasis
        V = dec.right_eigenvectors
        np.testing.assert_allclose(V.conj().T @ V, np.eye(n), atol=1e-10)


def test_lapack_failure_is_spectral_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    A = np.eye(3, dtype=complex)
    for call in (eig_hermitian, eig_general, lambda H: eig_general(H, compute_vectors=False)):
        with pytest.raises(SpectralError, match="did not converge"):
            call(A)


def test_eig_general_trivial():
    dec = eig_general(np.diag([1.0 + 2.0j, 3.0 + 0j]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0 + 2.0j, 3.0 + 0j])
    dec = eig_general(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    np.testing.assert_allclose(dec.eigenvalues, [0.0, 0.0])
    assert dec.residuals is not None  # defective pair still reports residuals


def test_eig_general_random_residuals():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    dec = eig_general(A)
    assert dec.max_residual < 1e-10 * dec.h_norm
    ref = np.linalg.eigvals(A)
    assert spectral_mismatch(dec.eigenvalues, ref) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 9, 24, 64])
def test_eig_general_vs_library_oracle(n):
    rng = np.random.default_rng(100 + n)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dec = eig_general(A)
    assert spectral_mismatch(dec.eigenvalues, np.linalg.eigvals(A)) < 1e-9
    assert dec.max_residual <= 1e-10 * dec.h_norm
    # columns are unit norm
    norms = np.linalg.norm(dec.right_eigenvectors, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-13)


def test_eig_general_unbalanced_matrix():
    # grading that balancing is designed to fix
    rng = np.random.default_rng(5)
    n = 12
    d = 10.0 ** np.arange(n)
    A = np.diag(1.0 / d) @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) @ np.diag(d)
    dec = eig_general(A)
    assert spectral_mismatch(dec.eigenvalues, np.linalg.eigvals(A)) < 1e-8


def test_eig_general_repeated_and_degenerate():
    A = np.diag([2.0 + 0j, 2.0, 2.0, -1.0])
    A[0, 3] = 0.5
    dec = eig_general(A)
    np.testing.assert_allclose(
        np.sort(dec.eigenvalues.real), [-1.0, 2.0, 2.0, 2.0], atol=1e-12
    )


def test_eigenvalues_only_mode():
    rng = np.random.default_rng(8)
    A = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    dec = eig_general(A, compute_vectors=False)
    assert dec.right_eigenvectors is None
    assert spectral_mismatch(dec.eigenvalues, np.linalg.eigvals(A)) < 1e-9


def test_sort_order():
    A = np.diag([3.0 + 1j, 3.0 - 1j, -1.0 + 0j])
    dec = eig_general(A)
    assert dec.eigenvalues[0] == -1.0
    assert dec.eigenvalues[1].imag < dec.eigenvalues[2].imag


def test_hermitian_and_general_paths_agree_on_catalog():
    for model, M in [
        (MetricModel.rindler(q=0.01, L=120), 1.0),
        (MetricModel.flat(L=200), 0.5),
    ]:
        H = build(model.sample(), M=M, a=1.0)
        eh = eig_hermitian(H)
        eg = eig_general(H)
        assert spectral_mismatch(eh.eigenvalues, eg.eigenvalues) < 1e-9


def test_trace_identity_both_paths():
    rng = np.random.default_rng(21)
    A = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    dec = eig_general(A)
    assert abs(np.sum(dec.eigenvalues) - np.trace(A)) <= 1e-9 * dec.h_norm
    B = A + A.conj().T
    dech = eig_hermitian(B)
    assert abs(np.sum(dech.eigenvalues) - np.trace(B)) <= 1e-9 * dech.h_norm


# -- quasi-hermitian matrices: the symmetrized eigh path ---------------------


@st.composite
def _quasi_hermitian(draw):
    """A = D⁻¹BD + icI with B hermitian on a random symmetric pattern, a path
    or a ring, D > 0, optionally a uniform imaginary diagonal c and a
    decoupled zero site; and whether the pattern is a path or a ring."""
    n = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    coupled = rng.random((n, n)) < draw(st.floats(min_value=0.2, max_value=1.0))
    pattern = draw(st.sampled_from(["random", "path", "ring"]))
    if pattern != "random":
        gap = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        coupled = (gap <= 1) | ((gap == n - 1) & (pattern == "ring"))
    B = np.where(coupled | coupled.T, X + X.conj().T, 0.0)
    if draw(st.booleans()):
        z = draw(st.integers(min_value=0, max_value=n - 1))
        B[z, :] = B[:, z] = 0.0
    d = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    c = draw(st.sampled_from([0.0, -0.35, 1.5]))
    return B * d[None, :] / d[:, None] + 1j * c * np.eye(n), c, pattern != "random"


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_quasi_hermitian())
def test_eig_general_quasi_hermitian_vs_numpy_eig(case):
    # the symmetrizer sweeps a path or a ring; any other pattern may go to
    # geev, whose eigenvalues are real up to ic only to rounding
    A, c, swept = case
    lam, _ = np.linalg.eig(A)
    ev = eig_general(A, compute_vectors=False).eigenvalues
    if swept:
        assert np.all(ev.imag == c)  # decomposed by eigvalsh of the partner
    assert spectral_mismatch(ev, lam) < 1e-10
    dec = eig_general(A)
    if swept and A.shape[0] >= 4:  # residuals within n·ε·‖A‖_F keep the eigh path
        assert np.all(dec.eigenvalues.imag == c)
    assert spectral_mismatch(dec.eigenvalues, lam) < 1e-10
    V = dec.right_eigenvectors
    np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, atol=1e-13)
    R = np.linalg.norm(A @ V - V * dec.eigenvalues, axis=0)
    np.testing.assert_allclose(dec.residuals, R, rtol=1e-6, atol=1e-15 * dec.h_norm)
    assert dec.max_residual <= 1e-12 * dec.h_norm


def _sweep_reference(A):
    """The symmetrizer's s of a path or a ring A, site by site: from the site
    after the last zero edge i → i + 1 (mod n), each edge adds
    ½·(log|A_ij| − log|A_ji|) to log d and multiplies u by A_ij/|A_ij|, a
    zero edge starts a new run, and each run is scaled to a smallest d of 1."""
    n = A.shape[0]
    edge = [A[i, (i + 1) % n] if i < n - 1 or n > 2 else 0.0 for i in range(n)]
    start = max((i + 1 for i in range(n) if edge[i] == 0), default=0) % n
    logd, u, runs = np.zeros(n), np.ones(n, dtype=complex), []
    for j in range(n):
        i, prev = (start + j) % n, (start + j - 1) % n
        if j == 0 or edge[prev] == 0:
            runs.append([i])
            continue
        runs[-1].append(i)
        logd[i] = logd[prev] + 0.5 * (np.log(np.abs(edge[prev])) - np.log(np.abs(A[i, prev])))
        u[i] = u[prev] * (edge[prev] / np.abs(edge[prev]))
    for run in runs:
        logd[run] -= logd[run].min()
    return np.exp(logd) * u


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=_quasi_hermitian())
def test_symmetrizer_sweep_matches_a_site_loop(case):
    # the vectorized sweep takes the loop's steps in the loop's order; numpy's
    # array product of complex phases may round apart from its scalar one
    A, _, swept = case
    if swept:
        s, _, _ = spectral._symmetrizer(*spectral._band(A))
        np.testing.assert_allclose(s, _sweep_reference(A), rtol=1e-14, atol=0)


def _ring(n, g, periodic):
    A = np.diag(np.full(n - 1, np.exp(g)), 1) + np.diag(np.full(n - 1, np.exp(-g)), -1)
    if periodic:
        A[n - 1, 0], A[0, n - 1] = np.exp(g), np.exp(-g)
    return A.astype(complex)


@pytest.mark.parametrize(
    "A",
    [
        _ring(12, 0.3, periodic=True),  # cycle products e^{±gn} disagree: complex spectrum
        np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),  # A_01·A_10 < 0: E = ±i
        _ring(130, 0.5 * np.log(1e6), periodic=False),  # d spans 1e3^129: overflows
    ],
    ids=["periodic_hatano_nelson", "negative_product", "skin_chain_overflow"],
)
def test_eig_general_falls_back_to_eig(A, monkeypatch):
    ref = np.linalg.eigvals(A)

    def fail(*args, **kwargs):
        raise AssertionError("took the symmetrized path")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    for vectors in (True, False):
        dec = eig_general(A, compute_vectors=vectors)
        assert spectral_mismatch(dec.eigenvalues, ref) <= 1e-14
    if A.shape[0] == 12:
        assert np.abs(ref.imag).max() > 0.1


# -- the two chains: band_chains and the chain routes -------------------------


def test_benchmark_spectra_routes():
    # the four decompositions of the spectra benchmark, as the CLI makes them;
    # a silent fallback to a slower solver fails here
    L, tol = 20, RunConfig().tol
    q = 1.0 / (L - 1)
    rindler = build(MetricModel.rindler(q=q, L=L).sample(), 0.0, 1.0)
    de_sitter = build(MetricModel.de_sitter(q=q, L=L).sample(), 1.0, 1.0)
    anti_de_sitter = build(MetricModel.anti_de_sitter(q=q, L=L).sample(), 1.0, 1.0)
    conformal = build(MetricModel.linear_conformal(q=q, r=0.5, L=L).sample(0.5), 1.0, 1.0)
    assert cli._decompose(rindler, tol).route == "chain-eigh"
    assert cli._decompose(de_sitter, tol).route == "chain-eigh"
    assert eig_general(anti_de_sitter, compute_vectors=False).route == "chain-eigh"
    assert cli._decompose(conformal, tol).route == "chain-geev"


def _dense_ring(H):
    """The dense rotation ½·Q H Q, Q = I⊗[[1, 1], [1, −1]], on the sites of
    chain A = (u₀, v₁, u₂, …), then those of chain B = (v₀, u₁, v₂, …).  Each
    entry sums ± the four entries of one block, which is exact for a band
    that follows the chain rules (imaginary and real parts add apart)."""
    L = H.shape[0] // 2
    Q = np.kron(np.eye(L), [[1.0, 1.0], [1.0, -1.0]])
    p = np.arange(L)
    order = np.concatenate([2 * p + p % 2, 2 * p + 1 - p % 2])
    return (0.5 * (Q @ H @ Q))[np.ix_(order, order)]


def _dense_chains(H):
    """Chain A, chain B and the entries between them, from :func:`_dense_ring`."""
    L = H.shape[0] // 2
    R = _dense_ring(H)
    return R[:L, :L], R[L:, L:], np.concatenate([R[:L, L:], R[L:, :L]])


def _diagonals(H):
    return {k: np.diagonal(H, k).copy() for k in range(1 - H.shape[0], H.shape[0]) if np.diagonal(H, k).any()}


_CHIRAL_CATALOG = {
    "rindler": lambda L: (MetricModel.rindler(q=1 / (L - 1), L=L), 0.5),
    "de_sitter_horizon": lambda L: (MetricModel.de_sitter(q=1 / (L - 1), L=L), 1.0),
    "anti_de_sitter": lambda L: (MetricModel.anti_de_sitter(q=0.1, L=L), 1.0),
    "weyl_massless": lambda L: (MetricModel.weyl(q=0.05, r=0.3, L=L), 0.0),
    "custom": lambda L: (MetricModel.custom("exp(0.01*x)", "1+0.01*x", L=L), 0.7),
}


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 3, 7, 40])
@pytest.mark.parametrize("family", list(_CHIRAL_CATALOG))
def test_chiral_block_matches_dense_reference(family, L, bc):
    # band_chains reads chain A of the dense rotation from the band, entry
    # for entry, when nothing couples the chains: always, except a periodic
    # ring of odd L whose wrap hop does not vanish at a horizon, which it
    # reads as the one ring of the rotation on A's sites, then B's; chain B
    # is exactly −Ā, and spec(A) ∪ −conj spec(A), or the ring's spectrum, is
    # the operator's
    model, M = _CHIRAL_CATALOG[family](L)
    H = build(model.sample(0.4), M, 1.0, bc)
    A, B, cross = _dense_chains(H.matrix)
    assert np.array_equal(B, -A.conj())
    chain = band_chains(H.diagonals, L)
    if cross.any():
        assert bc == "periodic" and L % 2 == 1
        ring = band_matrix(chain, 2 * L)
        assert np.array_equal(ring, _dense_ring(H.matrix))
        assert spectral_mismatch(np.linalg.eigvals(ring), np.linalg.eigvals(H.matrix)) <= 1e-10
    else:
        assert np.array_equal(band_matrix(chain, L), A)
        E = np.linalg.eigvals(band_matrix(chain, L))
        assert spectral_mismatch(np.concatenate([E, -E.conj()]), np.linalg.eigvals(H.matrix)) <= 1e-10


@st.composite
def _chain_band(draw):
    """A random 2L×2L band that follows the chain rules: onsite blocks
    [[a, b], [b, a]] and hop blocks [[a, b], [−b, −a]], a imaginary and b
    real, on block offsets ±1, and ±(L − 1) when the ring is periodic and L
    even; each block is dropped with probability 0.2 (a horizon)."""
    L = draw(st.integers(min_value=2, max_value=8))
    periodic = draw(st.booleans()) and L % 2 == 0
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    H = np.zeros((L, 2, L, 2), dtype=complex)
    pairs = [(p, p, 1.0) for p in range(L)] + [(p, p + 1, -1.0) for p in range(L - 1)]
    pairs += [(p + 1, p, -1.0) for p in range(L - 1)]
    if periodic:
        pairs += [(L - 1, 0, -1.0), (0, L - 1, -1.0)]
    for p, q, sign in pairs:
        if rng.random() >= 0.2:
            a, b = 1j * rng.normal(), rng.normal()
            H[p, :, q, :] += [[a, b], [sign * b, sign * a]]
    return H.reshape(2 * L, 2 * L)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(H=_chain_band(), data=st.data())
def test_band_chains_split_exactly_the_bands_that_follow_the_rules(H, data):
    L = H.shape[0] // 2
    A, B, cross = _dense_chains(H)
    assert not cross.any() and np.array_equal(B, -A.conj())
    chain = band_chains(_diagonals(H), L)
    assert chain is not None and np.array_equal(band_matrix(chain, L), A)
    # one entry off the rules, in or out of the band, gives None, and so does
    # an onsite block that keeps the spinor rules but breaks the symmetry: a
    # real part of a, or an imaginary part of b
    i, j = (data.draw(st.integers(min_value=0, max_value=2 * L - 1)) for _ in range(2))
    off = H.copy()
    off[i, j] += data.draw(st.sampled_from([0.5, 0.5j, 0.5 + 0.5j]))
    assert band_chains(_diagonals(off), L) is None
    p = 2 * data.draw(st.integers(min_value=0, max_value=L - 1))
    for kernel in ([[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5j], [0.5j, 0.0]]):
        off = H.copy()
        off[p : p + 2, p : p + 2] += kernel
        assert band_chains(_diagonals(off), L) is None


def test_naive_scheme_splits_only_for_uniform_alpha():
    # the naive scheme's ∂₁α term is an onsite σ_z, which couples the chains
    # for a nonuniform α; for flat it vanishes
    L = 40
    naive = naive_build(MetricModel.rindler(q=1 / (L - 1), L=L).sample(), 0.5, 1.0)
    assert band_chains(naive.diagonals, L) is None
    assert eig_general(naive).route == "complex-geev"
    assert band_chains(naive_build(MetricModel.flat(L=L).sample(), 0.5, 1.0).diagonals, L) is not None


def test_chain_routes_form_no_matrix_larger_than_a_chain(monkeypatch):
    # on an operator that splits, both solvers read chain A from the band:
    # every dense matrix they form, and every matrix LAPACK decomposes, is
    # L×L, and the operator's dense view is never built
    L, q = 40, 1 / 39
    operators = [
        (eig_hermitian, build(MetricModel.rindler(q=q, L=L).sample(), 0.0, 1.0, "periodic")),
        (eig_general, build(MetricModel.de_sitter(q=q, L=L).sample(), 1.0, 1.0)),
        (lambda H: eig_general(H, compute_vectors=False),
         build(MetricModel.anti_de_sitter(q=q, L=L).sample(), 1.0, 1.0)),
        (eig_general, build(MetricModel.linear_conformal(q=q, r=0.5, L=L).sample(0.5), 1.0, 1.0)),
        (lambda H: eig_general(H, compute_vectors=False),
         build(MetricModel.linear_conformal(q=q, r=0.5, L=L).sample(0.5), 1.0, 1.0, "periodic")),
    ]
    sizes = []

    def recording(solver):
        def call(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return solver(A, *args, **kwargs)
        return call

    def forming(diagonals, n, *args, **kwargs):
        sizes.append(n)
        return band_matrix(diagonals, n, *args, **kwargs)

    def no_dense(self):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(spectral, "band_matrix", forming)
    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    monkeypatch.setattr(LatticeOperator, "matrix", property(no_dense))
    for solve, H in operators:
        assert solve(H).route.startswith("chain-")
    assert sizes and max(sizes) == L


def _two_horizons(L, beta):
    """A static chain with alpha = 0 on sites 3 and L - 4: two decoupled sites."""
    alpha = np.ones(L)
    alpha[[3, L - 4]] = 0.0
    beta = np.where(alpha == 0.0, np.inf, beta)
    return SampledMetric(t=0.0, alpha=alpha, beta=beta, dlog_beta_dt=np.zeros(L))


@pytest.mark.parametrize("M", [0.0, 1.0])
def test_two_decoupled_horizon_sites(M):
    # each decoupled site is a zero mode of each chain, kept on its own site
    # even where the chain holds a second zero eigenvalue
    L = 16
    hermitian = build(_two_horizons(L, np.ones(L)), M, 1.0)
    quasi = build(_two_horizons(L, 1.0 + 0.05 * np.arange(L)), M, 1.0)
    for dec in (eig_hermitian(hermitian), eig_general(quasi)):
        assert dec.route == "chain-eigh"
        modes = horizon_modes(dec)
        assert sorted(site for _, site in modes) == [3, 3, L - 4, L - 4]


def test_zero_singular_vectors_stay_apart():
    # a hermitian two-site operator whose zero modes sit on one site each: the
    # kernel's left vector on site 1 and its right vector on site 0 of the
    # block Y = [[0, 1], [0, 0]]; its hop block has a σ_x part, which couples
    # the chains, so it is decomposed whole, and the modes stay apart
    H = np.zeros((4, 4), dtype=complex)
    H[0, 2], H[0, 3], H[1, 2], H[1, 3] = 0.5j, 0.5, 0.5, -0.5j
    H = H + H.conj().T
    op = LatticeOperator(_diagonals(H), dim=4)
    for dec in (eig_hermitian(op), eig_general(op)):
        assert dec.route == "complex-eigh"
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 0.0, 0.0, 1.0], atol=1e-15)
        assert sorted(site for _, site in horizon_modes(dec)) == [0, 1]


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize("L", [10, 25, 50])
@pytest.mark.parametrize("M", [0.0, 1.0])
def test_real_geev_pairs_and_agrees_with_complex_eig(L, M, bc):
    # the nonhermitian slice goes to zgeev of chain A, and its spectrum pairs
    # E and −Ē exactly, by construction; a periodic ring of odd L does not
    # split and takes zgeev of the 2L-site ring, which pairs them to rounding
    H = build(MetricModel.linear_conformal(q=1.0 / (L - 1), r=0.5, L=L).sample(0.5), M, 1.0, bc)
    dec = eig_general(H)
    E = dec.eigenvalues
    split = bc == "open" or L % 2 == 0
    assert dec.route == "chain-geev"
    mirror = np.sort_complex(-E.conj())
    if split:
        assert np.array_equal(np.sort_complex(E), mirror)
    else:
        assert spectral_mismatch(E, mirror) <= 1e-12
    assert dec.max_residual <= H.dim * np.finfo(float).eps * dec.h_norm
    R = np.linalg.norm(H.matrix @ dec.right_eigenvectors - dec.right_eigenvectors * E, axis=0)
    np.testing.assert_allclose(dec.residuals, R, rtol=1e-6, atol=1e-15 * dec.h_norm)
    assert spectral_mismatch(E, np.linalg.eigvals(H.matrix)) <= 1e-10
    assert np.array_equal(eig_general(H, compute_vectors=False).eigenvalues, E)


def test_matrices_that_do_not_split_keep_the_complex_routes():
    # a matrix off the chain rules is decomposed whole, plain matrix or not:
    # an open Hatano-Nelson chain (real hops, where the rules want imaginary
    # ones) and criterion 11's random matrices stay on the complex solvers
    assert eig_general(_ring(40, 0.3, periodic=False)).route == "complex-eigh"
    assert eig_general(_ring(130, 0.5 * np.log(1e6), periodic=False)).route == "complex-geev"
    rng = np.random.default_rng(20240819)
    for n in (2, 17, 64):
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert eig_general(A).route == "complex-geev"


def test_chain_lapack_failure_is_spectral_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    rindler = build(MetricModel.rindler(q=1 / 9, L=10).sample(), 1.0, 1.0)
    de_sitter = build(MetricModel.de_sitter(q=1 / 9, L=10).sample(), 1.0, 1.0)
    conformal = build(MetricModel.linear_conformal(q=1 / 9, r=0.5, L=10).sample(0.5), 1.0, 1.0)
    for call, H in [
        (eig_hermitian, rindler),
        (eig_general, de_sitter),
        (lambda H: eig_general(H, compute_vectors=False), de_sitter),
        (eig_general, conformal),
    ]:
        with pytest.raises(SpectralError, match="did not converge"):
            call(H)


@pytest.mark.parametrize(
    "solver, model, route",
    [
        ("eigh", MetricModel.de_sitter(q=1 / 11, L=12), "fallback:eigh-residual:complex-geev"),
        ("eig", MetricModel.linear_conformal(q=1 / 11, r=0.5, L=12), "fallback:geev-residual:complex-geev"),
    ],
    ids=["chain_eigh", "chain_geev"],
)
def test_failed_residual_check_falls_back(solver, model, route, monkeypatch):
    # chain vectors that fail the n·ε·‖A‖_F residual check send the
    # decomposition to the whole band, and the route says which check failed;
    # the whole band is no path or ring, so its symmetrizer tries s = 1 only,
    # and a quasi-hermitian band goes to geev
    H = build(model.sample(0.5), 1.0, 1.0)
    ref = eig_general(H)
    real_solver = getattr(np.linalg, solver)

    def spoiled(A, *args, **kwargs):
        out = list(real_solver(A, *args, **kwargs))
        if A.shape[0] == H.L:
            out[-1] = out[-1] + 1e-6  # the last factor holds vectors
        return tuple(out)

    monkeypatch.setattr(np.linalg, solver, spoiled)
    dec = eig_general(H)
    assert dec.route == route
    assert dec.max_residual <= H.dim * np.finfo(float).eps * dec.h_norm
    assert spectral_mismatch(dec.eigenvalues, ref.eigenvalues) <= 1e-12


_STATIC_SITE = st.tuples(st.floats(min_value=1e-3, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    sites=st.integers(min_value=2, max_value=9).flatmap(
        lambda L: st.lists(_STATIC_SITE, min_size=L, max_size=L)),
    M=st.floats(min_value=0.0, max_value=3.0),
    bc=st.sampled_from(["open", "periodic"]),
)
def test_static_metric_has_exact_chiral_real_form(sites, M, bc):
    # random static alpha, beta > 0: the operator splits exactly into chain A
    # and chain B = −Ā, unless a periodic ring of odd L closes them into one
    # ring of 2L sites, and the symmetrizer turns the chain or the ring into a
    # real symmetric partner, so real eigh decomposes it with no fallback
    alpha, beta = (np.array(col) for col in zip(*sites))
    sample = SampledMetric(t=0.0, alpha=alpha, beta=beta, dlog_beta_dt=np.zeros(alpha.size))
    H = build(sample, M, 1.0, bc)
    chain = band_chains(H.diagonals, H.L)
    ring = bc == "periodic" and H.L % 2 == 1
    _, c, B = spectral._symmetrizer(chain, H.dim if ring else H.L)
    assert c == 0.0 and all(np.isrealobj(b) for b in B.values())
    assert eig_general(H, compute_vectors=False).route == "chain-eigh"
    dec = eig_general(H)
    assert dec.route == "chain-eigh"
    assert np.all(dec.eigenvalues.imag == 0.0)
    assert spectral_mismatch(dec.eigenvalues, np.linalg.eigvals(H.matrix)) <= 1e-10


def test_tiny_static_chain_stays_on_eigh():
    # the three-site profile whose chiral SVD vectors missed the residual
    # bound by 5×: its chain decomposes on real eigh with no fallback
    sample = SampledMetric(t=0.0, alpha=np.array([2.0, 0.5, 3.0]), beta=np.array([2.0, 4.0, 1.0]),
                           dlog_beta_dt=np.zeros(3))
    H = build(sample, 1.0, 1.0)
    dec = eig_general(H)
    assert dec.route == "chain-eigh"
    assert dec.max_residual <= H.dim * np.finfo(float).eps * dec.h_norm
    assert spectral_mismatch(dec.eigenvalues, np.linalg.eigvals(H.matrix)) <= 1e-14


# -- matrix exponential ------------------------------------------------------


def test_expm_identity_and_zero():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    np.testing.assert_allclose(expm(np.eye(2)), np.e * np.eye(2), rtol=1e-14)


def test_expm_vs_scipy():
    rng = np.random.default_rng(17)
    inputs = [
        scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
        for n, scale in [(4, 0.5), (12, 2.0), (12, 8.0), (30, 20.0)]
    ]
    for model, M in [
        (MetricModel.rindler(q=0.02, L=20), 0.5),  # hermitian
        (MetricModel.de_sitter(q=1.0 / 19, L=20), 1.0),  # quasi-hermitian, horizon site
        (MetricModel.linear_conformal(q=0.1, r=0.5, L=20), 0.3),  # nonhermitian
    ]:
        H = build(model.sample(0.5), M=M, a=1.0).matrix
        inputs += [-1j * dt * H for dt in (1e-3, 1.0, 1000.0)]
    for A in inputs:
        ref = scipy.linalg.expm(A)
        got = expm(A)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())


def test_expm_apply_examples():
    psi = np.array([1.0 + 0j, 2.0 - 1j])
    zero = np.zeros((2, 2))
    np.testing.assert_allclose(expm_apply(zero, 0.7, psi), psi)
    sz = np.diag([1.0 + 0j, -1.0])
    out = expm_apply(sz, np.pi, psi)
    np.testing.assert_allclose(out, -psi, atol=1e-12)
    r = 0.8
    damp = -0.5j * r * np.eye(2)
    np.testing.assert_allclose(expm_apply(damp, 1.0, psi), np.exp(-r / 2) * psi, rtol=1e-12)


def test_expm_apply_composition():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    psi = rng.normal(size=10) + 1j * rng.normal(size=10)
    dt = 0.3
    once = expm_apply(A, dt, expm_apply(A, dt, psi))
    twice = expm_apply(A, 2 * dt, psi)
    np.testing.assert_allclose(once, twice, rtol=1e-9, atol=1e-9 * np.abs(twice).max())


def test_expm_apply_overflow_raises():
    gain = 1j * 800.0 * np.eye(4)  # exp(+800) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may leak
        with pytest.raises(SpectralError, match="overflow"):
            expm_apply(gain, 1.0, np.ones(4, dtype=complex))
        with pytest.raises(SpectralError, match="overflow"):
            expm(np.full((2, 2), 1e308 + 0j))  # the trace and the 1-norm overflow


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize(
    "model, M, bc",
    [
        (MetricModel.rindler(q=0.02, L=50), 0.5, "open"),  # hermitian
        (MetricModel.de_sitter(q=1.0 / 49, L=50), 1.0, "open"),  # quasi-hermitian, horizon site
        (MetricModel.linear_conformal(q=0.1, r=0.5, L=50), 0.3, "open"),  # nonhermitian
        (MetricModel.linear_conformal(q=0.1, r=0.5, L=50), 0.3, "periodic"),  # corner blocks
        (MetricModel.weyl(q=0.3, r=0.5, L=2), 1.0, "periodic"),  # corners on the ±2 diagonals
    ],
    ids=["rindler", "de_sitter", "linear_conformal", "linear_conformal_periodic", "weyl_periodic_L2"],
)
@pytest.mark.parametrize("dt", [1e-3, 0.1, 2.0])
def test_expm_apply_vs_scipy_on_catalog(model, M, bc, dt):
    # the operator itself (its band) and its dense matrix are both accepted
    op = build(model.sample(0.5), M=M, a=1.0, bc=bc)
    H = op.matrix
    rng = np.random.default_rng(5)
    psi = rng.normal(size=H.shape[0]) + 1j * rng.normal(size=H.shape[0])
    ref = scipy.linalg.expm(-1j * dt * H) @ psi
    for given in (H, op):
        assert _rel_err(expm_apply(given, dt, psi), ref) <= 1e-10


@pytest.mark.parametrize("n", [3, 16, 64])
@pytest.mark.parametrize("norm1", [1e-4, 0.3, 1.0, 4.0, 17.0, 50.0])
def test_expm_apply_vs_scipy_random(n, norm1, monkeypatch):
    # ||H dt||_1 above 1 takes several Taylor substeps; where forming the
    # dense step matrix and one product is estimated to cost less than the
    # band step (for_steps(1)), the step applies that instead
    calls = []
    form_dense = spectral.StepOperator.form_dense
    monkeypatch.setattr(
        spectral.StepOperator, "form_dense", lambda self: calls.append(self) or form_dense(self)
    )
    rng = np.random.default_rng(n)
    H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dt = norm1 / np.max(np.sum(np.abs(H), axis=0))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    ref = scipy.linalg.expm(-1j * dt * H) @ psi
    assert _rel_err(expm_apply(H, dt, psi), ref) <= 1e-10
    step = spectral._taylor_step(*spectral._band(H), dt)
    forming, applying = spectral._dense_costs(n, step.norm1)
    assert len(calls) == (forming + applying < step.band_cost())


def test_lattice_operator_is_read_only_through_its_band(monkeypatch):
    # the complex-geev fallback, a dense step matrix and a one-off step of
    # s > n substeps all work from the band; none builds the operator's dense matrix
    H = build(MetricModel.linear_conformal(q=1 / 11, r=0.5, L=12).sample(0.5), 1.0, 1.0)
    A = band_matrix(H.diagonals, H.dim)
    ref = np.linalg.eigvals(A)

    def no_dense(self):
        raise AssertionError("dense matrix built")

    eig = np.linalg.eig

    def spoiled(X):
        lam, V = eig(X)
        return lam, (V + 1e-6 if X.shape[0] == H.L else V)

    monkeypatch.setattr(LatticeOperator, "matrix", property(no_dense))
    monkeypatch.setattr(np.linalg, "eig", spoiled)
    dec = eig_general(H)
    assert dec.route == "fallback:geev-residual:complex-geev"
    assert spectral_mismatch(dec.eigenvalues, ref) <= 1e-12
    rng = np.random.default_rng(13)
    psi = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
    U = propagator(H, 0.1).for_steps(10**6)
    assert U.dense is not None
    assert _rel_err(U @ psi, scipy.linalg.expm(-0.1j * A) @ psi) <= 1e-10
    dt = 20.0
    assert spectral._taylor_step(H.diagonals, H.dim, dt).s > H.dim
    assert _rel_err(expm_apply(H, dt, psi), scipy.linalg.expm(-1j * dt * A) @ psi) <= 1e-10


_STATIC_CATALOG = [
    (MetricModel.rindler(q=0.02, L=30), 0.5),  # hermitian
    (MetricModel.de_sitter(q=1 / 29, L=30), 1.0),  # quasi-hermitian, horizon site
    (MetricModel.anti_de_sitter(q=1 / 29, L=30), 1.0),
    (MetricModel.weyl(q=0.05, r=0.3, L=30), 0.0),  # static, uniform -ir/2
    (MetricModel.custom("exp(0.002*x)", "exp(0.002*x)", L=30), 0.5),
]
_STATIC_IDS = ["rindler", "de_sitter", "anti_de_sitter", "massless_weyl", "custom_exp"]


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize("model, M", _STATIC_CATALOG, ids=_STATIC_IDS)
def test_propagator_step_vs_scipy(model, M, bc):
    # settled for one application, a short step stays on the band and a long
    # one holds expm's step matrix; settled for many, every step holds it;
    # each matches scipy
    H = build(model.sample(0.0), M=M, a=1.0, bc=bc)
    n = H.dim
    rng = np.random.default_rng(11)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    once = []
    for dt in (1e-3, 1.0, 50.0):
        ref = scipy.linalg.expm(-1j * dt * H.matrix) @ psi
        U = propagator(H, dt)
        once.append(U.dense is not None)
        assert _rel_err(U @ psi, ref) <= 1e-10
        U = propagator(H, dt).for_steps(10**6)
        assert np.array_equal(U.dense, expm(-1j * dt * H.matrix))
        assert _rel_err(U @ psi, ref) <= 1e-10
    assert once[0] is False and once[-1] is True


@pytest.mark.parametrize(
    "model, M, dt, dense",
    [
        # in-process medians (OpenBLAS, 2 threads), q = 1/(L - 1), in ms: the
        # band step / forming the dense step matrix and one product
        (MetricModel.rindler(q=1 / 29, L=30), 0.0, 50.0, True),  # 8.8 / 1.0 ms
        (MetricModel.de_sitter(q=1 / 49, L=50), 1.0, 10.0, True),  # 6.7 / 3.0 ms
        (MetricModel.de_sitter(q=1 / 49, L=50), 0.0, 10.0, False),  # 2.2 / 2.8 ms
        (MetricModel.linear_conformal(q=1 / 19, r=0.5, L=20), 1.0, 1e-3, False),  # 0.14 / 0.24 ms
        (MetricModel.linear_conformal(q=1 / 199, r=0.5, L=200), 1.0, 1e-3, False),  # 0.20 / 27 ms
        (MetricModel.rindler(q=1 / 199, L=200), 1.0, 50.0, False),  # 37 / 185 ms
        (MetricModel.linear_conformal(q=1 / 199, r=0.5, L=200), 1.0, 10.0, False),  # 6.1 / 139 ms
        (MetricModel.rindler(q=1 / 249, L=250), 3.0, 100.0, False),  # 106 / 560 ms
        (MetricModel.de_sitter(q=1 / 249, L=250), 5.0, 100.0, False),  # 176 / 653 ms
    ],
    ids=["rindler_L30", "de_sitter_L50_M1", "de_sitter_L50_M0", "linear_conformal_L20",
         "linear_conformal_L200_dt1e-3", "rindler_L200", "linear_conformal_L200_dt10",
         "rindler_L250", "de_sitter_L250"],
)
def test_one_off_route_follows_measurement(model, M, dt, dense):
    # one application takes the route that measured faster; nothing is timed
    H = build(model.sample(0.5), M, 1.0)
    assert (propagator(H, dt).dense is not None) == dense


@pytest.mark.parametrize(
    "model", [MetricModel.de_sitter(q=1 / 99, L=100), MetricModel.anti_de_sitter(q=1 / 99, L=100)],
    ids=["de_sitter", "anti_de_sitter"],
)
def test_long_static_run_on_band_conserves_eta_norm(model):
    # 2000 band steps conserve the metric norm and follow the dense step matrix
    dt, steps = 1e-3, 2000
    H = build(model.sample(0.0), M=1.0, a=1.0)
    U = propagator(H, dt)
    assert U.dense is None
    beta = model.sample(0.0).beta
    psi = gaussian_packet(50.0, 6.0, 0.5, 100).values.astype(complex)
    eta0 = _eta_norm(psi, beta)
    band = psi
    for _ in range(steps):
        band = U @ band
        assert abs(_eta_norm(band, beta) - eta0) <= 1e-10 * eta0
    step = scipy.linalg.expm(-1j * dt * H.matrix)
    for _ in range(steps):
        psi = step @ psi
    assert _rel_err(band, psi) <= 1e-10


def test_match_eigenvalues():
    a = np.array([1.0, 2.0, 3.0 + 1j])
    b = np.array([3.0 + 1j, 1.0 + 1e-12j, 2.0])
    idx, dist = match_eigenvalues(a, b)
    assert list(idx) == [1, 2, 0]
    assert np.max(dist) <= 1e-12


_GUARD_H = build(MetricModel.flat(L=3).sample(), M=0.5, a=1.0)


@pytest.mark.parametrize("call, args, message", [
    (expm_apply, (_GUARD_H, 0.1, np.ones(5)), "state length (5,) does not match matrix (6, 6)"),
    (propagator, (_GUARD_H, float("nan")), "non-finite time step nan"),
    (eig_general, (np.ones((2, 3)),), "expected a square matrix, got shape (2, 3)"),
    (eig_general, (np.array([[1.0, np.inf], [0.0, 1.0]]),), "matrix has non-finite entries"),
    (match_eigenvalues, (np.zeros(2), np.zeros(3)), "spectra have different sizes"),
], ids=["expm_apply-state-length", "propagator-nan-step", "eig_general-non-square",
        "eig_general-non-finite", "match_eigenvalues-sizes"])
def test_library_guards_raise_spectral_error(call, args, message):
    with pytest.raises(SpectralError, match=f"^{re.escape(message)}$"):
        call(*args)


# every catalog family at a slice t = 0.4, with a mass: (model, M) at L sites
_FAMILIES = {
    "flat": lambda L: (MetricModel.flat(L=L), 0.5),
    "rindler": lambda L: (MetricModel.rindler(q=1 / (L - 1), L=L), 0.0),
    "de_sitter": lambda L: (MetricModel.de_sitter(q=1 / (L - 1), L=L), 1.0),
    "anti_de_sitter": lambda L: (MetricModel.anti_de_sitter(q=0.1, L=L), 1.0),
    "weyl": lambda L: (MetricModel.weyl(q=0.05, r=0.3, L=L), 0.5),
    "linear_conformal": lambda L: (MetricModel.linear_conformal(q=0.1, r=0.5, L=L), 1.0),
    "custom": lambda L: (MetricModel.custom("exp(0.01*x)*(1+0.1*t)", "1+0.01*x", L=L), 0.7),
}
# open chains and periodic rings of even L: every one of them splits
_SPLITTING = [(7, "open"), (40, "open"), (8, "periodic"), (40, "periodic")]


def _split_operator(family, L, bc):
    model, M = _FAMILIES[family](L)
    return build(model.sample(0.4), M, 1.0, bc)


def _same_decomposition(got, want):
    assert got.route == want.route
    for name in ("eigenvalues", "right_eigenvectors", "residuals"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("L, bc", _SPLITTING)
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_a_plain_copy_of_a_split_operator_takes_its_route(family, L, bc):
    # the band alone picks the route: the dense copy splits as H does
    H = _split_operator(family, L, bc)
    dec = eig_general(H)
    assert dec.route.startswith("chain-")
    _same_decomposition(eig_general(H.matrix), dec)
    if hermitian_residual(H) <= 1e-10:
        _same_decomposition(eig_hermitian(H.matrix), eig_hermitian(H))


@pytest.mark.parametrize("L, bc", _SPLITTING)
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_mirrored_residuals_are_the_measured_ones(family, L, bc):
    # chain B's residual norms are copied from chain A's: they equal, bit for
    # bit, the norms measured over all 2L columns on the whole band
    H = _split_operator(family, L, bc)
    solvers = [eig_general] + [eig_hermitian] * (hermitian_residual(H) <= 1e-10)
    for solve in solvers:
        dec = solve(H)
        assert dec.route.startswith("chain-")
        V, E = dec.right_eigenvectors, dec.eigenvalues
        measured = column_norms(spectral._band_matvec(H.diagonals, V) - V * E[None, :])
        assert dec.residuals.tobytes() == measured.tobytes()


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 3, 7, 40, 41])
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_every_lattice_operator_takes_a_chain_route(family, L, bc):
    # chain A, or the ring that closes the two chains of an odd periodic
    # lattice: never the whole band; a static ring of odd L keeps a real
    # spectrum, exactly
    H = _split_operator(family, L, bc)
    decs = [eig_general(H), eig_general(H, compute_vectors=False)]
    if hermitian_residual(H) <= 1e-10:
        decs.append(eig_hermitian(H))
    reference = np.linalg.eigvals(H.matrix)
    for dec in decs:
        assert dec.route in ("chain-eigh", "chain-geev")
        assert dec.max_residual <= H.dim * np.finfo(float).eps * dec.h_norm
        assert spectral_mismatch(dec.eigenvalues, reference) <= 1e-10
    static = not _FAMILIES[family](L)[0].sample(0.4).dlog_beta_dt.any()
    if static and bc == "periodic" and L % 2:
        for dec in decs:
            assert dec.route == "chain-eigh" and np.all(dec.eigenvalues.imag == 0.0)


# metric samples over a dynamic range of 1e±150, with horizons (α = 0)
_WIDE_SITE = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e)),
    st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e),
    st.floats(min_value=-3.0, max_value=3.0),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    sites=st.integers(min_value=2, max_value=12).flatmap(
        lambda L: st.lists(_WIDE_SITE, min_size=L, max_size=L)),
    M=st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0)),
    a=st.sampled_from([1.0, 0.5, 0.3]),
    periodic=st.booleans(),
)
def test_every_hermitian_chain_has_a_partner(sites, M, a, periodic):
    # eig_hermitian decomposes the chain of ½(A + A†): its pattern is
    # symmetric, its diagonal real and every log-ratio step exactly 0, so the
    # symmetrizer always finds the hermitian partner it takes eigh of
    alpha, beta, dlog = (np.array(col) for col in zip(*sites))
    L = alpha.size
    bc = "periodic" if periodic and L % 2 == 0 else "open"
    sample = SampledMetric(t=0.0, alpha=alpha, beta=np.where(alpha == 0.0, np.inf, beta),
                           dlog_beta_dt=dlog)
    A = build(sample, M, a, bc).diagonals
    B = {k: 0.5 * (A.get(k, 0.0) + A.get(-k, 0.0).conjugate()) for k in A.keys() | {-k for k in A}}
    chain = band_chains(B, L)
    assert chain is not None
    assert spectral._symmetrizer(chain, L) is not None
