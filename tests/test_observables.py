import math
import re

import numpy as np
import pytest

from curvedlattice.metric import MetricModel
from curvedlattice.observables import (
    LdosGrid,
    ObservableError,
    default_gamma,
    energy_grid,
    horizon_modes,
    ldos_imag,
    ldos_real,
    lorentzian_delta,
    site_weights,
)
from curvedlattice.operator import build
from curvedlattice.spectral import eig_general, eig_hermitian


def test_lorentzian_peak_and_halfwidth():
    g = 0.03
    assert lorentzian_delta(0.0, g) == pytest.approx(1.0 / (np.pi * g), rel=1e-15)
    assert lorentzian_delta(g, g) == pytest.approx(1.0 / (2 * np.pi * g), rel=1e-15)
    with pytest.raises(ObservableError):
        lorentzian_delta(0.0, 0.0)


def test_lorentzian_trapezoid_integral():
    # oracle: (1/pi)(arctan(100) - arctan(-100)) = (2/pi) arctan(100)
    g = 0.2
    x = np.linspace(-100 * g, 100 * g, 200001)
    integral = np.trapezoid(lorentzian_delta(x, g), x)
    assert integral == pytest.approx(2.0 / np.pi * math.atan(100.0), abs=1e-7)
    assert integral == pytest.approx(0.9936, abs=1e-4)


def test_single_free_site():
    # one massless site: H = 0, LDOS(E) proportional to the Lorentzian itself
    dec = eig_hermitian(np.zeros((2, 2), dtype=complex))
    grid = energy_grid(-1.0, 1.0, 201)
    ld = ldos_real(dec, grid, gamma=0.05)
    assert ld.normalized
    peak_idx = np.unravel_index(np.argmax(ld.values), ld.values.shape)
    assert grid[peak_idx[1]] == pytest.approx(0.0, abs=1e-12)
    expected = lorentzian_delta(grid, 0.05) / lorentzian_delta(0.0, 0.05)
    np.testing.assert_allclose(ld.values[0], expected, rtol=1e-12)


def test_rindler_horizon_peak():
    L = 60
    s = MetricModel.rindler(q=1.0 / (L - 1), L=L).sample()
    dec = eig_hermitian(build(s, M=0.0, a=1.0))
    grid = energy_grid(-1.2, 1.2, 241)
    ld = ldos_real(dec, grid, gamma=0.01)
    # normalized peak sits at the decoupled site n=0, E=0
    n_peak, e_peak = np.unravel_index(np.argmax(ld.values), ld.values.shape)
    assert n_peak == 0
    assert abs(grid[e_peak]) < 1e-12
    assert ld.values.max() == 1.0


def test_flat_massive_gap():
    L = 40
    dec = eig_hermitian(build(MetricModel.flat(L=L).sample(), M=1.0, a=1.0))
    grid = energy_grid(-0.5, 0.5, 101)  # inside the gap |E| < M
    ld = ldos_real(dec, grid, gamma=0.02, normalize=False)
    # only Lorentzian tails reach into the gap
    assert ld.values.max() < 0.2 * lorentzian_delta(0.0, 0.02)


def test_ldos_imag_ridges():
    L = 30
    s = MetricModel.rindler(q=0.03, L=L).sample()
    dec = eig_hermitian(build(s, M=0.0, a=1.0))
    grid = energy_grid(-0.5, 0.5, 201)
    ld = ldos_imag(dec, grid, gamma=0.02)
    cols = ld.values.max(axis=0)
    assert grid[np.argmax(cols)] == pytest.approx(0.0, abs=1e-12)

    r = 0.5
    sw = MetricModel.weyl(q=0.05, r=r, L=L).sample()
    decw = eig_general(build(sw, M=0.0, a=1.0))
    ldw = ldos_imag(decw, grid, gamma=0.02)
    cols = ldw.values.max(axis=0)
    assert grid[np.argmax(cols)] == pytest.approx(-r / 2, abs=0.01)


def test_horizon_modes_catalog():
    L = 60
    q = 1.0 / (L - 1)
    rin = eig_hermitian(build(MetricModel.rindler(q=q, L=L).sample(), M=0.0, a=1.0))
    modes = horizon_modes(rin, tol_energy=1e-12)
    assert len(modes) == 2  # spinor degeneracy
    assert all(site == 0 for _, site in modes)

    s = MetricModel.de_sitter(q=q, L=L).sample()
    ds = eig_general(build(s, M=1.0, a=1.0))
    modes = horizon_modes(ds, tol_energy=1e-12)
    assert len(modes) >= 1
    assert all(site == L - 1 for _, site in modes)

    ads = eig_general(build(MetricModel.anti_de_sitter(q=q, L=L).sample(), M=1.0, a=1.0))
    assert horizon_modes(ads, tol_energy=0.01) == []


def test_column_sum_rule_and_total_weight():
    L = 20
    dec = eig_hermitian(build(MetricModel.flat(L=L).sample(), M=0.5, a=1.0))
    W = site_weights(dec)
    np.testing.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
    # unnormalized double integral ~ (number of states)·(grid coverage)
    gamma = 0.01
    lo = dec.eigenvalues.real.min() - 100 * gamma
    hi = dec.eigenvalues.real.max() + 100 * gamma
    grid = energy_grid(lo, hi, 4001)
    ld = ldos_real(dec, grid, gamma, normalize=False)
    total = np.trapezoid(ld.values.sum(axis=0), grid)
    assert total == pytest.approx(2 * L, rel=0.02)


def test_chiral_symmetry_reflects_ldos():
    L = 20
    dec = eig_hermitian(build(MetricModel.flat(L=L).sample(), M=0.0, a=1.0))
    grid = energy_grid(-1.5, 1.5, 301)
    ld = ldos_real(dec, grid, gamma=0.05)
    np.testing.assert_allclose(ld.values, ld.values[:, ::-1], atol=1e-10)


def test_normalization_idempotent_and_zero_grid_flag():
    L = 10
    dec = eig_hermitian(build(MetricModel.flat(L=L).sample(), M=0.0, a=1.0))
    grid = energy_grid(-1.0, 1.0, 51)
    ld = ldos_real(dec, grid, gamma=0.02)
    renorm = ld.values / ld.values.max()
    np.testing.assert_array_equal(ld.values, renorm)
    # a grid holding exact zeros everywhere is flagged unnormalized
    zero = LdosGrid("real", grid, np.zeros((L, grid.size)), 0.02, normalized=False)
    assert not zero.normalized


def test_default_gamma_scales_with_span():
    L = 24
    dec = eig_hermitian(build(MetricModel.flat(L=L).sample(), M=0.0, a=1.0))
    g = default_gamma(dec, "real")
    span = np.ptp(dec.eigenvalues.real)
    assert g == pytest.approx(20 * span / (np.pi * 2 * L))
    assert default_gamma(dec, "imaginary") > 0  # falls back to the real span


_GUARD_H = build(MetricModel.flat(L=3).sample(), M=0.5, a=1.0)


@pytest.mark.parametrize("call, args, message", [
    (ldos_real, (eig_general(_GUARD_H, compute_vectors=False), np.linspace(-1, 1, 5), 0.1),
     "decomposition has no eigenvectors"),
    (ldos_real, (eig_hermitian(_GUARD_H), np.zeros(0), 0.1), "empty energy grid"),
    (energy_grid, (1.0, 1.0, 5), "degenerate energy grid [1.0, 1.0] x 5"),
    (energy_grid, (1.0, 0.0, 5), "degenerate energy grid [1.0, 0.0] x 5"),
], ids=["ldos_real-no-vectors", "ldos_real-empty-grid", "energy_grid-empty", "energy_grid-reversed"])
def test_library_guards_raise_observable_error(call, args, message):
    with pytest.raises(ObservableError, match=f"^{re.escape(message)}$"):
        call(*args)
