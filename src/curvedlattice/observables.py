"""Local density of states on the real and imaginary energy axes.

The site weight of an eigenstate is its position-resolved probability
``w_j(n) = Σ_s |v_j[2n+s]|²`` (summed over the two spinor components), so
the LDOS at site n and energy E is ``Σ_j w_j(n) δ_Γ(E_j − E)`` with the
energy taken on the real or the imaginary axis and the delta broadened to a
Lorentzian of half-width Γ.  Grids are normalized to unit maximum, matching
how the heatmaps are rendered; a grid that is identically zero is returned
unnormalized and flagged.

Horizon detection: an event horizon pinned to a lattice site decouples it,
leaving an eigenpair at zero energy whose weight sits entirely on that site.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CurvedLatticeError
from .spectral import SpectralDecomposition


class ObservableError(CurvedLatticeError):
    """Invalid LDOS request."""

    exit_code = 3


class LdosGrid(NamedTuple):
    """Max-normalized (site × energy) spectral-weight grid."""

    values: np.ndarray  # shape (L, n_E), nonnegative
    normalized: bool


def lorentzian_delta(x, gamma: float):
    """Lorentzian approximation of δ(x): (1/π)·Γ/(x² + Γ²).

    Γ² must not fall below the normal float range: there the peak 1/(πΓ)
    is lost to underflow (Γ² = 0 divides by zero), so such a Γ is an error.
    Where Γ² overflows, the same value is taken as ((1/π)/Γ)/((x/Γ)² + 1).
    """
    gamma = float(gamma)  # a numpy Γ² would warn where it overflows
    if gamma <= 0:
        raise ObservableError(f"broadening must be positive, got {gamma}")
    if gamma * gamma < np.finfo(float).tiny:
        raise ObservableError(
            f"broadening gamma={gamma:g} cannot be squared: gamma² underflows the float range"
        )
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x² = inf gives the limit 0
        if np.isinf(gamma * gamma):
            return (1.0 / np.pi / gamma) / ((x / gamma) ** 2 + 1.0)
        return gamma / (np.pi * (x * x + gamma * gamma))


def energy_grid(e_min: float, e_max: float, count: int) -> np.ndarray:
    """Uniform energy grid [e_min, e_max] with ``count`` points and a finite span."""
    if count < 2 or e_max <= e_min:
        raise ObservableError(f"degenerate energy grid [{e_min}, {e_max}] x {count}")
    if not float(e_max) - float(e_min) <= np.finfo(float).max:
        raise ObservableError(f"energy grid [{e_min}, {e_max}] spans beyond the float range")
    return np.linspace(e_min, e_max, count)


def site_weights(decomposition: SpectralDecomposition) -> np.ndarray:
    """Per-site weights of each eigenvector: shape (L, n_eig), columns sum to 1."""
    V = decomposition.right_eigenvectors
    if V is None:
        raise ObservableError("decomposition has no eigenvectors")
    n2 = V.shape[0]
    return (np.abs(V) ** 2).reshape(n2 // 2, 2, V.shape[1]).sum(axis=1)


def default_gamma(decomposition: SpectralDecomposition, axis: str = "real") -> float:
    """A few level spacings: 20·(spectral span)/(π·2L), with a floor.

    The span is taken along the requested axis; when it degenerates (all
    imaginary parts equal, say) the other axis sets the scale.
    """
    ev = decomposition.eigenvalues
    comp = ev.real if axis == "real" else ev.imag
    span = float(np.ptp(comp))
    if span == 0.0:
        span = float(np.ptp(ev.imag if axis == "real" else ev.real))
    if span == 0.0:
        return 0.02
    return 20.0 * span / (np.pi * ev.size)


def _ldos(decomposition, energies, gamma, axis, normalize):
    comp = decomposition.eigenvalues.real if axis == "real" else decomposition.eigenvalues.imag
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ObservableError("empty energy grid")
    W = site_weights(decomposition)  # (L, n_eig)
    D = lorentzian_delta(comp[:, None] - energies[None, :], gamma)  # (n_eig, n_E)
    values = W @ D
    peak = float(values.max()) if values.size else 0.0
    if normalize and peak > 0.0:
        return LdosGrid(values / peak, normalized=True)
    return LdosGrid(values, normalized=False)


def ldos_real(
    decomposition: SpectralDecomposition,
    energies: np.ndarray,
    gamma: float,
    normalize: bool = True,
) -> LdosGrid:
    """LDOS over (site, Re E).  For real spectra this is the usual LDOS."""
    return _ldos(decomposition, energies, gamma, "real", normalize)


def ldos_imag(
    decomposition: SpectralDecomposition,
    energies: np.ndarray,
    gamma: float,
    normalize: bool = True,
) -> LdosGrid:
    """LDOS over (site, Im E); resolves gain/loss structure of complex spectra."""
    return _ldos(decomposition, energies, gamma, "imaginary", normalize)


def horizon_modes(
    decomposition: SpectralDecomposition,
    tol_energy: float = 1e-12,
    tol_localization: float = 0.99,
) -> list[tuple[int, int]]:
    """(eigenindex, site) pairs of zero modes localized on a single site.

    Selects |E_j| <= tol_energy with at least ``tol_localization`` of the
    weight on one site.  Decoupled horizon sites produce two such pairs
    (spinor degeneracy); a metric without a lattice horizon produces none.
    """
    ev = decomposition.eigenvalues
    W = site_weights(decomposition)
    out = []
    for j in np.flatnonzero(np.abs(ev) <= tol_energy):
        site = int(np.argmax(W[:, j]))
        if W[site, j] >= tol_localization:
            out.append((int(j), site))
    return out
