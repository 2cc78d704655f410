"""Lattice-regularized Dirac Hamiltonians in curved 1+1D spacetime.

Discretizing the rescaled-field derivative ``∂₁(√α ψ)`` on a chain turns a
diagonal metric ``ds² = α²dt² − β²dx²`` into a tight-binding model whose
hermiticity class follows the metric: Rindler-like profiles give hermitian
matrices, static two-function metrics give quasi-hermitian ones with real
spectra, and genuinely time-dependent conformal factors give nonhermitian
matrices with gain/loss dynamics dual to a flat-spacetime evolution.
"""

import importlib

__version__ = "0.1.0"

# Each exported name by its submodule.  Names and submodules load on first
# access (PEP 562), so ``import curvedlattice`` loads no numpy.
_EXPORTS = {
    "errors": ("CurvedLatticeError",),
    "evolve": (
        "EvolutionTrace", "SpinorField", "dual_propagate", "gaussian_packet", "plane_wave",
        "propagate", "single_site",
    ),
    "expr": ("diff_t", "evaluate", "parse", "to_source"),
    "heatmap": ("cubehelix", "cubehelix_rgb", "render_ppm", "write_ppm"),
    "metric": ("MetricModel", "SampledMetric", "distance_profile"),
    "observables": (
        "LdosGrid", "default_gamma", "energy_grid", "horizon_modes", "ldos_imag", "ldos_real",
        "lorentzian_delta", "site_weights",
    ),
    "operator": (
        "LatticeOperator", "build", "flat_dispersion",
        "hermitian_residual", "naive_build",
    ),
    "spectral": (
        "SpectralDecomposition", "StepOperator", "eig_general", "eig_hermitian", "expm",
        "expm_apply", "match_eigenvalues", "propagator", "spectral_mismatch",
    ),
    "symmetry": ("SymmetryReport", "classify", "imaginary_gauge", "unbroken_pt"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "config", "front")
__all__ = sorted({*_SOURCE, *_EXPORTS})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
