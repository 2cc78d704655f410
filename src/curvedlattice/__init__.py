"""Lattice-regularized Dirac Hamiltonians in curved 1+1D spacetime.

Discretizing the rescaled-field derivative ``∂₁(√α ψ)`` on a chain turns a
diagonal metric ``ds² = α²dt² − β²dx²`` into a tight-binding model whose
hermiticity class follows the metric: Rindler-like profiles give hermitian
matrices, static two-function metrics give quasi-hermitian ones with real
spectra, and genuinely time-dependent conformal factors give nonhermitian
matrices with gain/loss dynamics dual to a flat-spacetime evolution.
"""

from .errors import CurvedLatticeError
from .evolve import (
    EvolutionTrace,
    SpinorField,
    dual_propagate,
    gaussian_packet,
    plane_wave,
    propagate,
    single_site,
)
from .expr import diff_t, evaluate, parse, to_source
from .heatmap import cubehelix, cubehelix_rgb, render_ppm, write_ppm
from .metric import MetricModel, SampledMetric, distance_profile
from .observables import (
    LdosGrid,
    default_gamma,
    energy_grid,
    horizon_modes,
    ldos_imag,
    ldos_real,
    lorentzian_delta,
    site_weights,
)
from .operator import (
    GammaAlgebra,
    LatticeOperator,
    build,
    flat_dispersion,
    gamma_algebra,
    hermitian_residual,
    naive_build,
)
from .spectral import (
    SpectralDecomposition,
    StepOperator,
    eig_general,
    eig_hermitian,
    expm,
    expm_apply,
    match_eigenvalues,
    propagator,
    spectral_mismatch,
)
from .symmetry import SymmetryReport, classify, imaginary_gauge, unbroken_pt

__version__ = "0.1.0"
