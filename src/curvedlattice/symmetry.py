"""Hermiticity classification and the imaginary gauge transformation.

A lattice operator built from a static metric with nonuniform β is not
hermitian, but it satisfies η H η⁻¹ = H† with the positive diagonal metric
operator η = diag(β_n)⊗I₂ (quasi-hermiticity), which certifies a real
spectrum constructively.  The similarity S H S⁻¹ with S = diag(√β_n)⊗I₂ — a
gauge transformation with imaginary angles θ_n = (i/2)log β_n — maps it to
an explicitly hermitian matrix with the same spectrum (isospectral, not
unitarily equivalent).

The PT test (site reversal composed with a spinor rotation and complex
conjugation) is reported alongside: plain site reversal alone does not close
the algebra for site-dependent onsite profiles, so the best residual over
spinor factors {I, σ_x, σ_y, σ_z} is recorded together with which factor won.

All three residuals are computed on the operator's nonzero diagonals in
O(L), without a dense matrix: the hermiticity residual compares diagonal k
with the conjugate of diagonal −k, the η-similarity scales each diagonal,
and the PT image of the 2×2 block on block offset m is σ·conj(block)·σ
taken from block offset −m in reverse site order, formed by index and sign
with no matrix product.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CurvedLatticeError
from .metric import SampledMetric
from .operator import (
    LatticeOperator, band_adjoint, band_blocks, band_distance, band_norm, band_similarity,
    hermitian_residual,
)
from .spectral import SpectralDecomposition, eig_general

CLASSIFICATIONS = ("Hermitian", "QuasiHermitian", "PTPseudoHermitian", "NonHermitian")
_REAL_TOL = 1e-8  # largest max|Im E|/max|E| of a spectrum that `unbroken_pt` calls real


def _off_negated(x: np.ndarray) -> np.ndarray:
    """σ_z·x·σ_z of each 2×2 block of the stack x: the off-diagonal entries negated."""
    image = x.copy()
    image[:, (0, 1), (1, 0)] = -image[:, (0, 1), (1, 0)]
    return image


# σ·x·σ of each block of a stack x, by index and sign; in the order that breaks ties
_PT_SPINORS = {
    "I": lambda x: x,
    "sigma_x": lambda x: x[:, ::-1, ::-1],
    "sigma_y": lambda x: _off_negated(x[:, ::-1, ::-1]),
    "sigma_z": _off_negated,
}


class SymmetryError(CurvedLatticeError):
    """Invalid input to a symmetry transformation."""

    exit_code = 3


class SymmetryReport(NamedTuple):
    """Residuals of the three symmetry tests and the resulting class.

    The class is the first of :data:`CLASSIFICATIONS` whose residual is at
    or below ``tol``, and NonHermitian when none is.
    """

    hermitian_residual: float
    quasi_hermitian_residual: float
    pt_residual: float
    pt_spinor: str
    classification: str
    spectrum_real: bool
    tol: float


def _similarity(H: LatticeOperator, s: np.ndarray) -> dict[int, np.ndarray]:
    """The diagonals of diag(s) H diag(s)⁻¹ (:func:`band_similarity`); a
    non-finite entry (a divergent scale on a coupled entry) raises."""
    out = band_similarity(H.diagonals, H.dim, s)
    if not all(np.all(np.isfinite(d)) for d in out.values()):
        raise SymmetryError("divergent scale factor on a coupled entry")
    return out


def imaginary_gauge(H: LatticeOperator, beta: np.ndarray) -> LatticeOperator:
    """Similarity S H S⁻¹ with S = diag(√β_n)⊗I₂ (isospectral rescaling),
    applied on the band by :func:`_similarity`.

    For operators built from static metrics this returns the hermitian
    partner; for the uniform Hatano-Nelson-like chain (Weyl, r=0, M=0) the
    asymmetric hoppings e^{±qa/2}/(2a) collapse to the uniform 1/(2a).
    """
    beta = np.asarray(beta, dtype=float)
    n = H.dim
    if 2 * beta.shape[0] != n:
        raise SymmetryError(f"beta length {beta.shape[0]} does not match operator {(n, n)}")
    if np.any(beta <= 0):
        raise SymmetryError("imaginary gauge transform requires beta > 0 at all sites")
    return LatticeOperator(_similarity(H, np.repeat(np.sqrt(beta), 2)), n)


def _relative_residual(distance: float, scale: float) -> float:
    return 0.0 if scale == 0.0 else distance / scale


def classify(
    H: LatticeOperator,
    metric: SampledMetric,
    tol: float = 1e-12,
    decomposition: SpectralDecomposition | None = None,
) -> SymmetryReport:
    """Classify the operator and report all three residuals.

    The quasi-hermiticity test uses the constructive metric operator
    η = diag(β_n)⊗I₂ from the sampled metric.  All three residuals are
    relative Frobenius norms computed on the band in O(L).
    ``decomposition`` (when the caller already has one) avoids recomputing
    the spectrum for the ``spectrum_real`` field.  Always returns a report,
    never raises on a nonhermitian input.
    """
    scale = band_norm(H.diagonals)
    herm = hermitian_residual(H)
    try:
        similar = _similarity(H, np.repeat(np.asarray(metric.beta, dtype=float), 2))
        quasi = _relative_residual(band_distance(similar, band_adjoint(H.diagonals)), scale)
    except SymmetryError:
        quasi = np.inf
    # P H* P with P = (site reversal) ⊗ σ: the reversal takes block offset m
    # to −m in reverse site order, then σ sandwiches each 2×2 block
    X = band_blocks(H.diagonals, H.L)
    reversed_conj = {-m: x[::-1].conj() for m, x in X.items()}
    pt_best, pt_name = np.inf, "I"
    for name, sandwich in _PT_SPINORS.items():
        image = {m: sandwich(x) for m, x in reversed_conj.items()}
        res = _relative_residual(band_distance(X, image), scale)
        if res < pt_best:
            pt_best, pt_name = res, name
    passed = (name for name, res in zip(CLASSIFICATIONS, (herm, quasi, pt_best)) if res <= tol)
    label = next(passed, CLASSIFICATIONS[-1])
    if decomposition is None:
        decomposition = eig_general(H, compute_vectors=False)
    return SymmetryReport(
        hermitian_residual=herm,
        quasi_hermitian_residual=float(quasi),
        pt_residual=float(pt_best),
        pt_spinor=pt_name,
        classification=label,
        spectrum_real=unbroken_pt(decomposition),
        tol=tol,
    )


def unbroken_pt(decomposition: SpectralDecomposition) -> bool:
    """True when the spectrum is real at tolerance: max|Im E| <= _REAL_TOL·max|E|."""
    ev = decomposition.eigenvalues
    if ev.size == 0:
        raise SymmetryError("empty spectrum")
    return bool(np.max(np.abs(ev.imag)) <= _REAL_TOL * np.max(np.abs(ev)))
