"""Lattice Hamiltonian assembly from sampled metric profiles.

The spatial derivative is discretized on the *rescaled* field: writing the
kinetic term as ``∂₁(√α ψ)`` before replacing the derivative with the
symmetric difference produces hopping amplitudes ``√(α_n α_{n±1})/β_n`` (a
geometric average of neighboring weights) instead of ``α_n/β_n``.  For
``β ≡ 1`` this makes the matrix hermitian identically, entry by entry,
without adding compensating terms.  :func:`naive_build` keeps the plain
symmetric-difference discretization as a contrast oracle.

Matrix layout: site-major spinor ordering, index = 2n + s with spinor
component s ∈ {0, 1}; 2×2 blocks per site, block-tridiagonal (plus corner
blocks under periodic boundary conditions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import SampledMetric

BOUNDARY_CONDITIONS = ("open", "periodic")

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class OperatorError(Exception):
    """Assembly failure (non-finite entries, divergent guarded products)."""


@dataclass(frozen=True)
class GammaAlgebra:
    """Weyl-representation gamma matrices and the derived kernels.

    ``hop_kernel = γ₀γ¹ = −σ_z`` multiplies the hopping terms (i·hop_kernel
    is anti-hermitian, which is what makes the regularized matrix hermitian
    for β ≡ 1); ``mass_kernel = γ₀ = σ_x`` multiplies the onsite mass term.
    """

    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma0_inv: np.ndarray
    hop_kernel: np.ndarray
    mass_kernel: np.ndarray


def gamma_algebra() -> GammaAlgebra:
    """The fixed Weyl-representation algebra: γ⁰ = σ_x, γ¹ = iσ_y."""
    gamma0 = _SIGMA_X.copy()
    gamma1 = 1.0j * _SIGMA_Y
    gamma0_inv = _SIGMA_X.copy()  # σ_x is its own inverse
    return GammaAlgebra(
        gamma0=gamma0,
        gamma1=gamma1,
        gamma0_inv=gamma0_inv,
        hop_kernel=gamma0_inv @ gamma1,  # = -σ_z
        mass_kernel=gamma0_inv,
    )


@dataclass
class LatticeOperator:
    """Dense 2L×2L complex Hamiltonian with its build metadata."""

    matrix: np.ndarray
    t: float
    bc: str
    mass: float
    spacing: float
    provenance: str = ""

    @property
    def L(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _guarded_hop(
    alpha_from: np.ndarray, alpha_to: np.ndarray, beta_from: np.ndarray
) -> np.ndarray:
    """√(α_n α_m)/β_n elementwise, with the analytic limit 0 wherever an α vanishes.

    At a horizon site α → 0 while β may diverge (de Sitter has β = 1/α); the
    operator only ever needs the product, which vanishes there.
    """
    with np.errstate(all="ignore"):  # non-finite values are reported below
        prod = alpha_from * alpha_to
        value = np.where(prod == 0.0, 0.0, np.sqrt(prod) / beta_from)
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        k = bad[0]
        raise OperatorError(
            f"divergent hopping: sqrt({prod[k]:g})/{beta_from[k]:g} with nonvanishing alphas"
        )
    return value


def _assemble(L: int, rows: np.ndarray, cols: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The 2L×2L matrix with ``blocks[k]`` added to block (rows[k], cols[k]).

    Blocks that land on the same place are added in the order given.
    """
    s = np.arange(2)
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    np.add.at(
        H, (2 * rows[:, None, None] + s[None, :, None], 2 * cols[:, None, None] + s[None, None, :]),
        blocks,
    )
    if not np.all(np.isfinite(H)):
        raise OperatorError("non-finite entries in assembled Hamiltonian")
    return H


def build(metric: SampledMetric, M: float, a: float, bc: str = "open") -> LatticeOperator:
    """Assemble the regularized lattice Hamiltonian for one time slice.

    Per site n (K = hop_kernel, blocks in site-major ordering):

    * forward   H[n,n+1] = -(i/2a) · √(α_n α_{n+1})/β_n · K
    * backward  H[n,n-1] = +(i/2a) · √(α_n α_{n-1})/β_n · K
    * onsite    H[n,n]   = M α_n σ_x − (i/2)(∂₀β_n/β_n) I

    Open boundaries drop out-of-range blocks; periodic wraps indices mod L
    (for L = 2 both hops of a site land on the same block and add up).
    Assembly is pure: distinct time slices can be built concurrently.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise OperatorError(f"unknown boundary condition {bc!r}")
    if a <= 0:
        raise OperatorError(f"lattice spacing must be positive, got {a}")
    alpha, beta, dlog = metric.alpha, metric.beta, metric.dlog_beta_dt
    L = metric.L
    K = gamma_algebra().hop_kernel
    fwd = -1.0j / (2.0 * a) * K
    bwd = +1.0j / (2.0 * a) * K
    n = np.arange(L)
    fwd_from, bwd_from = (n, n) if bc == "periodic" else (n[:-1], n[1:])
    src = np.concatenate([fwd_from, bwd_from])
    dst = np.concatenate([(fwd_from + 1) % L, (bwd_from - 1) % L])
    hop = _guarded_hop(alpha[src], alpha[dst], beta[src])
    nf = fwd_from.size
    blocks = np.concatenate([
        (M * alpha)[:, None, None] * _SIGMA_X,
        (-0.5j * dlog)[:, None, None] * np.eye(2),
        hop[:nf, None, None] * fwd,
        hop[nf:, None, None] * bwd,
    ])
    H = _assemble(L, np.concatenate([n, n, src]), np.concatenate([n, n, dst]), blocks)
    return LatticeOperator(
        matrix=H, t=metric.t, bc=bc, mass=M, spacing=a, provenance=metric.provenance
    )


def naive_build(metric: SampledMetric, M: float, a: float) -> LatticeOperator:
    """Plain symmetric-difference discretization (the rejected scheme).

    Discretizes ``−i(α/β)γ₀γ¹∂₁ψ − (i/2)((∂₁α)/β)γ₀γ¹ψ + mass/time terms``
    directly, with a central difference for ∂₁α (one-sided at the ends).
    Kept as a contrast oracle: for any nonuniform α this matrix is
    nonhermitian even when the regularized one is hermitian, and its
    spectrum differs at O(a).
    """
    if a <= 0:
        raise OperatorError(f"lattice spacing must be positive, got {a}")
    alpha, beta, dlog = metric.alpha, metric.beta, metric.dlog_beta_dt
    L = metric.L
    K = gamma_algebra().hop_kernel
    dalpha = np.gradient(alpha, a)
    n = np.arange(L)
    ratio = alpha / beta
    blocks = np.concatenate([
        (M * alpha)[:, None, None] * _SIGMA_X,
        (-0.5j * dlog)[:, None, None] * np.eye(2),
        (-0.5j * (dalpha / beta))[:, None, None] * K,
        (-1.0j / (2.0 * a) * ratio[:-1])[:, None, None] * K,
        (+1.0j / (2.0 * a) * ratio[1:])[:, None, None] * K,
    ])
    rows = np.concatenate([n, n, n, n[:-1], n[1:]])
    cols = np.concatenate([n, n, n, n[1:], n[:-1]])
    H = _assemble(L, rows, cols, blocks)
    return LatticeOperator(
        matrix=H, t=metric.t, bc="open", mass=M, spacing=a,
        provenance=f"naive:{metric.provenance}",
    )


def hermitian_residual(H: LatticeOperator | np.ndarray) -> float:
    """Relative Frobenius norm of H − H† (0.0 for the zero matrix)."""
    A = H.matrix if isinstance(H, LatticeOperator) else np.asarray(H)
    scale = np.linalg.norm(A)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(A - A.conj().T) / scale)


def flat_dispersion(L: int, M: float, a: float = 1.0) -> np.ndarray:
    """Exact periodic-chain eigenvalues {±√(M² + sin²(2πj/L)/a²)}, sorted.

    Momentum-space oracle: each momentum block is σ_x M − σ_z sin(ka)/a.
    """
    k = 2.0 * np.pi * np.arange(L) / L
    e = np.sqrt(M**2 + np.sin(k) ** 2 / a**2)
    return np.sort(np.concatenate([-e, e]))
