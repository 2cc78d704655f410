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
blocks under periodic boundary conditions).  The operator is stored as its
nonzero diagonals (offsets 0, ±1, ±2, and ±(2L−2) for the corner blocks) and
assembled in O(L); the dense matrix is a view built on demand.  Norms and
the hermiticity residual are computed on the diagonals as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CurvedLatticeError
from .front import BOUNDARY_CONDITIONS
from .metric import SampledMetric

_TINY = np.finfo(float).tiny  # the smallest normal float
# every entry of a sum of squares below _TINY is under 2^-511: lifted by
# 2^600 its square is normal, and a sum of squares cannot overflow
_LIFT = 2.0**600

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# γ₀⁻¹γ¹ = σ_x·(iσ_y) = −σ_z with the signed zeros of that product (+0 above
# the diagonal, −0 below; −σ_z has −0 in both): no build forms the product
_HOP_KERNEL = np.array([[-1.0, 0.0], [-0.0, 1.0]], dtype=complex)
_SIGMA_X.flags.writeable = _HOP_KERNEL.flags.writeable = False  # the kernels build reads


class OperatorError(CurvedLatticeError):
    """Assembly failure (non-finite entries, divergent guarded products)."""

    exit_code = 3


@dataclass
class LatticeOperator:
    """The 2L×2L complex Hamiltonian, stored as its nonzero diagonals.

    ``diagonals[k]`` holds the entries H[i, i+k] in ``np.diagonal`` order.  A
    nearest-neighbour chain has the offsets 0, ±1 and ±2, and periodic
    boundaries add the corner blocks at ±(2L−2).  ``matrix`` is the dense
    view, built on first use; nothing mutates the diagonals afterwards.
    """

    diagonals: dict[int, np.ndarray]
    dim: int

    @property
    def L(self) -> int:
        return self.dim // 2

    @cached_property
    def matrix(self) -> np.ndarray:
        return band_matrix(self.diagonals, self.dim)


def band_positions(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries of diagonal k of an n×n matrix,
    in ``np.diagonal`` order."""
    rows = np.arange(n - abs(k)) + max(-k, 0)
    return rows, rows + k


def band_matrix(diagonals: dict[int, np.ndarray], n: int, dtype=complex) -> np.ndarray:
    """The dense n×n matrix with the given nonzero diagonals."""
    A = np.zeros((n, n), dtype=dtype)
    for k, d in diagonals.items():
        A[band_positions(n, k)] = d
    return A


def band_similarity(
    diagonals: dict[int, np.ndarray], n: int, s: np.ndarray
) -> dict[int, np.ndarray]:
    """The diagonals of diag(s)·A·diag(s)⁻¹ for the n×n matrix A: entry
    (i, j) off the main diagonal times s_i/s_j, one rounding; the main
    diagonal unchanged.  Exact zeros stay exactly zero, so a decoupled
    horizon site (s = ∞) takes the limits 0·∞ → 0 and ∞/∞ → 1; any other
    non-finite entry is left for the caller to reject."""
    out = {}
    with np.errstate(all="ignore"):
        for k, d in diagonals.items():
            if k:
                rows, cols = band_positions(n, k)
                d = np.where(d == 0.0, 0.0, d * (s[rows] / s[cols]))
            out[k] = d
    return out


def band_blocks(diagonals: dict[int, np.ndarray], L: int) -> dict[int, np.ndarray]:
    """The 2×2 blocks of the 2L×2L matrix with the given nonzero diagonals,
    by block offset m, in their dtype: ``X[m][p]`` is the block of row site
    p + max(−m, 0) and column site p + max(−m, 0) + m.  Entry (2p + r,
    2(p + m) + c) lies on diagonal k = 2m + c − r, so each diagonal fills one
    spinor entry (r, c) of the blocks on one or (for odd k) two offsets."""
    dtype = np.result_type(0.0, *diagonals.values())
    out: dict[int, np.ndarray] = {}
    for k, d in diagonals.items():
        for r in (0, 1):
            c = (r + k) % 2
            m = (k + r - c) // 2
            x = out.setdefault(m, np.zeros((L - abs(m), 2, 2), dtype=dtype))
            p = np.arange(L - abs(m)) + max(-m, 0)
            x[:, r, c] = d[2 * p + r if k >= 0 else 2 * (p + m) + c]  # np.diagonal order
    return out


def band_chains(diagonals: dict[int, np.ndarray], L: int) -> dict[int, np.ndarray] | None:
    """The one chain that decomposes the 2L×2L band: chain A's diagonals (0,
    ±1, and ±(L−1) when periodic), or those of a ring of 2L sites (0, ±1,
    ±(2L−1)); None when the band does not follow the chain rules.

    Rotated to u, v = (ψ₀ ± ψ₁)/√2 per site, an onsite block in span{I, σ_x}
    is diagonal and a hop block in span{σ_z, σ_y} links u with v only, so
    A = (u₀, v₁, u₂, …) and B = (v₀, u₁, v₂, …) never meet (the staggered
    split of Kogut & Susskind, PRD 11 (1975) 395; Kawamoto & Smit, NPB 192
    (1981) 100), and the symmetry (I⊗σ_z)H̄(I⊗σ_z) = −H makes B = −Ā.  Each
    rule is checked exactly: onsite blocks [[a, b], [b, a]] and hop blocks
    [[a, b], [−b, −a]] on block offsets ±1 and ±(L−1), a imaginary and b
    real, every other block zero.  A's entry from the block at row site p is
    then a ± (−1)^p b, with no rounding.  A nonzero wrap of odd L joins
    u_{L−1} to v₀ and v_{L−1} to u₀: the ring is A's sites, then B's.
    """
    chain = {}
    for m, x in band_blocks(diagonals, L).items():
        if m not in (0, 1, -1, L - 1, 1 - L):
            if x.any():
                return None
            continue
        a, b = x[:, 0, 0], x[:, 0, 1]
        sign = 1.0 if m == 0 else -1.0
        if (a.real.any() or b.imag.any() or not np.array_equal(x[:, 1, 1], sign * a)
                or not np.array_equal(x[:, 1, 0], sign * b)):
            return None
        rows = np.arange(L - abs(m)) + max(-m, 0)
        chain[m] = a + np.where(rows % 2, -sign, sign) * b
    wrap = [chain.pop(m, np.zeros(1, complex)) for m in (1 - L, L - 1)] if L % 2 and L > 2 else []
    if not any(w.any() for w in wrap):
        return chain
    (down, up), A = wrap, {k: chain.get(k, np.zeros(L - abs(k), complex)) for k in (0, 1, -1)}
    joins = {0: [], 1: down, -1: -up.conj()}  # the ring's entries (L − 1, L) and (L, L − 1)
    ring = {k: np.concatenate([A[k], joins[k], -A[k].conj()]) for k in A}
    return {**ring, 2 * L - 1: up, 1 - 2 * L: -down.conj()}


def column_norms(A: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of A.  A column of finite entries whose
    plain sum of squares overflows is summed again scaled by its largest
    real or imaginary magnitude, and one whose sum falls below the normal
    range (where squares underflow) is summed again lifted by the exact
    power of two _LIFT, so its norm is finite and nonzero wherever the true
    norm is; every other column keeps the plain sum's bytes."""
    with np.errstate(over="ignore"):  # a true norm beyond the float range is inf
        squares = np.sum(np.abs(A) ** 2, axis=0)
        norms = np.sqrt(squares)
        for j in np.flatnonzero(np.isinf(squares)):
            big = np.max(np.maximum(np.abs(A[:, j].real), np.abs(A[:, j].imag)))
            if np.isfinite(big):
                norms[j] = big * np.sqrt(np.sum(np.abs(A[:, j] / big) ** 2))
    for j in np.flatnonzero(squares < _TINY):
        norms[j] = np.sqrt(np.sum(np.abs(A[:, j] * _LIFT) ** 2)) / _LIFT
    return norms


def band_norm(pieces: dict) -> float:
    """Frobenius norm of a matrix given as disjoint pieces of its entries
    (its diagonals {k: entries}, or its 2×2 blocks by block offset).  A
    plain sum of squares that overflows or falls below the normal range is
    redone by :func:`column_norms`."""
    total = sum(float(np.vdot(d, d).real) for d in pieces.values())
    if _TINY <= total < math.inf:
        return math.sqrt(total)
    entries = np.concatenate([np.zeros(0), *map(np.ravel, pieces.values())])
    return float(column_norms(entries[:, None])[0])


def band_distance(X: dict, Y: dict) -> float:
    """‖X − Y‖_F of two matrices given as pieces under the same keys; a
    missing key stands for zeros; a distance beyond the float range is inf."""
    with np.errstate(over="ignore"):
        return band_norm({k: X.get(k, 0.0) - Y.get(k, 0.0) for k in sorted(X.keys() | Y.keys())})


def band_adjoint(diagonals: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """The diagonals of A†: its diagonal k is the conjugate of A's diagonal
    −k, in the same order."""
    return {-k: d.conj() for k, d in diagonals.items()}


def _guarded_hop(
    alpha_from: np.ndarray, alpha_to: np.ndarray, beta_from: np.ndarray
) -> np.ndarray:
    """√(α_n α_m)/β_n elementwise, with the analytic limit 0 wherever an α vanishes.

    At a horizon site α → 0 while β may diverge (de Sitter has β = 1/α); the
    operator only ever needs the product, which vanishes there.  Where both
    α are nonzero but their product leaves the normal float range (it
    underflows or overflows though the hop itself need not), the root is
    taken as √α_n·√α_m instead; every other hop is √(α_n α_m)/β_n as written.
    """
    with np.errstate(all="ignore"):  # non-finite values are reported below
        prod = alpha_from * alpha_to
        root = np.sqrt(prod)
        apart = ~((prod >= _TINY) & (prod < math.inf)) & (alpha_from != 0.0) & (alpha_to != 0.0)
        root[apart] = np.sqrt(alpha_from[apart]) * np.sqrt(alpha_to[apart])
        value = np.where(root == 0.0, 0.0, root / beta_from)
    bad = np.flatnonzero(~np.isfinite(value))
    if bad.size:
        k = bad[0]
        raise OperatorError(
            f"divergent hopping: {root[k]:g}/{beta_from[k]:g} with nonvanishing alphas"
        )
    return value


def _assemble(L: int, terms) -> dict[int, np.ndarray]:
    """The nonzero diagonals of the 2L×2L sum of 2×2 blocks: each
    ``(start, b, coef, kernel)`` of ``terms`` puts ``coef[m] · kernel`` at
    block (start + m, start + m + b).

    Entries are summed into zeros in the order given, so the dense view holds
    the bytes a dense accumulation in that order would.  Zero entries of a
    kernel add nothing (a non-finite ``coef`` also shows on its nonzero
    entries), and a diagonal that stays zero is dropped.
    """
    n = 2 * L
    band: dict[int, np.ndarray] = {}
    with np.errstate(all="ignore"):  # a non-finite entry is reported below
        for start, b, coef, kernel in terms:
            for r, c in zip(*np.nonzero(kernel)):
                k = int(2 * b + c - r)
                first = 2 * start + r if k >= 0 else 2 * (start + b) + c  # np.diagonal order
                d = band.setdefault(k, np.zeros(n - abs(k), dtype=complex))
                d[first : first + 2 * coef.size : 2] += coef * kernel[r, c]
    band = {k: d for k, d in sorted(band.items()) if d.any()}
    if not all(np.all(np.isfinite(d)) for d in band.values()):
        raise OperatorError("non-finite entries in assembled Hamiltonian")
    return band


def build(metric: SampledMetric, M: float, a: float, bc: str = "open") -> LatticeOperator:
    """Assemble the regularized lattice Hamiltonian for one time slice.

    Per site n (K = _HOP_KERNEL = −σ_z, blocks in site-major ordering):

    * forward   H[n,n+1] = -(i/2a) · √(α_n α_{n+1})/β_n · K
    * backward  H[n,n-1] = +(i/2a) · √(α_n α_{n-1})/β_n · K
    * onsite    H[n,n]   = M α_n σ_x − (i/2)(∂₀β_n/β_n) I

    Open boundaries drop out-of-range blocks; periodic wraps indices mod L
    (for L = 2 both hops of a site land on the same block and add up).
    Assembly is pure and O(L): distinct time slices can be built concurrently.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise OperatorError(f"unknown boundary condition {bc!r}")
    if not a > 0 or math.isinf(0.5 / float(a)):
        raise OperatorError(f"lattice spacing a={a} must be positive and leave 1/(2a) finite")
    alpha, beta, dlog = metric.alpha, metric.beta, metric.dlog_beta_dt
    L = metric.L
    K = _HOP_KERNEL
    fwd, bwd = -1.0j / (2.0 * a) * K, +1.0j / (2.0 * a) * K
    periodic = bc == "periodic"
    n = np.arange(L)
    fwd_from, bwd_from = (n, n) if periodic else (n[:-1], n[1:])
    hop_f = _guarded_hop(alpha[fwd_from], alpha[(fwd_from + 1) % L], beta[fwd_from])
    hop_b = _guarded_hop(alpha[bwd_from], alpha[(bwd_from - 1) % L], beta[bwd_from])
    # in the order of a dense accumulation: mass, ∂₀β/β, forward hops, backward
    # hops; a periodic wrap is its own run of one block, at block offset ∓(L−1)
    with np.errstate(over="ignore"):  # an overflowing mass term is reported by _assemble
        mass = M * alpha
    terms = [(0, 0, mass, _SIGMA_X), (0, 0, -0.5j * dlog, np.eye(2)), (0, 1, hop_f[: L - 1], fwd)]
    if periodic:
        terms.append((L - 1, 1 - L, hop_f[L - 1 :], fwd))
    terms.append((1, -1, hop_b[-(L - 1) :], bwd))
    if periodic:
        terms.append((0, L - 1, hop_b[:1], bwd))
    return LatticeOperator(_assemble(L, terms), 2 * L)


def naive_build(metric: SampledMetric, M: float, a: float) -> LatticeOperator:
    """Plain symmetric-difference discretization (the rejected scheme).

    Discretizes ``−i(α/β)γ₀γ¹∂₁ψ − (i/2)((∂₁α)/β)γ₀γ¹ψ + mass/time terms``
    directly, with a central difference for ∂₁α (one-sided at the ends).
    Kept as a contrast oracle: for any nonuniform α this matrix is
    nonhermitian even when the regularized one is hermitian, and its
    spectrum differs at O(a).
    """
    if not a > 0 or math.isinf(0.5 / float(a)):
        raise OperatorError(f"lattice spacing a={a} must be positive and leave 1/(2a) finite")
    alpha, beta, dlog = metric.alpha, metric.beta, metric.dlog_beta_dt
    L = metric.L
    K = _HOP_KERNEL
    with np.errstate(all="ignore"):  # a non-finite coefficient is reported by _assemble
        dalpha = np.gradient(alpha, a)
        ratio = alpha / beta
        terms = [
            (0, 0, M * alpha, _SIGMA_X),
            (0, 0, -0.5j * dlog, np.eye(2)),
            (0, 0, -0.5j * (dalpha / beta), K),
            (0, 1, -1.0j / (2.0 * a) * ratio[:-1], K),
            (1, -1, +1.0j / (2.0 * a) * ratio[1:], K),
        ]
    return LatticeOperator(_assemble(L, terms), 2 * L)


def hermitian_residual(H: LatticeOperator | np.ndarray) -> float:
    """Relative Frobenius norm of H − H† (0.0 for the zero matrix).

    Computed on the diagonals, O(L) for a lattice operator: diagonal k
    against the conjugate of diagonal −k, so an entrywise hermitian operator
    gives exactly 0.0.
    """
    if isinstance(H, LatticeOperator):
        diagonals = H.diagonals
    else:
        A = np.asarray(H)
        diagonals = {k: np.diagonal(A, k) for k in range(1 - A.shape[0], A.shape[0])}
    scale = band_norm(diagonals)
    if scale == 0.0:
        return 0.0
    return band_distance(diagonals, band_adjoint(diagonals)) / scale


def flat_dispersion(L: int, M: float, a: float = 1.0) -> np.ndarray:
    """Exact periodic-chain eigenvalues {±√(M² + sin²(2πj/L)/a²)}, sorted.

    Momentum-space oracle: each momentum block is σ_x M − σ_z sin(ka)/a.
    """
    k = 2.0 * np.pi * np.arange(L) / L
    e = np.sqrt(M**2 + np.sin(k) ** 2 / a**2)
    return np.sort(np.concatenate([-e, e]))
