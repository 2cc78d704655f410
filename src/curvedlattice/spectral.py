"""Dense eigensolvers and the matrix-exponential propagator kernel.

Two decomposition paths, both thin wrappers over numpy's LAPACK routines:

* :func:`eig_hermitian` — ``numpy.linalg.eigh`` of the symmetrized matrix,
  so the eigenvalues are exactly real.
* :func:`eig_general`  — ``numpy.linalg.eig`` (``eigvals`` when no vectors
  are wanted); LAPACK ``geev`` balances the matrix itself.

Both return a :class:`SpectralDecomposition` sorted by (Re, Im) with
residuals measured against the original matrix, and map a LAPACK
convergence failure to :class:`SpectralError`.

The propagator kernels are :func:`propagator`, the step matrix exp(-iH·dt)
by Padé scaling-and-squaring, which a static operator forms once and reuses
every step, and :func:`expm_apply`, the action of exp(-iH·dt) on one state
by a truncated Taylor series of matrix-vector products (Al-Mohy & Higham,
SIAM J. Sci. Comput. 33 (2011) 488), which forms no n×n exponential unless
‖H·dt‖₁ exceeds n, where the Padé step matrix is the cheaper route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps
_SMLNUM = np.finfo(float).tiny / _EPS


class SpectralError(Exception):
    """Eigensolver precondition failure or numerical breakdown."""


@dataclass
class SpectralDecomposition:
    """Eigenvalues (sorted by Re, then Im) with right eigenvectors.

    ``right_eigenvectors`` holds unit-norm columns, ``residuals[j]`` is
    ‖H v_j − E_j v_j‖₂; both are None for an eigenvalues-only decomposition.
    ``h_norm`` is the Frobenius norm of the decomposed matrix, the natural
    scale for residual checks.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray | None
    residuals: np.ndarray | None
    h_norm: float

    @property
    def max_residual(self) -> float:
        if self.residuals is None or self.residuals.size == 0:
            return 0.0
        return float(np.max(self.residuals))


def _as_matrix(H) -> np.ndarray:
    A = getattr(H, "matrix", H)
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise SpectralError("matrix has non-finite entries")
    return A


def _fro(A: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(A) ** 2)))


def _residuals(A: np.ndarray, V: np.ndarray, lam: np.ndarray) -> np.ndarray:
    R = A @ V - V * lam[None, :]
    return np.sqrt(np.sum(np.abs(R) ** 2, axis=0))


def _sorted_order(eigenvalues: np.ndarray) -> np.ndarray:
    return np.lexsort((eigenvalues.imag, eigenvalues.real))


def eig_general(H, compute_vectors: bool = True) -> SpectralDecomposition:
    """Full complex spectrum (and unit-norm right eigenvectors) of a square matrix."""
    A0 = _as_matrix(H)
    hnorm = _fro(A0)
    try:
        if compute_vectors:
            lam, V = np.linalg.eig(A0)
        else:
            lam, V = np.linalg.eigvals(A0), None
    except np.linalg.LinAlgError as err:
        raise SpectralError(f"eigensolver failed: {err}") from err
    order = _sorted_order(lam)
    lam = lam[order]
    if V is None:
        return SpectralDecomposition(lam, None, None, hnorm)
    V = V[:, order]
    return SpectralDecomposition(lam, V, _residuals(A0, V, lam), hnorm)


def eig_hermitian(H, herm_tol: float = 1e-10) -> SpectralDecomposition:
    """Spectrum of a (numerically) hermitian matrix; eigenvalues exactly real.

    Precondition: relative hermiticity residual at most ``herm_tol``.  The
    matrix is symmetrized before decomposition, so the output imaginary parts
    are identically zero.
    """
    A0 = _as_matrix(H)
    hnorm = _fro(A0)
    if hnorm > 0:
        res = _fro(A0 - A0.conj().T) / hnorm
        if res > herm_tol:
            raise SpectralError(
                f"matrix is not hermitian (relative residual {res:.3e} > {herm_tol:.1e})"
            )
    try:
        d, V = np.linalg.eigh(0.5 * (A0 + A0.conj().T))
    except np.linalg.LinAlgError as err:
        raise SpectralError(f"eigensolver failed: {err}") from err
    lam = d.astype(complex)  # ascending, imaginary parts exactly zero
    return SpectralDecomposition(lam, V, _residuals(A0, V, lam), hnorm)


# ---------------------------------------------------------------------------
# Matrix exponential (Padé scaling-and-squaring) and the propagator kernel

_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (
        17643225600.0,
        8821612800.0,
        2075673600.0,
        302702400.0,
        30270240.0,
        2162160.0,
        110880.0,
        3960.0,
        90.0,
        1.0,
    ),
    13: (
        64764752532480000.0,
        32382376266240000.0,
        7771770303897600.0,
        1187353796428800.0,
        129060195264000.0,
        10559470521600.0,
        670442572800.0,
        33522128640.0,
        1323241920.0,
        40840800.0,
        960960.0,
        16380.0,
        182.0,
        1.0,
    ),
}

_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


def _pade_uv(A: np.ndarray, m: int):
    b = _PADE_B[m]
    n = A.shape[0]
    eye = np.eye(n, dtype=complex)
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A2 @ A4
        U = A @ (
            A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
            + b[7] * A6
            + b[5] * A4
            + b[3] * A2
            + b[1] * eye
        )
        V = (
            A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
            + b[6] * A6
            + b[4] * A4
            + b[2] * A2
            + b[0] * eye
        )
        return U, V
    powers = {0: eye, 2: A2}
    for k in range(4, m, 2):
        powers[k] = powers[k - 2] @ A2
    U = np.zeros_like(A)
    V = np.zeros_like(A)
    for k in range(0, m + 1, 2):
        V += b[k] * powers[k]
    Uacc = np.zeros_like(A)
    for k in range(1, m + 1, 2):
        Uacc += b[k] * powers[k - 1]
    U = A @ Uacc
    return U, V


def expm(A) -> np.ndarray:
    """Matrix exponential by Padé approximation with scaling and squaring."""
    A = _as_matrix(A)
    norm1 = float(np.max(np.sum(np.abs(A), axis=0))) if A.size else 0.0
    m = next((deg for deg in (3, 5, 7, 9) if norm1 <= _PADE_THETA[deg]), 13)
    s = 0
    if m == 13 and norm1 > _PADE_THETA[13]:
        s = int(math.ceil(math.log2(norm1 / _PADE_THETA[13])))
    U, V = _pade_uv(A / (2.0**s), m)
    R = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):  # caller checks finiteness
        for _ in range(s):
            R = R @ R
    return R


def propagator(H, dt: float) -> np.ndarray:
    """The step matrix exp(-i H dt)."""
    return expm(-1j * dt * _as_matrix(H))


_TAYLOR_TOL = 2.0**-53  # unit roundoff of double precision
_TAYLOR_MAX_TERMS = 60


def _taylor_action(B: np.ndarray, mu: complex, s: int, psi: np.ndarray) -> np.ndarray:
    """exp(B + μ)ψ as s substeps of a truncated Taylor series, each sum
    ended when two consecutive terms fall below the unit roundoff relative
    to the partial sum (Al-Mohy & Higham's test)."""
    shift = np.exp(mu / s)
    out = psi.copy()
    for _ in range(s):
        term = out
        prev = float(np.max(np.abs(term), initial=0.0))
        for k in range(1, _TAYLOR_MAX_TERMS + 1):
            term = (B @ term) / (s * k)
            out = out + term
            size = float(np.max(np.abs(term), initial=0.0))
            if prev + size <= _TAYLOR_TOL * float(np.max(np.abs(out), initial=0.0)):
                break
            if not math.isfinite(size):
                raise SpectralError("overflow in nonunitary propagation")
            prev = size
        else:
            raise SpectralError(
                f"Taylor series of exp(-iH·dt) did not converge in {_TAYLOR_MAX_TERMS} terms"
            )
        out = shift * out
    return out


def expm_apply(H, dt: float, psi: np.ndarray) -> np.ndarray:
    """Apply exp(-i H dt) to a state vector by a truncated Taylor series.

    With B = -i·dt·H shifted by μ = tr(B)/n (exact: it removes a uniform
    onsite part such as the Weyl −(i/2)∂₀β/β), the step is split into
    s = max(1, ⌈‖B − μ‖₁⌉) substeps, and each costs a few matrix-vector
    products.  When s exceeds the dimension n, the substeps together would
    cost more than the dense Padé step matrix, and that is applied instead.

    Raises on nonhermitian growth beyond the representable range, and when
    the series has not converged after 60 terms.
    """
    A = _as_matrix(H)
    psi = np.asarray(psi, dtype=complex)
    n = A.shape[0]
    if psi.shape != (n,):
        raise SpectralError(f"state length {psi.shape} does not match matrix {A.shape}")
    if not math.isfinite(dt):
        raise SpectralError(f"non-finite time step {dt!r}")
    with np.errstate(all="ignore"):  # overflow checked below
        B = (-1j * dt) * A
        mu = np.trace(B) / max(n, 1)
        B[np.diag_indices(n)] -= mu
        norm1 = float(np.max(np.sum(np.abs(B), axis=0), initial=0.0))
        if not (math.isfinite(norm1) and np.isfinite(mu)):
            raise SpectralError("overflow in nonunitary propagation")
        s = max(1, math.ceil(norm1))
        out = propagator(A, dt) @ psi if s > n else _taylor_action(B, mu, s, psi)
    if not np.all(np.isfinite(out)):
        raise SpectralError("overflow in nonunitary propagation")
    return out


# ---------------------------------------------------------------------------
# Spectrum comparison utilities


def match_eigenvalues(reference: np.ndarray, other: np.ndarray):
    """Greedy nearest-match pairing of two spectra.

    Returns (indices, distances): ``other[indices[i]]`` is the partner of
    ``reference[i]`` and ``distances[i]`` the absolute mismatch.
    """
    a = np.asarray(reference, dtype=complex)
    b = np.asarray(other, dtype=complex)
    if a.shape != b.shape:
        raise SpectralError("spectra have different sizes")
    dist = np.abs(a[:, None] - b[None, :])
    idx = np.empty(a.size, dtype=int)
    for i in np.argsort(-np.abs(a)):  # match the large eigenvalues first
        j = int(np.argmin(dist[i]))
        idx[i] = j
        dist[:, j] = np.inf
    return idx, np.abs(a - b[idx])


def spectral_mismatch(reference: np.ndarray, other: np.ndarray) -> float:
    """Largest nearest-match distance, relative to the spectral scale."""
    _, d = match_eigenvalues(reference, other)
    scale = max(float(np.max(np.abs(reference))), float(np.max(np.abs(other))), _SMLNUM)
    return float(np.max(d)) / scale
