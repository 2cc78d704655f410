"""Dense eigensolvers and the matrix-exponential propagator kernel.

A lattice operator splits exactly into two L-site chains, A and B = −Ā
(:func:`band_chains`; the symmetry (I⊗σ_z)H̄(I⊗σ_z) = −H of Kawabata,
Shiozaki, Ueda & Sato, PRX 9 (2019) 041015, maps one onto the other), so
spec(H) = spec(A) ∪ −conj spec(A): only chain A is decomposed, B's half is
−Ē with vectors conj(x), and both are rotated back to site order.  Every
split spectrum pairs E and −Ē exactly.  A matrix that does not split (a
periodic ring of odd L, the naive scheme, a plain matrix) is decomposed
whole.  Either way the structure picks the solver:

* ``chain-eigh``/``complex-eigh`` — A = S⁻¹BS + icI with B hermitian, S =
  diag(s) and c uniform (every hermitian and static diagonal metric, and
  the Weyl family's −ir/2) is found from the band without a metric
  (:func:`_symmetrizer`).  s = d·u carries the metric scale d > 0 (η = D²,
  Mostafazadeh, J. Math. Phys. 43 (2002) 205) and a phase u that makes B
  real symmetric wherever the coupling graph allows (on every chain), and
  ``eigh`` of B gives E exactly real up to ic, with vectors S⁻¹W.
* ``chain-geev``/``complex-geev`` — any other matrix: LAPACK ``geev``.

:func:`eig_hermitian` takes ``eigh`` only, of ½(A + A†).  A chain route
whose residuals exceed n·ε·‖A‖_F, the backward-error level of ``eig``,
gives way to the whole matrix, whose ``complex-eigh`` gives way to
``complex-geev`` in turn; ``route`` records the failed check.  Results are
sorted by (Re, Im), with residuals measured on the whole band, and a LAPACK
failure raises :class:`SpectralError`.

Every exponential reads the operator once, as the shifted band B = c·A −
μI, μ = tr(c·A)/n, with ‖B‖₁ (:func:`_band_shifted`), and truncates one
Taylor series at a degree fixed in advance (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33 (2011) 488): applied to a state by products with the nonzero
diagonals, O(L) each for a lattice step, or summed as the dense exp(B + μ)
by scaling, Paterson–Stockmeyer and squaring (:func:`_dense_exp`).
:func:`propagator` prepares the step exp(−iH·dt) once per step length as a
:class:`StepOperator`, which a static operator reuses every step (``U @
psi``); settled for the number of steps that reuse it, one for the step
:func:`expm_apply` takes, the step forms its dense matrix only when forming
it and that many dense products are estimated to cost less than as many
band steps (:meth:`StepOperator.for_steps`, the one routing rule).
:func:`expm` is the public dense exponential (c = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CurvedLatticeError
from .operator import (
    _LIFT, _TINY, band_adjoint, band_chains, band_distance, band_matrix, band_norm, band_similarity,
    column_norms, hermitian_residual,
)

_EPS = np.finfo(float).eps
_SMLNUM = np.finfo(float).tiny / _EPS


class SpectralError(CurvedLatticeError):
    """Eigensolver precondition failure or numerical breakdown."""

    exit_code = 3


@dataclass
class SpectralDecomposition:
    """Eigenvalues (sorted by Re, then Im) with right eigenvectors.

    ``right_eigenvectors`` holds unit-norm columns, ``residuals[j]`` is
    ‖H v_j − E_j v_j‖₂; both are None for an eigenvalues-only decomposition.
    ``h_norm`` is the Frobenius norm of the decomposed matrix, the natural
    scale for residual checks.  ``route`` names the solver (see the module
    docstring), prefixed by ``fallback:<check>:`` when a check rejected the
    route the structure chose first.
    """

    eigenvalues: np.ndarray
    right_eigenvectors: np.ndarray | None
    residuals: np.ndarray | None
    h_norm: float
    route: str

    @property
    def max_residual(self) -> float:
        if self.residuals is None or self.residuals.size == 0:
            return 0.0
        return float(np.max(self.residuals))


def _lapack(solver, *args, **kwargs):
    """``solver(*args, **kwargs)`` with a LAPACK failure as SpectralError."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as err:
        raise SpectralError(f"eigensolver failed: {err}") from err


def _decomposition(lam, V, diagonals, route) -> SpectralDecomposition:
    """Sorted by (Re, Im), with residuals against the band when V is given."""
    order = np.lexsort((lam.imag, lam.real))
    lam, hnorm = lam[order], band_norm(diagonals)
    if V is None:
        return SpectralDecomposition(lam, None, None, hnorm, route)
    V = V[:, order]
    R = _band_matvec(diagonals, V) - V * lam[None, :]
    return SpectralDecomposition(lam, V, column_norms(R), hnorm, route)


def _accepted(dec: SpectralDecomposition) -> bool:
    """Every residual within n·ε·‖A‖_F (a NaN fails)."""
    return dec.residuals is None or bool(
        np.max(dec.residuals, initial=0.0) <= dec.eigenvalues.size * _EPS * dec.h_norm
    )


def eig_general(H, compute_vectors: bool = True) -> SpectralDecomposition:
    """Full complex spectrum (and unit-norm right eigenvectors) of a square matrix.

    The structure picks the route (see the module docstring): a lattice
    operator is decomposed on one of its two chains, a quasi-hermitian
    matrix keeps eigenvalues that are exactly real up to a uniform
    imaginary shift, and any other matrix goes to ``eig``/``eigvals``.
    """
    diagonals, n = _band(H)
    return _decompose(diagonals, n, diagonals, _is_lattice(H), compute_vectors, hermitian=False)


def eig_hermitian(H, herm_tol: float = 1e-10) -> SpectralDecomposition:
    """Spectrum of a (numerically) hermitian matrix; eigenvalues exactly real.

    Precondition: relative hermiticity residual at most ``herm_tol``.  The
    symmetrized matrix ½(A + A†) is decomposed by ``eigh`` only, on chain A
    when it splits (:func:`_decompose`), so the output imaginary parts are
    identically zero.
    """
    diagonals, n = _band(H)
    res = hermitian_residual(H)
    if res > herm_tol:
        raise SpectralError(
            f"matrix is not hermitian (relative residual {res:.3e} > {herm_tol:.1e})"
        )
    adjoint = band_adjoint(diagonals)
    B = {k: 0.5 * (diagonals.get(k, 0.0) + adjoint.get(k, 0.0))
         for k in diagonals.keys() | adjoint.keys()}
    return _decompose(diagonals, n, B, _is_lattice(H), True, hermitian=True)


def _is_lattice(H) -> bool:
    """A lattice operator, whose index 2n + s carries the spinor component s
    that the chain split reads; a plain matrix has no such layout."""
    return getattr(H, "diagonals", None) is not None


def _decompose(diagonals, n, A, lattice, compute_vectors, hermitian) -> SpectralDecomposition:
    """The spectrum of the n×n band A, with residuals against ``diagonals``.

    A lattice operator that splits (:func:`band_chains`) is decomposed on
    chain A, and B's half is its mirror (:func:`_unfold`); a chain route
    whose residuals fail, or a matrix that does not split, is decomposed
    whole.  Each takes ``eigh`` of the partner that :func:`_symmetrizer`
    finds, else ``geev``; a hermitian A takes ``eigh`` only, and a failed
    whole ``complex-eigh`` of a general A gives way to ``complex-geev``.
    """
    check = None
    chain = band_chains(A, n // 2) if lattice else None
    if chain is not None:
        L = n // 2
        identity = (np.ones(L), 0.0, chain) if hermitian else None
        kind, lam, x = _eig(chain, L, compute_vectors, _symmetrizer(chain, L) or identity)
        dec = _decomposition(*_unfold(lam, x), diagonals, f"chain-{kind}")
        if _accepted(dec):
            return dec
        check = f"{kind}-residual"
    found = (np.ones(n), 0.0, A) if hermitian else _symmetrizer(A, n)
    kind, lam, X = _eig(A, n, compute_vectors, found)
    dec = _decomposition(lam, X, diagonals, f"complex-{kind}")
    if kind == "eigh" and not hermitian and not _accepted(dec):
        check = "eigh-residual"
        _, lam, X = _eig(A, n, compute_vectors, None)
        dec = _decomposition(lam, X, diagonals, "complex-geev")
    if check is not None:
        dec.route = f"fallback:{check}:{dec.route}"
    return dec


def _eig(A, n, compute_vectors, found):
    """(kind, eigenvalues, unit-norm eigenvectors or None) of the n×n band A.

    With ``found`` = (s, c, B) from :func:`_symmetrizer`, A = S⁻¹BS + icI:
    ``eigh``/``eigvalsh`` of ½(B + B†), in real arithmetic when B is real,
    gives E = w + ic and the vectors S⁻¹W scaled to unit norm (kind
    ``eigh``).  With ``found`` None, ``geev`` of A (kind ``geev``).
    """
    if found is None:
        A = band_matrix(A, n)
        if compute_vectors:
            return ("geev", *_lapack(np.linalg.eig, A))
        return "geev", _lapack(np.linalg.eigvals, A), None
    s, c, B = found
    S = band_matrix(B, n, np.result_type(0.0, *B.values()))
    S = 0.5 * (S + S.conj().T)
    if not compute_vectors:
        return "eigh", _lapack(np.linalg.eigvalsh, S) + 1j * c, None
    w, W = _lapack(np.linalg.eigh, S)
    X = W / s[:, None]
    X /= np.linalg.norm(X, axis=0)
    return "eigh", w + 1j * c, X


def _unfold(lam, x):
    """The spectrum and vectors of the lattice operator from chain A's
    eigenpairs (E, x): chain B = −Ā adds (−Ē, x̄), and each chain's site p
    is rotated back to the spinor pair (2p, 2p + 1), A's u_p or v_p
    (ψ₀, ψ₁) = (1, ±1)·x_p/√2 by the parity of p, and B's the other."""
    lam = np.concatenate([lam, -lam.conj()])
    if x is None:
        return lam, None
    L = x.shape[0]
    x = x * math.sqrt(0.5)
    parity = np.where(np.arange(L) % 2, -1.0, 1.0)[:, None]
    V = np.empty((2 * L, 2 * L), dtype=complex)
    V[0::2, :L], V[1::2, :L] = x, parity * x
    V[0::2, L:], V[1::2, L:] = x.conj(), -parity * x.conj()
    return lam, V


_SYM_TOL = 1e-12  # largest accepted ‖B − B†‖_F/‖B‖_F of the symmetrized matrix


def _symmetrizer(diagonals: dict[int, np.ndarray], n: int):
    """(s, c, B) with B = S(A − icI)S⁻¹ hermitian, S = diag(s), c real, and
    B given by its diagonals; None when A has no such form.

    Cheap rejections first: the coupling pattern must be symmetric, every
    product A_ij·A_ji real and ≥ 0, and the imaginary part of the diagonal
    uniform (it is c).  Then s = d·u is built along a spanning tree of each
    connected component of the coupling graph, summing log(d_j/d_i) =
    ½·log(|A_ij|/|A_ji|) and multiplying the phase u_j = u_i·A_ij/|A_ij|,
    so B_ij > 0 on every tree edge (exactly, for the phases ±1, ±i of a
    chain); each component is scaled so that its smallest d is 1, and a
    decoupled horizon site is a component of its own, so its β = ∞ never
    enters.  Cycles that disagree (a periodic Hatano–Nelson ring) show in
    the hermiticity residual of B, which must be at most ``_SYM_TOL``, and a
    range of d that overflows (a long skin-effect chain) fails too.  B is
    made real when its imaginary part is at most ``_SYM_TOL`` relative.
    """
    if n == 0 or any(-k not in diagonals for k in diagonals):
        return None
    imag = diagonals[0].imag if 0 in diagonals else np.zeros(n)
    if imag.max() - imag.min() > _SYM_TOL * band_norm(diagonals):
        return None
    c = 0.5 * (imag.max() + imag.min())  # exact when the part is uniform
    for k, upper in diagonals.items():
        if k > 0:
            lower = diagonals[-k]
            # the phase of A_ij·A_ji, read without forming the product, which may overflow
            theta = np.where(upper != 0, np.angle(upper) + np.angle(lower), 0.0)
            if (
                not np.array_equal(upper != 0, lower != 0)
                or np.any(np.cos(theta) < 0)
                or np.any(np.abs(np.sin(theta)) > _SYM_TOL)
            ):
                return None
    neighbours = [[] for _ in range(n)]
    for k, upper in diagonals.items():
        if k > 0:
            i = np.flatnonzero(upper)
            magnitude = np.abs(upper[i])
            step = 0.5 * (np.log(magnitude) - np.log(np.abs(diagonals[-k][i])))
            with np.errstate(all="ignore"):
                phase = upper[i] / magnitude
            # 1/|A_ij| overflows for a subnormal entry: lift it by an exact power of two
            sub = magnitude < _TINY
            phase[sub] = upper[i][sub] * _LIFT / (magnitude[sub] * _LIFT)
            for a, b, w, z in zip(i.tolist(), (i + k).tolist(), step.tolist(), phase.tolist()):
                neighbours[a].append((b, w, z))
                neighbours[b].append((a, -w, z.conjugate()))
    logd, u, root = [0.0] * n, [1.0 + 0j] * n, [-1] * n
    for r in range(n):
        if root[r] < 0:
            root[r], stack = r, [r]
            while stack:
                a = stack.pop()
                for b, w, z in neighbours[a]:
                    if root[b] < 0:
                        root[b], logd[b], u[b] = r, logd[a] + w, u[a] * z
                        stack.append(b)
    logd, root = np.array(logd), np.array(root)
    low = np.full(n, np.inf)
    np.minimum.at(low, root, logd)
    with np.errstate(all="ignore"):  # an overflowing range is rejected
        s = np.exp(logd - low[root]) * np.array(u)
    if not np.all(np.isfinite(s)):
        return None
    B = band_similarity(diagonals, n, s)
    if 0 in B:
        B[0] = B[0] - 1j * c
    with np.errstate(all="ignore"):
        residual = band_distance(B, band_adjoint(B))
    if not residual <= _SYM_TOL * band_norm(B):
        return None
    if band_norm({k: b.imag for k, b in B.items()}) <= _SYM_TOL * band_norm(B):
        B = {k: b.real for k, b in B.items()}
    return s, c, B


# ---------------------------------------------------------------------------
# Matrix exponential and the propagator kernel: one truncated Taylor series

_TAYLOR_TOL = 2.0**-53  # unit roundoff of double precision


def _taylor_degree(norm1: float) -> int:
    """Smallest m whose first omitted term ‖B‖^(m+1)/(m+1)! is at most the
    unit roundoff; 18 at most for ‖B‖₁ ≤ 1."""
    m, term = 0, norm1
    while term > _TAYLOR_TOL:
        m += 1
        term *= norm1 / (m + 1)
    return m


def _squarings_and_degree(norm1: float) -> tuple[int, int]:
    """:func:`_dense_exp`'s j squarings, which bring ‖B‖₁ to at most 1, and
    the Taylor degree m of the scaled matrix."""
    j = math.ceil(math.log2(norm1)) if norm1 > 1.0 else 0
    return j, _taylor_degree(norm1 * 0.5**j)


def _taylor_poly(X: np.ndarray, m: int) -> np.ndarray:
    """Σ_{k≤m} X^k/k! by Paterson & Stockmeyer (SIAM J. Comput. 2 (1973) 60):
    form X², …, X^q with q = ⌊√m⌋, then run Horner in X^q over blocks of q
    coefficients (the top block takes up to q + 1), about 2√m products."""
    q = max(1, math.isqrt(m))
    powers = [None, X]
    for _ in range(q - 1):
        powers.append(powers[-1] @ X)
    diag = np.diag_indices(X.shape[0])
    P = None
    for start in reversed(range(0, max(m, 1), q)):
        stop = m + 1 if P is None else start + q
        P = np.zeros_like(X) if P is None else P @ powers[q]
        P[diag] += 1.0 / math.factorial(start)
        for k in range(start + 1, stop):
            P += powers[k - start] / math.factorial(k)
    return P


def _dense_exp(B: dict[int, np.ndarray], mu: complex, norm1: float, n: int) -> np.ndarray:
    """The dense exp(B + μ) of a shifted band (:func:`_band_shifted`): B is
    scaled by 2^-j until ‖B‖₁ ≤ 1, its Taylor polynomial is summed by
    Paterson–Stockmeyer, squared j times and multiplied by e^μ."""
    with np.errstate(all="ignore"):  # the caller checks finiteness
        j, m = _squarings_and_degree(norm1)
        R = _taylor_poly(band_matrix({k: d * 0.5**j for k, d in B.items()}, n), m)
        for _ in range(j):
            R = R @ R
        return np.exp(mu) * R


def expm(A) -> np.ndarray:
    """Matrix exponential by a truncated Taylor series of A − μI, μ = tr(A)/n
    (:func:`_dense_exp`)."""
    diagonals, n = _band(A)
    with np.errstate(all="ignore"):  # overflow checked in _band_shifted
        return _dense_exp(*_band_shifted(diagonals, n, 1.0), n)


def _band(H) -> tuple[dict[int, np.ndarray], int]:
    """The nonzero diagonals {k: entries H[i, i+k]} of a lattice operator,
    or of a square matrix, and the dimension n; all entries must be finite."""
    diagonals = getattr(H, "diagonals", None)
    if diagonals is None:
        A = np.asarray(H, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise SpectralError(f"expected a square matrix, got shape {A.shape}")
        n = A.shape[0]
        diagonals = {k: d for k in range(1 - n, n) if (d := np.diagonal(A, k)).any()}
    else:
        n = H.dim
    if not all(np.all(np.isfinite(d)) for d in diagonals.values()):
        raise SpectralError("matrix has non-finite entries")
    return diagonals, n


def _band_matvec(B: dict[int, np.ndarray], x: np.ndarray) -> np.ndarray:
    """B·x for B given by its diagonals; x is a vector or a matrix of columns."""
    n = x.shape[0]
    y = np.zeros(x.shape, dtype=complex)
    for k, d in B.items():
        if x.ndim == 2:
            d = d[:, None]
        if k >= 0:
            y[: n - k] += d * x[k:]
        else:
            y[-k:] += d * x[: n + k]
    return y


def _band_shifted(diagonals: dict[int, np.ndarray], n: int, c: complex):
    """B = c·H − μI, μ = tr(c·H)/n (exact: it removes a uniform onsite part
    such as the Weyl −(i/2)∂₀β/β), and ‖B‖₁, which must be finite, with
    each column summed from the top row down."""
    B = {k: c * d for k, d in diagonals.items()}
    mu = np.sum(B[0]) / max(n, 1) if 0 in B else 0j
    if 0 in B:
        B[0] = B[0] - mu
    col = np.zeros(n)
    for k in sorted(B, reverse=True):  # row i = j − k rises as k falls
        if k >= 0:
            col[k:] += np.abs(B[k])
        else:
            col[: n + k] += np.abs(B[k])
    norm1 = float(np.max(col, initial=0.0))
    if not math.isfinite(norm1):
        raise SpectralError("overflow in nonunitary propagation")
    return B, mu, norm1


def _taylor_action(B: dict, mu: complex, s: int, m: int, psi: np.ndarray) -> np.ndarray:
    """exp(B + μ)ψ as s substeps, each e^{μ/s} times the degree-m Taylor
    polynomial of B/s applied by Horner's rule, one band product per degree."""
    shift, out = np.exp(mu / s), psi
    for _ in range(s):
        v = out
        for k in range(m, 0, -1):
            v = out + _band_matvec(B, v) / (s * k)
        out = shift * v
    return out


# Estimated costs, in nanoseconds, of the two ways to apply a step, fitted
# to in-process timings on a 2-vCPU Haswell VM (OpenBLAS, two threads; the
# fit is recorded in CHANGES.md): a band Horner term pays numpy call
# overheads per term and per diagonal on top of its entries (upper bounds
# of its timings); forming the dense step matrix pays a fixed overhead, its
# n×n products and elementwise passes (near their medians, ±50 %); a dense
# step is one n×n matvec.
_NS_HORNER_TERM = 10_000.0
_NS_BAND_DIAGONAL = 2_000.0
_NS_BAND_ENTRY = 4.0
_NS_MATVEC = 2_000.0
_NS_MATVEC_ENTRY = 0.25
_NS_FORMING = 150_000.0
_NS_PRODUCT_ENTRY = 0.16  # per n³ multiply-add of an n×n product
_NS_PASS_ENTRY = 2.5  # per entry of an elementwise n×n pass


def _dense_costs(n: int, norm1: float) -> tuple[float, float]:
    """(forming, applying) the dense step matrix of ‖B‖₁ = ``norm1``, in
    estimated ns: a fixed overhead, the products of :func:`_taylor_poly` and
    the j squarings, about 2m + 10 elementwise passes, and one matvec."""
    j, m = _squarings_and_degree(norm1)
    q = max(1, math.isqrt(m))
    products = (q - 1) + (math.ceil(max(m, 1) / q) - 1) + j
    forming = products * n**3 * _NS_PRODUCT_ENTRY + (2 * m + 10) * n * n * _NS_PASS_ENTRY
    return _NS_FORMING + forming, _NS_MATVEC + n * n * _NS_MATVEC_ENTRY


@dataclass
class StepOperator:
    """exp(−iH·dt) prepared once for repeated application: ``U @ psi``.

    ``B`` holds the diagonals of the shifted band −i·dt·H − μI of an n×n
    operator H, with ``norm1`` = ‖B‖₁, and a step is ``s`` substeps of the
    degree-``m`` Taylor polynomial (:func:`_taylor_action`).  ``dense``
    holds the step matrix of :func:`_dense_exp` instead, once
    :meth:`for_steps` found it cheaper.  A product that overflows raises
    :class:`SpectralError`.
    """

    dt: float
    n: int
    B: dict[int, np.ndarray]
    mu: complex
    norm1: float
    s: int
    m: int
    dense: np.ndarray | None = None

    def band_cost(self) -> float:
        """Estimated ns of one step on the band: s·m Horner terms."""
        entries = sum(d.size for d in self.B.values())
        term = _NS_HORNER_TERM + _NS_BAND_DIAGONAL * len(self.B) + _NS_BAND_ENTRY * entries
        return self.s * self.m * term

    def for_steps(self, count: int) -> StepOperator:
        """Settle the route for ``count`` applications: form the dense step
        matrix when forming it and ``count`` dense products are estimated to
        cost less than ``count`` band steps (:func:`_dense_costs`)."""
        if self.dense is None:
            forming, applying = _dense_costs(self.n, self.norm1)
            if forming + count * applying < count * self.band_cost():
                self.form_dense()
        return self

    def form_dense(self) -> None:
        """Form the dense step matrix exp(B + μ) of :func:`_dense_exp`."""
        self.dense = _dense_exp(self.B, self.mu, self.norm1, self.n)

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        if self.dense is not None:
            out = self.dense @ psi
        else:
            with np.errstate(all="ignore"):  # overflow is checked below
                out = _taylor_action(self.B, self.mu, self.s, self.m, psi)
        if not np.all(np.isfinite(out)):
            raise SpectralError("overflow in nonunitary propagation")
        return out


def _taylor_step(diagonals: dict[int, np.ndarray], n: int, dt: float) -> StepOperator:
    """The band step exp(−iH·dt) from the diagonals of H: the shift, ‖B‖₁,
    s = max(1, ⌈‖B‖₁⌉) substeps and the degree :func:`_taylor_degree`
    (‖B‖₁/s) ≤ 18."""
    if not math.isfinite(dt):
        raise SpectralError(f"non-finite time step {dt!r}")
    with np.errstate(all="ignore"):  # overflow checked in _band_shifted
        B, mu, norm1 = _band_shifted(diagonals, n, -1j * dt)
    s = max(1, math.ceil(norm1))
    return StepOperator(dt, n, B, mu, norm1, s, _taylor_degree(norm1 / s))


def propagator(H, dt: float) -> StepOperator:
    """The step exp(−iH·dt), prepared for ``U @ psi``.

    It is applied as the Taylor action on the band of H, unless forming the
    dense step matrix and applying it costs less.  The route is settled for
    one application; a caller that applies the step ``count`` times settles
    it with ``propagator(H, dt).for_steps(count)``, so that a long run pays
    for forming the dense matrix when its products are cheaper.
    """
    return _taylor_step(*_band(H), dt).for_steps(1)


def expm_apply(H, dt: float, psi: np.ndarray) -> np.ndarray:
    """Apply exp(-i H dt) to a state vector by a truncated Taylor series.

    All work runs on the nonzero diagonals of H (a :class:`LatticeOperator`'s
    band, or those of a dense matrix), so a lattice step costs O(L) per
    product.  The step is prepared by :func:`propagator` and applied once:
    with B = -i·dt·H shifted by μ = tr(B)/n, s = max(1, ⌈‖B − μ‖₁⌉)
    substeps, each the Taylor polynomial of degree :func:`_taylor_degree`
    (‖B − μ‖₁/s) ≤ 18 applied by Horner's rule, or as its dense step
    matrix where that is estimated to cost less.
    Raises on nonhermitian growth beyond the representable range.
    """
    U = propagator(H, dt)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (U.n,):
        raise SpectralError(f"state length {psi.shape} does not match matrix {(U.n, U.n)}")
    return U @ psi


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
