"""Dense eigensolvers and the matrix-exponential propagator kernel.

Every lattice operator is decomposed on one chain (:func:`band_chains`),
read from the band alone, whatever its type.  Mostly it splits into chain A
and B = −Ā (the symmetry (I⊗σ_z)H̄(I⊗σ_z) = −H of Kawabata, Shiozaki, Ueda &
Sato, PRX 9 (2019) 041015), so only A is decomposed and B's half is −Ē with
vectors conj(x): E and −Ē pair exactly.  A periodic lattice of odd L closes
the two into one ring of 2L sites, decomposed whole.  A band off the chain
rules (the naive scheme) is decomposed whole.  The structure picks the solver:

* ``chain-eigh``/``complex-eigh`` — A = S⁻¹BS + icI with B hermitian, S =
  diag(s) and c uniform (every hermitian and static diagonal metric, and
  the Weyl family's −ir/2), found without a metric (:func:`_symmetrizer`):
  on a path or a ring, s = d·u carries the metric scale d > 0 (η = D²,
  Mostafazadeh, J. Math. Phys. 43 (2002) 205) and a phase u that makes B
  real symmetric; any other band tries s = 1.  ``eigh`` of B gives E
  exactly real up to ic, with vectors S⁻¹W.
* ``chain-geev``/``complex-geev`` — any other matrix: LAPACK ``geev``.

:func:`eig_hermitian` takes ``eigh`` only, of ½(A + A†).  A chain route
whose residuals exceed n·ε·‖A‖_F, the backward-error level of ``eig``,
gives way to the whole matrix, whose ``complex-eigh`` gives way to
``complex-geev`` in turn; ``route`` records the failed check.  Results are
sorted by (Re, Im), with residuals measured on the whole band (chain B's
mirrored from A's), and a LAPACK failure raises :class:`SpectralError`.

Every exponential reads the operator once, as the shifted band B = c·A −
μI, μ = tr(c·A)/n, with ‖B‖₁ (:func:`_band_shifted`), and truncates one
Taylor series at a degree fixed in advance (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33 (2011) 488): applied to a state by products with the nonzero
diagonals, O(L) each for a lattice step, or summed as the dense exp(B + μ)
by scaling, Paterson–Stockmeyer and squaring (:func:`_dense_exp`).
:func:`propagator` prepares the step exp(−iH·dt) as a :class:`StepOperator`
(``U @ psi``), which forms its dense matrix only where that is estimated to
cost less over the steps that reuse it (:meth:`StepOperator.for_steps`, the
one routing rule).  :func:`expm` is the public dense exponential (c = 1).
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
        return 0.0 if self.residuals is None else float(np.max(self.residuals, initial=0.0))


def _lapack(solver, *args, **kwargs):
    """``solver(*args, **kwargs)`` with a LAPACK failure as SpectralError."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as err:
        raise SpectralError(f"eigensolver failed: {err}") from err


def _decomposition(lam, V, diagonals, route, mirrored=False) -> SpectralDecomposition:
    """Sorted by (Re, Im), with residuals against the band when V is given.
    A ``mirrored`` second half is chain B's (:func:`_unfold`), whose residual
    norms equal the first half's bit for bit, so only the first is measured."""
    order = np.lexsort((lam.imag, lam.real))
    hnorm = band_norm(diagonals)
    if V is None:
        return SpectralDecomposition(lam[order], None, None, hnorm, route)
    m = lam.size // 2 if mirrored else lam.size
    norms = np.tile(column_norms(_band_matvec(diagonals, V[:, :m]) - V[:, :m] * lam[None, :m]), 1 + mirrored)
    return SpectralDecomposition(lam[order], V[:, order], norms[order], hnorm, route)


def _accepted(dec: SpectralDecomposition) -> bool:
    """Every residual within n·ε·‖A‖_F (a NaN fails)."""
    return dec.residuals is None or bool(
        np.max(dec.residuals, initial=0.0) <= dec.eigenvalues.size * _EPS * dec.h_norm
    )


def eig_general(H, compute_vectors: bool = True) -> SpectralDecomposition:
    """Full complex spectrum (and unit-norm right eigenvectors) of a square matrix.

    The structure picks the route (see the module docstring): a quasi-
    hermitian matrix keeps eigenvalues that are exactly real up to a
    uniform imaginary shift, and any other goes to ``eig``/``eigvals``.
    """
    diagonals, n = _band(H)
    return _decompose(diagonals, n, diagonals, compute_vectors, hermitian=False)


def eig_hermitian(H, herm_tol: float = 1e-10) -> SpectralDecomposition:
    """Spectrum of a (numerically) hermitian matrix; eigenvalues exactly real.

    Precondition: relative hermiticity residual at most ``herm_tol``.  The
    symmetrized matrix ½(A + A†) is decomposed by ``eigh`` only, on its
    chain when it has one, so the output imaginary parts are exactly zero.
    """
    diagonals, n = _band(H)
    res = hermitian_residual(H)
    if res > herm_tol:
        raise SpectralError(f"matrix is not hermitian (relative residual {res:.3e} > {herm_tol:.1e})")
    adjoint = band_adjoint(diagonals)
    B = {k: _hermitian_part(diagonals.get(k, 0.0), adjoint.get(k, 0.0))
         for k in diagonals.keys() | adjoint.keys()}
    return _decompose(diagonals, n, B, True, hermitian=True)


def _hermitian_part(X, Y):
    """½(X + Y) of X and its adjoint Y; a sum that overflows is a SpectralError."""
    with np.errstate(all="ignore"):  # reported below
        half = 0.5 * (X + Y)
    if not np.all(np.isfinite(half)):
        raise SpectralError("overflow in the hermitian part ½(A + A†) of the matrix")
    return half


def _decompose(diagonals, n, A, compute_vectors, hermitian) -> SpectralDecomposition:
    """The spectrum of the n×n band A, with residuals against ``diagonals``:
    on its chain (:func:`band_chains`, :func:`_unfold`), or whole when it has
    none or the chain's residuals fail.  Each takes ``eigh`` of the partner
    that :func:`_symmetrizer` finds (a hermitian chain always has one), else
    ``geev``; a hermitian A takes ``eigh`` only, and a failed whole
    ``complex-eigh`` of a general A gives way to ``complex-geev``.
    """
    check = None
    chain = band_chains(A, n // 2) if n > 0 and n % 2 == 0 else None
    if chain is not None:
        # diagonal k of an m×m band holds m − |k| entries: m = n/2 on chain A, n on a ring
        m = max((abs(k) + d.size for k, d in chain.items()), default=n // 2)
        kind, lam, x = _eig(chain, m, compute_vectors, _symmetrizer(chain, m))
        dec = _decomposition(*_unfold(lam, x, m < n), diagonals, f"chain-{kind}", m < n)
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
    S = _hermitian_part(S, S.conj().T)
    if not compute_vectors:
        return "eigh", _lapack(np.linalg.eigvalsh, S) + 1j * c, None
    w, W = _lapack(np.linalg.eigh, S)
    X = W / s[:, None]
    X /= np.linalg.norm(X, axis=0)
    return "eigh", w + 1j * c, X


def _unfold(lam, x, mirrored):
    """The operator's spectrum and vectors from its chain's eigenpairs (E, x).
    A ``mirrored`` chain is A, and B = −Ā adds (−Ē, x̄); a ring holds A's
    member of site p at p and B's at L + p.  A's member, u_p or v_p by the
    parity of p, is (ψ₀, ψ₁) = (1, ±1)·x/√2 on site p, and B's the other."""
    if mirrored:
        lam = np.concatenate([lam, -lam.conj()])
    if x is None:
        return lam, None
    L = x.shape[0] if mirrored else x.shape[0] // 2
    x = x * math.sqrt(0.5)
    parity = np.where(np.arange(L) % 2, -1.0, 1.0)[:, None]
    V = np.empty((2 * L, 2 * L), dtype=complex)
    if not mirrored:
        V[0::2], V[1::2] = x[:L] + x[L:], parity * (x[:L] - x[L:])
        return lam, V
    V[0::2, :L], V[1::2, :L] = x, parity * x
    V[0::2, L:], V[1::2, L:] = x.conj(), -parity * x.conj()
    return lam, V


_SYM_TOL = 1e-12  # largest accepted ‖B − B†‖_F/‖B‖_F of the symmetrized matrix


def _symmetrizer(diagonals: dict[int, np.ndarray], n: int):
    """(s, c, B) with B = S(A − icI)S⁻¹ hermitian, S = diag(s), c real, and
    B given by its diagonals; None when A has no such form.

    Cheap rejections first: the coupling pattern must be symmetric, every
    product A_ij·A_ji real and ≥ 0, and the imaginary part of the diagonal
    uniform (it is c).  A path or a ring (offsets within 0, ±1, ±(n−1)) is
    swept along its edges i → j = i + 1 (mod n), summing log(d_j/d_i) =
    ½·log(|A_ij|/|A_ji|) and multiplying the phase u_j = u_i·A_ij/|A_ij|, so
    B_ij > 0 (exactly, for the phases ±1, ±i of a chain); both restart at
    each zero edge, so a decoupled horizon site is a run of its own and its
    β = ∞ never enters, and each run is scaled so that its smallest d is 1.
    Any other band gets s = 1 only.  The edge left unswept (a ring's corner)
    shows in the hermiticity residual of B, which must be at most
    ``_SYM_TOL`` (a periodic Hatano–Nelson ring fails), and a range of d
    that overflows fails too.  B is made real when its imaginary part is at
    most ``_SYM_TOL`` relative.
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
    s = np.ones(n, dtype=complex)
    if diagonals.keys() <= {0, 1, -1, n - 1, 1 - n}:
        # the n edges i → i + 1 (mod n); the last is a ring's corner, or zero
        forward = np.append(diagonals.get(1, np.zeros(n - 1)), diagonals.get(1 - n, 0) if n > 2 else 0)
        backward = np.append(diagonals.get(-1, np.zeros(n - 1)), diagonals.get(n - 1, 0) if n > 2 else 0)
        # swept from the site after the last zero edge (from site 0 when none is zero)
        order = np.roll(np.arange(n), np.argmax(forward[::-1] == 0) - n)
        forward, backward = forward[order[:-1]], backward[order[:-1]]  # edge j: order[j] → order[j + 1]
        with np.errstate(all="ignore"):  # a zero edge ends its run: its step and phase are not read
            magnitude = np.abs(forward)
            step = 0.5 * (np.log(magnitude) - np.log(np.abs(backward)))
            # 1/|A_ij| overflows for a subnormal entry: lift it by an exact power of two
            phase = np.where(magnitude < _TINY, forward * _LIFT / (magnitude * _LIFT), forward / magnitude)
            logd, u = np.zeros(n), np.ones(n, dtype=complex)
            cuts = [0, *(np.flatnonzero(forward == 0) + 1), n]
            for a, b in zip(cuts, cuts[1:]):  # a run of sites joined by nonzero edges
                logd[a + 1 : b], u[a + 1 : b] = np.cumsum(step[a : b - 1]), np.cumprod(phase[a : b - 1])
                logd[a:b] -= logd[a:b].min()
            s[order] = np.exp(logd) * u  # an overflowing range is rejected below
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
    """Apply exp(−iH·dt) to a state vector: one step of :func:`propagator`,
    on the nonzero diagonals of H (O(L) per product for a lattice step) or
    as its dense step matrix where that is estimated to cost less.  Raises
    on nonhermitian growth beyond the representable range."""
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
