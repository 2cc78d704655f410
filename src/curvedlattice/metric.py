"""Metric catalog and lattice sampling.

A static diagonal 1+1D line element ``ds² = α(x)²dt² − β(x)²dx²`` (and its
time-dependent generalization) is represented by a :class:`MetricModel`,
which knows how to sample the profiles ``α_n(t)``, ``β_n(t)`` and the
logarithmic time derivative ``∂₀β_n/β_n`` on the lattice ``x = n·a``,
``n = 0..L-1``.  Operator assembly consumes the resulting
:class:`SampledMetric`.

Catalog closed forms:

====================  =====================================  ==========
family                alpha_n / beta_n                       dlog beta
====================  =====================================  ==========
flat                  1 / 1                                  0
rindler               q·n·a / 1                              0
de_sitter             s / 1/s,  s = sqrt(1-(q n a)²)         0
anti_de_sitter        s / 1/s,  s = sqrt(1+(q n a)²)         0
weyl                  e^{rt+qna} (both)                      r
linear_conformal      w_n(t) = rt+qna (both)                 r/w_n
custom                user expressions for alpha, beta       d(beta)/beta
====================  =====================================  ==========

All profiles must be finite and nonnegative; any other sample is a hard
error, save one: the de Sitter horizon makes ``beta`` diverge where
``alpha = 0`` (``q·n·a = 1``), the sample stores it as-is (``inf``), and
downstream code evaluates the vanishing combinations with guarded products.
A Weyl sample ``e^{rt+qna}`` never vanishes, so one below the normal float
range is an error, as its overflow is: the field grows as β^{-1/2}, and its
norm would leave the float range there.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

from .errors import CurvedLatticeError
from .front import FAMILIES

if TYPE_CHECKING:
    from . import expr as _expr

_NEEDS_Q = ("rindler", "de_sitter", "anti_de_sitter", "weyl", "linear_conformal")
_HAS_R = ("weyl", "linear_conformal")

# Samples within a few ulp of the de Sitter horizon are snapped onto it so a
# horizon pinned to a lattice site decouples exactly (zero hopping, not 1e-8).
_HORIZON_SNAP = 16 * np.finfo(float).eps
_TINY = np.finfo(float).tiny  # the smallest normal float


def _dsl():
    from . import expr  # the expression DSL loads with the first custom metric
    return expr


class MetricError(CurvedLatticeError):
    """Invalid metric configuration."""


class MetricDomainError(MetricError):
    """Sampling outside the metric's domain of validity."""

    exit_code = 3


class SampledMetric(NamedTuple):
    """Lattice profiles of a metric at a fixed time."""

    t: float
    alpha: np.ndarray
    beta: np.ndarray
    dlog_beta_dt: np.ndarray

    @property
    def L(self) -> int:
        return self.alpha.shape[0]


class MetricModel:
    """A metric family plus its parameters and the lattice geometry.

    Immutable: the constructor sets and checks every field, and assigning
    to one raises AttributeError.  A lattice whose extent (L−1)·a leaves the
    float range is an error, as its last site coordinate would be infinite.
    """

    def __init__(
        self,
        family: str,
        L: int,
        a: float = 1.0,
        q: float = 0.0,
        r: float = 0.0,
        alpha_expr: _expr.Expr | None = None,
        beta_expr: _expr.Expr | None = None,
        params: Mapping[str, float] | None = None,
    ):
        vars(self).update(
            family=family, L=L, a=a, q=q, r=r, alpha_expr=alpha_expr, beta_expr=beta_expr,
            params={} if params is None else params,
        )
        if family not in FAMILIES:
            raise MetricError(f"unknown metric family {family!r}; expected one of {FAMILIES}")
        if L < 2:
            raise MetricError(f"need at least 2 sites, got L={L}")
        if a <= 0:
            raise MetricError(f"lattice spacing must be positive, got a={a}")
        if not math.isfinite((L - 1) * a):
            raise MetricError(f"lattice extent (L-1)·a leaves the float range: L={L}, a={a:g}")
        if family in _NEEDS_Q and q <= 0:
            raise MetricError(f"{family} requires q > 0, got q={q}")
        if family == "custom":
            if alpha_expr is None or beta_expr is None:
                raise MetricError("custom metric requires alpha and beta expressions")
            unbound = self._custom.param_names - set(self.params)
            if unbound:
                raise MetricError(f"unbound metric parameters: {sorted(unbound)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"MetricModel is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MetricModel is immutable: cannot delete {name!r}")

    @cached_property
    def _custom(self) -> _expr.CustomProfiles:
        """The custom metric's profiles, built once, by the constructor."""
        return _dsl().CustomProfiles(self.alpha_expr, self.beta_expr, self.params)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def flat(L: int, a: float = 1.0) -> "MetricModel":
        return MetricModel("flat", L, a)

    @staticmethod
    def rindler(q: float, L: int, a: float = 1.0) -> "MetricModel":
        return MetricModel("rindler", L, a, q=q)

    @staticmethod
    def de_sitter(q: float, L: int, a: float = 1.0) -> "MetricModel":
        return MetricModel("de_sitter", L, a, q=q)

    @staticmethod
    def anti_de_sitter(q: float, L: int, a: float = 1.0) -> "MetricModel":
        return MetricModel("anti_de_sitter", L, a, q=q)

    @staticmethod
    def weyl(q: float, r: float, L: int, a: float = 1.0) -> "MetricModel":
        return MetricModel("weyl", L, a, q=q, r=r)

    @staticmethod
    def linear_conformal(q: float, r: float, L: int, a: float = 1.0) -> "MetricModel":
        return MetricModel("linear_conformal", L, a, q=q, r=r)

    @staticmethod
    def custom(
        alpha: str | _expr.Expr,
        beta: str | _expr.Expr,
        L: int,
        a: float = 1.0,
        params: Mapping[str, float] | None = None,
    ) -> "MetricModel":
        parse = _dsl().parse
        return MetricModel(
            "custom", L, a,
            alpha_expr=parse(alpha) if isinstance(alpha, str) else alpha,
            beta_expr=parse(beta) if isinstance(beta, str) else beta,
            params=dict(params or {}),
        )

    # -- queries -----------------------------------------------------------

    @property
    def x(self) -> np.ndarray:
        """Site coordinates x = n·a."""
        return np.arange(self.L) * self.a

    @property
    def time_dependent(self) -> bool:
        """True if the sampled profiles can change with t."""
        if self.family == "custom":
            return self._custom.time_dependent
        return self.family in _HAS_R and self.r != 0.0

    @property
    def conformally_flat(self) -> bool:
        """True if α ≡ β, so that the field has a flat-spacetime dual."""
        if self.family == "custom":
            return self._custom.conformally_flat
        return self.family in ("flat", "weyl", "linear_conformal")

    def static_operator(self, M: float) -> bool:
        """True if the assembled Hamiltonian is time-independent.

        Conservative for custom metrics.  The one nontrivial catalog case is
        the massless Weyl family: the hoppings reduce to e^{±qa/2}/(2a) and
        the onsite term to -ir/2, none of which depend on t, so H is static
        even though the metric itself is not.
        """
        return not self.time_dependent or (self.family == "weyl" and M == 0.0)

    def provenance(self) -> str:
        if self.family == "custom":
            return self._custom.source
        bits = []
        if self.family in _NEEDS_Q:
            bits.append(f"q={self.q:g}")
        if self.family in _HAS_R:
            bits.append(f"r={self.r:g}")
        return f"{self.family}({', '.join(bits)})" if bits else self.family

    # -- sampling ----------------------------------------------------------

    def sample(self, t: float = 0.0) -> SampledMetric:
        """Sample α_n, β_n and ∂₀β_n/β_n at time t.

        Pure; MetricModel and the returned SampledMetric are immutable, so
        sampling different time slices concurrently is safe.
        """
        x = self.x
        L = self.L
        with np.errstate(all="ignore"):  # a non-finite sample is reported below
            if self.family in ("flat", "rindler"):
                alpha = np.ones(L) if self.family == "flat" else self.q * x
                beta, dlog = np.ones(L), np.zeros(L)
            elif self.family in ("de_sitter", "anti_de_sitter"):
                sign = -1.0 if self.family == "de_sitter" else 1.0
                s = 1.0 + sign * (self.q * x) ** 2
                s[np.abs(s) <= _HORIZON_SNAP] = 0.0
                if np.any(s < 0):
                    n_bad = int(np.argmax(s < 0))
                    raise MetricDomainError(
                        f"de Sitter sample beyond the horizon at site {n_bad} "
                        f"(q·x = {self.q * x[n_bad]:.6g} > 1)"
                    )
                alpha = np.sqrt(s)
                beta = 1.0 / alpha
                dlog = np.zeros(L)
            elif self.family == "weyl":
                alpha = np.exp(self.r * t + self.q * x)
                if np.any(alpha < _TINY):
                    n_bad = int(np.argmax(alpha < _TINY))
                    raise MetricDomainError(
                        f"weyl sample e^(rt+qx) = {alpha[n_bad]:g} below the normal float range "
                        f"at site {n_bad}, t={t:g}"
                    )
                beta = alpha
                dlog = np.full(L, self.r)
            elif self.family == "linear_conformal":
                w = self.r * t + self.q * x
                if np.any(w < 0):
                    n_bad = int(np.argmax(w < 0))
                    raise MetricDomainError(
                        f"linear_conformal sample w_n = rt+qx < 0 at site {n_bad}, t={t:g}"
                    )
                if self.r != 0.0 and np.any(w == 0):
                    raise MetricDomainError(
                        f"divergent ∂₀β/β: w_n = 0 with r = {self.r:g} at t={t:g}"
                    )
                alpha = w
                beta = w
                dlog = self.r / w if self.r != 0.0 else np.zeros(L)
            else:  # custom
                try:
                    alpha, beta, dlog = map(np.array, self._custom.sample(x.tolist(), t))
                except CurvedLatticeError as err:  # the DSL's EvalError, naming the site
                    raise MetricDomainError(str(err)) from err
        if np.any(alpha < 0) or np.any(beta < 0):
            raise MetricDomainError(f"negative metric sample for {self.provenance()} at t={t:g}")
        bad = ~np.isfinite(alpha) | ~np.isfinite(beta) & (alpha != 0.0) | ~np.isfinite(dlog)
        if np.any(bad):
            n = int(np.argmax(bad))
            raise MetricDomainError(f"non-finite metric at site {n} of {self.provenance()}, t={t:g}")
        return SampledMetric(
            t=float(t),
            alpha=np.asarray(alpha, dtype=float),
            beta=np.asarray(beta, dtype=float),
            dlog_beta_dt=np.asarray(dlog, dtype=float),
        )


def distance_profile(metric: SampledMetric) -> np.ndarray:
    """Effective tight-binding distance δ_n = −log(α_n) per site.

    The average (δ_n+δ_{n+1})/2 of neighboring values is the distance that
    sets the exponential suppression of the hopping between sites n and n+1.
    Horizon sites (α_n = 0) map to +inf, flagging the decoupling.
    """
    with np.errstate(divide="ignore"):
        return -np.log(metric.alpha)
