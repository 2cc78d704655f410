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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import expr as _expr
from .errors import CurvedLatticeError
from .front import FAMILIES

_NEEDS_Q = ("rindler", "de_sitter", "anti_de_sitter", "weyl", "linear_conformal")
_HAS_R = ("weyl", "linear_conformal")

# Samples within a few ulp of the de Sitter horizon are snapped onto it so a
# horizon pinned to a lattice site decouples exactly (zero hopping, not 1e-8).
_HORIZON_SNAP = 16 * np.finfo(float).eps


class MetricError(CurvedLatticeError):
    """Invalid metric configuration."""


class MetricDomainError(MetricError):
    """Sampling outside the metric's domain of validity."""

    exit_code = 3


@dataclass(frozen=True)
class SampledMetric:
    """Lattice profiles of a metric at a fixed time."""

    t: float
    alpha: np.ndarray
    beta: np.ndarray
    dlog_beta_dt: np.ndarray

    @property
    def L(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class MetricModel:
    """A metric family plus its parameters and the lattice geometry."""

    family: str
    L: int
    a: float = 1.0
    q: float = 0.0
    r: float = 0.0
    alpha_expr: _expr.Expr | None = None
    beta_expr: _expr.Expr | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise MetricError(f"unknown metric family {self.family!r}; expected one of {FAMILIES}")
        if self.L < 2:
            raise MetricError(f"need at least 2 sites, got L={self.L}")
        if self.a <= 0:
            raise MetricError(f"lattice spacing must be positive, got a={self.a}")
        if self.family in _NEEDS_Q and self.q <= 0:
            raise MetricError(f"{self.family} requires q > 0, got q={self.q}")
        if self.family == "custom":
            if self.alpha_expr is None or self.beta_expr is None:
                raise MetricError("custom metric requires alpha and beta expressions")
            # ∂₀β is derived, never set, so it cannot disagree with β
            object.__setattr__(self, "dbeta_expr", _expr.diff_t(self.beta_expr))
            unbound = (
                _expr.param_names(self.alpha_expr) | _expr.param_names(self.beta_expr)
            ) - set(self.params)
            if unbound:
                raise MetricError(f"unbound metric parameters: {sorted(unbound)}")

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
        alpha_ast = _expr.parse(alpha) if isinstance(alpha, str) else alpha
        beta_ast = _expr.parse(beta) if isinstance(beta, str) else beta
        return MetricModel(
            "custom",
            L,
            a,
            alpha_expr=alpha_ast,
            beta_expr=beta_ast,
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
        if self.family in ("flat", "rindler", "de_sitter", "anti_de_sitter"):
            return False
        if self.family in _HAS_R:
            return self.r != 0.0
        return _expr.uses_variable(self.alpha_expr, "t") or _expr.uses_variable(
            self.beta_expr, "t"
        )

    def static_operator(self, M: float) -> bool:
        """True if the assembled Hamiltonian is time-independent.

        Conservative for custom metrics.  The one nontrivial catalog case is
        the massless Weyl family: the hoppings reduce to e^{±qa/2}/(2a) and
        the onsite term to -ir/2, none of which depend on t, so H is static
        even though the metric itself is not.
        """
        if not self.time_dependent:
            return True
        if self.family == "weyl" and M == 0.0:
            return True
        return False

    def provenance(self) -> str:
        if self.family == "custom":
            return (
                f"custom(alpha={_expr.to_source(self.alpha_expr)!r}, "
                f"beta={_expr.to_source(self.beta_expr)!r})"
            )
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
            if self.family == "flat":
                alpha = np.ones(L)
                beta = np.ones(L)
                dlog = np.zeros(L)
            elif self.family == "rindler":
                alpha = self.q * x
                beta = np.ones(L)
                dlog = np.zeros(L)
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
                alpha, beta, dlog = self._sample_custom(t, x)
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

    def _sample_custom(self, t, x):
        params = dict(self.params)
        alpha = np.empty(self.L)
        beta = np.empty(self.L)
        dlog = np.empty(self.L)
        for n, xn in enumerate(x.tolist()):
            try:
                alpha[n] = _expr.evaluate(self.alpha_expr, xn, t, params)
                beta[n] = _expr.evaluate(self.beta_expr, xn, t, params)
                dbeta = _expr.evaluate(self.dbeta_expr, xn, t, params)
            except _expr.EvalError as err:
                raise MetricDomainError(f"custom metric at site {n}, t={t:g}: {err}") from err
            if beta[n] == 0.0:
                if dbeta != 0.0:
                    raise MetricDomainError(
                        f"divergent ∂₀β/β: β = 0 with ∂₀β = {dbeta:g} at site {n}, t={t:g}"
                    )
                dlog[n] = 0.0
            else:
                dlog[n] = dbeta / beta[n]
        return alpha, beta, dlog


def distance_profile(metric: SampledMetric) -> np.ndarray:
    """Effective tight-binding distance δ_n = −log(α_n) per site.

    The average (δ_n+δ_{n+1})/2 of neighboring values is the distance that
    sets the exponential suppression of the hopping between sites n and n+1.
    Horizon sites (α_n = 0) map to +inf, flagging the decoupling.
    """
    with np.errstate(divide="ignore"):
        return -np.log(metric.alpha)
