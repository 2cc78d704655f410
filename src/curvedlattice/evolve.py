"""Spinor-field propagation under (non)hermitian lattice Hamiltonians.

Stepping is midpoint-sampled exponential: ψ(t+dt) = exp(−iH(t+dt/2)·dt)ψ(t).
This is exact for time-independent operators and second order in dt
otherwise, and remains well defined for nonhermitian H (where the norm
genuinely grows or decays).  The metric's structure decides what is
recomputed: a t-independent metric is sampled once; a static operator is
built once per step length and its step prepared by ``propagator`` (the
shifted band, the substep count and the Taylor degree), then applied to the
state every step; a time-dependent one is built, as its band of nonzero
diagonals, from the metric at each midpoint.  Either way only the action of
the exponential on the state is computed (a truncated Taylor series of band
products), so no dense matrix is formed, unless a step is applied so
often, or is so long, that forming the dense step matrix and applying it is
estimated to cost less than the band products.

A run is a :class:`Route`: it is advanced one step at a time on the exact
grid t_i = t0 + i·dt and holds only the current state and the prepared
static step, so its memory does not grow with the step count.
:func:`trace_rows` advances a route, and optionally its flat dual in
lockstep, and forms the norms of each grid time as both reach it;
:func:`propagate` and :func:`dual_propagate` collect those rows into an
:class:`EvolutionTrace`, and the CLI writes them as ``trace.csv``.

:func:`dual_propagate` evolves the rescaled field ψ̃ = D(t)ψ (with
D = diag(√α_n)⊗I₂) under the flat-kinetic Hamiltonian with site-dependent
mass M·α_n(t), then maps back.  For conformally flat metrics (α = β) the two
routes describe the same physics, so their difference is pure integrator
error — which makes the pair a built-in cross-check.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import CurvedLatticeError, SpectralError
from .metric import MetricDomainError, MetricModel, SampledMetric
from .operator import LatticeOperator, build
from .spectral import expm_apply, propagator


class EvolveError(CurvedLatticeError):
    """Invalid propagation request."""


class PropagationError(EvolveError):
    """Failure mid-run; carries the trace accumulated so far."""

    exit_code = 3

    def __init__(self, message: str, partial: "EvolutionTrace | None" = None):
        super().__init__(message)
        self.partial = partial


class SpinorField(NamedTuple):
    """Site-major two-component field: values[2n+s] is component s at site n."""

    values: np.ndarray
    t: float = 0.0

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


class EvolutionTrace(NamedTuple):
    """Recorded norms (and optional snapshots) of one propagation run; the
    default holds no snapshots, as an empty tuple that no trace can grow."""

    times: np.ndarray
    norms: np.ndarray
    eta_norms: np.ndarray
    snapshots: Sequence[SpinorField] = ()


def _eta_norm(values: np.ndarray, beta: np.ndarray) -> float:
    """Curved-space norm √(ψ† diag(β_n) ψ): conserved where the lattice
    evolution is quasi-unitary in the metric inner product.

    Sites with β_n = ∞ are left out: they are decoupled horizon sites, whose
    row and column of H vanish, so their amplitude never changes.
    """
    w = np.repeat(beta, 2)
    keep = ~np.isinf(w)
    return float(np.sqrt(np.real(np.sum(w[keep] * np.abs(values[keep]) ** 2))))


def _time_steps(t0: float, t1: float, dt: float) -> tuple[int, int]:
    """(whole, count) of the grid t_i = t0 + i·dt covering [t0, t1].

    A span within 1e-9 steps of a whole number of steps takes that many
    steps of exactly dt, so a static run needs a single step matrix; any
    other span ends with one short step, so ``count`` is ``whole`` or
    ``whole + 1``.
    """
    if dt <= 0:
        raise EvolveError(f"time step must be positive, got dt={dt}")
    if t1 <= t0:
        raise EvolveError(f"need t1 > t0, got [{t0}, {t1}]")
    ratio = (t1 - t0) / dt
    if not ratio < sys.maxsize:  # also catches an infinite span
        raise EvolveError(f"[{t0}, {t1}] holds too many steps of dt={dt}")
    whole = math.floor(ratio + 1e-9)
    return whole, whole + (ratio - whole > 1e-12)


class Route:
    """One propagation run, advanced a step at a time on its exact time grid.

    Step i starts at t = t0 + i·dt; the first ``whole`` steps are exactly dt
    long, a last, shorter step, if any, ends at t1, and the run takes
    ``count`` steps.  Nothing is stored per step.  The route holds the step
    index, the evolved state ``psi`` and the prepared static step, which
    carries its own length.  ``t`` is the current grid time, ``metric`` the
    metric sampled there and ``phys`` the recorded (physical) field, and
    ``snapshots`` the states kept: one per grid time that a
    requested snapshot time reaches (the first within dt/2 of it), and the
    last state once the run is done.  Memory does not grow with the step
    count.

    ``step_operator(metric)`` yields the stepping Hamiltonian from the
    metric sampled at a step's midpoint.  ``scale(metric)``, if given, is
    the factor that maps the physical field to the evolved one (ψ̃ = scale·ψ):
    ψ0 is scaled at t0, and each state is divided by it to be recorded.  A
    t-independent metric is sampled once, at t0.  A static operator is
    built, and its step prepared, only when the step length changes; the
    step is settled for the number of steps that share that length, so a
    long run forms the dense step matrix where its products pay for forming
    it.
    """

    def __init__(
        self,
        model: MetricModel,
        psi0: SpinorField,
        t0: float,
        t1: float,
        dt: float,
        snapshot_times,
        step_operator,
        scale,
        static: bool,
    ):
        if psi0.values.shape[0] != 2 * model.L:
            raise EvolveError(
                f"initial field has {psi0.values.shape[0]} entries, expected {2 * model.L}"
            )
        self.whole, self.count = _time_steps(t0, t1, dt)
        self.t0, self.t1, self.dt = t0, t1, dt
        self.index = 0
        self._model = model
        self._fixed = None if model.time_dependent else model.sample(t0)
        self._step_operator, self._scale, self._static = step_operator, scale, static
        self._U = None
        wanted = () if snapshot_times is None else snapshot_times
        self._wanted = sorted(float(t) for t in wanted)
        self.snapshots: list[SpinorField] = []
        metric = self._sample(t0)
        self.psi = phys = psi0.values.astype(complex, copy=True)
        if scale is not None:
            self.psi *= scale(metric)
            phys = self.psi / scale(metric)
        self._record(t0, phys, metric)

    @property
    def done(self) -> bool:
        return self.index == self.count

    def _sample(self, t: float) -> SampledMetric:
        return self._fixed if self._fixed is not None else self._model.sample(t)

    def _record(self, t: float, phys: np.ndarray, metric: SampledMetric) -> None:
        self.t, self.phys, self.metric = t, phys, metric
        reached = False
        while self._wanted and t >= self._wanted[0] - self.dt / 2:
            self._wanted.pop(0)
            reached = True
        if reached or self.done:
            self.snapshots.append(SpinorField(phys.copy(), t))

    def advance(self) -> None:
        """Take the next step; on failure raise :class:`PropagationError`
        and leave the route at its last completed step."""
        i = self.index
        t = self.t0 + i * self.dt
        step = self.dt if i < self.whole else self.t1 - t
        t_next = self.t1 if i + 1 == self.count else self.t0 + (i + 1) * self.dt
        try:
            if not self._static:
                H = self._step_operator(self._sample(t + step / 2))
                psi = expm_apply(H, step, self.psi)
            else:
                if self._U is None or step != self._U.dt:
                    U = propagator(self._step_operator(self._sample(t + step / 2)), step)
                    self._U = U.for_steps(self.whole - i if i < self.whole else 1)
                psi = self._U @ self.psi
            metric = self._sample(t_next)
            phys = psi if self._scale is None else psi / self._scale(metric)
        except (MetricDomainError, SpectralError, EvolveError) as err:
            raise PropagationError(f"propagation stopped at t={t_next:g}: {err}") from err
        self.index += 1
        self.psi = psi
        self._record(t_next, phys, metric)


def _discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """‖a − b‖/‖a‖, or 0.0 where ``a`` vanishes."""
    na = np.linalg.norm(a)
    return float(np.linalg.norm(a - b) / na) if na > 0 else 0.0


def trace_rows(curved: Route, dual: Route | None = None,
               advance=Route.advance, dual_advance=Route.advance):
    """Each grid time's row ``[t, ‖ψ‖, η-norm]`` of ``curved``, as Python
    floats, plus ‖ψ − ψ̃‖/‖ψ‖ against the field of ``dual`` when it is given.

    After each row both routes take their next step, through ``advance`` and
    ``dual_advance``, so memory does not grow with the step count, and a
    failed run has yielded its rows up to its last completed step.
    """
    while True:
        phys = curved.phys
        row = [float(curved.t), float(np.linalg.norm(phys)), _eta_norm(phys, curved.metric.beta)]
        if dual is not None:
            row.append(_discrepancy(phys, dual.phys))
        yield row
        if curved.done:
            return
        advance(curved)
        if dual is not None:
            dual_advance(dual)


def _trace(route: Route) -> EvolutionTrace:
    """Run ``route`` to its end, recording its norms at every grid time.

    A :class:`PropagationError` carries the trace up to the last completed
    step as its ``partial``.
    """
    rows = []

    def trace():
        times, norms, eta_norms = map(np.asarray, zip(*rows))
        return EvolutionTrace(times, norms, eta_norms, route.snapshots)

    try:
        for row in trace_rows(route):
            rows.append(row)
    except PropagationError as err:
        err.partial = trace()
        raise
    return trace()


def curved_route(
    model: MetricModel,
    M: float,
    psi0: SpinorField,
    t0: float,
    t1: float,
    dt: float,
    bc: str = "open",
    snapshot_times=None,
) -> Route:
    """The curved-space field under H(t) built per midpoint, as a :class:`Route`."""

    def step_operator(metric):
        return build(metric, M, model.a, bc)

    return Route(
        model, psi0, t0, t1, dt, snapshot_times,
        step_operator, None, static=model.static_operator(M),
    )


def propagate(
    model: MetricModel,
    M: float,
    psi0: SpinorField,
    t0: float,
    t1: float,
    dt: float,
    bc: str = "open",
    snapshot_times=None,
) -> EvolutionTrace:
    """Evolve the curved-space field under H(t) built per midpoint."""
    return _trace(curved_route(model, M, psi0, t0, t1, dt, bc, snapshot_times))


def dual_route(
    model: MetricModel,
    M: float,
    psi0: SpinorField,
    t0: float,
    t1: float,
    dt: float,
    bc: str = "open",
    snapshot_times=None,
) -> Route:
    """The flat-spacetime dual of a conformally flat metric, as a :class:`Route`.

    Requires α ≡ β (:attr:`MetricModel.conformally_flat`).  The rescaled
    field ψ̃ = D(t)ψ evolves under the flat kinetic term plus the
    renormalized mass M·α_n(t); the route records the physical field
    ψ(t) = D(t)⁻¹ψ̃(t).
    """
    if not model.conformally_flat:
        if model.alpha_expr is not None:  # a metric given by expressions
            raise EvolveError("dual propagation needs alpha = beta (conformally flat)")
        raise EvolveError(f"metric family {model.family!r} is not conformally flat")
    L, a = model.L, model.a
    # the flat kinetic band has no ±1 diagonals (its mass entries are exactly
    # 0), so each step shares it and adds a fresh mass diagonal M·α_n(t)
    flat = SampledMetric(t=0.0, alpha=np.ones(L), beta=np.ones(L), dlog_beta_dt=np.zeros(L))
    kinetic = build(flat, M=0.0, a=a, bc=bc).diagonals

    def sqrt_alpha(metric):
        if np.any(metric.alpha == 0.0):
            raise EvolveError(f"alpha vanishes at t={metric.t:g}: dual rescaling is singular")
        return np.repeat(np.sqrt(metric.alpha), 2)

    def step_operator(metric):
        diagonals = kinetic
        if M != 0.0:
            mass = np.zeros(2 * L - 1, dtype=complex)
            mass[::2] = M * metric.alpha  # entries (2n, 2n+1) and (2n+1, 2n)
            diagonals = {**kinetic, 1: mass, -1: mass}
        return LatticeOperator(diagonals, 2 * L)

    static = (M == 0.0) or not model.time_dependent
    return Route(
        model, psi0, t0, t1, dt, snapshot_times,
        step_operator, sqrt_alpha, static=static,
    )


def dual_propagate(
    model: MetricModel,
    M: float,
    psi0: SpinorField,
    t0: float,
    t1: float,
    dt: float,
    bc: str = "open",
    snapshot_times=None,
) -> EvolutionTrace:
    """Evolve via the flat-spacetime dual of a conformally flat metric
    (see :func:`dual_route`); the trace is for the physical field."""
    return _trace(dual_route(model, M, psi0, t0, t1, dt, bc, snapshot_times))


# ---------------------------------------------------------------------------
# Initial states


def plane_wave(k: float, branch: int, L: int, a: float = 1.0) -> SpinorField:
    """Normalized plane wave e^{ikna}·φ±/√L.

    ``branch`` selects the eigenvector of the hopping kernel γ₀γ¹ = −σ_z
    with eigenvalue ±1: φ₊ = (0,1), φ₋ = (1,0).  Under the flat massless
    periodic chain this is an eigenstate with E = ±sin(ka)/a.
    """
    if branch not in (+1, -1):
        raise EvolveError(f"branch must be +1 or -1, got {branch}")
    if not (-math.pi / a < k <= math.pi / a):
        raise EvolveError(f"momentum {k} outside the Brillouin zone (-pi/a, pi/a]")
    phi = np.array([0.0, 1.0], dtype=complex) if branch == +1 else np.array([1.0, 0.0], dtype=complex)
    phase = np.exp(1j * k * a * np.arange(L))
    return SpinorField((phase[:, None] * phi[None, :]).ravel() / math.sqrt(L), 0.0)


def gaussian_packet(
    center: float, width: float, k: float, L: int, a: float = 1.0, branch: int = +1
) -> SpinorField:
    """Normalized Gaussian wave packet exp(−(x−c)²/4w²)·e^{ikx}·φ±."""
    if width <= 0:
        raise EvolveError(f"width must be positive, got {width}")
    try:
        spread = 4.0 * width**2
    except OverflowError:  # a float's square beyond the float range
        spread = math.inf
    if not 0.0 < spread < math.inf:
        raise EvolveError(f"width {width:g} leaves the float range: 4·width² = {spread:g}")
    wave = plane_wave(k, branch, L, a)
    x = np.repeat(np.arange(L) * a, 2)
    with np.errstate(over="ignore"):  # (x − c)² = inf gives the limit 0
        envelope = np.exp(-((x - center) ** 2) / spread)
    values = wave.values * envelope
    nrm = np.linalg.norm(values)
    if nrm == 0.0:
        raise EvolveError("packet has no support on the lattice")
    return SpinorField(values / nrm, 0.0)


def single_site(site: int, L: int, component: int = 0) -> SpinorField:
    """Unit kick on one spinor component of one site."""
    if not 0 <= site < L:
        raise EvolveError(f"site {site} outside 0..{L - 1}")
    if component not in (0, 1):
        raise EvolveError(f"spinor component must be 0 or 1, got {component}")
    values = np.zeros(2 * L, dtype=complex)
    values[2 * int(site) + int(component)] = 1.0
    return SpinorField(values, 0.0)
