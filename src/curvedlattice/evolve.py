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
products), so no dense matrix is formed, unless a static step is applied
so often, or is so long, that forming the dense step matrix and applying it
is estimated to cost less than the band products.

:func:`dual_propagate` evolves the rescaled field ψ̃ = D(t)ψ (with
D = diag(√α_n)⊗I₂) under the flat-kinetic Hamiltonian with site-dependent
mass M·α_n(t), then maps back.  For conformally flat metrics (α = β) the two
routes describe the same physics, so their difference is pure integrator
error — which makes the pair a built-in cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CurvedLatticeError
from .metric import MetricDomainError, MetricModel, SampledMetric
from .operator import LatticeOperator, build
from .spectral import SpectralError, expm_apply, propagator


class EvolveError(CurvedLatticeError):
    """Invalid propagation request."""


class PropagationError(EvolveError):
    """Failure mid-run; carries the trace accumulated so far."""

    exit_code = 3

    def __init__(self, message: str, partial: "EvolutionTrace | None" = None):
        super().__init__(message)
        self.partial = partial


@dataclass
class SpinorField:
    """Site-major two-component field: values[2n+s] is component s at site n."""

    values: np.ndarray
    t: float = 0.0

    @property
    def L(self) -> int:
        return self.values.shape[0] // 2

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass
class EvolutionTrace:
    """Recorded norms (and optional snapshots) of one propagation run."""

    times: np.ndarray
    norms: np.ndarray
    eta_norms: np.ndarray
    snapshots: list[SpinorField] = field(default_factory=list)
    dt: float = 0.0
    scheme: str = "midpoint-exponential"

    @property
    def final(self) -> SpinorField:
        if not self.snapshots:
            raise EvolveError("no snapshots stored")
        return self.snapshots[-1]


def _eta_norm(values: np.ndarray, beta: np.ndarray) -> float:
    """Curved-space norm √(ψ† diag(β_n) ψ): conserved where the lattice
    evolution is quasi-unitary in the metric inner product.

    Sites with β_n = ∞ are left out: they are decoupled horizon sites, whose
    row and column of H vanish, so their amplitude never changes.
    """
    w = np.repeat(beta, 2)
    keep = ~np.isinf(w)
    return float(np.sqrt(np.real(np.sum(w[keep] * np.abs(values[keep]) ** 2))))


def _time_steps(t0: float, t1: float, dt: float):
    """(t, step, t_next) triples covering [t0, t1] on the grid t_i = t0 + i·dt.

    A span within 1e-9 steps of a whole number of steps takes that many
    steps of exactly dt, so a static run needs a single step matrix; any
    other span ends with one short step.  t_next of the last step is t1.
    """
    if dt <= 0:
        raise EvolveError(f"time step must be positive, got dt={dt}")
    if t1 <= t0:
        raise EvolveError(f"need t1 > t0, got [{t0}, {t1}]")
    ratio = (t1 - t0) / dt
    count = math.floor(ratio + 1e-9)  # whole steps
    short = ratio - count > 1e-12
    grid = [t0 + i * dt for i in range(count + short)] + [t1]
    steps = [(t, dt, t_next) for t, t_next in zip(grid, grid[1:])]
    if short:
        steps[-1] = (grid[-2], t1 - grid[-2], t1)
    return steps


def _run_length(steps, i: int) -> int:
    """How many steps from the i-th on share its length."""
    step, count = steps[i][1], 1
    while i + count < len(steps) and steps[i + count][1] == step:
        count += 1
    return count


def _snapshot_set(snapshot_times):
    if snapshot_times is None:
        return []
    if snapshot_times == "all":
        return "all"
    return sorted(float(t) for t in snapshot_times)


class _SnapshotRecorder:
    """Keeps the states a run reports: one per requested time (the first
    step within dt/2 of it), every step for ``"all"``, and always the last."""

    def __init__(self, snapshot_times, dt: float):
        self.wanted = _snapshot_set(snapshot_times)
        self.dt = dt
        self.snapshots: list[SpinorField] = []

    def offer(self, t: float, values: np.ndarray) -> None:
        if self.wanted == "all":
            self.snapshots.append(SpinorField(values.copy(), t))
            return
        while self.wanted and t >= self.wanted[0] - self.dt / 2:
            self.wanted.pop(0)
            self.snapshots.append(SpinorField(values.copy(), t))

    def finish(self, t: float, values: np.ndarray) -> list[SpinorField]:
        if not self.snapshots or self.snapshots[-1].t < t:
            self.snapshots.append(SpinorField(values.copy(), t))
        return self.snapshots


def select_snapshots(trace: EvolutionTrace, snapshot_times) -> list[SpinorField]:
    """The snapshots a run with ``snapshot_times`` records, taken from a
    trace that was recorded with ``snapshot_times="all"``."""
    recorder = _SnapshotRecorder(snapshot_times, trace.dt)
    for snap in trace.snapshots:
        recorder.offer(snap.t, snap.values)
    last = trace.snapshots[-1]
    return recorder.finish(last.t, last.values)


def _run(
    model: MetricModel,
    psi0: SpinorField,
    t0: float,
    t1: float,
    dt: float,
    snapshot_times,
    build_step_operator,
    transform,
    static: bool,
):
    """Shared trace loop for both propagation routes.

    ``build_step_operator(metric)`` yields the stepping Hamiltonian from the
    metric sampled at a step's midpoint; ``transform(values, metric)`` maps
    the internally evolved field to the physical one recorded in the trace.
    A t-independent metric is sampled once, at t0.  A static operator is
    built, and its step prepared, only when the step length changes; the step
    is settled for the number of steps that share that length, so a long run
    forms the dense step matrix where its products pay for forming it.
    """
    if psi0.values.shape[0] != 2 * model.L:
        raise EvolveError(
            f"initial field has {psi0.values.shape[0]} entries, expected {2 * model.L}"
        )
    steps = _time_steps(t0, t1, dt)
    recorder = _SnapshotRecorder(snapshot_times, dt)
    fixed = None if model.time_dependent else model.sample(t0)

    def sample(t):
        return fixed if fixed is not None else model.sample(t)

    times = [t0]
    psi = psi0.values.astype(complex, copy=True)
    metric = sample(t0)
    phys = transform(psi, metric)
    norms = [float(np.linalg.norm(phys))]
    eta_norms = [_eta_norm(phys, metric.beta)]

    recorder.offer(t0, phys)
    U, U_step = None, None
    for i, (t, step, t_next) in enumerate(steps):
        try:
            if not static:
                psi = expm_apply(build_step_operator(sample(t + step / 2)), step, psi)
            else:
                if step != U_step:
                    U = propagator(build_step_operator(sample(t + step / 2)), step)
                    U = U.for_steps(_run_length(steps, i))
                    U_step = step
                psi = U @ psi
                if not np.all(np.isfinite(psi)):
                    raise SpectralError("overflow in nonunitary propagation")
            metric = sample(t_next)
            phys = transform(psi, metric)
            eta = _eta_norm(phys, metric.beta)
        except (MetricDomainError, SpectralError, EvolveError) as err:
            partial = EvolutionTrace(
                np.asarray(times), np.asarray(norms), np.asarray(eta_norms),
                recorder.snapshots, dt,
            )
            raise PropagationError(f"propagation stopped at t={t_next:g}: {err}", partial) from err
        times.append(t_next)
        norms.append(float(np.linalg.norm(phys)))
        eta_norms.append(eta)
        recorder.offer(t_next, phys)
    return EvolutionTrace(
        np.asarray(times), np.asarray(norms), np.asarray(eta_norms),
        recorder.finish(times[-1], phys), dt,
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

    def step_operator(metric):
        return build(metric, M, model.a, bc)

    return _run(
        model, psi0, t0, t1, dt, snapshot_times,
        step_operator, lambda v, metric: v, static=model.static_operator(M),
    )


def _flat_kinetic(L: int, a: float, bc: str, t: float) -> dict[int, np.ndarray]:
    flat = SampledMetric(
        t=t, alpha=np.ones(L), beta=np.ones(L), dlog_beta_dt=np.zeros(L), provenance="flat"
    )
    return build(flat, M=0.0, a=a, bc=bc).diagonals


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
    """Evolve via the flat-spacetime dual of a conformally flat metric.

    Requires α = β (Weyl, linear-conformal, or a custom metric with equal
    expressions).  The rescaled field ψ̃ = D(t)ψ evolves under the flat
    kinetic term plus the renormalized mass M·α_n(t); the recorded trace is
    for the physical field ψ(t) = D(t)⁻¹ψ̃(t).
    """
    if model.family == "custom":
        if model.alpha_expr != model.beta_expr:
            raise EvolveError("dual propagation needs alpha = beta (conformally flat)")
    elif model.family not in ("flat", "weyl", "linear_conformal"):
        raise EvolveError(f"metric family {model.family!r} is not conformally flat")
    L, a = model.L, model.a
    # the flat kinetic band has no ±1 diagonals (its mass entries are exactly
    # 0), so each step shares it and adds a fresh mass diagonal M·α_n(t)
    kinetic = _flat_kinetic(L, a, bc, t0)

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
        return LatticeOperator(
            diagonals=diagonals, dim=2 * L, t=metric.t, bc=bc, mass=M, spacing=a,
            provenance=f"dual:{model.provenance()}",
        )

    def transform(values, metric):
        return values / sqrt_alpha(metric)

    psi0_tilde = SpinorField(psi0.values * sqrt_alpha(model.sample(t0)), psi0.t)
    static = (M == 0.0) or not model.time_dependent
    return _run(
        model, psi0_tilde, t0, t1, dt, snapshot_times,
        step_operator, transform, static=static,
    )


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
    wave = plane_wave(k, branch, L, a)
    x = np.repeat(np.arange(L) * a, 2)
    envelope = np.exp(-((x - center) ** 2) / (4.0 * width**2))
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
    values[2 * site + component] = 1.0
    return SpinorField(values, 0.0)
