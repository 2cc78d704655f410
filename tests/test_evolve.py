import re

import numpy as np
import pytest

from curvedlattice import evolve
from curvedlattice.evolve import (
    EvolveError,
    PropagationError,
    dual_propagate,
    dual_route,
    gaussian_packet,
    plane_wave,
    propagate,
    single_site,
)
from curvedlattice.metric import MetricModel
from curvedlattice.operator import LatticeOperator, build
from curvedlattice.spectral import StepOperator, expm_apply, propagator


def _final(trace):
    return trace.snapshots[-1].values


def test_plane_wave_spinors():
    pw = plane_wave(0.0, +1, L=5)
    assert pw.values[0] == 0.0 and pw.values[1] != 0.0  # phi_+ = (0, 1)
    assert pw.norm == pytest.approx(1.0, rel=1e-14)
    plus, minus = plane_wave(0.4, +1, L=8), plane_wave(0.4, -1, L=8)
    assert abs(np.vdot(plus.values, minus.values)) == 0.0


def test_plane_wave_is_flat_pbc_eigenstate():
    L, a = 16, 1.0
    H = build(MetricModel.flat(L=L).sample(), M=0.0, a=a, bc="periodic").matrix
    k = 2 * np.pi * 3 / (L * a)
    for branch in (+1, -1):
        pw = plane_wave(k, branch, L, a)
        Hpsi = H @ pw.values
        E = branch * np.sin(k * a) / a
        assert np.linalg.norm(Hpsi - E * pw.values) < 1e-14


def test_plane_wave_validation():
    with pytest.raises(EvolveError):
        plane_wave(0.1, 0, L=4)
    with pytest.raises(EvolveError):
        plane_wave(4.0, +1, L=4)  # outside the zone


def test_initial_state_builders():
    g = gaussian_packet(center=10.0, width=3.0, k=0.5, L=30)
    assert g.norm == pytest.approx(1.0, rel=1e-14)
    s = single_site(7, L=20, component=1)
    assert s.values[15] == 1.0 and np.count_nonzero(s.values) == 1
    with pytest.raises(EvolveError):
        single_site(25, L=20)
    with pytest.raises(EvolveError):
        gaussian_packet(10.0, -1.0, 0.5, L=30)


def test_flat_norm_conserved():
    model = MetricModel.flat(L=60)
    psi0 = gaussian_packet(30.0, 6.0, 0.5, 60)
    trace = propagate(model, 0.5, psi0, 0.0, 10.0, 1e-2)
    assert np.abs(trace.norms - trace.norms[0]).max() < 1e-8
    assert trace.times[-1] == pytest.approx(10.0)


def test_time_dependent_rindler_like_norm_conserved():
    # alpha(x, t) with beta = 1 stays hermitian at every instant
    model = MetricModel.custom("(0.02+0.01*t)*x", "1", L=50)
    psi0 = gaussian_packet(25.0, 5.0, 0.5, 50)
    trace = propagate(model, 0.0, psi0, 0.0, 2.0, 1e-2)
    assert np.abs(trace.norms - trace.norms[0]).max() < 1e-8


def test_weyl_loss_and_gain():
    psi0 = gaussian_packet(50.0, 8.0, np.pi / 2, 100)
    loss = propagate(MetricModel.weyl(q=0.01, r=0.5, L=100), 0.0, psi0, 0.0, 0.5, 1e-2)
    assert np.all(np.diff(loss.norms) < 0)
    gain = propagate(MetricModel.weyl(q=0.01, r=-0.3, L=100), 0.0, psi0, 0.0, 0.5, 1e-2)
    assert np.all(np.diff(gain.norms) > 0)


def test_weyl_decay_rate_matches_antihermitian_part():
    # d ln|psi| / dt = psi†(H - H†)psi / (2i |psi|²); for k = pi/2 the
    # asymmetric-hopping contribution vanishes and the rate is -r/2
    r, L = 0.5, 100
    model = MetricModel.weyl(q=0.01, r=r, L=L)
    psi0 = gaussian_packet(50.0, 8.0, np.pi / 2, L)
    dt = 1e-3
    trace = propagate(model, 0.0, psi0, 0.0, 0.1, dt)
    rate = np.diff(np.log(trace.norms)) / np.diff(trace.times)
    assert abs(rate[20] + r / 2) < 1e-3

    # general-k oracle: compare against the exact instantaneous expression
    psi_k = gaussian_packet(50.0, 8.0, np.pi / 8, L)
    tr = propagate(model, 0.0, psi_k, 0.0, 2 * dt, dt)
    H = build(model.sample(dt / 2), 0.0, model.a).matrix
    v = psi_k.values
    expected = (v.conj() @ ((H - H.conj().T) @ v)) / (2j * np.vdot(v, v))
    measured = (np.log(tr.norms[1]) - np.log(tr.norms[0])) / dt
    assert measured == pytest.approx(float(expected.real), abs=1e-3)


def test_duality_agreement_weyl():
    model = MetricModel.weyl(q=0.01, r=0.5, L=100)
    psi0 = gaussian_packet(50.0, 8.0, np.pi / 8, 100)
    a = propagate(model, 0.0, psi0, 0.0, 1.0, 1e-3)
    b = dual_propagate(model, 0.0, psi0, 0.0, 1.0, 1e-3)
    fa, fb = _final(a), _final(b)
    assert np.linalg.norm(fa - fb) / np.linalg.norm(fa) < 1e-6


def test_duality_integrator_second_order():
    # linear-conformal: the rescaling D(t) does not factorize in time, so the
    # route difference is pure midpoint-integrator error, which is O(dt²);
    # with M > 0 the dual route's mass M·α_n(t) changes at every step
    model = MetricModel.linear_conformal(q=0.01, r=0.5, L=60)
    psi0 = gaussian_packet(30.0, 6.0, np.pi / 8, 60)

    def disc(M, dt):
        fa = _final(propagate(model, M, psi0, 0.25, 0.75, dt))
        fb = _final(dual_propagate(model, M, psi0, 0.25, 0.75, dt))
        return np.linalg.norm(fa - fb) / np.linalg.norm(fa)

    for M in (0.0, 1.0):
        assert 3.5 < disc(M, 4e-3) / disc(M, 2e-3) < 4.5


def test_dual_static_weyl_eta_norm_conserved():
    # r = 0: quasi-hermitian chain; the metric inner product is conserved
    model = MetricModel.weyl(q=0.05, r=0.0, L=60)
    psi0 = gaussian_packet(30.0, 6.0, 0.7, 60)
    a = propagate(model, 0.0, psi0, 0.0, 1.0, 1e-2)
    b = dual_propagate(model, 0.0, psi0, 0.0, 1.0, 1e-2)
    for tr in (a, b):
        assert np.abs(tr.eta_norms - tr.eta_norms[0]).max() < 1e-8


def test_weyl_plane_wave_profile():
    # psi_n(t) = e^{i(omega t + k n a)} e^{-(rt+qna)/2} phi, with the lattice
    # omega fixed by the dual flat chain: E = branch·sin(ka)/a and
    # phase e^{-iEt}; check the modulus profile in the bulk
    q, r, L = 0.01, 0.5, 120
    model = MetricModel.weyl(q=q, r=r, L=L)
    k = np.pi / 2
    pw = plane_wave(k, +1, L)
    alpha0 = model.sample(0.0).alpha
    psi0_vals = pw.values / np.repeat(np.sqrt(alpha0), 2)
    from curvedlattice.evolve import SpinorField

    t1 = 0.4
    trace = propagate(model, 0.0, SpinorField(psi0_vals, 0.0), 0.0, t1, 1e-3)
    got = _final(trace)
    alpha1 = model.sample(t1).alpha
    expected_mod = np.abs(pw.values) / np.repeat(np.sqrt(alpha1), 2)
    bulk = slice(2 * 20, 2 * 100)  # away from open ends
    np.testing.assert_allclose(np.abs(got)[bulk], expected_mod[bulk], rtol=2e-2)


def test_dual_requires_conformally_flat():
    model = MetricModel.rindler(q=0.1, L=20)
    with pytest.raises(EvolveError):
        dual_propagate(model, 0.0, single_site(5, 20), 0.0, 1.0, 1e-2)


@pytest.mark.parametrize("model,message", [
    (MetricModel.flat(L=6), None),
    (MetricModel.weyl(q=0.1, r=0.2, L=6), None),
    (MetricModel.linear_conformal(q=0.1, r=0.2, L=6), None),
    (MetricModel.custom("exp(c*x+t)", "exp(c*x+t)", L=6, params={"c": 0.1}), None),
    (MetricModel.rindler(q=0.1, L=6), "metric family 'rindler' is not conformally flat"),
    (MetricModel.de_sitter(q=0.1, L=6), "metric family 'de_sitter' is not conformally flat"),
    (MetricModel.anti_de_sitter(q=0.1, L=6),
     "metric family 'anti_de_sitter' is not conformally flat"),
    (MetricModel.custom("exp(0.1*x)", "exp(0.1*x+0*t)", L=6),
     "dual propagation needs alpha = beta (conformally flat)"),
], ids=["flat", "weyl", "linear_conformal", "custom-equal", "rindler", "de_sitter",
        "anti_de_sitter", "custom-unequal"])
def test_dual_route_takes_exactly_the_conformally_flat_metrics(model, message):
    # α ≡ β is decided on the trees as written: exp(0.1*x+0*t) is not exp(0.1*x)
    assert model.conformally_flat is (message is None)
    psi0 = single_site(2, 6)
    if message is None:
        assert not dual_route(model, 0.5, psi0, 0.1, 0.12, 1e-2).done
    else:
        with pytest.raises(EvolveError) as err:
            dual_route(model, 0.5, psi0, 0.1, 0.12, 1e-2)
        assert str(err.value) == message


def test_domain_violation_mid_run_flushes_partial():
    # alpha(t) = 1 - t/2 turns negative at t = 2, mid-window
    model = MetricModel.custom("1-0.5*t", "1", L=40)
    psi0 = gaussian_packet(20.0, 5.0, 0.5, 40)
    with pytest.raises(PropagationError) as err:
        propagate(model, 0.0, psi0, 0.0, 3.0, 1e-2)
    partial = err.value.partial
    assert partial is not None
    assert partial.times.size > 1
    assert 1.9 < partial.times[-1] < 2.1


def test_snapshots_at_requested_times():
    model = MetricModel.flat(L=30)
    psi0 = gaussian_packet(15.0, 4.0, 0.3, 30)
    trace = propagate(model, 0.0, psi0, 0.0, 1.0, 1e-2, snapshot_times=[0.0, 0.5, 1.0])
    times = [s.t for s in trace.snapshots]
    assert times[0] == 0.0
    assert any(abs(t - 0.5) < 1e-2 for t in times)
    assert times[-1] == pytest.approx(1.0)


def test_static_run_builds_one_step_matrix(monkeypatch):
    # 0.25 / 1e-3 leaves the accumulated last step a few ulps short of dt;
    # it must still reuse the cached step matrix.  A static operator is built
    # once per step length, and a t-independent metric is sampled a fixed
    # number of times, whatever the step count.
    calls, builds, samples = [], [], []
    sample = MetricModel.sample

    def counting_propagator(H, dt):
        calls.append(dt)
        return propagator(H, dt)

    def counting_build(*args, **kwargs):
        builds.append(args[0].t)
        return build(*args, **kwargs)

    def counting_sample(self, t=0.0):
        samples.append(t)
        return sample(self, t)

    monkeypatch.setattr(evolve, "propagator", counting_propagator)
    monkeypatch.setattr(evolve, "build", counting_build)
    monkeypatch.setattr(MetricModel, "sample", counting_sample)
    weyl = MetricModel.weyl(q=0.05, r=0.3, L=20)  # massless Weyl: static operator
    static_custom = MetricModel.custom("exp(0.002*x)", "exp(0.002*x)", L=20)
    psi0 = gaussian_packet(10.0, 3.0, 0.5, 20)
    for model in (weyl, static_custom):
        for route in (propagate, dual_propagate):
            for counted in (calls, builds, samples):
                counted.clear()
            trace = route(model, 0.0, psi0, 0.0, 0.25, 1e-3)
            assert calls == [1e-3]
            assert len(builds) <= 1
            if not model.time_dependent:
                assert len(samples) <= 2
            assert trace.times.size == 251
            assert trace.times[-1] == 0.25

    # a short last step takes a second step matrix, built for its length
    for route in (propagate, dual_propagate):
        calls.clear()
        trace = route(weyl, 0.0, psi0, 0.0, 0.2505, 1e-3)
        assert len(calls) == 2
        assert calls[0] == 1e-3 and calls[1] == pytest.approx(5e-4, rel=1e-9)
        assert trace.times.size == 252
        assert trace.times[-1] == 0.2505
        H = build(weyl.sample(0.0), 0.0, weyl.a)
        full = expm_apply(H, 0.2505, psi0.values)
        assert np.linalg.norm(_final(trace) - full) < 1e-10 * np.linalg.norm(full)


@pytest.mark.parametrize("t1, steps", [(2.0, 2000), (4.0, 4000)])
def test_long_run_steps_on_an_exact_time_grid(t1, steps, monkeypatch):
    # t_i = t0 + i·dt: accumulating t would leave a sliver of a last step,
    # and a static route would prepare a second step for it
    calls = []

    def counting_propagator(H, dt):
        calls.append(dt)
        return propagator(H, dt)

    monkeypatch.setattr(evolve, "propagator", counting_propagator)
    trace = propagate(MetricModel.flat(L=4), 0.5, single_site(1, 4), 0.0, t1, 1e-3)
    assert calls == [1e-3]
    assert trace.times.size == steps + 1
    np.testing.assert_array_equal(trace.times[:-1], 0.0 + np.arange(steps) * 1e-3)
    assert trace.times[-1] == t1
    assert np.all(np.diff(trace.times) > 0.999e-3)


def test_time_steps_are_computed_from_their_index():
    # a route of 10^12 steps is built without storing a single step
    route = evolve.curved_route(MetricModel.flat(L=4), 0.5, single_site(1, 4), 0.0, 1.0, 1e-12)
    assert (route.whole, route.count) == (10**12, 10**12)
    route.advance()
    assert route.t == 1e-12 and not route.done
    route.index = route.count - 1  # step i is computed from i alone
    route.advance()
    assert route.t == 1.0 and route.done
    # a step count past the index range is a bad request, not a crash
    for t0, t1, dt in [(0.0, 1.0, 1e-300), (-1e308, 1e308, 1.0)]:
        with pytest.raises(EvolveError):
            evolve.curved_route(MetricModel.flat(L=4), 0.5, single_site(1, 4), t0, t1, dt)


def test_dual_route_checks_field_length_before_rescaling():
    model = MetricModel.weyl(q=0.05, r=0.3, L=20)
    for route in (propagate, dual_propagate):
        with pytest.raises(EvolveError, match="^initial field has 20 entries, expected 40$"):
            route(model, 0.0, single_site(1, 10), 0.0, 0.01, 1e-3)


def test_snapshot_times_on_one_grid_time_keep_its_state_once():
    # 0.0105 is within dt/2 of 0.01 (the short last step is dt/2 long), so
    # both requested times reach the state at 0.01; the last state is kept too
    model, psi0 = MetricModel.flat(L=4), single_site(1, 4)
    for route in (propagate, dual_propagate):
        trace = route(model, 0.5, psi0, 0.0, 0.0105, 1e-3, snapshot_times=[0.01, 0.0105])
        assert [s.t for s in trace.snapshots] == [0.01, 0.0105]


def test_time_dependent_steps_never_build_the_dense_matrix(monkeypatch):
    # both routes step a time-dependent operator on its band of diagonals
    def no_dense(self):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(LatticeOperator, "matrix", property(no_dense))
    monkeypatch.setattr(StepOperator, "form_dense", no_dense)
    model = MetricModel.linear_conformal(q=0.01, r=0.5, L=30)
    assert model.time_dependent and not model.static_operator(1.0)
    psi0 = gaussian_packet(15.0, 3.0, 0.5, 30)
    for route in (propagate, dual_propagate):
        trace = route(model, 1.0, psi0, 0.25, 0.3, 1e-3)
        assert trace.times.size == 51 and np.all(np.isfinite(trace.norms))


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize(
    "model, M",
    [
        (MetricModel.rindler(q=0.002, L=500), 0.5),  # hermitian
        (MetricModel.de_sitter(q=1 / 499, L=500), 1.0),  # quasi-hermitian, horizon site
        (MetricModel.anti_de_sitter(q=1 / 499, L=500), 1.0),
        (MetricModel.weyl(q=0.005, r=0.3, L=500), 0.0),  # static, uniform -ir/2
        (MetricModel.custom("exp(0.002*x)", "exp(0.002*x)", L=500), 0.5),
    ],
    ids=["rindler", "de_sitter", "anti_de_sitter", "massless_weyl", "custom_exp"],
)
def test_static_steps_never_build_the_dense_matrix(model, M, bc, monkeypatch):
    # at L = 500 a band step costs less than a dense product, so a static
    # step is prepared and applied on the band of diagonals
    def no_dense(self):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(LatticeOperator, "matrix", property(no_dense))
    monkeypatch.setattr(StepOperator, "form_dense", no_dense)
    assert model.static_operator(M)
    psi0 = gaussian_packet(250.0, 10.0, 0.5, 500)
    routes = [propagate]
    if model.family in ("weyl", "custom"):  # conformally flat
        routes.append(dual_propagate)
    for route in routes:
        trace = route(model, M, psi0, 0.0, 0.05, 1e-3, bc=bc)
        assert trace.times.size == 51 and np.all(np.isfinite(trace.norms))


def test_static_step_is_settled_for_its_run_length(monkeypatch):
    # each step length's step is settled for the number of steps that share
    # it: 250 full steps, then the short last one
    counts = []
    for_steps = StepOperator.for_steps

    def counting_for_steps(self, count):
        counts.append((self.dt, count))
        return for_steps(self, count)

    monkeypatch.setattr(StepOperator, "for_steps", counting_for_steps)
    weyl = MetricModel.weyl(q=0.05, r=0.3, L=20)
    psi0 = gaussian_packet(10.0, 3.0, 0.5, 20)
    for route in (propagate, dual_propagate):
        counts.clear()
        route(weyl, 0.0, psi0, 0.0, 0.2505, 1e-3)
        # propagator settles each step for one application, _run for its run
        assert [count for _, count in counts] == [1, 250, 1, 1]
        assert counts[1][0] == 1e-3 and counts[3][0] == pytest.approx(5e-4, rel=1e-9)


@pytest.mark.parametrize(
    "model, M, dt, steps, dense",
    [
        # measured against the dense route in BENCH_10.json (in_process)
        (MetricModel.rindler(q=0.02, L=250), 0.5, 0.5, 200, True),
        (MetricModel.rindler(q=0.02, L=250), 0.5, 10.0, 200, True),
        (MetricModel.rindler(q=0.02, L=250), 0.5, 1e-3, 250, False),
        (MetricModel.custom("exp(0.002*x)", "exp(0.002*x)", L=250), 0.0, 1e-3, 2000, False),
        (MetricModel.de_sitter(q=1 / 99, L=100), 1.0, 2.0**-10, 2000, True),
        (MetricModel.rindler(q=0.01, L=500), 0.5, 1e-3, 1000, False),
    ],
    ids=["rindler_dt0.5", "rindler_dt10", "rindler_dt1e-3", "custom_2000_steps",
         "de_sitter_L100_2000_steps", "rindler_L500"],
)
def test_static_route_follows_step_count(model, M, dt, steps, dense):
    # a long run forms the dense step matrix where its products pay for
    # forming it, and stays on the band where band steps are cheaper
    H = build(model.sample(0.0), M, model.a)
    U = propagator(H, dt)
    assert U.dense is None  # one step never pays for forming the matrix
    assert (U.for_steps(steps).dense is not None) == dense


def test_de_sitter_horizon_eta_norm_finite_and_conserved():
    # the horizon on the last site decouples: it is left out of the eta-norm,
    # which the quasi-hermitian chain then conserves
    model = MetricModel.de_sitter(q=1 / 39, L=40)
    trace = propagate(model, 1.0, gaussian_packet(20, 4, 0.5, 40), 0, 0.5, 1e-3)
    assert np.all(np.isfinite(trace.eta_norms))
    drift = np.abs(trace.eta_norms - trace.eta_norms[0]).max()
    assert drift <= 1e-8 * trace.eta_norms[0]


@pytest.mark.parametrize("t0, t1, dt, message", [
    (0.0, 1.0, 0.0, "time step must be positive, got dt=0.0"),
    (0.0, 1.0, -0.1, "time step must be positive, got dt=-0.1"),
    (1.0, 1.0, 0.1, "need t1 > t0, got [1.0, 1.0]"),
    (1.0, 0.5, 0.1, "need t1 > t0, got [1.0, 0.5]"),
])
def test_propagate_rejects_a_run_without_steps(t0, t1, dt, message):
    model = MetricModel.flat(L=4)
    with pytest.raises(EvolveError, match=f"^{re.escape(message)}$"):
        propagate(model, 0.0, single_site(1, 4), t0, t1, dt)
