import math

import numpy as np
import pytest

from curvedlattice.expr import ExpressionError, parse
from curvedlattice.metric import MetricDomainError, MetricError, MetricModel, distance_profile


def test_rindler_closed_form():
    m = MetricModel.rindler(q=0.002, L=10, a=1.0)
    s = m.sample(0.0)
    assert s.alpha[3] == pytest.approx(0.006, rel=1e-15)
    assert s.beta[3] == 1.0
    assert np.all(s.dlog_beta_dt == 0.0)


def test_de_sitter_origin_and_product():
    m = MetricModel.de_sitter(q=1.0 / 9.0, L=10)
    s = m.sample(0.0)
    assert s.alpha[0] == 1.0
    assert s.beta[0] == 1.0
    # alpha = 1/beta by construction; the product is 1 to one rounding
    prod = s.alpha[:-1] * s.beta[:-1]
    assert np.all(np.abs(prod - 1.0) <= 2 * np.finfo(float).eps)


def test_de_sitter_pinned_horizon_is_exact():
    L = 500
    m = MetricModel.de_sitter(q=1.0 / (L - 1), L=L)
    s = m.sample(0.0)
    assert s.alpha[-1] == 0.0
    assert np.isinf(s.beta[-1])
    assert np.all(s.alpha[:-1] > 0)


def test_de_sitter_beyond_horizon_rejected():
    m = MetricModel.de_sitter(q=0.5, L=10)
    with pytest.raises(MetricDomainError):
        m.sample(0.0)


def test_weyl_closed_form():
    m = MetricModel.weyl(q=0.01, r=0.5, L=8)
    s = m.sample(0.0)
    assert np.all(s.dlog_beta_dt == 0.5)
    assert s.alpha[3] == pytest.approx(math.exp(0.03), rel=1e-15)
    s1 = m.sample(2.0)
    assert s1.alpha[3] == pytest.approx(math.exp(1.0 + 0.03), rel=1e-14)
    assert np.all(s1.alpha == s1.beta)


def test_weyl_sample_below_the_normal_range_is_a_domain_error():
    # e^(rt+qx) never vanishes: a sample under the smallest normal float is
    # reported like its overflow, not passed on as a horizon
    m = MetricModel.weyl(q=0.01, r=-1000.0, L=8)
    assert np.all(m.sample(0.7).alpha >= np.finfo(float).tiny)
    with pytest.raises(MetricDomainError, match=r"below the normal float range at site 0, t=0\.71$"):
        m.sample(0.71)


def test_linear_conformal_domain():
    m = MetricModel.linear_conformal(q=0.1, r=0.5, L=5)
    s = m.sample(0.25)
    w = 0.5 * 0.25 + 0.1 * np.arange(5)
    assert s.alpha == pytest.approx(w)
    assert s.dlog_beta_dt == pytest.approx(0.5 / w)
    # w_0 = 0 at t=0 with r != 0 diverges
    with pytest.raises(MetricDomainError):
        m.sample(0.0)
    # negative w rejected
    with pytest.raises(MetricDomainError):
        m.sample(-1.0)
    # r = 0 static case allows w_0 = 0
    m0 = MetricModel.linear_conformal(q=0.1, r=0.0, L=5)
    s0 = m0.sample(3.0)
    assert s0.alpha[0] == 0.0
    assert np.all(s0.dlog_beta_dt == 0.0)


def test_custom_metric_matches_weyl():
    m = MetricModel.custom("exp(r*t+q*x)", "exp(r*t+q*x)", L=6, params={"q": 0.01, "r": 0.5})
    ref = MetricModel.weyl(q=0.01, r=0.5, L=6)
    s, sr = m.sample(0.7), ref.sample(0.7)
    assert s.alpha == pytest.approx(sr.alpha, rel=1e-14)
    assert s.dlog_beta_dt == pytest.approx(sr.dlog_beta_dt, rel=1e-12)


def test_custom_dbeta_is_derived_from_beta():
    # the model built directly, not through `custom`, still carries ∂₀β
    m = MetricModel("custom", 4, alpha_expr=parse("1"), beta_expr=parse("1+t*x"))
    x = np.arange(4.0)
    assert m.sample(0.5).dlog_beta_dt == pytest.approx(x / (1 + 0.5 * x), rel=1e-15)
    with pytest.raises(TypeError):
        MetricModel("custom", 4, alpha_expr=parse("1"), beta_expr=parse("1"), dbeta_expr=parse("0"))
    with pytest.raises(ExpressionError):
        MetricModel("custom", 4, alpha_expr=parse("1"), beta_expr=parse("1+abs(t)"))


def test_custom_negative_sample_is_hard_error():
    m = MetricModel.custom("1-x", "1", L=5)
    with pytest.raises(MetricDomainError, match="negative"):
        m.sample(0.0)


def test_validation_errors():
    with pytest.raises(MetricError):
        MetricModel.rindler(q=-1.0, L=10)
    with pytest.raises(MetricError):
        MetricModel.flat(L=1)
    with pytest.raises(MetricError):
        MetricModel("flat", L=10, a=0.0)
    with pytest.raises(MetricError):
        MetricModel.custom("q*x", "1", L=4)  # q unbound


def test_time_dependence_flags():
    assert not MetricModel.flat(L=4).time_dependent
    assert not MetricModel.rindler(q=1.0, L=4).time_dependent
    assert not MetricModel.weyl(q=1.0, r=0.0, L=4).time_dependent
    assert MetricModel.weyl(q=1.0, r=0.5, L=4).time_dependent
    assert MetricModel.custom("exp(t)", "1", L=4).time_dependent
    assert not MetricModel.custom("exp(x)", "1", L=4).time_dependent
    # massless Weyl assembles to a static operator, massive does not
    w = MetricModel.weyl(q=1.0, r=0.5, L=4)
    assert w.static_operator(0.0)
    assert not w.static_operator(1.0)


def test_static_families_sample_identically_at_all_times():
    for m in [
        MetricModel.flat(L=7),
        MetricModel.rindler(q=0.3, L=7),
        MetricModel.de_sitter(q=0.1, L=7),
        MetricModel.anti_de_sitter(q=0.1, L=7),
        MetricModel.weyl(q=0.2, r=0.0, L=7),
    ]:
        s1, s2 = m.sample(0.0), m.sample(5.0)
        assert np.array_equal(s1.alpha, s2.alpha)
        assert np.array_equal(s1.beta, s2.beta)
        assert np.array_equal(s1.dlog_beta_dt, s2.dlog_beta_dt)


@pytest.mark.parametrize(
    "model,t",
    [
        (MetricModel.weyl(q=0.05, r=0.7, L=9), 0.4),
        (MetricModel.weyl(q=0.05, r=-0.3, L=9), 1.2),
        (MetricModel.linear_conformal(q=0.1, r=0.5, L=9), 0.8),
        (MetricModel.custom("exp(r*t)+x", "1+r*t*t", L=9, params={"r": 0.4}), 0.6),
    ],
)
def test_dlog_matches_finite_difference(model, t):
    h = 1e-6
    s = model.sample(t)
    lp = np.log(model.sample(t + h).beta)
    lm = np.log(model.sample(t - h).beta)
    fd = (lp - lm) / (2 * h)
    assert s.dlog_beta_dt == pytest.approx(fd, abs=1e-6)


def test_distance_profile():
    flat = MetricModel.flat(L=5).sample()
    assert np.all(distance_profile(flat) == 0.0)
    weyl = MetricModel.weyl(q=0.01, r=0.0, L=5).sample()
    assert distance_profile(weyl) == pytest.approx(-0.01 * np.arange(5), abs=1e-15)
    rindler = MetricModel.rindler(q=0.1, L=5).sample()
    d = distance_profile(rindler)
    assert np.isinf(d[0]) and d[0] > 0


@pytest.mark.parametrize("expressions", [{}, {"alpha_expr": parse("1")}, {"beta_expr": parse("1")}],
                         ids=["neither", "alpha-only", "beta-only"])
def test_a_custom_model_needs_both_expressions(expressions):
    with pytest.raises(MetricError, match="^custom metric requires alpha and beta expressions$"):
        MetricModel("custom", 4, **expressions)
