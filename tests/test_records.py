"""The package's records keep their value semantics: the metric and its
samples and the expression nodes are immutable, an expression node equals
and hashes like only a node of its own type and fields, and no two runs
or traces share a mutable default."""

import contextlib

import numpy as np
import pytest

from curvedlattice.config import RunConfig
from curvedlattice.evolve import EvolutionTrace, SpinorField
from curvedlattice.expr import BinOp, Call, Neg, Num, Param, Var, parse
from curvedlattice.metric import MetricModel


@pytest.mark.parametrize("record,name", [
    (MetricModel.flat(L=4).sample(), "t"),
    (MetricModel.flat(L=4).sample(), "alpha"),
    (MetricModel.rindler(q=0.1, L=4), "q"),
    (MetricModel.custom("1+x", "1", L=4), "alpha_expr"),
    (MetricModel.flat(L=4), "brand_new"),
    (Var("x"), "name"),
    (BinOp("+", Num(1.0), Var("t")), "lhs"),
    (parse("sin(x)"), "brand_new"),
], ids=["sample-t", "sample-alpha", "model-q", "model-alpha_expr", "model-new", "var-name",
        "binop-lhs", "call-new"])
def test_assigning_to_an_immutable_record_raises(record, name):
    before = getattr(record, name, None)
    with pytest.raises(AttributeError):
        setattr(record, name, 2.0)
    assert getattr(record, name, None) is before


# (type, fields) of nodes that differ in their type or in one field
_NODES = [(Num, (1.0,)), (Num, (2.0,)), (Var, ("x",)), (Var, ("t",)), (Param, ("x",)),
          (Param, ("t",)), (Neg, (Var("x"),)), (Neg, (Param("x"),)), (Call, ("sin", Var("x"))),
          (Call, ("cos", Var("x"))), (BinOp, ("+", Var("x"), Num(1.0))),
          (BinOp, ("*", Var("x"), Num(1.0))), (BinOp, ("+", Param("x"), Num(1.0)))]


@pytest.mark.parametrize("i", range(len(_NODES)))
def test_expression_nodes_are_equal_exactly_when_type_and_fields_match(i):
    kind, fields = _NODES[i]
    node, twin = kind(*fields), kind(*fields)
    assert node == twin and not node != twin and hash(node) == hash(twin)
    for j, (other_kind, other_fields) in enumerate(_NODES):
        if j != i:
            other = other_kind(*other_fields)
            assert node != other and not node == other, (node, other)
    assert node != fields  # a bare tuple of the same fields is no node


def test_a_variable_is_never_its_namesake_parameter():
    assert Var("x") != Param("x") and Param("t") != Var("t")
    assert len({Var("x"), Param("x"), Var("x")}) == 2
    assert parse("x+1") == BinOp("+", Var("x"), Num(1.0))
    assert parse("x") != parse("t") and parse("2*x") != parse("2*(x)+0")


def test_run_configs_share_no_list_or_dict_default():
    first, second = RunConfig(), RunConfig()
    first.params["c"] = 1.0
    first.times.append(0.5)
    first.initial["k"] = 0.3
    first.snapshot_times.append(0.1)
    assert (second.params, second.times, second.snapshot_times) == ({}, [0.0], [])
    assert second.initial == {"kind": "plane_wave", "k": 0.0, "branch": 1}
    assert RunConfig().initial == second.initial and RunConfig().times == [0.0]


def test_run_config_takes_its_fields_by_keyword_only():
    cfg = RunConfig(L=6, family="rindler", q=0.1)
    assert (cfg.L, cfg.family, cfg.q, cfg.a) == (6, "rindler", 0.1, 1.0)
    with pytest.raises(TypeError):
        RunConfig(bogus=1)


def test_a_traces_default_snapshots_are_its_own():
    rows = (np.zeros(1), np.ones(1), np.ones(1))
    first = EvolutionTrace(*rows)
    with contextlib.suppress(AttributeError):  # a default that cannot grow at all
        first.snapshots.append(SpinorField(np.zeros(2)))
    assert len(EvolutionTrace(*rows).snapshots) == 0
