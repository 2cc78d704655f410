"""Edge values of the CLI contract, run in-process through ``front.main``.

Every case exits 0, 2 or 3 and prints no warning.  A failure prints exactly
one stderr line; a success prints nothing there.  Neither writes ``nan`` or
``inf`` into its data files, but for the two declared ones: a
``quasi_hermitian_residual`` of ``Infinity`` where the η similarity
overflows, and ``metric.csv``'s ``beta`` and ``distance`` of ``inf`` at a
horizon site (α = 0).
"""

import csv
import itertools
import json
import math
import os
import re
import warnings

import pytest

from curvedlattice.front import main

_NON_FINITE = re.compile(r"\b(?:nan|inf|NaN|Infinity)\b")


def _run(argv, out_dir, capsys):
    """Exit code, stdout, stderr and the warnings caught of one command."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--out-dir", str(out_dir)])
    out, err = capsys.readouterr()
    return code, out, err, caught


@pytest.mark.parametrize("argv,code,message", [
    # the sum of squares of a matrix of entries near 1e-200 underflows
    (["classify", "--family", "weyl", "--L", "5", "--q", "1e-201", "--r", "1e-200", "--a", "1e200"],
     0, None),
    # the default broadening is about 1e-300, and its square underflows
    (["ldos", "--family", "flat", "--L", "5", "--a", "1e300"],
     3, "numerical failure: broadening gamma=1.10266e-300 cannot be squared"),
    (["spectrum", "--family", "flat", "--L", "5", "--a", "1e-320"],
     3, "numerical failure: lattice spacing a=1e-320 must be positive"),
    (["spectrum", "--family", "rindler", "--L", "5", "--M", "1e300"], 0, None),
    (["classify", "--family", "weyl", "--L", "5", "--q", "0.05", "--r", "1e300"], 0, None),
    # β = e^{rt+qx} leaves the normal range at t = 0.71, where ‖ψ‖² ∝ 1/β overflows
    (["evolve", "--family", "weyl", "--q", "0.01", "--r", "-1000", "--L", "8", "--t1", "0.8",
      "--dt", "0.01"], 3, "numerical failure: propagation stopped at t=0.71"),
    (["evolve", "--family", "weyl", "--q", "0.01", "--r", "-1000", "--L", "8", "--t1", "0.8",
      "--dt", "0.01", "--check-duality"], 3, "numerical failure: propagation stopped at t=0.71"),
    # hops of about 1e-323: each phase of the symmetrizer is read without 1/|hop|
    (["classify", "--family", "rindler", "--L", "5", "--M", "1", "--q", "5e-324"], 0, None),
    # the mass term M·α overflows
    (["spectrum", "--family", "rindler", "--q", "1e300", "--M", "1e10", "--L", "2"],
     3, "numerical failure: non-finite entries in assembled Hamiltonian"),
    # the root √α_n·√α_m = 1e200 is finite: only its division by β overflows
    (["classify", "--family", "custom", "--alpha", "1e200", "--beta", "1e-200", "--L", "3"],
     3, "numerical failure: divergent hopping: 1e+200/1e-200 with nonvanishing alphas\n"),
    (["classify", "--family", "custom", "--alpha", "1", "--beta", "0", "--L", "3"],
     3, "numerical failure: divergent hopping: 1/0 with nonvanishing alphas\n"),
    # an energy range whose span leaves the float range: padded by 10·gamma,
    # or given as bounds
    (["ldos", "--family", "flat", "--L", "4", "--gamma", "1e308"],
     3, "numerical failure: energy grid [-inf, inf] spans beyond the float range\n"),
    (["ldos", "--family", "flat", "--L", "4", "--gamma", "1e307", "--axis", "imaginary"],
     3, "numerical failure: energy grid [-1e+308, 1e+308] spans beyond the float range\n"),
    (["ldos", "--family", "flat", "--L", "4", "--e-min=-1e308", "--e-max=1e308"],
     2, "config error: energy range [-1e+308, 1e+308] spans beyond the float range\n"),
    # the mass term is finite, but the sum of the matrix and its adjoint overflows
    (["spectrum", "--family", "flat", "--L", "4", "--M", "1e308"],
     3, "numerical failure: overflow in the hermitian part ½(A + A†) of the matrix\n"),
    (["classify", "--family", "flat", "--L", "4", "--M", "1e308"],
     3, "numerical failure: overflow in the hermitian part ½(A + A†) of the matrix\n"),
    (["ldos", "--family", "anti_de_sitter", "--L", "4", "--M", "1e308"],
     3, "numerical failure: overflow in the hermitian part ½(A + A†) of the matrix\n"),
    (["spectrum", "--family", "flat", "--L", "4", "--M", "1e307"], 0, None),
    # a lattice whose extent (L − 1)·a leaves the float range has no coordinates
    *[([command, "--family", "flat", "--L", "3", "--a", "1e308"],
       2, "config error: lattice extent (L-1)·a leaves the float range: L=3, a=1e+308\n")
      for command in ("spectrum", "ldos", "classify", "evolve", "dump")],
    (["dump", "--family", "weyl", "--q", "1e-308", "--L", "3", "--a", "1e308"],
     2, "config error: lattice extent (L-1)·a leaves the float range: L=3, a=1e+308\n"),
    *[([command, "--family", "flat", "--L", "2", "--a", "1e308"], 0, None)
      for command in ("spectrum", "ldos", "classify", "evolve", "dump")],
], ids=["classify-weyl-tiny", "ldos-flat-a1e300", "spectrum-flat-a1e-320",
        "spectrum-rindler-M1e300", "classify-weyl-r1e300", "evolve-weyl-beta-underflow",
        "evolve-weyl-beta-underflow-duality", "classify-rindler-subnormal-hops",
        "spectrum-rindler-mass-overflow", "classify-custom-divergent-hop",
        "classify-custom-zero-beta", "ldos-flat-gamma1e308", "ldos-flat-gamma1e307-imaginary",
        "ldos-flat-range-overflow", "spectrum-flat-M1e308", "classify-flat-M1e308",
        "ldos-anti-de-sitter-M1e308", "spectrum-flat-M1e307",
        *[f"{command}-flat-extent-overflow" for command in ("spectrum", "ldos", "classify", "evolve",
                                                             "dump")],
        "dump-weyl-extent-overflow",
        *[f"{command}-flat-extent-1e308" for command in ("spectrum", "ldos", "classify", "evolve",
                                                          "dump")]])
def test_edge_value_keeps_the_cli_contract(argv, code, message, tmp_path, capsys):
    got, out, err, caught = _run(argv, tmp_path, capsys)
    assert got in (0, 2, 3)
    assert [str(w.message) for w in caught] == []
    assert got == code
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(message)
        for path in tmp_path.iterdir():  # the rows a failed run wrote are finite
            assert not _NON_FINITE.search(path.read_text()), path
        return
    assert err == ""
    for path in out.splitlines():
        with open(path) as fh:
            text = fh.read()
        assert not _NON_FINITE.search(text), f"{path}: {text}"


@pytest.mark.parametrize("initial,code,message", [
    ({"width": 1e300}, 2, "config error: invalid initial state: width 1e+300 leaves the float range"),
    ({"width": 1e-200}, 2, "config error: invalid initial state: width 1e-200 leaves the float range"),
    # (x − center)² overflows: the envelope takes its limit 0 on every site
    ({"center": 1e308}, 2, "config error: invalid initial state: packet has no support on the lattice"),
    # 4·width² = 4e-320 is a positive subnormal, and the envelope a kick at the center
    ({"width": 1e-160}, 0, None),
], ids=["width1e300", "width1e-200", "center1e308", "width1e-160"])
def test_a_gaussian_at_the_float_range_edge_keeps_the_cli_contract(initial, code, message, tmp_path,
                                                                     capsys):
    (tmp_path / "run.json").write_text(json.dumps({"initial": {"kind": "gaussian", **initial}}))
    argv = ["evolve", "--config", str(tmp_path / "run.json"), "--family", "flat", "--L", "3",
            "--t1", "0.01"]
    got, out, err, caught = _run(argv, tmp_path / "out", capsys)
    assert (got, [str(w.message) for w in caught]) == (code, [])
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(message)
        return
    assert err == ""
    for path in out.splitlines():
        with open(path) as fh:
            assert not _NON_FINITE.search(fh.read()), path


def _non_finite(path) -> list[str]:
    """The non-finite values of an output file that the format does not declare."""
    name = os.path.basename(path)
    if name.startswith("symmetry"):
        with open(path) as fh:
            report = json.load(fh)
        return [f"{key}={value}" for key, value in report.items()
                if isinstance(value, float) and not math.isfinite(value)
                and not (key == "quasi_hermitian_residual" and value == math.inf)]
    with open(path) as fh:
        if not name.startswith("metric"):
            return _NON_FINITE.findall(fh.read())
        return [f"{key}={value}" for row in csv.DictReader(fh) for key, value in row.items()
                if not math.isfinite(float(value))
                and not (key in ("beta", "distance") and value == "inf" and float(row["alpha"]) == 0)]


_FAMILIES = {
    "flat": ["--family", "flat"],
    "de_sitter": ["--family", "de_sitter", "--M", "1"],
    "linear_conformal": ["--family", "linear_conformal", "--q", "0.1", "--r", "0.5", "--M", "1"],
    "custom": ["--family", "custom", "--alpha", "1+0.1*x*t", "--beta", "exp(-0.5*t)*log(2+x)^2"],
}
_EDGE_VALUES = ("0", "5e-324", "1e-300", "1e300")
# a two-step span that starts after linear_conformal's w_0 = rt leaves 0;
# the commands that take --times slice the time-dependent families at t = 0.5
_SPANS = {"evolve": ["--t0", "0.01", "--t1", "0.02", "--dt", "0.005"]}
_SLICED = ("linear_conformal", "custom")


@pytest.mark.parametrize("command,family,flag", itertools.product(
    ("spectrum", "ldos", "classify", "dump", "evolve"), _FAMILIES,
    ("--a", "--M", "--q", "--r", "--tol")))
def test_edge_value_sweep_keeps_the_cli_contract(command, family, flag, tmp_path, capsys):
    # the flag's edge value comes last, so it replaces a family setting;
    # evolve and dump take no --tol flag, so their edge tol comes from a config file
    times = ["--times", "0.5"] if family in _SLICED and command != "evolve" else []
    for value in _EDGE_VALUES:
        setting = [f"{flag}={value}"]
        if command in ("evolve", "dump") and flag == "--tol":
            (tmp_path / "run.json").write_text(json.dumps({"tol": float(value)}))
            setting = ["--config", str(tmp_path / "run.json")]
        argv = [command, *_FAMILIES[family], *times, "--L", "5", *_SPANS.get(command, ()), *setting]
        got, out, err, caught = _run(argv, tmp_path / value, capsys)
        assert got in (0, 2, 3), argv
        assert [str(w.message) for w in caught] == [], argv
        if got:
            assert len(err.splitlines()) == 1 and err.startswith(("config error:", "numerical failure:")), argv
        else:
            assert err == "", argv
        for path in (tmp_path / value).glob("*"):  # a failed run's rows included
            assert _non_finite(path) == [], (argv, path)


@pytest.mark.parametrize("command", ["classify", "spectrum"])
def test_an_overflowing_eta_similarity_reports_an_infinite_residual(command, tmp_path, capsys):
    # the one non-finite residual of the format: η = diag β cannot be formed
    argv = [command, "--family", "linear_conformal", "--L", "5", "--q", "0.1", "--times", "0.5",
            "--r", "1e-320"]
    code, _, err, caught = _run(argv, tmp_path, capsys)
    assert (code, err, caught) == (0, "", [])
    text = (tmp_path / "symmetry.json").read_text()
    assert '"quasi_hermitian_residual": Infinity,' in text
    report = json.loads(text)
    assert report["quasi_hermitian_residual"] == math.inf
    assert math.isfinite(report["hermitian_residual"]) and math.isfinite(report["pt_residual"])


def test_a_scaled_weyl_metric_classifies_as_at_unit_scale(tmp_path, capsys):
    # every entry scaled by 1e-200: the class and the relative residuals stay
    reports = []
    for i, scale in enumerate([["--q", "1e-201", "--r", "1e-200", "--a", "1e200"],
                               ["--q", "0.1", "--r", "1", "--a", "1"]]):
        argv = ["classify", "--family", "weyl", "--L", "5", *scale]
        assert _run(argv, tmp_path / str(i), capsys)[0] == 0
        reports.append(json.loads((tmp_path / str(i) / "symmetry.json").read_text()))
    tiny, unit = reports
    assert tiny["classification"] == unit["classification"] == "NonHermitian"
    for key in ("hermitian_residual", "quasi_hermitian_residual", "pt_residual"):
        assert tiny[key] == pytest.approx(unit[key], rel=1e-12, abs=0.0)
