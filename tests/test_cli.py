import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedlattice import cli
from curvedlattice.cli import main
from curvedlattice.config import ConfigError, RunConfig
from curvedlattice.expr import ExpressionError
from curvedlattice.metric import MetricDomainError, MetricError, MetricModel
from curvedlattice.observables import ObservableError
from curvedlattice.operator import OperatorError, build, naive_build


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_config_defaults_and_q_pinning():
    cfg = RunConfig.from_dict({"family": "de_sitter", "L": 101})
    assert cfg.q_value == pytest.approx(1.0 / 100)
    assert cfg.L == 101 and cfg.a == 1.0 and cfg.M == 0.0 and cfg.bc == "open"


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"familly": "flat"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"L": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"family": "weyl", "q": -2.0})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"axis": "diagonal"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"schema": 99})
    # non-finite values fail no ordering test, so each is rejected by name
    for bad in [
        {"gamma": float("nan")},
        {"tol": float("nan")},
        {"e_min": float("nan"), "e_max": 1.0},
        {"e_min": -1.0, "e_max": float("inf")},
        {"t0": float("nan")},
        {"t1": float("inf")},
        {"t1": float("nan")},
        {"times": [0.0, float("nan")]},
        {"times": [float("-inf")]},
        {"a": float("inf")},
        {"q": float("nan")},
        {"q": 10**400},  # an integer no float holds
        {"r": float("nan")},
        {"M": float("nan")},
        {"family": "custom", "alpha": "c*x", "beta": "1", "params": {"c": float("nan")}},
        {"snapshot_times": [float("nan")]},
        {"snapshot_times": [float("inf")]},
    ]:
        with pytest.raises(ConfigError, match="finite"):
            RunConfig.from_dict(bad)


def test_spectrum_command_rindler(tmp_path):
    out = str(tmp_path)
    code = main([
        "spectrum", "--family", "rindler", "--L", "40", "--M", "0", "--out-dir", out,
    ])
    assert code == 0
    header, rows = _read_csv(os.path.join(out, "spectrum.csv"))
    assert header == ["index", "re_E", "im_E", "residual"]
    assert len(rows) == 80
    evs = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.abs(evs[:, 0]).min() < 1e-12  # horizon zero mode
    assert np.abs(evs[:, 1]).max() < 1e-12  # hermitian: real spectrum
    report = json.loads(open(os.path.join(out, "symmetry.json")).read())
    assert report["classification"] == "Hermitian"


def test_classify_command_catalog(tmp_path):
    for family, expected, extra in [
        ("rindler", "Hermitian", []),
        ("de_sitter", "QuasiHermitian", []),
        ("linear_conformal", "NonHermitian", ["--r", "0.5", "--times", "0.5"]),
    ]:
        out = str(tmp_path / family)
        code = main([
            "classify", "--family", family, "--L", "30", "--M", "1", "--out-dir", out, *extra,
        ])
        assert code == 0
        report = json.loads(open(os.path.join(out, "symmetry.json")).read())
        assert report["classification"] == expected, family


def test_ldos_command_with_heatmap(tmp_path):
    out = str(tmp_path)
    code = main([
        "ldos", "--family", "de_sitter", "--L", "30", "--M", "1",
        "--axis", "both", "--n-e", "50", "--heatmap", "--out-dir", out,
    ])
    assert code == 0
    for tag in ("real", "imag"):
        header, rows = _read_csv(os.path.join(out, f"ldos_{tag}.csv"))
        assert header == ["site", "energy", "value"]
        assert len(rows) == 30 * 50
        vals = np.array([float(r[2]) for r in rows])
        assert vals.max() == pytest.approx(1.0)
        with open(os.path.join(out, f"ldos_{tag}.ppm"), "rb") as fh:
            assert fh.read(3) == b"P6\n"
    meta = json.loads(open(os.path.join(out, "ldos_meta.json")).read())
    assert meta["ldos_real.csv"]["normalized"] is True


def test_evolve_command_check_duality(tmp_path):
    out = str(tmp_path)
    code = main([
        "evolve", "--family", "weyl", "--q", "0.01", "--r", "0.5", "--L", "40",
        "--M", "0", "--t0", "0", "--t1", "0.2", "--dt", "1e-2",
        "--k", "0.39269908169872414", "--check-duality", "--out-dir", out,
    ])
    assert code == 0
    header, rows = _read_csv(os.path.join(out, "trace.csv"))
    assert header == ["t", "norm", "eta_norm", "duality_discrepancy"]
    disc = np.array([float(r[3]) for r in rows])
    assert disc.max() < 1e-6
    norms = np.array([float(r[1]) for r in rows])
    assert norms[-1] < norms[0]  # r > 0: loss


def test_evolve_snapshots_and_gain(tmp_path):
    out = str(tmp_path)
    code = main([
        "evolve", "--family", "weyl", "--q", "0.01", "--r", "-0.3", "--L", "30",
        "--M", "0", "--t0", "0", "--t1", "0.1", "--dt", "1e-2",
        "--snapshot-times", "0.05", "0.1", "--out-dir", out,
    ])
    assert code == 0
    _, rows = _read_csv(os.path.join(out, "trace.csv"))
    norms = np.array([float(r[1]) for r in rows])
    assert norms[-1] > norms[0]  # r < 0: gain
    snaps = sorted(p for p in os.listdir(out) if p.startswith("snapshot"))
    assert len(snaps) >= 2
    header, srows = _read_csv(os.path.join(out, snaps[0]))
    assert header == ["site", "re_0", "im_0", "re_1", "im_1"]
    assert len(srows) == 30


@pytest.mark.parametrize("command", ["spectrum", "ldos"])
def test_tol_sets_the_hermitian_threshold(command, tmp_path, monkeypatch):
    # a hermiticity residual of 1e-9 is within --tol 1e-6, so the operator
    # is classified hermitian; it is quasi-hermitian (η = diag β), so its
    # chain-eigh route keeps the eigenvalues exactly real
    decompositions = []
    decompose = cli._decompose
    monkeypatch.setattr(
        cli, "_decompose", lambda *a: decompositions.append(decompose(*a)) or decompositions[-1]
    )
    code = main([
        command, "--family", "custom", "--alpha", "1+0.001*x", "--beta", "1+1e-9*x",
        "--L", "20", "--tol", "1e-6", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert [np.all(dec.eigenvalues.imag == 0.0) for dec in decompositions] == [True]
    if command == "spectrum":
        header, rows = _read_csv(tmp_path / "spectrum.csv")
        assert header[2] == "im_E" and all(float(r[2]) == 0.0 for r in rows)
        report = json.loads((tmp_path / "symmetry.json").read_text())
        assert report["classification"] == "Hermitian"


def test_tol_changes_no_data_file(tmp_path):
    # --tol sets the classification only: the operator's own hermiticity
    # picks its eigensolver, so a quasi-hermitian operator classified
    # hermitian at a loose tol keeps the spectrum of the operator itself
    for family in ("de_sitter", "anti_de_sitter"):
        outs = []
        for tol in ("1e-12", "0.5"):
            out = tmp_path / family / tol
            for command in (["spectrum"], ["ldos", "--axis", "both"]):
                assert main([*command, "--family", family, "--M", "1", "--L", "40",
                             "--tol", tol, "--out-dir", str(out)]) == 0
            outs.append(out)
        for name in ("spectrum.csv", "ldos_real.csv", "ldos_imag.csv", "ldos_meta.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        strict, loose = (json.loads((out / "symmetry.json").read_text()) for out in outs)
        assert strict.keys() == loose.keys()
        assert {key for key in strict if strict[key] != loose[key]} <= {"classification", "tol"}
        assert loose["classification"] == "Hermitian" != strict["classification"]


def test_dump_command(tmp_path):
    out = str(tmp_path)
    code = main([
        "dump", "--family", "weyl", "--q", "0.2", "--r", "0", "--L", "6",
        "--M", "0", "--a", "1.0", "--out-dir", out,
    ])
    assert code == 0
    header, rows = _read_csv(os.path.join(out, "matrix.csv"))
    assert header == ["row", "col", "re", "im"]
    header, mrows = _read_csv(os.path.join(out, "metric.csv"))
    assert header[0:5] == ["n", "x", "alpha", "beta", "dlog_beta_dt"]
    hop_f = [float(r[6]) for r in mrows]
    assert hop_f[0] == pytest.approx(np.exp(0.1) / 2, rel=1e-12)


@pytest.mark.parametrize("bc", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 3, 6])
@pytest.mark.parametrize("family", [["weyl", "--q", "0.2"], ["flat"]])
def test_dump_hops_are_the_dense_entries(family, L, bc, tmp_path):
    # hop_forward and hop_backward of site n are |H[2n, 2((n ± 1) mod L)]|:
    # zero past an open end, the wrap hop under periodic bc; for L = 2
    # periodic a hop and its wrap share one entry (the flat chain's cancel)
    argv = ["--family", *family, "--L", str(L), "--M", "0.3", "--bc", bc]
    assert main(["dump", *argv, "--out-dir", str(tmp_path)]) == 0
    cfg = cli._config_from_args(cli._build_parser().parse_args(["dump", *argv]))
    H = build(cfg.model().sample(0.0), cfg.M, cfg.a, cfg.bc).matrix
    header, rows = _read_csv(tmp_path / "metric.csv")
    f, b = header.index("hop_forward"), header.index("hop_backward")
    wraps = bc == "periodic"
    for n, row in enumerate(rows):
        assert float(row[f]) == (abs(H[2 * n, 2 * ((n + 1) % L)]) if n + 1 < L or wraps else 0.0)
        assert float(row[b]) == (abs(H[2 * n, 2 * ((n - 1) % L)]) if n > 0 or wraps else 0.0)


@pytest.mark.parametrize("argv, code, message", [
    (["spectrum", "--family", "weyl", "--q", "1", "--r", "1000", "--L", "5", "--times", "1"],
     3, "non-finite metric at site 0 of weyl(q=1, r=1000), t=1"),
    (["spectrum", "--family", "anti_de_sitter", "--q", "1e200", "--L", "5"],
     3, "non-finite metric at site 1 of anti_de_sitter(q=1e+200), t=0"),
    (["dump", "--family", "de_sitter", "--q", "1e300", "--L", "5"],
     3, "de Sitter sample beyond the horizon at site 1"),
    (["spectrum", "--family", "linear_conformal", "--q", "1e-320", "--r", "1", "--L", "5",
      "--times", "1e-320"], 3, "non-finite metric at site 0 of linear_conformal("),
    (["ldos", "--family", "flat", "--L", "5", "--gamma", "1e300"], 0, None),
], ids=["weyl_exp", "anti_de_sitter_square", "de_sitter_square", "linear_conformal_divide",
        "ldos_lorentzian"])
def test_overflow_warns_nothing(argv, code, message, tmp_path, capsys):
    # an overflowing metric is reported as the metric's fault, and no numpy
    # warning reaches stderr; a broadening whose square overflows gives a normalized grid
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert not caught and "Warning" not in err
    if message is None:
        assert err == ""
        meta = json.loads((tmp_path / "ldos_meta.json").read_text())
        assert meta["ldos_real.csv"]["normalized"] is True
        values = [float(row[2]) for row in _read_csv(tmp_path / "ldos_real.csv")[1]]
        assert 0.0 < min(values) and max(values) == 1.0
    else:
        assert err.startswith("numerical failure: ") and message in err


@pytest.mark.parametrize("argv, within, beyond, message", [
    # hermitian: the norm is kept to the step's rounding within the bound
    (["--family", "flat", "--L", "4", "--t1", "0.01"], "1e10", "1e11",
     "t=0.001: step beyond double precision: ‖B‖₁ = 1.000e+08 > 2^26"),
    (["--family", "linear_conformal", "--q", "0.1", "--r", "0.5", "--L", "4", "--t0", "0.1",
      "--t1", "0.11"], "1e11", "1e12",
     "t=0.101: step beyond double precision: ‖B‖₁ = 3.503e+08 > 2^26"),
], ids=["static", "time_dependent"])
def test_a_step_beyond_double_precision_exits_3(argv, within, beyond, message, tmp_path, capsys):
    # a step exponent ‖B‖₁ within 2^26 runs; past it the run stops with one
    # line naming ‖B‖₁ and the bound, and no warning
    assert main(["evolve", *argv, "--M", within, "--out-dir", str(tmp_path / "within")]) == 0
    _, rows = _read_csv(tmp_path / "within" / "trace.csv")
    assert float(rows[-1][0]) == float(argv[-1])
    if argv[1] == "flat":
        assert abs(float(rows[-1][1]) - 1.0) <= 1e-6
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["evolve", *argv, "--M", beyond, "--out-dir", str(tmp_path / "beyond")]) == 3
    assert not caught
    assert capsys.readouterr().err == f"numerical failure: propagation stopped at {message}\n"


@pytest.mark.parametrize("alpha, message", [
    ("sin(x*1e300*1e300)", "sin of infinite value inf"),
    ("x*1e200*1e200", "non-finite result inf from 'x*1e+200*1e+200'"),
], ids=["sin_of_inf", "non_finite_result"])
def test_custom_metric_failure_names_the_site(alpha, message, tmp_path, capsys):
    # a custom metric that leaves the reals at site 1 exits 3 with one line
    argv = ["classify", "--family", "custom", "--alpha", alpha, "--beta", "1", "--L", "8",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: custom metric at site 1, t=0: {message}\n"
    )


def test_overflowing_coupling_product_classifies_without_warning(tmp_path, capsys):
    # A_ij·A_ji overflows at M = 1e300; the symmetrizer reads its phase
    # without forming it, and the PT residual is the finite ‖α − reversed α‖/‖α‖
    argv = ["classify", "--family", "rindler", "--L", "5", "--q", "0.1", "--M", "1e300",
            "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "symmetry.json").read_bytes() == (
        b'{\n  "classification": "Hermitian",\n  "hermitian_residual": 0.0,\n'
        b'  "pt_residual": 1.1547005383792515,\n  "pt_spinor": "I",\n'
        b'  "quasi_hermitian_residual": 0.0,\n  "spectrum_real": true,\n  "tol": 1e-12\n}\n'
    )


def _strict_json(path):
    """The JSON document at path; NaN and Infinity, which RFC 8259 lacks, raise."""
    def reject(token):
        raise ValueError(f"non-finite token {token} in {path}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("argv,residuals", [
    # −ir/2 on the diagonal dominates: ‖H − H†‖ = 2‖H‖
    (["--family", "weyl", "--q", "0.05", "--r", "1e300"], (2.0, 2.0, 2.0)),
    # ∂₀β/β = r/w = 1e300 at the first site alone
    (["--family", "linear_conformal", "--q", "0.1", "--r", "0.5", "--times", "1e-300"],
     (2.0, 2.0, 2**0.5)),
], ids=["weyl", "linear_conformal"])
def test_residuals_stay_finite_when_squares_overflow(argv, residuals, tmp_path, capsys):
    # entries past 1e154 overflow a plain sum of squares; the norms rescale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", *argv, "--L", "5", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = _strict_json(tmp_path / "symmetry.json")
    got = (report["hermitian_residual"], report["quasi_hermitian_residual"], report["pt_residual"])
    assert got == pytest.approx(residuals, rel=1e-12)
    assert report["classification"] == "NonHermitian"


def test_residual_column_stays_finite_when_squares_overflow(tmp_path, capsys):
    # hoppings of 1/(2a) = 5e299: each residual is summed scaled by its largest entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--family", "flat", "--L", "5", "--a", "1e-300",
                     "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_csv(tmp_path / "spectrum.csv")
    energies = np.array([float(row[header.index("re_E")]) for row in rows])
    residuals = np.array([float(row[header.index("residual")]) for row in rows])
    band = 1e300 * np.cos(np.pi * np.arange(1, 6) / 6)  # the open chain's ±(1/a)cos(jπ/6)
    assert np.allclose(energies, np.sort(np.concatenate([band, -band])), rtol=1e-14, atol=1e286)
    assert np.all(np.isfinite(residuals)) and residuals.max() < 1e-14 * np.abs(energies).max()
    assert _strict_json(tmp_path / "symmetry.json")["classification"] == "Hermitian"


def test_lattice_spacing_whose_half_inverse_overflows_exits_3(tmp_path, capsys):
    # 1/(2a) overflows for a = 1e-320: build and naive_build name a before any arithmetic
    message = "lattice spacing a=1e-320 must be positive and leave 1/(2a) finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--family", "flat", "--L", "5", "--a", "1e-320",
                     "--out-dir", str(tmp_path)]) == 3
        for assemble in (build, naive_build):
            with pytest.raises(OperatorError, match=re.escape(message)):
                assemble(MetricModel.flat(5).sample(0.0), 0.0, 1e-320)
    assert capsys.readouterr().err == f"numerical failure: {message}\n"


def test_negative_exponent_value_is_joined_to_its_flag(tmp_path, capsys):
    # "-1e-3" after a space is the value of its flag, as in the "=" form
    argv = ["evolve", "--family", "flat", "--L", "4", "--t1", "0.01", "--dt", "1e-3"]
    assert main([*argv, "--t0=-1e-3", "--out-dir", str(tmp_path / "joined")]) == 0
    assert main([*argv, "--t0", "-1e-3", "--out-dir", str(tmp_path / "spaced")]) == 0
    header, rows = _read_csv(tmp_path / "spaced" / "trace.csv")
    assert float(rows[0][header.index("t")]) == -1e-3
    for name in ("trace.csv", "snapshot_t0.01.csv"):
        assert (tmp_path / "spaced" / name).read_bytes() == (tmp_path / "joined" / name).read_bytes()


def _numeric_flags():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, a) for name, p in sub.choices.items() for a in p._actions if a.type in (float, int)]


@pytest.mark.parametrize("command, action", _numeric_flags(),
                         ids=[f"{name}{a.option_strings[0]}" for name, a in _numeric_flags()])
def test_every_numeric_flag_takes_a_negative_value(command, action):
    # a negative value after a space parses in exponent notation too, and each
    # value of a list flag does (negative r is the gain case of the paper)
    if action.type is int:
        values, want = ["-1"], -1
    else:
        values, want = ["-3e-1", "-2E+0"] if action.nargs == "+" else ["-3e-1"], -0.3
    args = cli._build_parser().parse_args([command, action.option_strings[0], *values])
    got = getattr(args, action.dest)
    assert got == ([-0.3, -2.0] if action.nargs == "+" else want)


@pytest.mark.parametrize("value", ["-3e-1x", "-e1", "-3e"])
def test_a_value_that_is_no_number_stays_an_option(value, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["spectrum", "--family", "weyl", "--q", "0.05", "--r", value])
    assert exit_.value.code == 2
    assert "argument --r: expected one argument" in capsys.readouterr().err


def test_spectrum_multiple_time_slices(tmp_path):
    out = str(tmp_path)
    code = main([
        "spectrum", "--family", "linear_conformal", "--q", "0.05", "--r", "0.5",
        "--L", "16", "--times", "0.25", "0.5", "--out-dir", out,
    ])
    assert code == 0
    names = sorted(os.listdir(out))
    assert "spectrum_t0.25.csv" in names and "spectrum_t0.5.csv" in names
    assert "symmetry_t0.25.json" in names and "symmetry_t0.5.json" in names


# the files of one slice, and those written once per run
_SLICE_FILES = {
    "spectrum": (["spectrum.csv", "symmetry.json"], []),
    "ldos": (["ldos_real.csv"], ["ldos_meta.json"]),
    "classify": (["symmetry.json"], []),
    "dump": (["matrix.csv", "metric.csv"], []),
}


@pytest.mark.parametrize("command", list(_SLICE_FILES))
def test_every_time_slice_is_written(command, tmp_path):
    argv = [command, "--family", "linear_conformal", "--r", "0.5", "--L", "6", "--times", "0.2"]
    assert main([*argv, "--out-dir", str(tmp_path / "one")]) == 0
    assert main([*argv, "0.7", "--out-dir", str(tmp_path / "two")]) == 0
    per_slice, once = _SLICE_FILES[command]
    tagged = {
        tag: [f"{stem}_t{tag}{ext}" for stem, ext in map(os.path.splitext, per_slice)]
        for tag in ("0.2", "0.7")
    }
    assert sorted(os.listdir(tmp_path / "two")) == sorted(tagged["0.2"] + tagged["0.7"] + once)
    for name, first in zip(per_slice, tagged["0.2"]):
        assert (tmp_path / "two" / first).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("command", list(_SLICE_FILES))
@pytest.mark.parametrize("times", [["0.5", "0.5000001"], ["0.5", "0.5"]])
def test_times_sharing_an_output_name_exit_2(command, times, tmp_path, capsys):
    # both slices would be written to *_t0.5.*: the run writes neither
    out = tmp_path / "out"
    code = main([
        command, "--family", "linear_conformal", "--r", "0.5", "--L", "6",
        "--times", *times, "--out-dir", str(out),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert f"{times[0]} and {times[1]}" in captured.err
    assert not out.exists()


def test_exit_code_2_on_config_error(tmp_path, capsys):
    assert main(["spectrum", "--family", "weyl", "--q", "-1", "--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    # a setting found invalid only inside the command: k outside the Brillouin zone
    argv = ["evolve", "--family", "weyl", "--L", "4", "--t1", "0.01", "--k", "10",
            "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    # a config file value of the wrong JSON type
    custom = {"family": "custom", "alpha": "c*x", "beta": "1"}
    for bad in ({"times": ["a"]}, {"gamma": "x"}, {"L": "4"}, dict(custom, params={"c": "x"}),
                {"initial": {"kind": "plane_wave", "k": "x"}}, {"out_dir": 5}):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(dict({"family": "flat", "L": 4, "out_dir": str(tmp_path)}, **bad)))
        assert main(["ldos", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def test_exit_code_3_on_numerical_failure(tmp_path, capsys):
    # metric collapses mid-evolution: partial trace is still flushed
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({
        "family": "custom", "alpha": "1-0.5*t", "beta": "1", "L": 20,
        "t0": 0.0, "t1": 3.0, "dt": 0.01,
        "initial": {"kind": "kick", "site": 10},
        "out_dir": str(tmp_path),
    }))
    code = main(["evolve", "--config", str(cfgfile)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    _, rows = _read_csv(tmp_path / "trace.csv")
    assert 150 < len(rows) < 250  # flushed partial trace up to t ~ 2
    # one step so long that -i·H·dt overflows
    code = main([
        "evolve", "--family", "flat", "--L", "4", "--M", "1", "--t0", "0",
        "--t1", "1e308", "--dt", "1e308", "--out-dir", str(tmp_path / "huge"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and err.count("\n") == 1


def test_exit_code_2_on_duality_for_non_conformal_metric(tmp_path, capsys):
    code = main([
        "evolve", "--family", "rindler", "--L", "10", "--t1", "0.01", "--dt", "1e-2",
        "--check-duality", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "conformally flat" in err
    assert err.count("\n") == 1


def test_exit_code_2_on_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main([
        "spectrum", "--family", "flat", "--L", "4", "--out-dir", str(blocker / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ldos", "--L", "4", "--n-e", str(10**15)],
    *([command, "--L", str(10**15)] for command in ("spectrum", "ldos", "evolve", "classify", "dump")),
], ids=["ldos-n-e", "spectrum-L", "ldos-L", "evolve-L", "classify-L", "dump-L"])
def test_a_request_too_large_to_allocate_is_a_config_error(argv, tmp_path, capsys):
    # 10**15 entries of eight bytes lie beyond a 47-bit (128 TiB) address
    # space, so numpy refuses the first such array without allocating it
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_ldos_grids_span_the_given_energy_bounds(tmp_path):
    argv = ["ldos", "--family", "weyl", "--q", "0.05", "--r", "0.3", "--L", "6", "--times", "0.25",
            "--axis", "both", "--e-min", "-1.5", "--e-max", "2", "--n-e", "7", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "ldos_meta.json").read_text())
    for tag in ("real", "imag"):
        _, rows = _read_csv(tmp_path / f"ldos_{tag}.csv")
        energies = [float(row[1]) for row in rows if row[0] == "0"]
        assert energies == np.linspace(-1.5, 2.0, 7).tolist()
        assert (meta[f"ldos_{tag}.csv"]["e_min"], meta[f"ldos_{tag}.csv"]["e_max"]) == (-1.5, 2.0)


def test_evolve_check_duality_writes_snapshots(tmp_path):
    # the duality route writes the same snapshot files as the plain route
    args = [
        "evolve", "--family", "weyl", "--q", "0.01", "--r", "0.5", "--L", "20",
        "--t0", "0", "--t1", "0.02", "--dt", "1e-3", "--snapshot-times", "0.005",
    ]
    plain, dual = tmp_path / "plain", tmp_path / "dual"
    assert main([*args, "--out-dir", str(plain)]) == 0
    assert main([*args, "--check-duality", "--out-dir", str(dual)]) == 0
    snaps = sorted(p for p in os.listdir(plain) if p.startswith("snapshot"))
    assert snaps == ["snapshot_t0.005.csv", "snapshot_t0.02.csv"]
    assert sorted(p for p in os.listdir(dual) if p.startswith("snapshot")) == snaps
    for name in snaps:
        assert (plain / name).read_bytes() == (dual / name).read_bytes()


def test_snapshot_file_written_once_per_grid_time(tmp_path, capsys, monkeypatch):
    # 0.01 and 0.0105 both reach the state at t = 0.01 (the last step is dt/2
    # long): its file is written and printed once
    written = []
    write_rows = cli._write_rows

    def counting_write_rows(path, *args):
        written.append(os.path.basename(path))
        write_rows(path, *args)

    monkeypatch.setattr(cli, "_write_rows", counting_write_rows)
    code = main([
        "evolve", "--family", "flat", "--L", "4", "--M", "0.5", "--t0", "0",
        "--t1", "0.0105", "--dt", "1e-3", "--snapshot-times", "0.01", "0.0105",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    printed = [os.path.basename(p) for p in capsys.readouterr().out.split()]
    expected = ["trace.csv", "snapshot_t0.01.csv", "snapshot_t0.0105.csv"]
    assert printed == expected
    assert written == expected


def test_snapshots_sharing_an_output_name_exit_2(tmp_path, capsys):
    # the grid times 1.0000001, 1.0000002 and 1.0000003 all print as 1
    code = main([
        "evolve", "--family", "flat", "--L", "4", "--t0", "1", "--t1", "1.0000003",
        "--dt", "1e-7", "--snapshot-times", "1.0000001", "1.0000002",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
    assert "1.0000001 and 1.0000002" in captured.err
    assert not any(p.startswith("snapshot") for p in os.listdir(tmp_path))


def test_classify_custom_beta_with_static_abs(tmp_path):
    # abs of an argument free of t has ∂₀β = 0, so the metric is accepted
    code = main([
        "classify", "--family", "custom", "--alpha", "1", "--beta", "1+0.01*abs(x-50)",
        "--L", "100", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "symmetry.json").read_text())
    assert report["classification"] == "QuasiHermitian"
    assert report["spectrum_real"] is True


def test_duality_failure_keeps_discrepancy_rows(tmp_path, capsys):
    # alpha = beta = 1 - t/2 vanishes at t = 2: the run stops there, and the
    # partial trace keeps the discrepancy of every completed step
    code = main([
        "evolve", "--family", "custom", "--alpha", "1-0.5*t", "--beta", "1-0.5*t",
        "--L", "20", "--t0", "0", "--t1", "3", "--dt", "0.01", "--check-duality",
        "--out-dir", str(tmp_path),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure")
    header, rows = _read_csv(tmp_path / "trace.csv")
    assert header == ["t", "norm", "eta_norm", "duality_discrepancy"]
    assert all(len(row) == 4 for row in rows)
    times = np.array([float(r[0]) for r in rows])
    np.testing.assert_allclose(times, 0.01 * np.arange(200), rtol=0, atol=1e-12)
    assert np.all(np.isfinite([float(r[3]) for r in rows]))


def test_streamed_discrepancy_matches_library_routes(tmp_path):
    # each row's discrepancy is norm(a - b)/norm(a) of the two routes' states
    # at that grid time
    from curvedlattice.evolve import dual_propagate, propagate

    cfg = RunConfig.from_dict({
        "family": "linear_conformal", "q": 0.01, "r": 0.5, "L": 30, "M": 1.0,
        "t0": 0.25, "t1": 0.3508, "dt": 1e-3, "check_duality": True,
        "initial": {"kind": "plane_wave", "k": 0.3927, "branch": 1},
        "out_dir": str(tmp_path),
    })
    cli.cmd_evolve(cfg)
    header, rows = _read_csv(tmp_path / "trace.csv")
    assert header[-1] == "duality_discrepancy"
    times = [float(r[0]) for r in rows]
    run = (cfg.model(), cfg.M, cfg.initial_state(), cfg.t0, cfg.t1, cfg.dt, cfg.bc)
    a = propagate(*run, snapshot_times=times).snapshots
    b = dual_propagate(*run, snapshot_times=times).snapshots
    assert [s.t for s in a] == [s.t for s in b] == times
    expected = [np.linalg.norm(sa.values - sb.values) / np.linalg.norm(sa.values)
                for sa, sb in zip(a, b)]
    assert [float(r[3]) for r in rows] == expected


def test_check_duality_forms_one_eta_norm_per_row(tmp_path, monkeypatch):
    # only the curved route's norms are written, so only they are formed; the
    # rows are the ones the library trace of the same run records
    from curvedlattice import evolve

    calls = []
    eta_norm = evolve._eta_norm
    monkeypatch.setattr(evolve, "_eta_norm", lambda *args: calls.append(1) or eta_norm(*args))
    cfg = RunConfig.from_dict({
        "family": "weyl", "q": 0.01, "r": 0.5, "L": 20, "M": 0.5, "t0": 0.0, "t1": 0.0505,
        "dt": 1e-3, "check_duality": True, "out_dir": str(tmp_path),
    })
    cli.cmd_evolve(cfg)
    _, rows = _read_csv(tmp_path / "trace.csv")
    assert len(rows) == len(calls) == 52
    calls.clear()
    run = (cfg.model(), cfg.M, cfg.initial_state(), cfg.t0, cfg.t1, cfg.dt, cfg.bc)
    trace = evolve.propagate(*run)
    assert len(calls) == 52
    for j, column in enumerate((trace.times, trace.norms, trace.eta_norms)):
        assert [float(r[j]) for r in rows] == column.tolist()


def test_check_duality_memory_is_flat_in_step_count(tmp_path):
    # both routes stream their rows, so the traced peak does not grow with
    # the number of steps
    import tracemalloc

    def peak(steps):
        argv = [
            "evolve", "--family", "weyl", "--q", "0.01", "--r", "0.5", "--L", "50",
            "--M", "0", "--t0", "0", "--t1", repr(steps * 1e-3), "--dt", "1e-3",
            "--check-duality", "--out-dir", str(tmp_path / str(steps)),
        ]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(250)  # first-use allocations (expression caches, imports)
    assert abs(peak(2000) - peak(250)) < 64 * 1024


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"family": "rindler", "L": 30, "M": 1.0}))
    out = str(tmp_path / "out")
    code = main(["classify", "--config", str(cfgfile), "--family", "flat", "--out-dir", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "symmetry.json")).read())
    assert report["classification"] == "Hermitian"
    assert report["hermitian_residual"] == 0.0


@pytest.mark.parametrize("initial, argv, resolved", [
    ({"kind": "plane_wave", "k": 0.4, "branch": 1}, ["--branch", "-1"],
     {"kind": "plane_wave", "k": 0.4, "branch": -1}),
    ({"kind": "gaussian", "width": 2.0, "k": 0.1}, ["--k", "0.3"],
     {"kind": "gaussian", "width": 2.0, "k": 0.3}),
    (None, ["--k", "0.3"], {"kind": "plane_wave", "k": 0.3, "branch": 1}),
])
def test_k_and_branch_override_only_their_field(initial, argv, resolved, tmp_path):
    config = {"family": "flat", "L": 8}
    if initial is not None:
        config["initial"] = initial
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    args = cli._build_parser().parse_args(["evolve", "--config", str(path), *argv])
    assert cli._config_from_args(args).initial == resolved


@pytest.mark.parametrize("argv", [["--k", "0.3"], ["--branch", "-1"]])
def test_k_and_branch_reject_a_kick_initial_state(argv, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"family": "flat", "L": 8, "t1": 0.01, "dt": 0.005,
                                "initial": {"kind": "kick", "site": 2}}))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(path), *argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "kick" in err and err.count("\n") == 1
    assert not out.exists()


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("CURVEDLATTICE_OUTDIR", str(target))
    code = main(["classify", "--family", "flat", "--L", "10"])
    assert code == 0
    assert (target / "symmetry.json").exists()


def test_determinism_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main([
            "ldos", "--family", "weyl", "--q", "0.05", "--r", "0.3", "--L", "20",
            "--times", "0.25", "--n-e", "40", "--axis", "both", "--out-dir", str(out),
        ])
        with open(out / "ldos_real.csv", "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "curvedlattice", "classify", "--family", "de_sitter",
         "--L", "24", "--M", "1", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(open(tmp_path / "symmetry.json").read())
    assert report["classification"] == "QuasiHermitian"


def test_a_closed_stdout_ends_the_listing_without_an_error(tmp_path):
    # a reader that closed the pipe (`| true`) takes no listing of the paths,
    # but the files are written, so the run succeeds with a clean stderr
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "curvedlattice", "spectrum", "--family", "flat", "--L", "4",
             "--times", "0", "1", "2", "--out-dir", str(tmp_path)],
            stdout=write, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert sorted(os.listdir(tmp_path)) == [
        f"{kind}_t{t}.{ext}" for kind, ext in (("spectrum", "csv"), ("symmetry", "json")) for t in range(3)
    ]


def test_nonhermitian_spectrum_does_not_depend_on_the_blas_thread_count(tmp_path):
    # zgeev of chain A gives the same eigenvalues at one and at two OpenBLAS
    # threads; the residual column, read from the vectors, may differ
    columns = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "curvedlattice", "spectrum", "--family", "linear_conformal",
             "--r", "0.5", "--M", "1", "--L", "200", "--times", "0.5", "--out-dir", str(tmp_path / threads)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        header, rows = _read_csv(tmp_path / threads / "spectrum.csv")
        assert header[1:3] == ["re_E", "im_E"]
        columns.append([row[1:3] for row in rows])
    assert columns[0] == columns[1]


_FUZZ_BASE = st.fixed_dictionaries({
    "family": st.sampled_from(
        ["flat", "rindler", "de_sitter", "anti_de_sitter", "weyl", "linear_conformal", "custom"]),
    "L": st.integers(2, 8),
    "q": st.sampled_from([None, 0.1, 0.5]),
    "r": st.sampled_from([0.0, 0.5]),
    "a": st.sampled_from([1.0, 0.5]),
    "M": st.sampled_from([0.0, 1.0]),
    "bc": st.sampled_from(["open", "periodic"]),
    "alpha": st.sampled_from(["1", "exp(c*x)", "1-0.5*t", "x+1", "1+0.1*t*x"]),
    "beta": st.sampled_from(["1", "exp(c*x)", "x+1"]),
    "params": st.just({"c": 0.01}),
    "times": st.sampled_from([[0.0], [0.0, 0.5]]),
    "n_e": st.integers(2, 16),
    "axis": st.sampled_from(["real", "imaginary", "both"]),
    "heatmap": st.booleans(),
    "gamma": st.sampled_from([None, 0.1]),
    "t1": st.sampled_from([0.1, 0.3]),
    "dt": st.sampled_from([0.05, 0.01, 0.3]),
    "check_duality": st.booleans(),
    "snapshot_times": st.sampled_from([[], [0.1], [0.0, 0.1]]),  # inside [t0, t1]
    "initial": st.sampled_from([
        {"kind": "plane_wave", "k": 0.3, "branch": -1},
        {"kind": "gaussian", "width": 1.0},
        {"kind": "kick", "site": 1, "component": 1},
    ]),
})
# out-of-range, numerically hostile and wrong-type values, one key at a time
_FUZZ_BAD = st.sampled_from([
    ("family", "bogus"), ("L", 1), ("L", -1), ("L", 4.5), ("L", "4"), ("L", None),
    ("q", 0.0), ("q", -1.0), ("q", 1e6), ("q", 1e-300), ("q", float("nan")), ("q", "x"),
    ("r", -1.0), ("r", 100.0), ("r", True), ("a", 0.0), ("a", -1.0), ("a", 1e-9),
    ("M", -3.0), ("M", 1e300), ("M", [1.0]), ("bc", "twisted"), ("bc", 3),
    ("alpha", "log(x)"), ("alpha", "1/(x-2)"), ("alpha", "sqrt(t-x)"), ("alpha", "1-4*t"),
    ("alpha", "exp(1000*x)"), ("alpha", "1+"), ("alpha", ""), ("alpha", "foo(x)"),
    ("alpha", "y"), ("alpha", 7), ("beta", "0"), ("beta", "1/x"), ("beta", "t"),
    ("beta", "("), ("beta", None), ("params", {}), ("params", {"c": -50.0}),
    ("params", {"c": "x"}), ("params", [1]), ("tol", 0.0), ("tol", -1.0), ("tol", 1.0),
    ("times", []), ("times", ["a"]), ("times", [float("nan")]), ("times", 0.5),
    ("gamma", 0.0), ("gamma", -1.0), ("gamma", 1e300), ("gamma", "x"),
    ("e_min", -1.0), ("e_max", 1.0), ("e_min", 2.0), ("e_max", -2.0), ("n_e", 1),
    ("n_e", -1), ("n_e", 2.5), ("axis", "diagonal"), ("heatmap", "yes"), ("t0", 0.5),
    ("t0", 1.0), ("t0", "x"), ("t1", -1.0), ("t1", float("inf")), ("dt", 0.0),
    ("dt", -1.0), ("dt", 1e308), ("dt", None), ("check_duality", 1),
    ("snapshot_times", ["a"]), ("snapshot_times", 1.0),
    ("initial", {"kind": "plane_wave", "k": 10.0}), ("initial", {"kind": "plane_wave", "branch": 3}),
    ("initial", {"kind": "gaussian", "width": 0.0}), ("initial", {"kind": "gaussian", "center": 1e6}),
    ("initial", {"kind": "kick", "site": 99}), ("initial", {"kind": "kick", "component": 2}),
    ("initial", {"kind": "laser"}), ("initial", {"k": 1.0}), ("initial", "kick"),
    ("schema", 2), ("schema", "1"), ("bogus_key", 1), ("out_dir", 5),
])


@settings(max_examples=250, derandomize=True, deadline=None)
@given(command=st.sampled_from(["spectrum", "ldos", "evolve", "classify", "dump"]),
       base=_FUZZ_BASE, bad=st.lists(_FUZZ_BAD, max_size=2))
def test_main_fuzz_exits_cleanly(command, base, bad):
    # every small config, valid or not, ends in exit 0, 2 or 3 with a message
    # on stderr exactly when it fails: no exception may escape `main`
    with tempfile.TemporaryDirectory() as tmp:
        config = dict(base, out_dir=os.path.join(tmp, "out"))
        config.update(bad)
        path = os.path.join(tmp, "run.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main([command, "--config", path])
        # a successful run lists each file it wrote once, and wrote it
        printed = out.getvalue().splitlines()
        if code == 0:
            assert printed and len(set(printed)) == len(printed)
            assert all(map(os.path.isfile, printed))
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")


@pytest.mark.parametrize("command", ["spectrum", "ldos", "evolve", "classify", "dump"])
def test_every_command_rejects_a_snapshot_time_outside_the_run(command, tmp_path, capsys):
    # the out-of-range draw the fuzz base no longer makes: every command
    # validates the whole config, so it stops at exit 2 before any output
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"L": 4, "t1": 0.3, "snapshot_times": [0.0, 5.0],
                                "out_dir": str(tmp_path / "out")}))
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: snapshot time 5.0 outside [0.0, 0.3]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "error, code",
    [
        (MetricError("no such metric"), 2),
        (ExpressionError("bad expression"), 2),
        (MetricDomainError("negative metric sample"), 3),
        (ObservableError("degenerate energy grid"), 3),
    ],
    ids=["MetricError", "ExpressionError", "MetricDomainError", "ObservableError"],
)
def test_package_errors_map_to_exit_codes(error, code, tmp_path, monkeypatch, capsys):
    def failing(cfg):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "classify", failing)
    assert main(["classify", "--family", "flat", "--L", "4", "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "numerical failure:")
    assert err.count("\n") == 1


def test_every_package_error_has_one_base():
    # `main` maps the base class alone; each error carries its exit code
    from curvedlattice import evolve, expr, operator, spectral, symmetry
    from curvedlattice.errors import CurvedLatticeError

    codes = {
        ConfigError: 2, MetricError: 2, ExpressionError: 2, expr.ParseError: 2,
        expr.EvalError: 2, expr.DerivativeError: 2, evolve.EvolveError: 2,
        MetricDomainError: 3, ObservableError: 3, operator.OperatorError: 3,
        spectral.SpectralError: 3, symmetry.SymmetryError: 3, evolve.PropagationError: 3,
    }
    for error, code in codes.items():
        assert issubclass(error, CurvedLatticeError)
        assert error.exit_code == code


@pytest.mark.parametrize("command, flag", [
    ("evolve", ["--times", "5", "7"]), ("evolve", ["--tol", "1e-6"]), ("dump", ["--tol", "1e-6"]),
], ids=["evolve-times", "evolve-tol", "dump-tol"])
def test_a_flag_the_command_does_not_read_exits_2(command, flag, tmp_path, capsys):
    # evolve runs over [t0, t1] (its snapshots take --snapshot-times), and
    # neither evolve nor dump decomposes or classifies, so neither reads tol
    argv = [command, "--family", "flat", "--L", "4", "--out-dir", str(tmp_path / "out")]
    if command == "evolve":
        argv += ["--t1", "0.02", "--dt", "0.01"]
    with pytest.raises(SystemExit) as exit_:
        main([*argv, *flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
