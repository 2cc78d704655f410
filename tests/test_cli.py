import json
import os
import subprocess
import sys

import numpy as np
import pytest

from curvedlattice.cli import main
from curvedlattice.config import ConfigError, RunConfig


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


def test_flags_override_config_file(tmp_path):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"family": "rindler", "L": 30, "M": 1.0}))
    out = str(tmp_path / "out")
    code = main(["classify", "--config", str(cfgfile), "--family", "flat", "--out-dir", out])
    assert code == 0
    report = json.loads(open(os.path.join(out, "symmetry.json")).read())
    assert report["classification"] == "Hermitian"
    assert report["hermitian_residual"] == 0.0


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
