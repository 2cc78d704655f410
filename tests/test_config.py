"""`RunConfig` resolves a run once: one validation, one metric build, one
check of the initial state, and one order for the output directory."""

import json
import re

import pytest

from curvedlattice import config, expr
from curvedlattice.front import main

_CUSTOM = ["--family", "custom", "--alpha", "1+0.1*x", "--beta", "exp(-t)", "--L", "8"]


@pytest.mark.parametrize("argv", [
    ["classify", *_CUSTOM],
    ["evolve", *_CUSTOM, "--t1", "0.01", "--dt", "0.005", "--k", "0.3"],
], ids=["classify", "evolve-k"])
def test_a_run_builds_its_metric_once_and_validates_once(argv, tmp_path, monkeypatch, capsys):
    counts = {"build": 0, "validate": 0}
    build, validate = expr.CustomProfiles.__init__, config.RunConfig.validate

    def counted_build(self, *args, **kwargs):
        counts["build"] += 1
        build(self, *args, **kwargs)

    def counted_validate(self):
        counts["validate"] += 1
        validate(self)

    monkeypatch.setattr(expr.CustomProfiles, "__init__", counted_build)
    monkeypatch.setattr(config.RunConfig, "validate", counted_validate)
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert counts == {"build": 1, "validate": 1}


def _evolve(initial, tmp_path, capsys, *flags):
    """Exit code and stderr of a short flat evolve from ``initial``."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"family": "flat", "L": 8, "t1": 0.01, "dt": 0.005, "initial": initial}))
    out = tmp_path / "out"
    code = main(["evolve", "--config", str(path), *flags, "--out-dir", str(out)])
    err = capsys.readouterr().err
    if code:
        assert not out.exists()
    return code, err


@pytest.mark.parametrize("initial, message", [
    ({"kind": "kick", "site": 2, "k": 0.3}, "a kick initial state has no k"),
    ({"kind": "gaussian", "widht": 5}, "a gaussian initial state has no widht"),
    ({"kind": "kick", "site": 2, "k": 0.3, "widht": 5}, "a kick initial state has no k or widht"),
    ({"kind": "plane_wave", "k": 0.3, "branch": -1.5}, "initial.branch must be a whole number, got -1.5"),
    ({"kind": "kick", "site": 2.7, "component": 0.9}, "initial.site must be a whole number, got 2.7"),
    ({"kind": "kick", "site": 2, "component": 0.9}, "initial.component must be a whole number, got 0.9"),
])
def test_an_initial_state_takes_only_its_kinds_whole_fields(initial, message, tmp_path, capsys):
    assert _evolve(initial, tmp_path, capsys) == (2, f"config error: {message}\n")
    # every command validates the state, not evolve alone
    with pytest.raises(config.ConfigError, match=f"^{re.escape(message)}$"):
        config.RunConfig.from_dict({"initial": initial})


@pytest.mark.parametrize("initial", [
    {"kind": "plane_wave", "k": 0.3, "branch": -1.0},
    {"kind": "gaussian", "center": 3.5, "width": 1.5, "k": 0.2, "branch": 1},
    {"kind": "kick", "site": 2.0, "component": 1.0},
])
def test_whole_floats_are_valid_initial_fields(initial, tmp_path, capsys):
    assert _evolve(initial, tmp_path, capsys) == (0, "")


@pytest.mark.parametrize("initial, message", [
    ({"kind": "kick", "site": 1e300}, "site 1e+300 outside 0..7"),
    ({"kind": "kick", "site": 2, "component": 1e300}, "spinor component must be 0 or 1, got 1e+300"),
    ({"kind": "plane_wave", "branch": 1e300}, "branch must be +1 or -1, got 1e+300"),
    ({"kind": "kick", "site": 8.0}, "site 8.0 outside 0..7"),  # a float as given
    ({"kind": "kick", "site": 8}, "site 8 outside 0..7"),
])
def test_an_out_of_range_whole_field_is_named_as_given(initial, message, tmp_path, capsys):
    code, err = _evolve(initial, tmp_path, capsys)
    assert (code, err) == (2, f"config error: invalid initial state: {message}\n")
    assert len(err) < 120


@pytest.mark.parametrize("time", [5.0, -1.0, 0.0100001])
def test_a_snapshot_time_outside_the_run_is_a_config_error(time, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["evolve", "--family", "flat", "--L", "4", "--t1", "0.01", "--dt", "0.01",
            "--snapshot-times", "0.005", str(time), "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: snapshot time {time} outside [0.0, 0.01]\n"
    assert not out.exists()


def test_the_ends_of_the_run_are_snapshot_times(tmp_path, capsys):
    argv = ["evolve", "--family", "flat", "--L", "4", "--t1", "0.01", "--dt", "0.01",
            "--snapshot-times", "0", "0.01", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert sorted(path.name for path in tmp_path.glob("snapshot*")) == [
        "snapshot_t0.01.csv", "snapshot_t0.csv",
    ]


def test_a_flag_set_field_is_checked_at_validation(tmp_path, capsys):
    code, err = _evolve({"kind": "kick", "site": 2}, tmp_path, capsys, "--k", "0.3", "--branch", "-1")
    assert (code, err) == (2, "config error: a kick initial state has no k or branch\n")


def _classify(tmp_path, monkeypatch, *flags, env="B"):
    """The directory a classify run writes to, with the file setting ``A``
    and the environment ``env``."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(config.OUTDIR_ENV, env)
    (tmp_path / "run.json").write_text(json.dumps({"family": "flat", "L": 6, "out_dir": "A"}))
    assert main(["classify", "--config", "run.json", *flags]) == 0
    return {path.parent.name for path in tmp_path.glob("*/symmetry.json")}


def test_outdir_environment_overrides_the_config_file(tmp_path, monkeypatch):
    assert _classify(tmp_path, monkeypatch) == {"B"}


def test_outdir_flag_overrides_the_environment_and_the_file(tmp_path, monkeypatch):
    assert _classify(tmp_path, monkeypatch, "--out-dir", "C") == {"C"}


@pytest.mark.parametrize("kind", [[], {}, ["kick"]])
def test_an_unhashable_kind_is_a_config_error(kind, tmp_path, capsys):
    message = f"initial.kind must be one of ('plane_wave', 'gaussian', 'kick'), got {kind!r}"
    assert _evolve({"kind": kind}, tmp_path, capsys) == (2, f"config error: {message}\n")


@pytest.mark.parametrize("name", ["r", "a", "M", "t0", "t1", "dt", "tol"])
def test_a_required_number_may_not_be_null(name, tmp_path, capsys):
    # null is the value of an optional number only (q, gamma, e_min, e_max);
    # in a required one it would reach a comparison as None
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"L": 4, name: None, "out_dir": str(tmp_path / "out")}))
    assert main(["classify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {name} must be a finite number, got None\n"
    assert config.RunConfig.from_dict({"L": 4, "q": None, "gamma": None}).q is None


@pytest.mark.parametrize("data, message", [
    ({"L": 1, "initial": "kick"}, "initial must be an object of finite numbers and a kind, got 'kick'"),
    ({"L": 1, "initial": {"kind": "laser"}}, "L must be at least 2, got 1"),
])
def test_initial_state_errors_keep_their_precedence(data, message):
    # the value check comes before the other settings, the kind check after
    with pytest.raises(config.ConfigError, match=f"^{re.escape(message)}$"):
        config.RunConfig.from_dict(data)


def test_validate_rebuilds_the_model_after_a_field_changes():
    cfg = config.RunConfig.from_dict({"family": "flat", "L": 6})
    cfg.L = 9
    cfg.validate()
    assert cfg.model().L == 9
    cfg.family = "bogus"
    with pytest.raises(config.ConfigError):
        cfg.validate()


def test_an_empty_outdir_environment_counts_as_unset(tmp_path, monkeypatch):
    assert _classify(tmp_path, monkeypatch, env="") == {"A"}
    assert main(["classify", "--family", "flat", "--L", "6"]) == 0
    assert (tmp_path / "symmetry.json").is_file()


@pytest.mark.parametrize("text, argv, message", [
    (None, ["classify", "--config", "run.json"],
     "cannot read config 'run.json': [Errno 2] No such file or directory: 'run.json'"),
    ("{bad", ["classify", "--config", "run.json"],
     "malformed JSON in 'run.json': Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ("[1]", ["classify", "--config", "run.json"], "config root must be an object, got list"),
    ('{"family": "custom", "alpha": 3, "beta": "1"}', ["classify", "--config", "run.json"],
     "alpha must be an expression string, got 3"),
    (None, ["ldos", "--L", "4", "--gamma", "0"], "gamma must be positive, got 0.0"),
    (None, ["ldos", "--L", "4", "--gamma", "-1"], "gamma must be positive, got -1.0"),
    (None, ["ldos", "--L", "4", "--e-min", "1", "--e-max", "1"], "need e_max > e_min, got [1.0, 1.0]"),
    (None, ["ldos", "--L", "4", "--e-min", "1", "--e-max", "0"], "need e_max > e_min, got [1.0, 0.0]"),
    (None, ["evolve", "--L", "4", "--dt", "0"], "dt must be positive, got 0.0"),
    (None, ["evolve", "--L", "4", "--dt", "-0.1"], "dt must be positive, got -0.1"),
    (None, ["classify", "--family", "custom", "--alpha", "1+x", "--L", "4"],
     "custom metric needs both alpha and beta expressions"),
], ids=["missing-file", "malformed-json", "list-root", "number-alpha", "zero-gamma", "negative-gamma",
        "empty-energy-range", "reversed-energy-range", "zero-dt", "negative-dt", "custom-alpha-only"])
def test_a_file_or_setting_error_is_one_line_and_writes_nothing(text, argv, message, tmp_path,
                                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "run.json").write_text(text)
    assert main([*argv, "--out-dir", "out"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_from_file_resolves_the_environment_and_flags_before_the_one_validation(monkeypatch):
    monkeypatch.setenv(config.OUTDIR_ENV, "B")
    cfg = config.RunConfig.from_file(None, {"L": 6, "k": 0.3, "branch": None, "out_dir": None})
    assert (cfg.L, cfg.out_dir, cfg.initial) == (6, "B", {"kind": "plane_wave", "k": 0.3, "branch": 1})
    # a flag-set field is checked with the rest of the run, before any command
    with pytest.raises(config.ConfigError, match="^initial must be an object of finite numbers"):
        config.RunConfig.from_file(None, {"k": float("inf")})
    # from_dict builds exactly the fields it is given
    assert config.RunConfig.from_dict({}).out_dir == "."


def test_evolve_checks_its_flag_set_initial_state_once(tmp_path, monkeypatch, capsys):
    calls = []
    check = config._check_initial
    monkeypatch.setattr(config, "_check_initial", lambda initial: calls.append(dict(initial)) or check(initial))
    argv = ["evolve", "--L", "8", "--t1", "0.01", "--dt", "0.005", "--k", "0.3", "--branch", "-1"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert calls == [{"kind": "plane_wave", "k": 0.3, "branch": -1}]
