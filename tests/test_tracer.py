"""The benchmark's tracer still finds every function it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_traced_evolve_records_both_routes(tmp_path):
    # a massive Weyl metric is time dependent, so each step of both routes
    # goes through expm_apply
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
         "evolve", "--family", "weyl", "--q", "0.05", "--r", "0.3", "--L", "10",
         "--M", "0.5", "--t0", "0", "--t1", "0.005", "--dt", "1e-3", "--check-duality",
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["missing"] == []
    names = {span[0] for span in record["spans"]}
    assert {"evolve.propagate", "evolve.dual_propagate", "spectral.expm_apply"} <= names


def _traced(tmp_path, argv):
    """Run the CLI under perfbench/tracer.py; its spans and missing targets."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *argv,
         "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    return {span[0] for span in record["spans"]}, record["missing"]


_STATIC = {"family": "custom", "alpha": "exp(0.002*x)", "beta": "exp(0.002*x)", "L": 10, "M": 0.0}


@pytest.mark.parametrize("command,config,spans", [
    ("spectrum", {"family": "rindler", "M": 0.0, "L": 10},
     {"operator.build", "metric.sample", "spectral.eig_hermitian", "symmetry.classify"}),
    ("ldos", {"family": "de_sitter", "M": 1.0, "L": 10, "axis": "both", "heatmap": True, "n_e": 8},
     {"spectral.eig_general", "observables.ldos", "heatmap.write_ppm"}),
    ("classify", {"family": "anti_de_sitter", "M": 1.0, "L": 10},
     {"symmetry.classify", "spectral.eig_general_novec"}),
    ("dump", _STATIC, {"operator.build", "metric.sample"}),
    ("evolve", dict(_STATIC, t1=0.01, dt=1e-3), {"evolve.propagate", "spectral.propagator"}),
])
def test_traced_commands_record_their_layers(command, config, spans, tmp_path):
    # each command reads a config file, so config.from_file is wrapped too
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    names, missing = _traced(tmp_path, [command, "--config", str(path)])
    assert missing == []
    assert spans | {"config.from_file", f"cli.{command}"} <= names
