"""The benchmark's tracer still finds every function it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
