"""Start-up cost: help, usage errors and a bare import load no numpy, each
command loads only the package modules it runs, and the lazy package
namespace still exports every public name."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvedlattice

ROOT = Path(__file__).resolve().parent.parent

# Run the package as ``python -m curvedlattice ARGS`` does, then report the
# exit code and whether numpy was loaded on the last line of stdout.
_RUN_MODULE = """
import json, runpy, sys
try:
    runpy.run_module("curvedlattice", run_name="__main__")
    code = None
except SystemExit as stop:
    code = stop.code
print(json.dumps([code, "numpy" in sys.modules]))
"""


# ... then the exit code and the package modules loaded, on one more line
_RUN_MODULE_LOADED = _RUN_MODULE + (
    'print(json.dumps([code, [m for m in sys.modules if m.startswith("curvedlattice.")]]))\n'
)


def _python(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1], proc.stderr


@pytest.mark.parametrize("argv", [
    ["--help"], *[[command, "-h"] for command in ("spectrum", "ldos", "evolve", "classify", "dump")],
], ids=lambda argv: " ".join(argv))
def test_help_loads_no_numpy(argv):
    last, _ = _python(_RUN_MODULE, *argv)
    assert json.loads(last) == [0, False]


def test_usage_error_loads_no_numpy():
    last, err = _python(_RUN_MODULE, "evolve", "--nope")
    assert json.loads(last) == [2, False]
    assert "unrecognized arguments: --nope" in err and "Traceback" not in err


_CATALOG = ["--family", "de_sitter", "--L", "8"]
# the modules whose functions perfbench/tracer.py wraps where cli looks them up
_LOOKUP_SITES = {"spectral", "symmetry", "observables", "heatmap"}


@pytest.mark.parametrize("argv,loads,skips", [
    *[pytest.param([command, *_CATALOG], set(), {"expr", "evolve"}, id=command)
      for command in ("spectrum", "ldos", "classify", "dump")],
    pytest.param(["evolve", "--family", "linear_conformal", "--q", "0.1", "--r", "0.5", "--L", "8",
                  "--t0", "0.1", "--t1", "0.102", "--dt", "1e-3"], {"evolve"}, {"expr"}, id="evolve"),
    pytest.param(["classify", "--family", "custom", "--alpha", "1+0.1*x", "--beta", "exp(-t)",
                  "--L", "8"], {"expr"}, {"evolve"}, id="custom"),
])
def test_commands_load_only_the_modules_they_run(argv, loads, skips, tmp_path):
    # the metric DSL loads for a custom metric alone, evolve for evolve alone
    last, _ = _python(_RUN_MODULE_LOADED, *argv, "--out-dir", str(tmp_path))
    code, loaded = json.loads(last)
    loaded = {name.removeprefix("curvedlattice.") for name in loaded}
    assert code == 0
    assert loads | _LOOKUP_SITES <= loaded
    assert not skips & loaded


# Run each command line of argv in one process, then report the exit codes
# and whether `dataclasses` was loaded
_RUN_COMMANDS = """
import json, sys
from curvedlattice import front
codes = [front.main(argv.split()) for argv in sys.argv[1:]]
print(json.dumps([codes, "dataclasses" in sys.modules]))
"""


def test_no_command_loads_dataclasses(tmp_path):
    # the records are named tuples and plain classes, so no module generates
    # their methods at import: not the catalog commands, evolve or a custom metric
    out = f"--out-dir {tmp_path}"
    commands = [f"{command} {' '.join(_CATALOG)} {out}"
                for command in ("spectrum", "ldos", "classify", "dump")] + [
        "evolve --family linear_conformal --q 0.1 --r 0.5 --L 8 --t0 0.1 --t1 0.102 --dt 1e-3"
        f" --check-duality {out}",
        f"classify --family custom --alpha 1+0.1*x --beta exp(-t) --L 8 {out}",
    ]
    last, _ = _python(_RUN_COMMANDS, *commands)
    assert json.loads(last) == [[0] * len(commands), False]


def test_bare_import_loads_no_numpy():
    last, _ = _python("import sys, curvedlattice; print('numpy' in sys.modules)")
    assert last == "False"


def test_installed_command_loads_no_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["curvedlattice"]
    module, _, attr = entry.partition(":")
    code = (
        "import importlib, sys\n"
        f"main = getattr(importlib.import_module({module!r}), {attr!r})\n"
        "sys.argv = ['curvedlattice', '--help']\n"
        "try:\n    main()\nexcept SystemExit as stop:\n    assert stop.code == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    last, _ = _python(code)
    assert last == "False"


# the package namespace before it became lazy: each submodule's exports
_EXPORTED = {
    "errors": ["CurvedLatticeError"],
    "evolve": ["EvolutionTrace", "SpinorField", "dual_propagate", "gaussian_packet",
               "plane_wave", "propagate", "single_site"],
    "expr": ["diff_t", "evaluate", "parse", "to_source"],
    "heatmap": ["cubehelix", "cubehelix_rgb", "render_ppm", "write_ppm"],
    "metric": ["MetricModel", "SampledMetric", "distance_profile"],
    "observables": ["LdosGrid", "default_gamma", "energy_grid", "horizon_modes", "ldos_imag",
                    "ldos_real", "lorentzian_delta", "site_weights"],
    "operator": ["LatticeOperator", "build", "flat_dispersion", "hermitian_residual",
                 "naive_build"],
    "spectral": ["SpectralDecomposition", "StepOperator", "eig_general", "eig_hermitian", "expm",
                 "expm_apply", "match_eigenvalues", "propagator", "spectral_mismatch"],
    "symmetry": ["SymmetryReport", "classify", "imaginary_gauge", "unbroken_pt"],
}


@pytest.mark.parametrize("module", sorted(_EXPORTED))
def test_lazy_exports_are_the_submodule_objects(module):
    submodule = importlib.import_module(f"curvedlattice.{module}")
    assert getattr(curvedlattice, module) is submodule
    for name in _EXPORTED[module]:
        assert getattr(curvedlattice, name) is getattr(submodule, name)


def test_dir_lists_every_export_and_unknown_names_raise():
    listed = set(dir(curvedlattice))
    assert {name for names in _EXPORTED.values() for name in names} | set(_EXPORTED) <= listed
    assert {"cli", "config", "__version__"} <= listed
    with pytest.raises(AttributeError, match="no_such_name"):
        curvedlattice.no_such_name
    from curvedlattice import cli, spectral

    assert cli is curvedlattice.cli and spectral is curvedlattice.spectral


# The resident pages that one 2×2 complex product adds: OpenBLAS touches its
# GEMM buffer on a process's first level-3 call, so a process that has made
# one already grows by (almost) nothing.
_GEMM_GROWTH = """
import os, sys
import numpy as np

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

if len(sys.argv) > 1:
    from curvedlattice import front
    for argv in sys.argv[1:]:
        assert front.main(argv.split()) == 0
x = np.ones((2, 2), dtype=complex)
before = resident()
x @ x
print((resident() - before) / 2**20)
"""


def test_band_commands_take_no_matrix_product(tmp_path):
    # dump and a band-route evolve build operators and classify nothing, so
    # neither touches the GEMM buffer: the first product afterwards still does
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("no /proc/self/statm")
    bare = float(_python(_GEMM_GROWTH)[0])
    if bare < 0.1:
        pytest.skip(f"a first 2x2 product adds only {bare:.3f} MB: not OpenBLAS's GEMM buffer")
    out = f"--out-dir {tmp_path}"
    after = float(_python(
        _GEMM_GROWTH,
        f"dump --family de_sitter --L 50 --M 1 {out}",
        "evolve --family linear_conformal --r 0.5 --q 0.01 --L 50 --t0 0.3 --t1 0.31"
        f" --dt 0.001 --check-duality {out}",
    )[0])
    assert after >= bare / 2


# OpenBLAS reads its thread count from the first of these that is set
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# ... then the OPENBLAS_NUM_THREADS the command ran with, on one more line
_RUN_MODULE_THREADS = _RUN_MODULE + (
    'import os\nprint(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))\n'
)


def _run_with_threads(threads: dict, *argv):
    """Exit code and OPENBLAS_NUM_THREADS of a command run with only the
    thread variables of ``threads`` set."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    env.update(threads, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MODULE_THREADS, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    *_, status, seen = proc.stdout.splitlines()
    return json.loads(status)[0], json.loads(seen)


def test_a_command_runs_on_one_blas_thread_unless_a_count_is_set(tmp_path, monkeypatch):
    # with none of the variables set the front end sets one thread before
    # numpy loads; any variable the user set wins
    argv = ["classify", *_CATALOG, "--out-dir", str(tmp_path)]
    for threads, seen in [
        ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"GOTO_NUM_THREADS": "2"}, None), ({"OMP_NUM_THREADS": "2"}, None),
    ]:
        assert _run_with_threads(threads, *argv) == (0, seen), threads
    # in process, once numpy has loaded, the environment is left as it is
    import numpy  # noqa: F401

    from curvedlattice.front import main

    for name in _THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    assert main(argv) == 0
    assert not set(_THREAD_VARIABLES) & os.environ.keys()


def test_the_default_thread_count_writes_the_one_thread_bytes(tmp_path):
    # these LDOS grids differ in their last digits at one and two threads
    argv = ["ldos", "--family", "de_sitter", "--M", "1", "--L", "200", "--axis", "both"]
    files = []
    for name, threads in [("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})]:
        assert _run_with_threads(threads, *argv, "--out-dir", str(tmp_path / name))[0] == 0
        files.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
    assert sorted(files[0]) == ["ldos_imag.csv", "ldos_meta.json", "ldos_real.csv"]
    assert files[0] == files[1]
