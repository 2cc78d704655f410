"""Workloads of the curvedlattice benchmark and the checks on their outputs.

A workload is the list of CLI commands of one pass.  Sizes are fixed per
workload; the seed draws only the free physical parameters, from ranges on
which every check below holds.  Each command receives its parameters as a
JSON config through ``--config``.

The checks need no golden bytes: they test row counts, exact symmetries,
the trace identity of the nonhermitian operator, norms and the flat-dual
cross-check, so they hold for any correct version of the program.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Sites per workload, and the evolved time span of evolve-timedep.  On a
# shared 2-vCPU virtual machine the speed drifts by 10-30 % within seconds,
# so a pass is kept short enough for a 30 s run to hold at least three of
# them and for medians to shed the bursts.  L = 120 keeps the spectra in the
# dense O(n^3) regime of production runs.  evolve-static runs at L = 250: at
# the production size L = 500 its 16 MB dense matrices per step make the
# run-to-run spread about twice as wide, while per-step sampling and
# assembly dominate at both sizes.
SIZES = {"spectra": 120, "evolve-timedep": 200, "evolve-static": 250}
TIMEDEP_SPAN = 0.025

DT = 1e-3
N_E = 400
DUALITY_BOUND = 1e-6  # acceptance criterion 7
ETA_DRIFT_BOUND = 1e-9
CHIRAL_BOUND = 1e-10
TRACE_BOUND = 1e-8


@dataclass(frozen=True)
class Command:
    """One CLI command of a pass.

    ``tag`` names the command's output directory and its timing metric
    ``<tag>_s``; ``check(out_dir, config)`` returns the problems found in
    the command's outputs, empty when they are correct.
    """

    tag: str
    sub: str
    config: dict
    check: Callable[[Path, dict], list[str]]


def commands(workload: str, seed: int, L: int | None = None) -> list[Command]:
    """The commands of one pass of ``workload``; ``L`` overrides the size."""
    rng = random.Random(f"{workload}/{seed}")
    L = L or SIZES[workload]
    if workload == "spectra":
        t = rng.uniform(0.25, 0.75)
        return [
            Command("hermitian_spectrum", "spectrum",
                    {"family": "rindler", "M": 0.0, "L": L}, check_hermitian_spectrum),
            Command("quasi_ldos", "ldos",
                    {"family": "de_sitter", "M": 1.0, "L": L, "axis": "both",
                     "heatmap": True, "n_e": N_E}, check_quasi_ldos),
            Command("quasi_classify", "classify",
                    {"family": "anti_de_sitter", "M": 1.0, "L": L}, check_quasi_classify),
            Command("nonhermitian_spectrum", "spectrum",
                    {"family": "linear_conformal", "r": 0.5, "M": 1.0, "L": L,
                     "times": [t]}, check_nonhermitian_spectrum),
        ]
    if workload == "evolve-timedep":
        t0 = rng.uniform(0.25, 0.5)
        k = rng.uniform(0.2, 0.6)
        return [
            Command("evolve", "evolve",
                    {"family": "linear_conformal", "r": 0.5, "M": 1.0, "L": L,
                     "t0": t0, "t1": t0 + TIMEDEP_SPAN, "dt": DT, "check_duality": True,
                     "initial": {"kind": "plane_wave", "k": k, "branch": 1}},
                    check_evolve),
        ]
    if workload == "evolve-static":
        c = rng.uniform(0.001, 0.003)
        k = rng.uniform(0.2, 0.6)
        metric = {"family": "custom", "alpha": "exp(c*x)", "beta": "exp(c*x)",
                  "params": {"c": c}, "L": L}
        return [
            Command("evolve", "evolve",
                    dict(metric, M=0.0, t0=0.0, t1=0.25, dt=DT, check_duality=True,
                         initial={"kind": "plane_wave", "k": k, "branch": 1}),
                    check_evolve_static),
            Command("dump", "dump", dict(metric, M=0.0), check_dump),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = tuple(SIZES)


# ---------------------------------------------------------------------------
# Reading outputs


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _column(rows, j: int) -> list[float]:
    return [float(r[j]) for r in rows]


def _count(name: str, rows, expected: int) -> list[str]:
    if len(rows) != expected:
        return [f"{name}: {len(rows)} rows, expected {expected}"]
    return []


def _symmetry(out: Path, name: str = "symmetry.json") -> dict:
    with open(out / name) as fh:
        return json.load(fh)


def _classification(report: dict, expected: str) -> list[str]:
    if report.get("classification") != expected:
        return [f"classification {report.get('classification')!r}, expected {expected!r}"]
    return []


def _default_q(L: int) -> float:
    """The program's default q pins the de Sitter horizon to site L-1 (a = 1)."""
    return 1.0 / (L - 1)


# ---------------------------------------------------------------------------
# Checks, one per command


def check_hermitian_spectrum(out: Path, cfg: dict) -> list[str]:
    """2L rows, exactly real spectrum, chiral E <-> -E pairing, class Hermitian."""
    _, rows = read_csv(out / "spectrum.csv")
    problems = _count("spectrum.csv", rows, 2 * cfg["L"])
    if any(v != 0.0 for v in _column(rows, 2)):
        problems.append("im_E not exactly 0 on the hermitian path")
    E = sorted(_column(rows, 1))
    gap = max((abs(a + b) for a, b in zip(E, reversed(E))), default=0.0)
    if not gap <= CHIRAL_BOUND:
        problems.append(f"chiral pairing broken: max |E_j + E_(n-1-j)| = {gap:.3g}")
    return problems + _classification(_symmetry(out), "Hermitian")


def _ppm_problems(path: Path, L: int, n_e: int) -> list[str]:
    data = path.read_bytes()
    header = f"P6\n{L} {n_e}\n255\n".encode("ascii")
    if not data.startswith(header):
        return [f"{path.name}: header {data[:20]!r}, expected {header!r}"]
    if len(data) != len(header) + 3 * L * n_e:
        return [f"{path.name}: {len(data)} bytes, expected {len(header) + 3 * L * n_e}"]
    return []


def check_quasi_ldos(out: Path, cfg: dict) -> list[str]:
    """L*n_e rows per axis with finite values in [0, 1], normalized grids,
    valid PPM headers, and the horizon zero mode at site L-1 peaking within
    one grid step of E = 0 on the real axis."""
    L, n_e = cfg["L"], cfg["n_e"]
    with open(out / "ldos_meta.json") as fh:
        meta = json.load(fh)
    problems = []
    for tag in ("real", "imag"):
        name = f"ldos_{tag}.csv"
        _, rows = read_csv(out / name)
        problems += _count(name, rows, L * n_e)
        if not all(0.0 <= v <= 1.0 for v in _column(rows, 2)):
            problems.append(f"{name}: value outside [0, 1] or not finite")
        if meta.get(name, {}).get("normalized") is not True:
            problems.append(f"ldos_meta.json: {name} not normalized")
        problems += _ppm_problems(out / f"ldos_{tag}.ppm", L, n_e)
        if tag == "real":
            horizon = [(float(r[2]), float(r[1])) for r in rows if int(r[0]) == L - 1]
            energies = sorted({float(r[1]) for r in rows})
            if len(horizon) < 2 or len(energies) < 2:
                problems.append("no real-axis LDOS at the horizon site")
                continue
            step = energies[1] - energies[0]
            _, e_peak = max(horizon)
            if not abs(e_peak) <= step:
                problems.append(f"horizon site {L - 1} peaks at E = {e_peak:.4g}, "
                                f"more than one grid step ({step:.4g}) from 0")
    return problems


def check_quasi_classify(out: Path, cfg: dict) -> list[str]:
    """Class QuasiHermitian with a real spectrum."""
    report = _symmetry(out)
    problems = _classification(report, "QuasiHermitian")
    if report.get("spectrum_real") is not True:
        problems.append("spectrum_real is not true")
    return problems


def check_nonhermitian_spectrum(out: Path, cfg: dict) -> list[str]:
    """2L rows, class NonHermitian, and the trace identity.

    tr H = sum_E = -i sum_n r/(r t + q n a): the hoppings and the mass term
    are traceless and each site contributes -(i/2) dlog(beta)/dt twice.
    """
    L, r, t = cfg["L"], cfg["r"], cfg["times"][0]
    _, rows = read_csv(out / "spectrum.csv")
    problems = _count("spectrum.csv", rows, 2 * L)
    q = _default_q(L)
    expected = -math.fsum(r / (r * t + q * n) for n in range(L))
    sum_re = math.fsum(_column(rows, 1))
    sum_im = math.fsum(_column(rows, 2))
    scale = abs(expected)
    if not abs(sum_im - expected) <= TRACE_BOUND * scale:
        problems.append(f"sum Im E = {sum_im!r}, trace identity gives {expected!r}")
    if not abs(sum_re) <= TRACE_BOUND * scale:
        problems.append(f"sum Re E = {sum_re!r}, expected 0")
    return problems + _classification(_symmetry(out), "NonHermitian")


def _trace_problems(out: Path, cfg: dict) -> tuple[list[str], list[list[str]]]:
    header, rows = read_csv(out / "trace.csv")
    if header != ["t", "norm", "eta_norm", "duality_discrepancy"]:
        return [f"trace.csv header {header}"], rows
    problems = []
    t0, t1, dt = cfg["t0"], cfg["t1"], cfg["dt"]
    ts = _column(rows, 0)
    # one row per step: t runs from t0 to t1 and no step is longer than dt,
    # so a dropped row shows as a gap
    if len(ts) < round((t1 - t0) / dt) + 1:
        problems.append(f"trace.csv: {len(ts)} rows for {round((t1 - t0) / dt)} steps")
    if not ts or abs(ts[0] - t0) > 1e-12 or abs(ts[-1] - t1) > 1e-12:
        problems.append("trace.csv does not run from t0 to t1")
    if not all(0.0 < b - a <= dt * (1 + 1e-9) for a, b in zip(ts, ts[1:])):
        problems.append("trace.csv: a step is missing or longer than dt")
    if not all(math.isfinite(v) for r in rows for v in map(float, r[1:3])):
        problems.append("trace.csv: non-finite norm")
    gap = max(_column(rows, 3), default=math.nan)
    if not gap < DUALITY_BOUND:
        problems.append(f"max duality_discrepancy {gap:.3g} not below {DUALITY_BOUND:g}")
    return problems, rows


def check_evolve(out: Path, cfg: dict) -> list[str]:
    """One trace row per step, finite norms, flat-dual discrepancy < 1e-6."""
    return _trace_problems(out, cfg)[0]


def check_evolve_static(out: Path, cfg: dict) -> list[str]:
    """:func:`check_evolve`, plus the conserved eta-norm of a static
    quasi-hermitian evolution (relative drift at most 1e-9)."""
    problems, rows = _trace_problems(out, cfg)
    eta = _column(rows, 2)
    drift = max(abs(v - eta[0]) for v in eta) / eta[0]
    if not drift <= ETA_DRIFT_BOUND:
        problems.append(f"eta-norm drift {drift:.3g} above {ETA_DRIFT_BOUND:g}")
    return problems


def check_dump(out: Path, cfg: dict) -> list[str]:
    """4(L-1) nonzeros (massless, static: the hopping blocks only), L metric rows."""
    L = cfg["L"]
    _, matrix = read_csv(out / "matrix.csv")
    _, metric = read_csv(out / "metric.csv")
    return _count("matrix.csv", matrix, 4 * (L - 1)) + _count("metric.csv", metric, L)


def trace_steps(out: Path) -> int:
    """Steps taken by both routes of a ``--check-duality`` evolve."""
    _, rows = read_csv(out / "trace.csv")
    return 2 * (len(rows) - 1)
