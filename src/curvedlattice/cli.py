"""Command-line front end.

Subcommands

* ``spectrum`` — eigenvalues, residuals and a symmetry report per time slice
* ``ldos``     — LDOS grids on the real and/or imaginary energy axis, as CSV
  and optional cubehelix PPM heatmaps
* ``evolve``   — propagate an initial spinor field, write the norm trace and
  optional snapshots; ``--check-duality`` adds the flat-dual discrepancy
* ``classify`` — symmetry report only
* ``dump``     — the assembled matrix and the sampled metric tables

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  All
numeric output uses ``repr`` floats, so identical configs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig
from .errors import CurvedLatticeError
from .evolve import Route, curved_route, dual_route
from .heatmap import write_ppm
from .metric import distance_profile
from .observables import default_gamma, energy_grid, ldos_imag, ldos_real
from .operator import build, hermitian_residual
from .spectral import eig_general, eig_hermitian
from .symmetry import classify


def _floats(values) -> list[float]:
    """The values as Python floats, so that ``repr`` writes each number."""
    return np.asarray(values, dtype=float).tolist()


def _write_rows(path, header: str, rows) -> None:
    """The header, then each row of values as their ``repr``, written as the
    rows are produced."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_csv(path, header: str, *columns) -> None:
    """One row per index of the equal-length columns."""
    _write_rows(path, header, zip(*columns))


def _slice_suffix(times, t) -> str:
    return f"_t{t:g}" if len(times) > 1 else ""


def _decompose(H, tol):
    if hermitian_residual(H) <= tol:
        return eig_hermitian(H)
    return eig_general(H)


def _out(cfg, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def cmd_spectrum(cfg: RunConfig) -> list[str]:
    model = cfg.model()
    written = []
    for t in cfg.times:
        sample = model.sample(t)
        H = build(sample, cfg.M, cfg.a, cfg.bc)
        dec = _decompose(H, cfg.tol)
        suffix = _slice_suffix(cfg.times, t)
        path = _out(cfg, f"spectrum{suffix}.csv")
        ev = dec.eigenvalues
        _write_csv(
            path, "index,re_E,im_E,residual",
            range(ev.size), _floats(ev.real), _floats(ev.imag), _floats(dec.residuals),
        )
        written.append(path)
        report = classify(H, sample, tol=cfg.tol, decomposition=dec)
        jpath = _out(cfg, f"symmetry{suffix}.json")
        with open(jpath, "w") as fh:
            fh.write(report.to_json() + "\n")
        written.append(jpath)
    return written


def _grid_bounds(component: np.ndarray, gamma: float, cfg: RunConfig):
    if cfg.e_min is not None:
        return cfg.e_min, cfg.e_max
    lo, hi = float(component.min()), float(component.max())
    pad = max(0.05 * (hi - lo), 10.0 * gamma)
    return lo - pad, hi + pad


def cmd_ldos(cfg: RunConfig) -> list[str]:
    model = cfg.model()
    axes = ("real", "imaginary") if cfg.axis == "both" else (cfg.axis,)
    written = []
    meta = {}
    for t in cfg.times:
        sample = model.sample(t)
        H = build(sample, cfg.M, cfg.a, cfg.bc)
        dec = _decompose(H, cfg.tol)
        suffix = _slice_suffix(cfg.times, t)
        for axis in axes:
            gamma = cfg.gamma if cfg.gamma is not None else default_gamma(dec, axis)
            component = dec.eigenvalues.real if axis == "real" else dec.eigenvalues.imag
            lo, hi = _grid_bounds(component, gamma, cfg)
            grid = energy_grid(lo, hi, cfg.n_e)
            make = ldos_real if axis == "real" else ldos_imag
            ld = make(dec, grid, gamma)
            tag = "real" if axis == "real" else "imag"
            path = _out(cfg, f"ldos_{tag}{suffix}.csv")
            energies = [f",{e!r}," for e in _floats(grid)]  # formatted once
            with open(path, "w") as fh:
                fh.write("site,energy,value\n")
                for n, row in enumerate(ld.values):
                    site, values = str(n), _floats(row)
                    fh.write("".join([site + e + repr(v) + "\n" for e, v in zip(energies, values)]))
            written.append(path)
            meta[os.path.basename(path)] = {
                "t": t,
                "axis": axis,
                "gamma": gamma,
                "e_min": lo,
                "e_max": hi,
                "n_e": cfg.n_e,
                "normalized": ld.normalized,
            }
            if cfg.heatmap:
                ppm = _out(cfg, f"ldos_{tag}{suffix}.ppm")
                write_ppm(ppm, ld)
                written.append(ppm)
    mpath = _out(cfg, "ldos_meta.json")
    with open(mpath, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(mpath)
    return written


def _write_snapshots(cfg, snapshots, written):
    for snap in snapshots:
        path = _out(cfg, f"snapshot_t{snap.t:g}.csv")
        up, down = snap.values[0::2], snap.values[1::2]
        _write_csv(
            path, "site,re_0,im_0,re_1,im_1",
            range(up.size), _floats(up.real), _floats(up.imag),
            _floats(down.real), _floats(down.imag),
        )
        written.append(path)


def _discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    return np.linalg.norm(a - b) / na if na > 0 else 0.0


# Each route advances through its own name here, one call per step, so that
# a profiler wrapping `propagate` and `dual_propagate` in this module
# (perfbench/tracer.py) times the two routes apart.
def propagate(route: Route) -> None:
    """Advance the curved route one step."""
    route.advance()


def dual_propagate(route: Route) -> None:
    """Advance the flat-dual route one step."""
    route.advance()


def _trace_rows(curved: Route, dual: Route | None):
    """The ``trace.csv`` rows, each yielded once both routes reach its time.

    The routes step in lockstep, so memory does not grow with the step
    count, and a failed run has yielded the rows up to its last completed
    step.
    """
    while True:
        row = [curved.t, curved.norm, curved.eta_norm]
        if dual is not None:
            row.append(_discrepancy(curved.phys, dual.phys))
        yield _floats(row)
        if curved.done:
            return
        propagate(curved)
        if dual is not None:
            dual_propagate(dual)


def cmd_evolve(cfg: RunConfig) -> list[str]:
    run = (cfg.model(), cfg.M, cfg.initial_state(), cfg.t0, cfg.t1, cfg.dt, cfg.bc)
    curved = curved_route(*run, snapshot_times=cfg.snapshot_times)
    dual = dual_route(*run) if cfg.check_duality else None
    header = "t,norm,eta_norm" + (",duality_discrepancy" if dual is not None else "")
    path = _out(cfg, "trace.csv")
    _write_rows(path, header, _trace_rows(curved, dual))
    written = [path]
    _write_snapshots(cfg, curved.snapshots, written)
    return written


def cmd_classify(cfg: RunConfig) -> list[str]:
    model = cfg.model()
    t = cfg.times[0]
    sample = model.sample(t)
    H = build(sample, cfg.M, cfg.a, cfg.bc)
    report = classify(H, sample, tol=cfg.tol)
    path = _out(cfg, "symmetry.json")
    with open(path, "w") as fh:
        fh.write(report.to_json() + "\n")
    return [path]


def cmd_dump(cfg: RunConfig) -> list[str]:
    model = cfg.model()
    t = cfg.times[0]
    sample = model.sample(t)
    H = build(sample, cfg.M, cfg.a, cfg.bc)
    written = []
    mpath = _out(cfg, "matrix.csv")
    # the nonzero entries of the band, in row-major order
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for k, d in H.diagonals.items():
        i, j = H.positions(k)
        rows.append(i)
        cols.append(j)
        vals.append(d)
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    keep = np.flatnonzero(vals)
    order = keep[np.lexsort((cols[keep], rows[keep]))]
    _write_csv(
        mpath, "row,col,re,im",
        rows[order].tolist(), cols[order].tolist(),
        _floats(vals[order].real), _floats(vals[order].imag),
    )
    written.append(mpath)

    alpha, beta, dlog = sample.alpha, sample.beta, sample.dlog_beta_dt
    delta = distance_profile(sample)
    L = sample.L
    hop_f = np.zeros(L)
    hop_b = np.zeros(L)
    no_hops = np.zeros(2 * L - 2, dtype=complex)
    hop_f[:-1] = np.abs(H.diagonals.get(2, no_hops)[::2])
    hop_b[1:] = np.abs(H.diagonals.get(-2, no_hops)[::2])
    tpath = _out(cfg, "metric.csv")
    _write_csv(
        tpath,
        "n,x,alpha,beta,dlog_beta_dt,distance,hop_forward,hop_backward,onsite_mass,onsite_imag",
        range(L), _floats(np.arange(L) * cfg.a), _floats(alpha), _floats(beta),
        _floats(dlog), _floats(delta), _floats(hop_f), _floats(hop_b),
        _floats(cfg.M * alpha), _floats(-0.5 * dlog),
    )
    written.append(tpath)
    return written


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "ldos": cmd_ldos,
    "evolve": cmd_evolve,
    "classify": cmd_classify,
    "dump": cmd_dump,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--family", choices=(
        "flat", "rindler", "de_sitter", "anti_de_sitter", "weyl", "linear_conformal", "custom"))
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--alpha", help="custom metric alpha(x, t) expression")
    p.add_argument("--beta", help="custom metric beta(x, t) expression")
    p.add_argument("--L", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--M", type=float)
    p.add_argument("--bc", choices=("open", "periodic"))
    p.add_argument("--tol", type=float)
    p.add_argument("--times", type=float, nargs="+")
    p.add_argument("--out-dir", dest="out_dir")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedlattice",
        description="Lattice Dirac Hamiltonians for curved 1+1D spacetime metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("spectrum", "eigenvalues and symmetry report"),
        ("ldos", "local density of states grids"),
        ("evolve", "time evolution of a spinor field"),
        ("classify", "symmetry report only"),
        ("dump", "matrix and metric tables"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "ldos":
            p.add_argument("--axis", choices=("real", "imaginary", "both"))
            p.add_argument("--gamma", type=float)
            p.add_argument("--e-min", dest="e_min", type=float)
            p.add_argument("--e-max", dest="e_max", type=float)
            p.add_argument("--n-e", dest="n_e", type=int)
            p.add_argument("--heatmap", action="store_true", default=None)
        if name == "evolve":
            p.add_argument("--t0", type=float)
            p.add_argument("--t1", type=float)
            p.add_argument("--dt", type=float)
            p.add_argument("--k", type=float, help="plane-wave momentum")
            p.add_argument("--branch", type=int, choices=(1, -1))
            p.add_argument("--check-duality", action="store_true", default=None)
            p.add_argument("--snapshot-times", dest="snapshot_times", type=float, nargs="+")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {}
    skip = {"command", "config", "k", "branch"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        overrides[key] = value
    if args.command == "evolve" and (getattr(args, "k", None) is not None or getattr(args, "branch", None) is not None):
        overrides["initial"] = {
            "kind": "plane_wave",
            "k": getattr(args, "k", None) or 0.0,
            "branch": getattr(args, "branch", None) or 1,
        }
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    return RunConfig.from_dict(overrides)


_FAILURES = {2: "config error", 3: "numerical failure"}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        written = _COMMANDS[args.command](cfg)
    except (CurvedLatticeError, OSError) as err:
        # a package error carries its exit code; an unwritable output path
        # is a setting
        code = getattr(err, "exit_code", 2)
        print(f"{_FAILURES[code]}: {err}", file=sys.stderr)
        return code
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
