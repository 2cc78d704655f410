"""The commands of the ``curvedlattice`` CLI (its arguments: :mod:`.front`).

Subcommands

* ``spectrum`` — eigenvalues, residuals and a symmetry report per time slice
* ``ldos``     — LDOS grids on the real and/or imaginary energy axis, as CSV
  and optional cubehelix PPM heatmaps
* ``evolve``   — propagate an initial spinor field, write the norm trace and
  optional snapshots; ``--check-duality`` adds the flat-dual discrepancy
* ``classify`` — symmetry report per time slice
* ``dump``     — the assembled matrix and the sampled metric tables per time slice

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  All
numeric output uses ``repr`` floats, so identical configs produce
byte-identical files on the same numpy/BLAS build and thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .config import ConfigError, RunConfig
from .errors import CurvedLatticeError
from .front import _build_parser, main  # noqa: F401  (re-exported)
from .heatmap import write_ppm
from .metric import distance_profile
from .observables import default_gamma, energy_grid, ldos_imag, ldos_real
from .operator import band_blocks, band_positions, build, hermitian_residual
from .spectral import eig_general, eig_hermitian
from .symmetry import classify

if TYPE_CHECKING:
    from .evolve import Route


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


def _write_json(path, data) -> None:
    """``data`` as indented JSON with sorted keys, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _time_tags(what: str, times) -> list[str]:
    """The ``_t%g`` tag that names the outputs of each time.  Two times with
    one tag would write one file twice, so they are a config error."""
    first = {}
    for t in times:
        tag = f"_t{t:g}"
        if tag in first:
            raise ConfigError(f"{what} {first[tag]!r} and {t!r} share the output name tag {tag!r}")
        first[tag] = t
    return list(first)


def _decompose(H):
    # kept as the layer perfbench/tracer.py times; eig_general gives the same bytes
    if hermitian_residual(H) == 0.0:
        return eig_hermitian(H)
    return eig_general(H)


def _out(cfg, name: str, written: list[str]) -> str:
    """The path of output ``name``, listed in ``written``."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    written.append(path)
    return path


def _slices(cfg: RunConfig):
    """Each ``times`` slice as ``(t, suffix, sample, H)``: the time as the
    config gives it, the ``_t%g`` tag of its outputs (empty for a single
    slice), the sampled metric and the assembled operator.  The tags are
    checked before the first slice, so a run whose outputs would share a
    name writes nothing."""
    suffixes = _time_tags("times", cfg.times) if len(cfg.times) > 1 else [""]
    model = cfg.model()
    for t, suffix in zip(cfg.times, suffixes):
        sample = model.sample(t)
        yield t, suffix, sample, build(sample, cfg.M, cfg.a, cfg.bc)


def cmd_spectrum(cfg: RunConfig) -> list[str]:
    written = []
    for _, suffix, sample, H in _slices(cfg):
        dec = _decompose(H)
        ev = dec.eigenvalues
        _write_csv(
            _out(cfg, f"spectrum{suffix}.csv", written), "index,re_E,im_E,residual",
            range(ev.size), _floats(ev.real), _floats(ev.imag), _floats(dec.residuals),
        )
        report = classify(H, sample, tol=cfg.tol, decomposition=dec)
        _write_json(_out(cfg, f"symmetry{suffix}.json", written), report._asdict())
    return written


def _grid_bounds(component: np.ndarray, gamma: float, cfg: RunConfig):
    if cfg.e_min is not None:
        return cfg.e_min, cfg.e_max
    lo, hi = float(component.min()), float(component.max())
    pad = max(0.05 * (hi - lo), 10.0 * gamma)
    return lo - pad, hi + pad


def cmd_ldos(cfg: RunConfig) -> list[str]:
    axes = ("real", "imaginary") if cfg.axis == "both" else (cfg.axis,)
    written = []
    meta = {}
    for t, suffix, _, H in _slices(cfg):
        dec = _decompose(H)
        for axis in axes:
            gamma = cfg.gamma if cfg.gamma is not None else default_gamma(dec, axis)
            component = dec.eigenvalues.real if axis == "real" else dec.eigenvalues.imag
            lo, hi = _grid_bounds(component, gamma, cfg)
            grid = energy_grid(lo, hi, cfg.n_e)
            make = ldos_real if axis == "real" else ldos_imag
            ld = make(dec, grid, gamma)
            tag = "real" if axis == "real" else "imag"
            path = _out(cfg, f"ldos_{tag}{suffix}.csv", written)
            energies = [f",{e!r}," for e in _floats(grid)]  # formatted once
            with open(path, "w") as fh:
                fh.write("site,energy,value\n")
                for n, row in enumerate(ld.values):
                    site, values = str(n), _floats(row)
                    fh.write("".join([site + e + repr(v) + "\n" for e, v in zip(energies, values)]))
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
                write_ppm(_out(cfg, f"ldos_{tag}{suffix}.ppm", written), ld)
    _write_json(_out(cfg, "ldos_meta.json", written), meta)
    return written


def _write_snapshots(cfg, snapshots, written):
    tags = _time_tags("snapshot times", [snap.t for snap in snapshots])
    for snap, tag in zip(snapshots, tags):
        up, down = snap.values[0::2], snap.values[1::2]
        _write_csv(
            _out(cfg, f"snapshot{tag}.csv", written), "site,re_0,im_0,re_1,im_1",
            range(up.size), _floats(up.real), _floats(up.imag),
            _floats(down.real), _floats(down.imag),
        )


# Each route advances through its own name here, one call per step, so that
# a profiler wrapping `propagate` and `dual_propagate` in this module
# (perfbench/tracer.py) times the two routes apart.
def propagate(route: Route) -> None:
    """Advance the curved route one step."""
    route.advance()


def dual_propagate(route: Route) -> None:
    """Advance the flat-dual route one step."""
    route.advance()


def cmd_evolve(cfg: RunConfig) -> list[str]:
    from .evolve import curved_route, dual_route, trace_rows

    run = (cfg.model(), cfg.M, cfg.initial_state(), cfg.t0, cfg.t1, cfg.dt, cfg.bc)
    curved = curved_route(*run, snapshot_times=cfg.snapshot_times)
    dual = dual_route(*run) if cfg.check_duality else None
    header = "t,norm,eta_norm" + (",duality_discrepancy" if dual is not None else "")
    written = []
    rows = trace_rows(curved, dual, propagate, dual_propagate)
    _write_rows(_out(cfg, "trace.csv", written), header, rows)
    _write_snapshots(cfg, curved.snapshots, written)
    return written


def cmd_classify(cfg: RunConfig) -> list[str]:
    written = []
    for _, suffix, sample, H in _slices(cfg):
        report = classify(H, sample, tol=cfg.tol)
        _write_json(_out(cfg, f"symmetry{suffix}.json", written), report._asdict())
    return written


def cmd_dump(cfg: RunConfig) -> list[str]:
    written = []
    for _, suffix, sample, H in _slices(cfg):
        # the nonzero entries of the band, in row-major order
        rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
        for k, d in H.diagonals.items():
            i, j = band_positions(H.dim, k)
            rows.append(i)
            cols.append(j)
            vals.append(d)
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        keep = np.flatnonzero(vals)
        order = keep[np.lexsort((cols[keep], rows[keep]))]
        _write_csv(
            _out(cfg, f"matrix{suffix}.csv", written), "row,col,re,im",
            rows[order].tolist(), cols[order].tolist(),
            _floats(vals[order].real), _floats(vals[order].imag),
        )
        alpha, beta, dlog = sample.alpha, sample.beta, sample.dlog_beta_dt
        L = sample.L
        hop_f, hop_b, blocks = np.zeros(L), np.zeros(L), band_blocks(H.diagonals, L)
        pairs = [(1, hop_f[:-1]), (-1, hop_b[1:])]
        if cfg.bc == "periodic":  # the wraps, blocks (L − 1, 0) and (0, L − 1)
            pairs += [(1 - L, hop_f[-1:]), (L - 1, hop_b[:1])]
        for m, hops in pairs:  # |H[2n, 2((n ± 1) mod L)]|
            hops[:] = np.abs(blocks[m][:, 0, 0]) if m in blocks else 0.0
        _write_csv(
            _out(cfg, f"metric{suffix}.csv", written),
            "n,x,alpha,beta,dlog_beta_dt,distance,hop_forward,hop_backward,onsite_mass,onsite_imag",
            range(L), _floats(cfg.model().x), _floats(alpha), _floats(beta),
            _floats(dlog), _floats(distance_profile(sample)), _floats(hop_f), _floats(hop_b),
            _floats(cfg.M * alpha), _floats(-0.5 * dlog),
        )
    return written


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "ldos": cmd_ldos,
    "evolve": cmd_evolve,
    "classify": cmd_classify,
    "dump": cmd_dump,
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    return RunConfig.from_file(args.config, flags)


_FAILURES = {2: "config error", 3: "numerical failure"}


def run(args: argparse.Namespace) -> int:
    """Run the command of the parsed ``args``; its exit code."""
    try:
        written = _COMMANDS[args.command](_config_from_args(args))
    except (CurvedLatticeError, OSError, MemoryError) as err:
        # a package error carries its exit code; an unwritable output path
        # and an array too large to allocate are settings
        code = getattr(err, "exit_code", 2)
        print(f"{_FAILURES[code]}: {err}", file=sys.stderr)
        return code
    try:
        for path in written:
            print(path)
        sys.stdout.flush()
    except BrokenPipeError:
        # the files are written: a reader that closed stdout ends the listing,
        # and stdout goes to the null device so that the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0

