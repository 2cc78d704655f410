"""Argument front end of the ``curvedlattice`` command.

It imports no numpy and no numerical module: ``--help``, ``<command> -h``
and argument errors (exit 2) return before numpy loads, and :func:`main`
imports the commands of :mod:`curvedlattice.cli` only once the arguments
parse.
"""

from __future__ import annotations

import argparse
import re

FAMILIES = ("flat", "rindler", "de_sitter", "anti_de_sitter", "weyl", "linear_conformal", "custom")
BOUNDARY_CONDITIONS = ("open", "periodic")
AXES = ("real", "imaginary", "both")
# a value such as -3e-1 is a number, not an option (argparse's own test misses the exponent)
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.IGNORECASE)


def _add_common(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--alpha", help="custom metric alpha(x, t) expression")
    p.add_argument("--beta", help="custom metric beta(x, t) expression")
    p.add_argument("--L", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--M", type=float)
    p.add_argument("--bc", choices=BOUNDARY_CONDITIONS)
    if name in ("spectrum", "ldos", "classify"):  # the commands that read tol
        p.add_argument("--tol", type=float)
    if name != "evolve":  # evolve runs over [t0, t1], not on time slices
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
        p._negative_number_matcher = _NEGATIVE_NUMBER
        _add_common(p, name)
        if name == "ldos":
            p.add_argument("--axis", choices=AXES)
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


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``), then run its command."""
    args = _build_parser().parse_args(argv)
    from .cli import run

    return run(args)
