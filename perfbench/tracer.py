"""Run one curvedlattice CLI command with its layers timed from outside.

Usage: python tracer.py SPANS_JSON <curvedlattice arguments...>

The package modules import each other's functions by name (``from .x import
f``), so each public function is wrapped where it is looked up: in the
namespace of the calling module, on the class, or in the CLI's command
table.  Every call becomes a span (name, start, end, parent) kept in memory
and written to SPANS_JSON when the command ends.  A target that no longer
exists is listed under ``missing``, never recorded as zero calls.

Per-site helpers such as ``expr.evaluate`` or ``operator._guarded_hop`` are
deliberately not wrapped: a wrapper per lattice site would distort the run.
Their time shows as self time of the span that calls them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

CLI_COMMANDS = ("spectrum", "ldos", "evolve", "classify", "dump")


def _matrix_bytes(args, result):
    return {"bytes": int(result.matrix.nbytes)}


def _rel_residual(args, result):
    return {"rel_residual": result.max_residual / result.h_norm if result.h_norm else 0.0}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (module, attribute path at the lookup site, span name, measure on the result)
TARGETS = [
    ("curvedlattice.cli", "build", "operator.build", _matrix_bytes),
    ("curvedlattice.evolve", "build", "operator.build", _matrix_bytes),
    ("curvedlattice.cli", "eig_hermitian", "spectral.eig_hermitian", _rel_residual),
    ("curvedlattice.cli", "eig_general", "spectral.eig_general", _rel_residual),
    ("curvedlattice.symmetry", "eig_general", "spectral.eig_general_novec", None),
    ("curvedlattice.evolve", "expm_apply", "spectral.expm_apply", None),
    ("curvedlattice.evolve", "propagator", "spectral.propagator", None),
    ("curvedlattice.metric", "MetricModel.sample", "metric.sample", None),
    ("curvedlattice.cli", "ldos_real", "observables.ldos", None),
    ("curvedlattice.cli", "ldos_imag", "observables.ldos", None),
    ("curvedlattice.cli", "write_ppm", "heatmap.write_ppm", _file_bytes),
    ("curvedlattice.cli", "classify", "symmetry.classify", None),
    ("curvedlattice.cli", "propagate", "evolve.propagate", None),
    ("curvedlattice.cli", "dual_propagate", "evolve.dual_propagate", None),
    ("curvedlattice.config", "RunConfig.from_file", "config.from_file", None),
] + [
    ("curvedlattice.cli", f"_COMMANDS[{c}]", f"cli.{c}", _written_bytes) for c in CLI_COMMANDS
]

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Recorder:
    """Spans of one process: [name, parent index, start, end, measures]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[list[str]] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span[4] = measure(args, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for module, attr, name, measure in targets:
            try:
                self._install(importlib.import_module(module), attr, name, measure)
            except (ImportError, AttributeError, KeyError):
                self.missing.append([f"{module}.{attr}", name])

    def _install(self, module, attr: str, name: str, measure) -> None:
        if attr.endswith("]"):  # an entry of a dispatch table: table[key]
            table, key = attr[:-1].split("[")
            entries = getattr(module, table)
            entries[key] = self.wrap(entries[key], name, measure)
            return
        owner_path, _, leaf = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[leaf]  # raises KeyError when absent
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(raw.__func__, name, measure)))
            else:
                setattr(owner, leaf, self.wrap(raw, name, measure))
        else:
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name, measure))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from curvedlattice import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": recorder.spans, "missing": recorder.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
