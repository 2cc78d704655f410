"""End-to-end and per-layer benchmark of the curvedlattice CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {spectra,evolve-timedep,evolve-static}
        --seed N --seconds S --trace {0,1}

One closed-loop client (a single process, one command in flight) runs the
workload's commands one after another, each as ``python -m curvedlattice
<command> --config <generated JSON>`` in a fresh interpreter, the way users
run them, and checks every output (see ``workloads.py``).

``--trace 0`` runs passes until the next one would end after ``--seconds``,
but at least three, so that medians shed a burst of machine noise and each
pass's data files can be compared with the first's.  Before each pass it
times ``python -m curvedlattice --help`` twice.  It reports
``setup_s`` (median ``--help`` time: interpreter start, package import,
argument parsing), ``wall_s`` (a typical pass: the sum of each command's
median time) and ``peak_rss_mb`` (median over passes of the largest peak
RSS among the pass's commands).  The per-command times, ``steps_per_s`` and
the fail ratio are printed as well.

``--trace 1`` runs one untraced pass and one traced pass, in which every
command runs under ``tracer.py`` with the package's public functions
wrapped, and reports per-layer metrics from the spans; ``trace.overhead_s``
is the traced minus the untraced pass wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every other line is
a readable report.  A run record (machine, BLAS threads, numpy build, git
SHA, seed, resolved configs, every sample and every problem found) is
written to ``.perfbench/<workload>-seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PY = sys.executable

SETUP_PER_PASS = 2  # --help samples taken before each pass
MIN_PASSES = 3
RUN_LIMIT_S = 160.0  # a run must end within 180 s, however slow the machine
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
LAYERS = tuple(sorted({name.split(".")[0] for name in tracer.SPAN_NAMES}))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in tracer.SPAN_NAMES:
        units |= {f"{span}.calls": "count", f"{span}.total_s": "s", f"{span}.self_s": "s"}
    units |= {
        "operator.build.bytes": "bytes",
        "operator.build.useful_ratio": "ratio",
        "heatmap.write_ppm.bytes": "bytes",
        "spectral.max_rel_residual": "ratio",
        "cli.bytes_written": "bytes",
    }
    units |= {f"layer.{layer}.self_s": "s" for layer in LAYERS}
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CURVEDLATTICE_OUTDIR", None)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    return env


# ---------------------------------------------------------------------------
# Processes


def spawn(argv: list[str], env: dict, log_path: Path, timeout: float) -> tuple[int, float, float]:
    """Run ``argv`` to its end; return (exit code, wall seconds, peak RSS in MB).

    The child is killed when ``timeout`` passes.  Its resource usage is read
    with ``os.wait4``, which also reaps it.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        pidfd = os.pidfd_open(proc.pid)
        finished = []
        try:
            finished = select.select([pidfd], [], [], max(timeout, 0.0))[0]
        finally:
            os.close(pidfd)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _check(cmd: workloads.Command, out: Path, config: dict) -> list[str]:
    try:
        return cmd.check(out, config)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


@dataclass
class Pass:
    """One pass of a workload's commands, with what its checks found."""

    wall: float
    seconds: dict[str, float]
    rss_mb: float
    steps: int
    digests: dict[str, str]
    problems: dict[str, list[str]]
    spans: list[dict] = field(default_factory=list)


def run_pass(cmds, pass_dir: Path, env: dict, deadline: float, traced: bool = False) -> Pass:
    """Run every command once, then check and hash its outputs.

    Checks run after the last command, outside the timed loop.  The output
    directories are removed afterwards; only their hashes are kept.
    """
    pass_dir.mkdir(parents=True)
    runs = []
    start = time.perf_counter()
    for cmd in cmds:
        cfg_path = pass_dir / f"{cmd.tag}.json"
        cfg_path.write_text(json.dumps(dict(cmd.config, out_dir=str(pass_dir / cmd.tag))))
        args = [cmd.sub, "--config", str(cfg_path)]
        if traced:
            argv = [PY, str(HERE / "tracer.py"), str(pass_dir / f"{cmd.tag}.spans.json"), *args]
        else:
            argv = [PY, "-m", "curvedlattice", *args]
        runs.append(spawn(argv, env, pass_dir / f"{cmd.tag}.log", deadline - time.perf_counter()))
    wall = time.perf_counter() - start

    result = Pass(wall, {}, max(rss for _, _, rss in runs), 0, {}, {})
    for cmd, (code, secs, _) in zip(cmds, runs):
        out = pass_dir / cmd.tag
        result.seconds[cmd.tag] = secs
        if code != 0:
            log = (pass_dir / f"{cmd.tag}.log").read_text(errors="replace")
            problems = [f"exit code {code}: {log[-500:].strip()}"]
        else:
            problems = _check(cmd, out, cmd.config)
            result.digests[cmd.tag] = _digest(out)
            if cmd.sub == "evolve" and not problems:
                result.steps += workloads.trace_steps(out)
        result.problems[cmd.tag] = problems
        if traced and code == 0:
            result.spans.append(json.loads((pass_dir / f"{cmd.tag}.spans.json").read_text()))
    shutil.rmtree(pass_dir)
    return result


# ---------------------------------------------------------------------------
# Metrics


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)) - 1, 0)]


def describe(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    tail = next((p for p in (99.9, 99.0, 90.0, 75.0, 50.0) if n * (1 - p / 100.0) >= 10), None)
    if tail is None:
        return f"{text}  (n={n}; too few samples for a tail percentile)"
    return f"{text}  p{tail:g} {percentile(samples, tail):.6g}  (n={n})"


def layer_metrics(docs: list[dict]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from the span files of one traced pass.

    Self time is a span's duration minus the time covered by its direct
    children.  Returns the metrics and, by span name, each wrap target that
    was missing; metrics that depend on a missing span are left out.
    """
    stats = {s: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0} for s in tracer.SPAN_NAMES}
    residuals = [0.0]  # stays 0 when no decomposition with vectors ran
    missing = {}
    for doc in docs:
        missing.update((name, target) for target, name in doc["missing"])
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, _, start, end, extra) in enumerate(spans):
            st = stats[name]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - covered[i]
            st["bytes"] += extra.get("bytes", 0)
            residuals.append(extra.get("rel_residual", 0.0))

    metrics = {}
    depends = {}
    for span, st in stats.items():
        for key in ("calls", "total_s", "self_s"):
            metrics[f"{span}.{key}"] = st[key]
            depends[f"{span}.{key}"] = {span}
    builds = stats["operator.build"]["calls"]
    extra = {
        "operator.build.bytes": (stats["operator.build"]["bytes"], {"operator.build"}),
        "operator.build.useful_ratio": (
            stats["spectral.propagator"]["calls"] / builds if builds else 0.0,
            {"operator.build", "spectral.propagator"},
        ),
        "heatmap.write_ppm.bytes": (stats["heatmap.write_ppm"]["bytes"], {"heatmap.write_ppm"}),
        "spectral.max_rel_residual": (
            max(residuals), {"spectral.eig_hermitian", "spectral.eig_general"}),
        "cli.bytes_written": (
            sum(st["bytes"] for s, st in stats.items() if s.startswith("cli.")),
            {s for s in stats if s.startswith("cli.")},
        ),
    }
    for layer in LAYERS:
        spans = {s for s in stats if s.split(".")[0] == layer}
        extra[f"layer.{layer}.self_s"] = (sum(stats[s]["self_s"] for s in spans), spans)
    for name, (value, needs) in extra.items():
        metrics[name] = value
        depends[name] = needs
    kept = {name: v for name, v in metrics.items() if not depends[name] & missing.keys()}
    return kept, missing


# ---------------------------------------------------------------------------
# Runs


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)

    def count(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def add_pass(self, index: int, p: Pass, reference: Pass) -> None:
        for tag, problems in p.problems.items():
            if tag in p.digests and tag in reference.digests and p.digests[tag] != reference.digests[tag]:
                problems = problems + ["data files differ from the first pass's"]
            self.count(f"pass {index} {tag}", problems)


def _help(env: dict, work: Path, out: Outcome, timeout: float) -> float:
    code, secs, _ = spawn([PY, "-m", "curvedlattice", "--help"], env, work / "help.log", timeout)
    out.count("--help", [f"exit code {code}"] if code else [])
    return secs


def timed_run(cmds, work: Path, env: dict, seconds: float, run_start: float) -> Outcome:
    out = Outcome()
    deadline = run_start + RUN_LIMIT_S
    _help(env, work, out, deadline - time.perf_counter())  # warm-up: bytecode compile
    setup: list[float] = []
    passes: list[Pass] = []
    rounds: list[float] = []
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setup += [_help(env, work, out, deadline - time.perf_counter()) for _ in range(SETUP_PER_PASS)]
        p = run_pass(cmds, work / f"pass{len(passes)}", env, deadline)
        passes.append(p)
        out.add_pass(len(passes) - 1, p, passes[0])
        now = time.perf_counter()
        rounds.append(now - round_start)
        next_end = now + statistics.median(rounds)
        if next_end > deadline or (len(passes) >= MIN_PASSES and next_end - measure_start > seconds):
            break

    out.samples = {"setup_s": setup, "pass_s": [p.wall for p in passes],
                   "peak_rss_mb": [p.rss_mb for p in passes]}
    for cmd in cmds:
        out.samples[f"{cmd.tag}_s"] = [p.seconds[cmd.tag] for p in passes]
    if any(cmd.sub == "evolve" for cmd in cmds):
        out.samples["steps_per_s"] = [p.steps / p.seconds["evolve"] for p in passes]
    out.metrics = {
        "setup_s": statistics.median(setup),
        # a typical pass: one burst of machine noise moves a single command's
        # time in a single pass, and the per-command median sheds it
        "wall_s": sum(statistics.median(out.samples[f"{cmd.tag}_s"]) for cmd in cmds),
        "peak_rss_mb": statistics.median(out.samples["peak_rss_mb"]),
    }
    return out


def traced_run(cmds, work: Path, env: dict, run_start: float) -> Outcome:
    out = Outcome()
    deadline = run_start + RUN_LIMIT_S
    _help(env, work, out, deadline - time.perf_counter())  # warm-up: bytecode compile
    plain = run_pass(cmds, work / "untraced", env, deadline)
    out.add_pass(0, plain, plain)
    traced = run_pass(cmds, work / "traced", env, deadline, traced=True)
    out.add_pass(1, traced, plain)
    out.metrics, missing = layer_metrics(traced.spans)
    out.metrics["trace.overhead_s"] = traced.wall - plain.wall
    out.missing = [f"{target} (span {name})" for name, target in sorted(missing.items())]
    out.samples = {"untraced_wall_s": [plain.wall], "traced_wall_s": [traced.wall]}
    return out


# ---------------------------------------------------------------------------
# Run record


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, cmds, outcome: Outcome) -> dict:
    import numpy

    try:
        numpy_config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config only
        numpy_config = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: str(BLAS_THREADS) for var in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_config": numpy_config,
        "git_sha": _git_sha(),
        "configs": {cmd.tag: {"command": cmd.sub, **cmd.config} for cmd in cmds},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "missing_wrap_targets": outcome.missing,
        "samples": outcome.samples,
        "metrics": outcome.metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "curvedlattice" / "cli.py").is_file():
        print(f"no curvedlattice sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2

    run_start = time.perf_counter()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = workloads.commands(args.workload, args.seed)
    env = child_env()
    if args.trace:
        outcome = traced_run(cmds, work, env, run_start)
        units = per_layer_units()
    else:
        outcome = timed_run(cmds, work, env, args.seconds, run_start)
        units = END_TO_END
    (work / "record.json").write_text(json.dumps(run_record(args, cmds, outcome), indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{outcome.attempted} commands, {outcome.failed} failed "
          f"(fail_ratio {outcome.failed / outcome.attempted:.6g})")
    for problem in outcome.problems:
        print(f"FAILED {problem}")
    for target in outcome.missing:
        print(f"MISSING wrap target {target}")
    for name, samples in outcome.samples.items():
        print(f"  {name:<28} {describe(samples)}")
    for name, value in outcome.metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"record: {work / 'record.json'}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
