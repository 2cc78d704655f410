"""Fast self-test of the benchmark harness at a tiny lattice size.

Usage, from the root of a checkout: python3 perfbench/selftest.py

It shows that every workload passes its checks at L = 12, that each check
rejects a corrupted output (a dropped row, a flipped sign, a wrong class,
...), that the traced run reports every per-layer metric named in
BENCHMARK.json and reports a vanished wrap target as missing rather than as
zero, and that BENCHMARK.json names exactly the metrics the harness prints.
Exits 1 if anything fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import tracer
import workloads

TINY_L = 12
SEED = 7


def _edit_csv(path, edit):
    header, rows = workloads.read_csv(path)
    rows = edit(rows)
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def _edit_json(path, key, value):
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))


def _set(row, j, value):
    row[j] = value
    return row


def _move_horizon_peak(rows):
    horizon = [r for r in rows if int(r[0]) == TINY_L - 1]
    for r in horizon:
        r[2] = "0.0"
    horizon[-1][2] = "1.0"  # the peak now sits at E_max
    return rows


def _flip_largest_im(rows):
    j = max(range(len(rows)), key=lambda i: abs(float(rows[i][2])))
    rows[j][2] = repr(-float(rows[j][2]))
    return rows


def _scale(j, factor):
    def edit(rows):
        rows[-1][j] = repr(float(rows[-1][j]) * factor)
        return rows
    return edit


# tag -> [(corruption, function applied to the command's output directory)]
CORRUPTIONS = {
    "hermitian_spectrum": [
        ("dropped spectrum row", lambda d: _edit_csv(d / "spectrum.csv", lambda r: r[:-1])),
        ("nonzero im_E", lambda d: _edit_csv(d / "spectrum.csv", lambda r: [_set(r[0], 2, "1e-300")] + r[1:])),
        ("broken chiral pairing", lambda d: _edit_csv(
            d / "spectrum.csv", lambda r: [_set(r[0], 1, repr(float(r[0][1]) + 1e-8))] + r[1:])),
        ("wrong class", lambda d: _edit_json(d / "symmetry.json", "classification", "QuasiHermitian")),
    ],
    "quasi_ldos": [
        ("value above 1", lambda d: _edit_csv(d / "ldos_real.csv", lambda r: [_set(r[0], 2, "1.5")] + r[1:])),
        ("nan value", lambda d: _edit_csv(d / "ldos_imag.csv", lambda r: [_set(r[0], 2, "nan")] + r[1:])),
        ("dropped LDOS row", lambda d: _edit_csv(d / "ldos_imag.csv", lambda r: r[1:])),
        ("unnormalized grid", lambda d: _edit_json(
            d / "ldos_meta.json", "ldos_real.csv",
            dict(json.loads((d / "ldos_meta.json").read_text())["ldos_real.csv"], normalized=False))),
        ("bad PPM header", lambda d: (d / "ldos_real.ppm").write_bytes(
            b"P5" + (d / "ldos_real.ppm").read_bytes()[2:])),
        ("truncated PPM", lambda d: (d / "ldos_imag.ppm").write_bytes(
            (d / "ldos_imag.ppm").read_bytes()[:-3])),
        ("horizon peak away from E = 0", lambda d: _edit_csv(d / "ldos_real.csv", _move_horizon_peak)),
    ],
    "quasi_classify": [
        ("wrong class", lambda d: _edit_json(d / "symmetry.json", "classification", "NonHermitian")),
        ("complex spectrum", lambda d: _edit_json(d / "symmetry.json", "spectrum_real", False)),
    ],
    "nonhermitian_spectrum": [
        ("flipped im_E sign", lambda d: _edit_csv(d / "spectrum.csv", _flip_largest_im)),
        ("shifted re_E", lambda d: _edit_csv(
            d / "spectrum.csv", lambda r: [_set(r[0], 1, repr(float(r[0][1]) + 1e-3))] + r[1:])),
        ("dropped spectrum row", lambda d: _edit_csv(d / "spectrum.csv", lambda r: r[:-1])),
        ("wrong class", lambda d: _edit_json(d / "symmetry.json", "classification", "QuasiHermitian")),
    ],
    "evolve": [
        ("dropped trace row", lambda d: _edit_csv(d / "trace.csv", lambda r: r[:5] + r[6:])),
        ("dropped last trace row", lambda d: _edit_csv(d / "trace.csv", lambda r: r[:-1])),
        ("non-finite norm", lambda d: _edit_csv(d / "trace.csv", lambda r: [r[0], _set(r[1], 1, "inf")] + r[2:])),
        ("duality gap", lambda d: _edit_csv(d / "trace.csv", lambda r: r[:-1] + [_set(r[-1], 3, "1e-3")])),
    ],
    "dump": [
        ("dropped matrix entry", lambda d: _edit_csv(d / "matrix.csv", lambda r: r[:-1])),
        ("dropped metric row", lambda d: _edit_csv(d / "metric.csv", lambda r: r[:-1])),
    ],
}
STATIC_ONLY = [("eta-norm drift", lambda d: _edit_csv(d / "trace.csv", _scale(2, 1 + 1e-7)))]


class SelfTest:
    def __init__(self):
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)

    def checks_reject_corruption(self, workload, cmds, base, env) -> None:
        for cmd in cmds:
            clean = base / cmd.tag
            cfg = base / f"{cmd.tag}.json"
            cfg.write_text(json.dumps(dict(cmd.config, out_dir=str(clean))))
            code, _, _ = run.spawn([run.PY, "-m", "curvedlattice", cmd.sub, "--config", str(cfg)],
                                   env, base / f"{cmd.tag}.log", 60.0)
            problems = run._check(cmd, clean, cmd.config) if code == 0 else [f"exit code {code}"]
            self.expect(not problems, f"{workload}/{cmd.tag}: clean output passes {problems}")
            corruptions = CORRUPTIONS[cmd.tag]
            if cmd.check is workloads.check_evolve_static:
                corruptions = corruptions + STATIC_ONLY
            for what, corrupt in corruptions:
                broken = base / f"{cmd.tag}-broken"
                shutil.copytree(clean, broken)
                corrupt(broken)
                rejected = bool(run._check(cmd, broken, cmd.config))
                self.expect(rejected and run._digest(broken) != run._digest(clean),
                            f"{workload}/{cmd.tag}: check and determinism hash reject {what}")
                shutil.rmtree(broken)

    def passes(self, workload, cmds, base, env) -> None:
        deadline = time.perf_counter() + 120.0
        plain = run.run_pass(cmds, base / "untraced", env, deadline)
        traced = run.run_pass(cmds, base / "traced", env, deadline, traced=True)
        for name, p in (("untraced", plain), ("traced", traced)):
            problems = [q for qs in p.problems.values() for q in qs]
            self.expect(not problems, f"{workload}: {name} pass is correct {problems}")
        self.expect(plain.digests == traced.digests,
                    f"{workload}: tracing leaves the data files unchanged")
        metrics, missing = run.layer_metrics(traced.spans)
        expected = set(run.per_layer_units()) - {"trace.overhead_s"}
        self.expect(not missing and set(metrics) == expected,
                    f"{workload}: traced pass reports every per-layer metric "
                    f"(missing {sorted(missing)}, absent {sorted(expected - set(metrics))})")

    def missing_target(self) -> None:
        recorder = tracer.Recorder()
        recorder.install([("curvedlattice.cli", "no_such_function", "operator.build", None)])
        self.expect(recorder.missing == [["curvedlattice.cli.no_such_function", "operator.build"]],
                    "a vanished wrap target is listed as missing")
        metrics, _ = run.layer_metrics([{"spans": [], "missing": recorder.missing}])
        gone = {"operator.build.calls", "operator.build.total_s", "operator.build.bytes",
                "operator.build.useful_ratio", "layer.operator.self_s"}
        self.expect(not gone & set(metrics) and "metric.sample.calls" in metrics,
                    "metrics of a missing span are left out, not reported as zero")

    def benchmark_json(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
                    "BENCHMARK.json lists the harness's workloads")
        self.expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
                    "BENCHMARK.json lists the end-to-end metrics printed with --trace 0")
        self.expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(),
                    "BENCHMARK.json lists the per-layer metrics printed with --trace 1")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    test = SelfTest()
    for workload in workloads.WORKLOADS:
        cmds = workloads.commands(workload, SEED, L=TINY_L)
        (base / workload).mkdir(parents=True)
        test.checks_reject_corruption(workload, cmds, base / workload, env)
        test.passes(workload, cmds, base / workload, env)
    test.missing_target()
    test.benchmark_json()
    shutil.rmtree(base)
    print(f"{len(test.failures)} failure(s)")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
