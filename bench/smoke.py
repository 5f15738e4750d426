"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

For every workload it checks that an untraced run prints every named
end-to-end metric with its unit and a result line of the agreed shape, and
that two traced runs with the same seed agree exactly on fail_ratio and on
the work counts.  It also checks that BENCHMARK.json lists the metrics that
run.py reports, that a recorded curve-grid failure is known only in its own
cell and with its own cause, and that the benchmark exits non-zero, printing
no result, when the wpir sources are missing.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7

#: Counts that depend only on the ops run, never on timing.
WORK_COUNTS = (
    "core.enumerate_keys.keys",
    "optimize.solve_x_recursion.calls",
    "optimize.mi_point.calls",
    "core.sample_key.calls",
    "scheme.wpir_query.calls",
    "tables.query_label.calls",
    "leakage.enumerate_query_law.calls",
    "sim.trials",
    "cli.main.exit.0",
    "cli.main.exit.2",
    "cli.main.exit.raised",
)


def bench(*args, cwd=None):
    argv = [sys.executable, "bench/run.py", *args, "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=cwd or BENCH.parent)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_result_line(line: str, names: dict, problems: list, where: str) -> dict:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result['attempted']!r}")
    if set(result["metrics"]) != set(names):
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for name, entry in result["metrics"].items():
        if entry.get("unit") != names.get(name) or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} = {entry}")
    return result


class StubCli:
    """Stands in for wpir.cli: main prints `message` to stderr and returns
    `code`, or raises `code` when it is an exception."""

    def __init__(self, code, message=""):
        self.code, self.message = code, message

    def main(self, argv):
        if isinstance(self.code, Exception):
            raise self.code
        print(self.message, file=sys.stderr)
        return self.code


def check_known_failures(problems: list) -> None:
    wpir = run.load_wpir()
    wl = workloads.make("curve-grid", tiny=False)
    run.OUT.mkdir(exist_ok=True)
    wl.setup(wpir, random.Random(SEED), run.OUT)
    # one recorded cell per cause: each fails, and is known
    for op in (("mi", 3, 13), ("mi", 13, 17), ("mi", 17, 17)):
        out = wl.run(op)
        if not (out.causes and out.known and out.work == 0):
            problems.append(f"known failures: {op} gave {out.causes}, known={out.known}")
    # a recorded cell failing another way, a cell not recorded, a maxL curve
    unknown = [
        (("mi", 3, 13), StubCli(TypeError("boom"))),
        (("mi", 3, 13), StubCli(2, "error: x_3 = 0.5 < 1 for x_last = 2.0")),
        (("mi", 17, 17), StubCli(2, "error: invalid tradeoff point (0, 1)")),
        (("mi", 3, 12), StubCli(2, "error: invalid tradeoff point (0, 1)")),
        (("maxl", 3, 13), StubCli(OverflowError("math range error"))),
    ]
    for op, stub in unknown:
        wl.cli = stub
        out = wl.run(op)
        if not out.causes or out.known:
            problems.append(f"known failures: {op} with {stub.code!r} counted as known")


def main() -> int:
    problems: list[str] = []

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    check_known_failures(problems)
    print(f"{'FAIL' if any(p.startswith('known') for p in problems) else 'PASS'} known failures")

    for name in workloads.WORKLOADS:
        wl = workloads.make(name, tiny=True)
        code, lines, err = bench("--workload", name, "--seed", str(SEED), "--seconds", "1")
        if code != 0:
            problems.append(f"{name}: untraced run exited {code}: {err[-500:]}")
            continue
        result = check_result_line(lines[-1], run.END_TO_END, problems, f"{name} untraced")
        if any(entry["value"] <= 0 for entry in result["metrics"].values()):
            problems.append(f"{name}: an end-to-end metric is not positive")
        named = {
            "setup_s": "s",
            wl.throughput: f"{wl.unit}/s",
            "op_p50_ms": "ms",
            "op_tail_ms": "ms",
            "fail_ratio": "failed/attempted",
            "peak_rss_mb": "MiB",
        }
        for metric, unit in named.items():
            if not any(l.strip().startswith(f"{metric} = ") and f" {unit}" in l for l in lines[:-1]):
                problems.append(f"{name}: no '{metric} = <value> {unit}' line")

        traced = []
        for _ in range(2):
            code, lines, err = bench("--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
            if code != 0:
                problems.append(f"{name}: traced run exited {code}: {err[-500:]}")
                break
            traced.append(check_result_line(lines[-1], run.PER_LAYER, problems, f"{name} traced"))
        if len(traced) == 2:
            a, b = traced
            if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
                problems.append(f"{name}: fail_ratio differs between same-seed runs")
            for count in WORK_COUNTS:
                if a["metrics"][count]["value"] != b["metrics"][count]["value"]:
                    problems.append(f"{name}: {count} differs between same-seed runs")
        print(f"{'FAIL' if any(p.startswith(name) for p in problems) else 'PASS'} {name}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    code, lines, _ = bench("--workload", "sim-small", "--seed", str(SEED), "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(l.startswith("{") for l in lines):
        problems.append(f"without sources: exit {code}, output {lines[-1:]}")
    print(f"{'FAIL' if any(p.startswith('without') for p in problems) else 'PASS'} without sources")

    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
