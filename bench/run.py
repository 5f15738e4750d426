"""wpir benchmark: one workload per run, one caller, closed loop.

    python3 bench/run.py --workload sim-small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures ops untraced in whole cycles of the
workload's fixed op ladder, stopping at the last cycle boundary within
``--seconds`` (after one cycle at least), and reports the end-to-end
metrics.  With ``--trace 1`` it runs the workload's fixed list of the first
``trace_ops`` ops once untraced and once traced, and reports the per-layer
metrics and the tracing overhead; ``--seconds`` does not apply.
Every op's output is checked.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give each metric with its unit, the failures by cause
and the provenance.  Full results go to ``bench/out/``.

wpir is imported from ``src/`` next to this directory; without it the run
exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

#: Fresh processes timed for setup_s; the metric is the median of their
#: scaled times.
SETUP_PROBES = 9

#: Imports timed in a fresh reference process next to each setup probe: numpy
#: and some standard-library modules, nothing of this repository.  Import
#: speed (unmarshalling, module code, loading extension modules) drifts on a
#: shared host by tens of percent, and more than the reference kernel shows,
#: so each probe is scaled by
#: REF_IMPORT_NOMINAL_S / (mean time of the reference processes around it).
REF_IMPORTS = "numpy, decimal, email.parser, http.client, xml.dom.minidom, unittest, ctypes, sqlite3, ssl, asyncio"
REF_IMPORT_NOMINAL_S = 0.2

#: The tail is the highest percentile with at least this many samples beyond
#: it, but never below TAIL_FLOOR percent.
TAIL_BEYOND = 10
TAIL_FLOOR = 90

#: Iterations of the reference kernel (about 0.4 ms).
REF_LOOPS = 5000

#: Reference-kernel time that defines nominal machine speed.  The speed of a
#: shared host drifts by tens of percent within minutes.  Each op's time is
#: scaled by REF_NOMINAL_S / (mean kernel time during and right after the op),
#: which cancels most of that drift; raw values are printed too.
REF_NOMINAL_S = 0.0004

#: Kernel sampling period during an op, and samples taken after each op.
REF_EVERY_S = 0.05
REF_AFTER = 3

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "core.sample_key.calls": "count",
    "core.sample_key.self_s": "s",
    "core.enumerate_keys.keys": "count",
    "core.MessageStore.random.s": "s",
    "tsc.tsc_query.self_s": "s",
    "tsc.tsc_answer.self_s": "s",
    "tsc.tsc_decode.self_s": "s",
    "scheme.wpir_query.calls": "count",
    "scheme.wpir_query.self_s": "s",
    "scheme.wpir_answer.self_s": "s",
    "scheme.wpir_decode.self_s": "s",
    "tables.query_label.calls": "count",
    "tables.query_label.self_s": "s",
    "leakage.enumerate_query_law.calls": "count",
    "leakage.enumerate_query_law.self_s": "s",
    "leakage.maximal_leakage.self_s": "s",
    "leakage.mutual_info_leakage.self_s": "s",
    "leakage.analytic_mi.calls": "count",
    "leakage.analytic_mi.self_s": "s",
    "optimize.solve_x_recursion.calls": "count",
    "optimize.solve_x_recursion.self_s": "s",
    "optimize.mi_point.calls": "count",
    "optimize.mi_point.self_s": "s",
    "optimize.mi_curve.calls": "count",
    "optimize.mi_curve.self_s": "s",
    "optimize.mi_curve.kept_ratio": "ratio",
    "optimize.maxl_curve.self_s": "s",
    "optimize.errors.ValueError": "count",
    "optimize.errors.OutOfRange": "count",
    "optimize.errors.OverflowError": "count",
    "optimize.errors.other": "count",
    "sim.run_simulation.self_s": "s",
    "sim.law_check_s": "s",
    "sim.trials": "count",
    "sim.decode_success_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.main.exit.0": "count",
    "cli.main.exit.1": "count",
    "cli.main.exit.2": "count",
    "cli.main.exit.raised": "count",
    "trace.untraced_op_s": "s",
    "trace.traced_op_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def load_wpir():
    src = ROOT / "src"
    if not (src / "wpir" / "__init__.py").is_file():
        print(f"error: no wpir sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import wpir
    import wpir.cli

    if Path(wpir.__file__).resolve().parent != src / "wpir":
        print(f"error: imported wpir from {wpir.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return wpir


def provenance(wpir, args, wl) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wpir").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "wpir": wpir.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "fixed_inputs": wl.fixed_inputs(),
    }


def reference_kernel() -> float:
    """Seconds taken by fixed interpreter-bound work that allocates no container,
    so neither the garbage collector nor the program's heap affects it."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Nominal over observed kernel time: below 1 on a slower-than-nominal host."""
    return REF_NOMINAL_S / statistics.fmean(samples)


class SpeedSampler:
    """Runs the reference kernel every REF_EVERY_S from a SIGALRM handler while
    armed, so long ops get speed samples from their own duration.

    The handler runs between bytecodes of the main thread; the kernel time
    that falls inside an op is subtracted from that op's time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, reference_kernel()))

    def run(self, wl, op):
        """Run one op; returns (outcome, op seconds net of sampling, speed)."""
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            outcome = wl.run(op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = outcome.start + outcome.seconds
        inside = sum(t for s, t in self.samples if outcome.start <= s < end)
        kernel = [t for _, t in self.samples] + [reference_kernel() for _ in range(REF_AFTER)]
        return outcome, outcome.seconds - inside, speed_factor(kernel)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def setup_probe(args) -> None:
    """Child process: time importing wpir and building the workload's inputs."""
    start = time.perf_counter()
    wpir = load_wpir()
    wl = workloads.make(args.workload, args.tiny)
    wl.setup(wpir, random.Random(args.seed), OUT)
    print(time.perf_counter() - start)


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of SETUP_PROBES fresh processes, each
    between two fresh reference processes."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    probe += ["--workload", args.workload, "--seed", str(args.seed)]
    probe += ["--tiny"] if args.tiny else []
    reference = [
        sys.executable, "-c",
        f"import time; t = time.perf_counter(); import {REF_IMPORTS}; print(time.perf_counter() - t)",
    ]

    def seconds(argv) -> float:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip().splitlines()[-1])

    refs = [seconds(reference)]
    samples = []
    for _ in range(SETUP_PROBES):
        probe_s = seconds(probe)
        refs.append(seconds(reference))
        samples.append((probe_s, REF_IMPORT_NOMINAL_S / statistics.fmean(refs[-2:])))
    return samples


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it, or at the TAIL_FLOOR percentile when that
    is higher.  The percentile never falls as the op count grows, so a faster
    program is never credited with a lower quantile."""
    xs = sorted(latencies)
    n = len(xs)
    i = max(-(-TAIL_FLOOR * n // 100) - 1, n - 1 - TAIL_BEYOND)
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def failure_summary(outcomes) -> tuple[int, bool, collections.Counter, dict]:
    """(failed ops, all failures known, counts by cause, {op label: error})."""
    failed = [o for o in outcomes if o.causes]
    causes = collections.Counter(c for o in failed for c in o.causes)
    cells = {o.label: o.detail or ", ".join(o.causes) for o in sorted(failed, key=lambda o: o.label)}
    return len(failed), all(o.known for o in failed), causes, cells


def run_untraced(args, wl, cycles, setup_samples, out: dict) -> dict:
    outcomes, latencies, scaled, speeds = [], [], [], []
    sampler = SpeedSampler()
    start = time.perf_counter()
    try:
        while True:
            cycle_start = time.perf_counter()
            for op in next(cycles):
                outcome, seconds, speed = sampler.run(wl, op)
                outcomes.append(outcome)
                latencies.append(seconds)
                speeds.append(speed)
                scaled.append(seconds * speed)
            now = time.perf_counter()
            # stop unless one more cycle like this one ends within --seconds
            if now - start + (now - cycle_start) > args.seconds:
                break
    finally:
        sampler.close()
    wall = time.perf_counter() - start
    work = sum(o.work for o in outcomes)
    tail_value, tail_pct, beyond = tail(scaled)
    setup = [s * f for s, f in setup_samples]
    raw = {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "work_per_s": work / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail(latencies)[0] * 1e3,
    }
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": work / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed, known, causes, cells = failure_summary(outcomes)
    n = len(outcomes)
    lines = [
        f"host speed factor = {statistics.median(speeds):.4f} median over ops (nominal reference "
        f"kernel {REF_NOMINAL_S * 1e3:g} ms); op times below are scaled by their own factor",
        f"setup_s = {metrics['setup_s']:.6f} s (median of {len(setup)} fresh processes, each scaled "
        f"by reference imports of nominal {REF_IMPORT_NOMINAL_S:g} s: "
        + ", ".join(f"{x:.4f}" for x in setup) + f"; raw median {raw['setup_s']:.4f} s)",
        f"{wl.throughput} = {metrics['work_per_s']:.6g} {wl.unit}/s (reported as work_per_s; "
        f"raw {raw['work_per_s']:.6g}: {work} {wl.unit} in {sum(latencies):.3f} s of op time)",
        f"op_p50_ms = {metrics['op_p50_ms']:.6g} ms ({n} ops; raw {raw['op_p50_ms']:.6g} ms)",
        f"op_tail_ms = {metrics['op_tail_ms']:.6g} ms (p{tail_pct:.2f}, {n} samples, {beyond} beyond; "
        f"raw {raw['op_tail_ms']:.6g} ms)",
        f"fail_ratio = {failed / n:.6g} failed/attempted ({failed} of {n}; by cause: {dict(causes)})",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MiB",
    ]
    out.update(
        wall_s=wall,
        ops=n,
        raw_metrics=raw,
        speed_factors=speeds,
        tail={"percentile": tail_pct, "samples": n, "beyond": beyond},
        failures={"count": failed, "causes": dict(causes), "cells": cells},
        latencies_ms=[x * 1e3 for x in latencies],
    )
    return {
        "lines": lines,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "attempted": n,
        "failed": failed,
        "correct": known,
    }


def run_traced(wl, cycles, out: dict) -> dict:
    """Run each op untraced and traced back to back, alternating which goes
    first, so that host drift and warm caches favour neither side."""
    ops = list(itertools.islice(itertools.chain.from_iterable(cycles), wl.trace_ops))
    tracer = Tracer()
    plain, traced = [], []

    def run_traced_op(i, op):
        tracer.op_id = i
        tracer.install()
        try:
            traced.append(wl.run(op))
        finally:
            tracer.uninstall()

    for i, op in enumerate(ops):
        if i % 2:
            run_traced_op(i, op)
            plain.append(wl.run(op))
        else:
            plain.append(wl.run(op))
            run_traced_op(i, op)
    raw = tracer.metrics()
    tracer.write(OUT / f"{wl.name}-spans")

    values = {name: raw.get(name, 0) for name in PER_LAYER}
    values["core.enumerate_keys.keys"] = raw.get("core.enumerate_keys.yields", 0)
    values["cli.main.self_s"] = raw["cli.layer_self_s"]
    trials = sum(o.trials for o in traced)
    values["sim.trials"] = trials
    values["sim.decode_success_ratio"] = sum(o.successes for o in traced) / trials if trials else 0.0
    mi_curves = [o for o in traced if o.mi_curve]
    points = getattr(wl, "points", 0)
    values["optimize.mi_curve.kept_ratio"] = (
        sum(o.kept_points for o in mi_curves) / (len(mi_curves) * points) if mi_curves else 0.0
    )
    exits = collections.Counter(o.exit for o in traced)
    for code in ("0", "1", "2", "raised"):
        values[f"cli.main.exit.{code}"] = exits.get(code, 0)
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    values["trace.untraced_op_s"] = plain_s
    values["trace.traced_op_s"] = traced_s
    values["trace.overhead_ratio"] = traced_s / plain_s

    outcomes = plain + traced
    failed, known, causes, cells = failure_summary(outcomes)
    lines = [f"{k} = {v:.6g} {PER_LAYER[k]}" for k, v in values.items()]
    lines.append(
        f"tracing overhead: {traced_s:.4f} s traced vs {plain_s:.4f} s untraced op time "
        f"over the same {len(ops)} ops, interleaved ({100 * (traced_s / plain_s - 1):+.1f}%)"
    )
    lines.append(
        f"fail_ratio = {failed / len(outcomes):.6g} failed/attempted "
        f"({failed} of {len(outcomes)}; by cause: {dict(causes)})"
    )
    out.update(
        ops=len(ops),
        failures={"count": failed, "causes": dict(causes), "cells": cells},
        all_counters=raw,
        spans_file=f"{wl.name}-spans.npz",
    )
    return {
        "lines": lines,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()},
        "attempted": len(outcomes),
        "failed": failed,
        "correct": known,
    }


def run_one(args) -> None:
    wl = workloads.make(args.workload, args.tiny)
    wpir = load_wpir()
    setup_samples = [] if args.trace else measure_setup(args)
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    wl.setup(wpir, rng, OUT)
    wl.prepare_checks(OUT)
    record = {"provenance": provenance(wpir, args, wl)}
    cycles = wl.cycles(rng)
    if args.trace:
        result = run_traced(wl, cycles, record)
    else:
        result = run_untraced(args, wl, cycles, setup_samples, record)
    record["metrics"] = result["metrics"]
    record["correct"] = result["correct"]
    with open(OUT / f"{wl.name}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(record["provenance"]))
    for line in result["lines"]:
        print("  " + line)
    if record["failures"]["cells"]:
        print(f"  failed ops: {sorted(record['failures']['cells'])}")
    print(
        json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )


def run_all(args) -> int:
    """Run every workload, each in its own process, and print a summary."""
    summary = {}
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--tiny"] if args.tiny else []
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
