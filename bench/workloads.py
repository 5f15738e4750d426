"""The four benchmark workloads, their fixed inputs and their output checks.

Each workload drives wpir from one caller in a closed loop: an op starts
only after the previous one has returned.  The workload seed sets trial
seeds, op order and the random schemes of ``leakage-wide``; the work per op
is fixed, so every seed measures the same load.

Checks use references computed here, independently of the package: the
per-server query law has K + 2 distinct rows (the zero vector, one row per
vector weight w >= 1, and the direct requests #k), which gives exact
maximal leakage, mutual information and query-class marginals.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from math import comb, log2

#: Failure probability allowed for one statistical check of one op.
STAT_ALPHA = 1e-9

EXACT_TOL = 1e-9

#: The MI curves of `curve-grid` that fail at seed (ROADMAP item 4): for each
#: cause, the pattern its error message matches and the (N, K) cells, as
#: {N: [K, ...]}.  A failure counts as known only in its own cell, with its
#: own cause and message; any other failure makes the run incorrect.  A cell
#: that stops failing is fine.
_KNOWN_MI_CURVE_FAILURES = (
    (  # ValueError from optimize, printed by cli.main, which exits 2
        "exit:2",
        r"error: invalid tradeoff point \(",
        {3: [13, 18], 5: [13], 6: [6, 9, 10, 11, 13, 15, 19], 7: [12, 17], 9: [9, 10, 11, 13],
         10: [7, 11, 12, 17, 18, 20], 11: [12, 13, 17, 18, 20], 12: [11, 12, 15, 18, 20],
         13: [7, 11, 12, 20], 14: [6, 11, 15, 17], 15: [5, 10, 11, 20], 17: [5, 7, 13, 15, 19],
         18: [5, 7, 13, 17, 18, 20], 19: [3, 7, 11, 18, 19], 20: [6, 10, 14, 17]},
    ),
    (  # optimize.OutOfRange, printed by cli.main, which exits 2
        "exit:2",
        r"error: x_\d+ = \S+ < 1 for x_last = ",
        {10: [19], 11: [19], 12: [19], 13: [17, 18, 19], 14: [18, 19, 20], 15: [17, 18, 19],
         16: [17, 18, 19], 18: [16, 19], 19: [16, 17, 20], 20: [15, 16, 18, 19, 20]},
    ),
    (  # uncaught, escapes cli.main
        "raised:OverflowError",
        r"OverflowError: math range error$",
        {16: [20], 17: [17, 18, 20]},
    ),
)
KNOWN_MI_CURVE_FAILURES = {
    (N, K): (cause, re.compile(pattern))
    for cause, pattern, cells in _KNOWN_MI_CURVE_FAILURES
    for N, ks in cells.items()
    for K in ks
}


# ---------------------------------------------------------------------------
# closed-form references


def ref_maxl(N: int, K: int, p_direct: float, p_weights) -> float:
    p = list(p_weights) + [0.0]
    total = p[0] + (N - 1) * p_direct + K * p_direct
    for w in range(1, K + 1):
        total += comb(K, w) * (N - 1) ** w * max(p[w - 1], p[w])
    return log2(total)


def ref_mi(N: int, K: int, p_direct: float, p_weights) -> float:
    p = list(p_weights) + [0.0]
    total = 0.0
    for w in range(1, K + 1):
        marginal = (w * p[w - 1] + (K - w) * p[w]) / K
        term = 0.0
        for prob, mult in ((p[w - 1], w), (p[w], K - w)):
            if prob > 0.0 and mult:
                term += mult * prob * log2(prob / marginal)
        total += comb(K, w) * (N - 1) ** w * term
    return p_direct * log2(K) + total / K


def ref_download(N: int, p_direct: float, p_weights) -> float:
    direct = N * (p_direct + p_weights[0])
    return direct + N / (N - 1) * (1.0 - direct)


def ref_maxl_cap(N: int, K: int) -> float:
    return log2(1 + (K - 1) / N)


def ref_maxl_download(N: int, K: int, rho: float) -> float:
    geo = sum(N**-j for j in range(1, K))
    return 1.0 + max(0.0, 1.0 - N * (2.0**rho - 1.0) / (K - 1)) * geo


def ref_marginal(N: int, K: int, p_direct: float, p_weights, label: str) -> float:
    """Marginal probability of one query label: '#k', or a digit string (N <= 10)."""
    if label.startswith("#"):
        return p_direct / K
    w = sum(1 for c in label if c != "0")
    if w == 0:
        return p_weights[0] + (N - 1) * p_direct
    p = list(p_weights) + [0.0]
    return (w * p[w - 1] + (K - w) * p[w]) / K


def total_mass(N: int, K: int, p_direct: float, p_weights) -> float:
    return N * p_direct + N * sum(comb(K - 1, w) * (N - 1) ** w * p_weights[w] for w in range(K))


def union_log_term(cells: int) -> float:
    """log(2 * cells / STAT_ALPHA): spreads STAT_ALPHA over `cells` checks."""
    return math.log(2 * cells / STAT_ALPHA)


def bernstein(p: float, trials: int, log_term: float) -> float:
    """Largest |observed - p| frequency deviation allowed for a binomial cell.

    Bernstein's inequality for a count of `trials` draws with probability p,
    at the failure probability that `log_term` encodes.
    """
    t = log_term / 3 + math.sqrt(log_term**2 / 9 + 2 * trials * p * (1 - p) * log_term)
    return t / trials


# ---------------------------------------------------------------------------
# op execution


@dataclass
class Outcome:
    start: float  # time.perf_counter() when the op started
    seconds: float
    work: int
    causes: list = field(default_factory=list)
    known: bool = False  # the failure is a documented defect (see README)
    exit: str | None = None  # exit code of cli.main, or "raised"; None: no CLI op
    trials: int = 0
    successes: int = 0
    kept_points: int = 0
    mi_curve: bool = False
    label: str = ""
    detail: str = ""  # error message of a failed op


def call_cli(cli, argv):
    """Run cli.main in-process.

    Returns (start, seconds, exit, exception name, stdout, error message).
    """
    out, err = io.StringIO(), io.StringIO()
    raised = detail = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaping exception is a failed op, not a stop
            code, raised, detail = None, type(exc).__name__, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    exit_ = "raised" if raised else str(code)
    if detail is None:
        lines = err.getvalue().strip().splitlines()
        detail = lines[-1] if lines else ""
    return start, seconds, exit_, raised, out.getvalue(), detail


def _exit_causes(exit_: str, raised) -> list:
    if raised:
        return [f"raised:{raised}"]
    return [] if exit_ == "0" else [f"exit:{exit_}"]


# ---------------------------------------------------------------------------
# workloads


class Simulate:
    """`wpir simulate` ops over a fixed ladder of (metric, rho) rungs."""

    unit = "trials"
    throughput = "sim_trials_per_s"

    def __init__(self, name, N, K, trials, maxl_fracs, mi_fracs, trace_ops, mi_points=200):
        self.name, self.N, self.K, self.trials = name, N, K, trials
        cap, extreme = ref_maxl_cap(N, K), log2(K) / N
        self.maxl_rhos = [cap * f for f in maxl_fracs]
        self.mi_rhos = [extreme * f for f in mi_fracs]
        self.trace_ops = trace_ops
        self.mi_points = mi_points
        self.chord = None

    def fixed_inputs(self) -> dict:
        return {
            "command": "simulate",
            "N": self.N,
            "K": self.K,
            "trials_per_op": self.trials,
            "maxl_rho_ladder": self.maxl_rhos,
            "mi_rho_ladder": self.mi_rhos,
            "mi_reference_points": self.mi_points if self.mi_rhos else None,
            "cycle_ops": len(self.maxl_rhos) + len(self.mi_rhos),
            "trace_ops": self.trace_ops,
        }

    def setup(self, wpir, rng, out_dir) -> None:
        self.cli = wpir.cli
        self.base = ["-N", str(self.N), "-K", str(self.K), "--trials", str(self.trials)]

    def prepare_checks(self, out_dir) -> None:
        if not self.mi_rhos:
            return
        path = out_dir / f"{self.name}-mi-reference.json"
        argv = ["curve", "--metric", "mi", "-N", str(self.N), "-K", str(self.K)]
        argv += ["--points", str(self.mi_points), "--format", "json", "--out", str(path)]
        exit_ = call_cli(self.cli, argv)[2]
        if exit_ == "0":
            pts = json.loads(path.read_text(encoding="utf-8"))
            self.chord = [(p["rho_bits"], p["download_cost"]) for p in pts]

    def cycles(self, rng):
        while True:
            maxl, mi = list(self.maxl_rhos), list(self.mi_rhos)
            rng.shuffle(maxl)
            rng.shuffle(mi)
            rungs = [("maxl", r) for r in maxl]
            for i, r in enumerate(mi):
                rungs.insert(2 * i + 1, ("mi", r))
            yield [(metric, rho, rng.randrange(2**31)) for metric, rho in rungs]

    def run(self, op) -> Outcome:
        metric, rho, seed = op
        argv = ["simulate", "--metric", metric, "--rho", repr(rho), *self.base, "--seed", str(seed)]
        start, seconds, exit_, raised, text, detail = call_cli(self.cli, argv)
        out = Outcome(start, seconds, 0, _exit_causes(exit_, raised), exit=exit_, detail=detail)
        out.label = f"{metric} rho={rho:.6g}"
        if not out.causes:
            out.work = self.trials
            report = json.loads(text)
            out.trials = report["trials"]
            out.successes = round(report["success_rate"] * report["trials"])
            out.causes = self._check(metric, rho, report)
            out.known = metric == "mi" and out.causes == ["check:mi_optimal"]
        return out

    def _chord_at(self, rho):
        for (r0, d0), (r1, d1) in zip(self.chord, self.chord[1:]):
            if r0 <= rho <= r1:
                return d0 if r1 == r0 else d0 + (rho - r0) / (r1 - r0) * (d1 - d0)
        return None

    def _check(self, metric, rho, report) -> list:
        N, K, T = self.N, self.K, report["trials"]
        scheme = report["scheme"]
        pd, pw = scheme["dist"]["p_direct"], scheme["dist"]["p_weights"]
        causes = []
        if (scheme["N"], scheme["K"]) != (N, K) or T != self.trials:
            return ["check:shape"]
        if report["success_rate"] != 1.0:
            causes.append("check:decode")
        theory = ref_download(N, pd, pw)
        if abs(report["theoretical_download"] - theory) > EXACT_TOL:
            causes.append("check:theoretical_download")
        if metric == "maxl":
            if abs(ref_maxl(N, K, pd, pw) - min(rho, ref_maxl_cap(N, K))) > EXACT_TOL:
                causes.append("check:maxl_budget")
            if abs(theory - ref_maxl_download(N, K, rho)) > EXACT_TOL:
                causes.append("check:maxl_optimal")
        else:
            if abs(ref_mi(N, K, pd, pw) - rho) > EXACT_TOL:
                causes.append("check:mi_budget")
            chord = self._chord_at(rho) if self.chord else None
            if chord is None:
                causes.append("check:mi_reference")
            elif theory > chord + EXACT_TOL:
                causes.append("check:mi_optimal")
        # empirical download: each trial downloads 1 (direct) or N/(N-1)
        p_direct = N * (pd + pw[0])
        allowed = bernstein(p_direct, T, union_log_term(1)) / (N - 1)
        if abs(report["empirical_download"] - theory) > allowed:
            causes.append("check:empirical_download")
        freqs = report["query_frequencies"]
        log_term = union_log_term(sum(len(f) for f in freqs))
        off = unsupported = False
        for server in freqs:
            mass = 0.0
            for label, observed in server.items():
                expected = ref_marginal(N, K, pd, pw, label)
                mass += expected
                off = off or abs(observed - expected) > bernstein(expected, T, log_term)
            unsupported = unsupported or abs(mass - 1.0) > EXACT_TOL
        if off:
            causes.append("check:query_frequency")
        if unsupported:
            causes.append("check:query_support")
        return causes


class Leakage:
    """`leakage.leakage_report` under both metrics on a ladder of schemes."""

    unit = "evals"
    throughput = "leakage_evals_per_s"

    def __init__(self, name, N, K, maxl_fracs, direct_shares, trace_ops):
        self.name, self.N, self.K = name, N, K
        self.maxl_rhos = [ref_maxl_cap(N, K) * f for f in maxl_fracs]
        self.direct_shares = direct_shares
        self.trace_ops = trace_ops

    def fixed_inputs(self) -> dict:
        return {
            "call": "leakage.leakage_report",
            "N": self.N,
            "K": self.K,
            "vector_keys": self.N**self.K,
            "maxl_rho_ladder": self.maxl_rhos,
            "random_scheme_direct_shares": self.direct_shares,
            "cycle_ops": 2 * (len(self.maxl_rhos) + len(self.direct_shares)),
            "trace_ops": self.trace_ops,
        }

    def setup(self, wpir, rng, out_dir) -> None:
        N, K = self.N, self.K
        params = wpir.SystemParams(N, K)
        self.leakage_report = wpir.leakage.leakage_report
        self.schemes = []  # (scheme, maxl budget or None, p_direct, p_weights)
        for rho in self.maxl_rhos:
            dist = wpir.optimize.solve_maxl(params, rho)
            self.schemes.append((wpir.WpirScheme(params, dist), rho, dist.p_direct, dist.p_weights))
        for share in self.direct_shares:
            # random weights; a positive share also draws the direct mass itself
            d = rng.uniform(0.5 * share, 1.5 * share)
            raw = [rng.uniform(0.5, 1.5) for _ in range(K)]
            mass = total_mass(N, K, 0.0, raw)
            pw = tuple(r * (1.0 - d) / mass for r in raw)
            dist = wpir.PatternDistribution(d / N, pw)
            self.schemes.append((wpir.WpirScheme(params, dist), None, d / N, pw))

    def prepare_checks(self, out_dir) -> None:
        pass

    def cycles(self, rng):
        while True:
            order = list(range(len(self.schemes)))
            rng.shuffle(order)
            yield [(s, m) for s in order for m in ("maxl", "mi")]

    def run(self, op) -> Outcome:
        s, metric = op
        scheme, budget, pd, pw = self.schemes[s]
        start = time.perf_counter()
        try:
            report = self.leakage_report(scheme, metric)
        except Exception as exc:  # counted as a failed op; the run goes on
            name = type(exc).__name__
            return Outcome(start, time.perf_counter() - start, 0, [f"raised:{name}"], detail=f"{name}: {exc}")
        out = Outcome(start, time.perf_counter() - start, self.N)
        out.label = f"scheme {s} {metric}"
        N, K = self.N, self.K
        values = report.per_server
        if len(values) != N or max(values) - min(values) > EXACT_TOL or report.value != max(values):
            out.causes.append("check:servers_agree")
        if metric == "maxl":
            if abs(report.value - ref_maxl(N, K, pd, pw)) > EXACT_TOL:
                out.causes.append("check:maxl_closed_form")
            if budget is not None and abs(report.value - min(budget, ref_maxl_cap(N, K))) > EXACT_TOL:
                out.causes.append("check:maxl_budget")
        elif abs(report.value - ref_mi(N, K, pd, pw)) > EXACT_TOL:
            out.causes.append("check:mi_closed_form")
        return out


class CurveGrid:
    """`wpir curve` for both metrics over every (N, K) of a square grid."""

    unit = "curves"
    throughput = "curves_per_s"

    def __init__(self, name, sizes, points, trace_ops):
        self.name, self.sizes, self.points = name, sizes, points
        self.trace_ops = trace_ops

    def fixed_inputs(self) -> dict:
        return {
            "command": "curve --format json",
            "N_range": [self.sizes[0], self.sizes[-1]],
            "K_range": [self.sizes[0], self.sizes[-1]],
            "metrics": ["maxl", "mi"],
            "points": self.points,
            "cycle_ops": 2 * len(self.sizes) ** 2,
            "trace_ops": self.trace_ops,
        }

    def setup(self, wpir, rng, out_dir) -> None:
        self.cli = wpir.cli
        self.path = out_dir / f"{self.name}-op.json"
        self.argvs = {
            (m, N, K): [
                "curve", "--metric", m, "-N", str(N), "-K", str(K), "--points", str(self.points),
                "--format", "json", "--out", str(self.path),
            ]
            for m in ("maxl", "mi")
            for N in self.sizes
            for K in self.sizes
        }

    def prepare_checks(self, out_dir) -> None:
        pass

    def cycles(self, rng):
        while True:
            ops = sorted(self.argvs)
            rng.shuffle(ops)
            yield ops

    def run(self, op) -> Outcome:
        metric, N, K = op
        self.path.unlink(missing_ok=True)
        start, seconds, exit_, raised, _, detail = call_cli(self.cli, self.argvs[op])
        out = Outcome(start, seconds, 0, _exit_causes(exit_, raised), exit=exit_, detail=detail)
        out.label = f"{metric} N={N} K={K}"
        out.mi_curve = metric == "mi"
        if out.causes:
            known = KNOWN_MI_CURVE_FAILURES.get((N, K)) if out.mi_curve else None
            out.known = known is not None and out.causes == [known[0]] and bool(known[1].match(detail))
            return out
        out.work = 1  # only completed curves count
        pts = json.loads(self.path.read_text(encoding="utf-8"))
        out.kept_points = len(pts)
        out.causes = self._check(metric, N, K, pts)
        return out

    def _check(self, metric, N, K, pts) -> list:
        causes = []
        if len(pts) < 2:
            return ["check:too_few_points"]
        rho = [p["rho_bits"] for p in pts]
        dl = [p["download_cost"] for p in pts]
        if any(b < a - 1e-12 for a, b in zip(rho, rho[1:])) or any(
            b > a + 1e-12 for a, b in zip(dl, dl[1:])
        ):
            causes.append("check:monotone")
        if any(abs(total_mass(N, K, p["p_direct"], p["p_weights"]) - 1.0) > EXACT_TOL for p in pts):
            causes.append("check:normalized")
        uniform = (1 - N**-K) / (1 - 1 / N)
        if abs(rho[0]) > 1e-12 or abs(dl[0] - uniform) > EXACT_TOL:
            causes.append("check:first_point")
        last_rho = ref_maxl_cap(N, K) if metric == "maxl" else log2(K) / N
        last = pts[-1]
        if (
            abs(rho[-1] - last_rho) > 1e-12
            or abs(dl[-1] - 1.0) > 1e-12
            or abs(last["p_direct"] - 1.0 / N) > 1e-12
        ):
            causes.append("check:direct_extreme_point")
        return causes


def make(name: str, tiny: bool):
    """The named workload at its benchmark size, or at smoke-test size."""
    if name == "sim-small":
        return Simulate(
            name, 3, 2, 100 if tiny else 1000,
            maxl_fracs=[i / 8 for i in range(8)], mi_fracs=[], trace_ops=16,
        )
    if name == "sim-wide":
        return Simulate(
            name, *((3, 3, 200) if tiny else (5, 5, 500)),
            maxl_fracs=[i / 4 for i in range(4)],
            mi_fracs=[(i + 0.5) / 4 for i in range(4)],
            trace_ops=8,
        )
    if name == "leakage-wide":
        return Leakage(
            name, *((3, 3) if tiny else (5, 6)),
            maxl_fracs=[0.5], direct_shares=[0.0, 0.3], trace_ops=2,
        )
    if name == "curve-grid":
        return CurveGrid(
            name, list(range(2, 5 if tiny else 21)), 20 if tiny else 200,
            trace_ops=18 if tiny else 722,
        )
    raise KeyError(name)


WORKLOADS = ("sim-small", "sim-wide", "leakage-wide", "curve-grid")
