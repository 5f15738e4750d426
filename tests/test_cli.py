import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus

import wpir
from wpir import cli, optimize
from wpir.cli import _dumps_indented, build_parser, main
from wpir.core import MAX_ENUM_KEYS, SystemParams, WpirScheme, download_cost, weight_class_counts
from wpir.leakage import class_leakage


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curve_maxl_csv(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code, _, _ = run(
        capsys, "curve", "--metric", "maxl", "-N", "3", "-K", "2",
        "--points", "50", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho_bits,download_cost,p_direct,p_w0,p_w1"
    assert len(lines) == 51
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[:2] == pytest.approx([0.0, 4 / 3], abs=1e-9)
    assert last[:2] == pytest.approx([0.415037499279, 1.0], abs=1e-9)


def test_curve_mi_endpoints(capsys, tmp_path):
    out = tmp_path / "mi.csv"
    code, _, _ = run(
        capsys, "curve", "--metric", "mi", "-N", "3", "-K", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[:2] == pytest.approx([0.0, 4 / 3], abs=1e-9)
    assert last[:2] == pytest.approx([1 / 3, 1.0], abs=1e-9)


def test_curve_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "curve", "--metric", "mi", "-N", "3", "-K", "2",
            "--points", "40", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_curve_baseline_and_json(capsys, tmp_path):
    out, base = tmp_path / "c.json", tmp_path / "b.json"
    code, _, _ = run(
        capsys, "curve", "--metric", "maxl", "-N", "3", "-K", "2",
        "--points", "10", "--format", "json", "--out", str(out),
        "--baseline-out", str(base),
    )
    assert code == 0
    pts = json.loads(out.read_text())
    baseline = json.loads(base.read_text())
    assert len(pts) == len(baseline) == 10
    # baseline reaches minimum download only at a strictly larger leakage
    assert baseline[-1]["rho_bits"] > pts[-1]["rho_bits"]


@pytest.mark.parametrize("with_baseline", [False, True])
def test_curve_builds_baseline_only_when_asked(capsys, monkeypatch, tmp_path, with_baseline):
    calls = {"legacy_maxl_curve": 0, "mi_sweep": 0}

    def counting(name):
        fn = getattr(optimize, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(optimize, name, counting(name))
    extra = ["--baseline-out", str(tmp_path / "base.csv")] if with_baseline else []
    for metric in ("maxl", "mi"):
        code, _, _ = run(
            capsys, "curve", "--metric", metric, "-N", "3", "-K", "2", "--points", "10",
            "--out", str(tmp_path / "curve.csv"), *extra,
        )
        assert code == 0
    # mi_curve stops its own sweep at the direct point's leakage and never
    # calls mi_sweep; only the baseline builds either full curve
    assert calls == {"legacy_maxl_curve": int(with_baseline), "mi_sweep": int(with_baseline)}


@pytest.mark.parametrize("metric", ["maxl", "mi"])
def test_curve_json_matches_stdlib_layout(capsys, metric):
    curve = optimize.maxl_curve if metric == "maxl" else optimize.mi_curve
    for N in (2, 3, 7, 20):
        for K in (2, 3, 7, 20):
            code, out, err = run(
                capsys, "curve", "--metric", metric, "-N", str(N), "-K", str(K),
                "--points", "30", "--format", "json",
            )
            pts = curve(SystemParams(N, K), 30)
            assert (code, err) == (0, "")
            assert out == json.dumps(optimize.curve_to_json(pts), indent=2) + "\n"


@pytest.mark.parametrize("N,K", [(13, 17), (17, 17)])
def test_curve_mi_stops_before_failing_dominated_points(capsys, N, K):
    # the envelope stops its sweep at the first point at the direct point's leakage
    code, out, err = run(capsys, "curve", "--metric", "mi", "-N", str(N), "-K", str(K), "--format", "json")
    assert (code, err) == (0, "")
    _check_mi_curve(N, K, json.loads(out))


def _check_monotone_normalized(N, K, pts, rho_tol=0.0):
    rho = [p["rho_bits"] for p in pts]
    download = [p["download_cost"] for p in pts]
    assert all(b >= a - rho_tol for a, b in zip(rho, rho[1:]))
    assert all(b <= a for a, b in zip(download, download[1:]))
    counts = weight_class_counts(N, K)
    for p in pts:
        mass = N * p["p_direct"] + N * math.fsum(c * w for c, w in zip(counts, p["p_weights"]))
        assert abs(mass - 1.0) <= 1e-9
    assert abs(rho[0]) <= 1e-12
    assert abs(download[0] - (1 - N**-K) / (1 - 1 / N)) <= 1e-9


def _check_mi_curve(N, K, pts):
    _check_monotone_normalized(N, K, pts)
    assert pts[-1]["kind"] == "direct"
    rho, download = pts[-1]["rho_bits"], pts[-1]["download_cost"]
    assert (rho, download, pts[-1]["p_direct"]) == (math.log2(K) / N, 1.0, 1.0 / N)


@pytest.mark.parametrize("K", [300, 500, 1000])
def test_curve_mi_at_two_servers_with_subnormal_class_masses(capsys, K):
    # the largest weight classes' masses are subnormal here, and mass / K
    # underflowed to 0 in the leakage's log
    code, out, err = run(
        capsys, "curve", "--metric", "mi", "-N", "2", "-K", str(K), "--points", "20",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    _check_mi_curve(2, K, json.loads(out))


def test_simulate_mi_at_two_servers_reaches_the_enumeration_guard(capsys):
    # the optimizer step once stopped here with `math domain error`, and then
    # returned the uniform point, which leaks nothing, for every budget; the
    # CLI refuses the size before optimizing, so the optimizer is called directly
    params = SystemParams(2, 300)
    for rho in (0.1, 1.0, 3.0):
        with pytest.raises(optimize.OutOfRange, match="leaks 0.0 bits"):
            optimize.solve(params, "mi", rho)
    code, out, err = run(
        capsys, "simulate", "--metric", "mi", "--rho", "0.1", "-N", "2", "-K", "300",
        "--trials", "10",
    )
    assert (code, out) == (2, "")
    assert err == f"error: N^K = 2^300 exceeds the enumeration guard of {MAX_ENUM_KEYS}\n"


@pytest.mark.parametrize("flag", ["--seed", "--message-seed"])
def test_simulate_refuses_a_negative_seed_before_optimizing(capsys, monkeypatch, flag):
    def solve(*args):
        raise AssertionError("optimize.solve called with a negative seed")

    monkeypatch.setattr(optimize, "solve", solve)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--metric", "maxl", "--rho", "0.2", flag, "-1"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: argument {flag}: must be a non-negative integer, got -1\n")


@pytest.mark.parametrize("source", ["metric", "scheme-file"])
def test_simulate_refuses_oversize_before_optimizing(capsys, monkeypatch, tmp_path, source):
    def solve(*args):
        raise AssertionError("optimize.solve called above the enumeration guard")

    monkeypatch.setattr(optimize, "solve", solve)
    if source == "metric":
        argv = ["--metric", "mi", "--rho", "0.1", "-N", "2", "-K", "1000"]
    else:
        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(
            json.dumps({"N": 2, "K": 1000, "dist": {"p_direct": 0.5, "p_weights": [0.0] * 1000}})
        )
        argv = ["--scheme-file", str(scheme_path)]
    code, out, err = run(capsys, "simulate", *argv, "--trials", "10")
    assert (code, out) == (2, "")
    assert err == f"error: N^K = 2^1000 exceeds the enumeration guard of {MAX_ENUM_KEYS}\n"


def test_maxl_curve_bytes_do_not_depend_on_the_python_version(capsys):
    # Python 3.12's compensated sum() gave 0.248 here, and other bytes in 126
    # of the 361 maxL curves of [2, 20]^2; the corpus holds the bytes Python
    # 3.10 and 3.11 print
    assert optimize._geometric_tail(5, 4) == 0.24800000000000003
    argv = "curve --metric maxl -N 5 -K 4 --format json"
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == corpus.load()[argv]


#: two JSON MI curves whose corpus hashes are the bytes numpy's logspace
#: gave with its baseline CPU features when it made the x grid
MI_CURVES = [
    "curve --metric mi -N 3 -K 2 --format json",
    "curve --metric mi -N 2 -K 5 --format json",
]


@pytest.mark.parametrize("argv", sorted(MI_CURVES))
def test_mi_curve_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == corpus.load()[argv]


_PRINT_DIGESTS = """
import hashlib
import sys

import wpir.cli

out = sys.argv[1]
for argv in sys.argv[2:]:
    assert wpir.cli.main([*argv.split(), "--out", out]) == 0, argv
    with open(out, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
"""


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 CPU features"
)
def test_output_does_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # numpy picks some float64 kernels, power among them, by the host's CPU
    # features; held to its x86-64 baseline it must print the pinned bytes.
    # The simulate pins are what this checks today. `curve --metric mi`
    # loads no numpy, so its pins here only guard against numpy coming back
    # into `optimize.x_grid`, whose logspace took another power kernel on
    # AVX-512 hosts.
    sim = "simulate --metric maxl --rho 0.2 {} --trials 300 --seed 7"
    pinned = corpus.load()
    pins = {
        argv: pinned[argv]
        for argv in (*MI_CURVES, sim.format("-N 3 -K 2"), sim.format("-N 4 -K 3"))
    }
    env = {**_env_with_src(), "NPY_ENABLE_CPU_FEATURES": "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42"}
    proc = subprocess.run(
        [sys.executable, "-c", _PRINT_DIGESTS, str(tmp_path / "out"), *pins],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(pins.values())


def test_curve_invalid_points(capsys):
    code, _, err = run(capsys, "curve", "--metric", "mi", "-N", "3", "-K", "2", "--points", "1")
    assert code == 2
    assert "grid size" in err


def test_verify_small_instances(capsys):
    for n, k in [("2", "2"), ("3", "2")]:
        code, out, _ = run(capsys, "verify", "-N", n, "-K", k)
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out


def test_verify_too_large(capsys):
    code, _, err = run(capsys, "verify", "-N", "10", "-K", "8")
    assert code == 2
    assert "exceeds" in err


def test_dump_table(capsys):
    code, out, _ = run(capsys, "dump-table", "-N", "3", "-K", "2", "-k", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 13
    assert "#1" in out and "a_1⊕b_1" in out
    code, _, err = run(capsys, "dump-table", "-N", "3", "-K", "2", "-k", "5")
    assert code == 2


def test_simulate_from_args_and_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (out1, out2):
        code, _, _ = run(
            capsys, "simulate", "--metric", "maxl", "--rho", "0.2",
            "-N", "3", "-K", "2", "--trials", "2000", "--out", str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["success_rate"] == 1.0
    assert report["seed"] == 1729  # documented default


def test_simulate_from_scheme_file(capsys, tmp_path):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(
        json.dumps({"N": 3, "K": 2, "dist": {"p_direct": 1 / 3, "p_weights": [0.0, 0.0]}})
    )
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "simulate", "--scheme-file", str(scheme_path),
        "--trials", "500", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["empirical_download"] == 1.0


@pytest.mark.parametrize(
    "extra", [["--metric", "mi"], ["--rho", "5"], ["--metric", "mi", "--rho", "5"]]
)
def test_simulate_refuses_metric_or_rho_with_scheme_file(capsys, tmp_path, extra):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(
        json.dumps({"N": 3, "K": 2, "dist": {"p_direct": 1 / 3, "p_weights": [0.0, 0.0]}})
    )
    code, out, err = run(
        capsys, "simulate", "--scheme-file", str(scheme_path), *extra, "--trials", "10"
    )
    assert (code, out) == (2, "")
    assert err == "error: --metric and --rho cannot be combined with --scheme-file\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"N": 3, "dist": {"p_direct": 0.0, "p_weights": [0.1, 0.1]}}', "missing field 'K'"),
        ("[3, 2]", "expected a JSON object"),
        ('{"N": 3, "K": 2, "dist": {"p_direct": 0.0, "p_weights": 5}}', "'p_weights'"),
        ('{"N": 3, "K": 2, "dist": {"p_direct": NaN, "p_weights": [0.0, 0.0]}}', "finite"),
        ('{"N": 3, "K": 2, "dist": {"p_direct": 0.0, "p_weights": [Infinity, 0]}}', "finite"),
        ('{"N": 3.7, "K": 2, "dist": {"p_direct": 0.0, "p_weights": [0.0, 0.0]}}', "field 'N'"),
        ('{"N": 3, "K": true, "dist": {"p_direct": 0.0, "p_weights": [0.0, 0.0]}}', "field 'K'"),
        ('{"N": "3", "K": 2, "dist": {"p_direct": 0.0, "p_weights": [0.0, 0.0]}}', "field 'N'"),
        ('{"N": 3, "K": null, "dist": {"p_direct": 0.0, "p_weights": [0.0, 0.0]}}', "field 'K'"),
        ('{"N": 3, "K": 2, "dist": {"p_direct": "0.3333333333333333", "p_weights": [0, 0]}}',
         "field 'p_direct'"),
        ('{"N": 3, "K": 2, "dist": {"p_direct": true, "p_weights": [0, 0]}}', "field 'p_direct'"),
        ('{"N": 3, "K": 2, "dist": {"p_direct": null, "p_weights": [0, 0]}}', "field 'p_direct'"),
        ('{"N": 3, "K": 2, "dist": {"p_direct": 0.3333333333333333, "p_weights": [false, "0"]}}',
         "field 'p_weights'"),
    ],
)
def test_simulate_rejects_malformed_scheme_file(capsys, tmp_path, text, message):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(text)
    code, out, err = run(capsys, "simulate", "--scheme-file", str(scheme_path), "--trials", "10")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_simulate_accepts_integer_probabilities(capsys, tmp_path):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text('{"N": 2, "K": 2, "dist": {"p_direct": 0, "p_weights": [0.5, 0]}}')
    code, out, _ = run(capsys, "simulate", "--scheme-file", str(scheme_path), "--trials", "10")
    assert code == 0
    assert json.loads(out)["scheme"]["dist"] == {"p_direct": 0.0, "p_weights": [0.5, 0.0]}


def test_simulate_accepts_integral_float_sizes(capsys, tmp_path):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(
        json.dumps({"N": 3.0, "K": 2.0, "dist": {"p_direct": 1 / 3, "p_weights": [0.0, 0.0]}})
    )
    code, out, _ = run(capsys, "simulate", "--scheme-file", str(scheme_path), "--trials", "10")
    assert code == 0
    assert json.loads(out)["scheme"]["N"] == 3


def test_simulate_writes_null_for_undrawn_messages(capsys):
    code, out, _ = run(
        capsys, "simulate", "--metric", "maxl", "--rho", "0.1",
        "-N", "3", "-K", "5", "--trials", "2",
    )
    assert code == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    downloads = json.loads(out, parse_constant=reject)["per_message_download"]
    assert len(downloads) == 5 and downloads.count(None) >= 3
    assert all(d is None or d >= 1.0 for d in downloads)


def test_simulate_mi_metric(capsys, tmp_path):
    out = tmp_path / "mi.json"
    code, _, _ = run(
        capsys, "simulate", "--metric", "mi", "--rho", "0.05",
        "-N", "3", "-K", "2", "--trials", "1000", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scheme"]["dist"]["p_direct"] == 0.0
    assert report["success_rate"] == 1.0


def _mi_rungs(N, K):
    # the budgets of the benchmark's MI ladder: the midpoints of four equal
    # steps up to the direct point's leakage
    return [(i + 0.5) / 4 * math.log2(K) / N for i in range(4)]


@pytest.mark.parametrize(
    "N,K,rho",
    [(3, 5, 0.697)]
    + [(N, K, rho) for N, K in [(5, 5), (3, 2), (4, 3), (2, 5)] for rho in _mi_rungs(N, K)],
)
def test_simulate_mi_lies_on_curve_envelope(capsys, N, K, rho):
    size = ["-N", str(N), "-K", str(K)]
    code, out, _ = run(capsys, "curve", "--metric", "mi", *size, "--format", "json")
    assert code == 0
    curve = [(p["rho_bits"], p["download_cost"]) for p in json.loads(out)]
    (r0, d0), (r1, d1) = next((a, b) for a, b in zip(curve, curve[1:]) if a[0] <= rho <= b[0])
    chord = d0 + (rho - r0) / (r1 - r0) * (d1 - d0)

    code, out, _ = run(
        capsys, "simulate", "--metric", "mi", "--rho", repr(rho), *size, "--trials", "10"
    )
    assert code == 0
    report = json.loads(out)
    scheme = WpirScheme.from_json(report["scheme"])
    assert abs(class_leakage(scheme.params, scheme.dist, "mi") - rho) <= 1e-9
    assert report["theoretical_download"] <= chord + 1e-9


@pytest.mark.parametrize("N,K", [(5, 5), (19, 3)])
def test_simulate_mi_succeeds_where_curve_mi_succeeds(capsys, N, K):
    # at (19, 3) the uniform point's leakage once cancelled below 0 at
    # x_last = 1, and both commands exited 2 on it
    size = ["-N", str(N), "-K", str(K)]
    rho = math.log2(K) / N / 2
    curve_code, out, curve_err = run(capsys, "curve", "--metric", "mi", *size, "--format", "json")
    assert (curve_code, curve_err) == (0, "")
    curve = [(p["rho_bits"], p["download_cost"]) for p in json.loads(out)]
    assert curve[0][0] == 0.0
    (r0, d0), (r1, d1) = next((a, b) for a, b in zip(curve, curve[1:]) if a[0] <= rho <= b[0])
    chord = d0 + (rho - r0) / (r1 - r0) * (d1 - d0)

    sim_code, out, sim_err = run(
        capsys, "simulate", "--metric", "mi", "--rho", repr(rho), *size, "--trials", "10"
    )
    assert (sim_code, sim_err) == (0, "")
    report = json.loads(out)
    scheme = WpirScheme.from_json(report["scheme"])
    assert abs(class_leakage(scheme.params, scheme.dist, "mi") - rho) <= 1e-9
    assert report["theoretical_download"] <= chord + 1e-9


@pytest.mark.parametrize("rho", _mi_rungs(17, 17))
def test_simulate_mi_solves_at_17_17_on_the_curve_envelope(capsys, rho):
    # the optimizer step of simulate at (17, 17), where the full sweep
    # overflowed; the simulator lists all N^K queries, so the command itself
    # stops at the enumeration guard
    N = K = 17
    params = SystemParams(N, K)
    code, out, _ = run(capsys, "curve", "--metric", "mi", "-N", "17", "-K", "17", "--format", "json")
    assert code == 0
    curve = [(p["rho_bits"], p["download_cost"]) for p in json.loads(out)]
    (r0, d0), (r1, d1) = next((a, b) for a, b in zip(curve, curve[1:]) if a[0] <= rho <= b[0])
    chord = d0 + (rho - r0) / (r1 - r0) * (d1 - d0)
    scheme = WpirScheme(params, optimize.solve(params, "mi", rho).dist)
    scheme.dist.validate(params)
    assert abs(class_leakage(params, scheme.dist, "mi") - rho) <= 1e-9
    assert download_cost(scheme) <= chord + 1e-9

    code, out, err = run(
        capsys, "simulate", "--metric", "mi", "--rho", repr(rho), "-N", "17", "-K", "17",
        "--trials", "10",
    )
    assert (code, out) == (2, "")
    assert err == f"error: N^K = 17^17 exceeds the enumeration guard of {MAX_ENUM_KEYS}\n"


def test_simulate_requires_scheme_or_metric(capsys):
    code, _, err = run(capsys, "simulate", "--trials", "10")
    assert code == 2
    assert "scheme-file" in err


@pytest.mark.parametrize(
    "metric,rho", [("maxl", "nan"), ("mi", "nan"), ("mi", "-0.1"), ("maxl", "inf")]
)
def test_simulate_rejects_invalid_budget(capsys, metric, rho):
    code, out, err = run(
        capsys, "simulate", "--metric", metric, "--rho", rho,
        "-N", "3", "-K", "2", "--trials", "10",
    )
    assert code == 2
    assert out == ""
    assert "leakage budget" in err


@pytest.mark.parametrize("rho", ["1024", "1e308"])
def test_simulate_maxl_budget_beyond_float_power(capsys, rho):
    # 2^rho has no float here; any budget above the cap is the pure direct scheme
    code, out, err = run(capsys, "simulate", "--metric", "maxl", "--rho", rho, "--trials", "50")
    assert (code, err) == (0, "")
    assert json.loads(out)["scheme"]["dist"]["p_direct"] == 1 / 3


def test_curve_maxl_at_the_largest_float_sizes(capsys):
    for N, K in [(2, 1023), (10, 300)]:
        code, out, err = run(capsys, "curve", "--metric", "maxl", "-N", str(N), "-K", str(K),
                             "--points", "2", "--format", "json")
        assert (code, err) == (0, "")
        assert abs(json.loads(out)[-1]["p_direct"] - 1 / N) <= 1e-12


#: Sizes where float error in the ratio recursion made `curve --metric mi`
#: exit 2 when it evaluated alternating power sums: at x_last = 10^9 with
#: --points 2, and in the full sweep that --baseline-out writes.
_MI_POINTS_2 = [(13, 19), (14, 18), (14, 19), (15, 19), (16, 20), (18, 19)]
_MI_BASELINE_200 = [(16, 20), (17, 17), (17, 18), (17, 20)]


@pytest.mark.parametrize(
    "argv",
    [
        *(["curve", "--metric", "mi", "-N", str(N), "-K", str(K), "--points", "2"]
          for N, K in _MI_POINTS_2),
        *(["curve", "--metric", "mi", "-N", str(N), "-K", str(K)] for N, K in _MI_BASELINE_200),
    ],
    ids=" ".join,
)
def test_mi_curve_and_baseline_exit_0(capsys, tmp_path, argv):
    out, base = tmp_path / "out", tmp_path / "base"
    code, stdout, err = run(
        capsys, *argv, "--format", "json", "--out", str(out), "--baseline-out", str(base)
    )
    assert (code, stdout, err) == (0, "", "")
    N, K = int(argv[4]), int(argv[6])
    _check_mi_curve(N, K, json.loads(out.read_text()))
    # past the direct point's leakage the sweep's leakage saturates, and its
    # last bits are rounding
    _check_monotone_normalized(N, K, json.loads(base.read_text()), rho_tol=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--metric", "mi", "-N", "200", "-K", "100", "--points", "2"],
        ["curve", "--metric", "mi", "-N", "200", "-K", "100", "--baseline-out", "BASE"],
        ["curve", "--metric", "maxl", "-N", "2", "-K", "1100"],
        ["curve", "--metric", "maxl", "-N", "400", "-K", "130"],
        ["simulate", "--metric", "maxl", "--rho", "0.1", "-N", "2", "-K", "1100"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_overflow_exits_2_and_writes_nothing(capsys, tmp_path, argv):
    out, base = tmp_path / "out", tmp_path / "base"
    argv = [str(base) if a == "BASE" else a for a in argv]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists() and not base.exists()


@pytest.mark.parametrize("command", ["simulate", "dump-table"])
def test_too_large_to_enumerate(capsys, command):
    extra = ["--metric", "maxl", "--rho", "0.1", "--trials", "10"] if command == "simulate" else []
    code, out, err = run(capsys, command, "-N", "10", "-K", "8", *extra)
    assert code == 2
    assert out == ""
    assert "exceeds" in err


def _env_with_src() -> dict:
    """The environment, with this checkout's wpir first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(wpir.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_main_reuses_its_parser(capsys):
    simulate = ["simulate", "--metric", "maxl", "--rho", "0.2", "-N", "3", "-K", "2", "--trials", "50"]
    curve = ["curve", "--metric", "mi", "-N", "3", "-K", "2", "--points", "10", "--format", "json"]
    bad = ["curve", "--metric", "bogus", "-N", "3", "-K", "2"]
    alone = {}
    for argv in (simulate, curve, bad):
        proc = subprocess.run(
            [sys.executable, "-m", "wpir.cli", *argv],
            capture_output=True, text=True, env=_env_with_src(),
        )
        alone[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    for argv in (simulate, curve, bad, simulate):
        if argv is bad:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            code = exc.value.code
        else:
            code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == alone[tuple(argv)]
    assert alone[tuple(bad)][0] == 2
    assert build_parser() is not build_parser()


_BENCHMARK_READS = """
import importlib
import inspect

import wpir

print(sorted(n for n, v in vars(wpir).items() if not n.startswith("__") and not inspect.ismodule(v)))
print(sorted(wpir.__all__))
import wpir.cli

# what bench/ reads, through the package as bench/run.py imports it
wpir.__version__, wpir.SystemParams, wpir.PatternDistribution, wpir.WpirScheme
wpir.leakage.leakage_report, wpir.optimize.solve_maxl, wpir.cli.main
# bench/spans.py wraps the functions of every layer, and MessageStore.random as a classmethod
for layer in ("core", "tsc", "scheme", "tables", "leakage", "optimize", "sim", "cli"):
    importlib.import_module(f"wpir.{layer}")
print(isinstance(wpir.core.MessageStore.__dict__["random"], classmethod))
"""


def test_package_surface_and_what_the_benchmark_reads():
    # a fresh interpreter, so that only `import wpir` and `import wpir.cli` have run
    proc = subprocess.run(
        [sys.executable, "-c", _BENCHMARK_READS], capture_output=True, text=True, env=_env_with_src()
    )
    assert proc.returncode == 0, proc.stderr
    exported = ["PatternDistribution", "SystemParams", "WpirScheme"]
    assert proc.stdout.splitlines() == [str(exported), str(sorted(["__version__", *exported])), "True"]


_WITHOUT_NUMPY = """
import sys

# the per-key reference tier and numpy, which the class tier never loads
PER_KEY = ("wpir.tsc", "wpir.scheme", "wpir.tables", "wpir.sim", "numpy")


def loaded():
    return [name for name in PER_KEY if name in sys.modules]


import wpir

print(loaded())
import wpir.optimize

print(loaded())
import wpir.cli
from wpir import SystemParams, WpirScheme
from wpir.leakage import leakage_report
from wpir.optimize import solve_maxl

out = sys.argv[1]
size = ["-N", "3", "-K", "2"]
for argv in (
    ["curve", "--metric", "maxl", *size, "--format", "json", "--out", out],
    ["curve", "--metric", "maxl", *size, "--format", "csv", "--out", out],
    ["curve", "--metric", "maxl", *size, "--out", out, "--baseline-out", out],
    ["curve", "--metric", "mi", *size, "--format", "json", "--out", out],
    ["curve", "--metric", "mi", *size, "--out", out, "--baseline-out", out],
):
    print(wpir.cli.main(argv), loaded())
print(wpir.cli.main(["dump-table", *size, "--out", out]), loaded())
# the per-key oracle and the simulator work on arrays
params = SystemParams(3, 3)
scheme = WpirScheme(params, solve_maxl(params, 0.2))
codes = [leakage_report(scheme, metric).value > 0 for metric in ("maxl", "mi")]
codes.append(
    wpir.cli.main(["simulate", "--metric", "maxl", "--rho", "0.2", "--trials", "50", "--out", out])
)
print(codes, "numpy" in sys.modules)
print(wpir.cli.main(["verify", *size]))
print(wpir.cli.main(["dump-table", *size, "--out", out]))
"""


def test_numpy_loads_only_for_simulate(tmp_path):
    # a fresh interpreter, since this one has numpy loaded already. `import
    # wpir` and `curve` load the class tier only; `dump-table` loads the
    # per-key modules it walks, and no numpy
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path / "out")],
        capture_output=True, text=True, env=_env_with_src(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["[]", "[]"]
    assert lines[2:7] == ["0 []"] * 5
    assert lines[7] == "0 ['wpir.tsc', 'wpir.scheme', 'wpir.tables']"
    assert lines[8:] == [
        "[True, True, 0] True",
        "PASS decode-exhaustive",
        "PASS leakage-engine-vs-enumeration",
        "PASS maxl-closed-form",
        "PASS kkt-stationarity",
        "0",  # verify
        "0",  # dump-table
    ]


def test_main_calls_the_current_command_binding(capsys, monkeypatch):
    assert main(["dump-table", "-N", "3", "-K", "2"]) == 0  # the parser exists now
    monkeypatch.setattr(cli, "cmd_dump_table", lambda args: 7)
    assert main(["dump-table", "-N", "3", "-K", "2"]) == 7


_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.text()
    | _FLOATS
    | _FLOATS.map(lambda x: [x, x, x])  # one float object, repeated
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=40,
)
#: str-to-float maps, which the writer hands to the C encoder whole
_FLOAT_MAPS = st.dictionaries(st.text(max_size=8), _FLOATS, min_size=1, max_size=12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    _VALUES
    | _FLOAT_MAPS
    | st.lists(_FLOAT_MAPS, max_size=3)
    | st.dictionaries(st.text(max_size=4), _FLOAT_MAPS, max_size=3)
)
def test_dumps_indented_matches_stdlib(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        [np.float64(0.1), np.float64(-0.0), np.float64("nan"), np.float64("-inf"), 0.1, 0.0],
        {"p": np.float64(1 / 3), "q": [1 / 3, np.float64(1 / 3)]},
        np.float64(2.5),
        {"é\u2028\x00": "\ud83d\x7f", "": []},
        {"é": math.nan, "\u2028": math.inf, "𝔵": -math.inf, "\x00": 0.0, "-0": -0.0},
        [{"a": 5e-324, "b": -2.5e-310, "c": 2.2250738585072014e-308}, {"": 1e308}],
        {"q": np.float64(0.25), "p": 0.5},  # a float subclass: written value by value
        # a float last, after values the C encoder would write unindented
        {"a": [1.5], "b": {"c": 0.5}, "n": None, "d": 0.25},
    ],
)
def test_dumps_indented_matches_stdlib_on_cases(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        b"bytes",
        [1, {"x": {2}}],
        {1: "int key"},
        # float values with a non-str key, which json.dumps would coerce
        {1: 0.5},
        {"a": 0.5, None: 0.25},
        [{"a": 0.5, 1.5: 0.25, True: 1.0}],
    ],
)
def test_dumps_indented_rejects_other_types(value):
    with pytest.raises(TypeError):
        _dumps_indented(value)


def test_dumps_indented_leaves_no_garbage():
    # nothing of a call waits for the cycle collector
    gc.collect()
    gc.disable()
    try:
        _dumps_indented({"a": [1.5, {"b": None, "c": 0.5}], "d": {"e": 0.25}})
        assert gc.collect() == 0
    finally:
        gc.enable()
