"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest output.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_tsc_dist
from golden_n3k2 import TABLE_W1, TABLE_W2
from wpir.core import (
    MessageStore,
    PatternDistribution,
    SystemParams,
    enumerate_keys,
)
from wpir.leakage import (
    class_leakage,
    enumerate_query_law,
    maximal_leakage,
    mutual_info_leakage,
)
from wpir.optimize import (
    kkt_residual,
    maxl_curve,
    maxl_leakage_cap,
    mi_curve,
    mi_point,
    mi_sweep,
    p_from_x,
    solve_maxl,
    solve_x_recursion,
    tangency_x1,
    optimal_maxl_download,
    x_grid,
)
from wpir.scheme import WpirScheme, download_cost, wpir_answer, wpir_decode, wpir_query
from wpir.sim import SimConfig, binomial_bound, run_simulation
from wpir.tables import table_rows


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_01_golden_table():
    with criterion("1 golden-table"):
        start = time.monotonic()
        params = SystemParams(3, 2)
        assert {r.cells() for r in table_rows(params, 1)} == TABLE_W1
        assert {r.cells() for r in table_rows(params, 2)} == TABLE_W2
        assert time.monotonic() - start < 1.0


def test_criterion_02_capacity_endpoint():
    with criterion("2 capacity-endpoint"):
        for N, K in [(3, 2), (2, 3), (4, 2)]:
            params = SystemParams(N, K)
            expected = (1 - N**-K) / (1 - 1 / N)
            scheme = WpirScheme(params, solve_maxl(params, 0.0))
            assert abs(download_cost(scheme) - expected) <= 1e-9
            assert abs(mi_point(params, 1.0).download - expected) <= 1e-9
        assert abs(download_cost(WpirScheme(SystemParams(3, 2), solve_maxl(SystemParams(3, 2), 0.0))) - 4 / 3) <= 1e-9


def test_criterion_03_maxl_closed_form_match():
    with criterion("3 maxl-closed-form-match"):
        start = time.monotonic()
        for N in (2, 3, 4):
            for K in (2, 3, 4):
                params = SystemParams(N, K)
                cap = maxl_leakage_cap(params)
                for rho in np.linspace(0.0, cap, 20):
                    scheme = WpirScheme(params, solve_maxl(params, float(rho)))
                    leak = maximal_leakage(enumerate_query_law(scheme, 1))
                    assert abs(leak - min(rho, cap)) <= 1e-9
                    assert (
                        abs(download_cost(scheme) - optimal_maxl_download(params, float(rho)))
                        <= 1e-9
                    )
        assert time.monotonic() - start < 10.0


def test_criterion_04_min_download_improvement():
    with criterion("4 min-download-improvement"):
        params = SystemParams(3, 2)
        new = WpirScheme(params, PatternDistribution.pure_direct(params))
        legacy = WpirScheme(params, PatternDistribution(0.0, (1 / 3, 0.0)))
        leak_new = maximal_leakage(enumerate_query_law(new, 1))
        leak_legacy = maximal_leakage(enumerate_query_law(legacy, 1))
        assert abs(download_cost(new) - 1.0) <= 1e-12
        assert abs(download_cost(legacy) - 1.0) <= 1e-12
        assert abs(leak_new - math.log2(4 / 3)) <= 1e-9
        assert abs(leak_legacy - math.log2(5 / 3)) <= 1e-9
        assert leak_new < leak_legacy


def test_criterion_05_mi_extreme_point():
    with criterion("5 mi-extreme-point"):
        for N, K in [(3, 2), (2, 3), (3, 3)]:
            params = SystemParams(N, K)
            scheme = WpirScheme(params, PatternDistribution.pure_direct(params))
            mi = mutual_info_leakage(enumerate_query_law(scheme, 1))
            assert abs(mi - math.log2(K) / N) <= 1e-9
        scheme = WpirScheme(SystemParams(3, 2), PatternDistribution.pure_direct(SystemParams(3, 2)))
        assert abs(mutual_info_leakage(enumerate_query_law(scheme, 1)) - 1 / 3) <= 1e-9


def test_criterion_06_analytic_mi_equivalence():
    with criterion("6 analytic-mi-equivalence"):
        start = time.monotonic()
        for N in (2, 3):
            for K in (2, 3, 4):
                params = SystemParams(N, K)
                rng = np.random.default_rng(600 + 10 * N + K)
                for _ in range(100):
                    dist = random_tsc_dist(params, rng)
                    scheme = WpirScheme(params, dist)
                    exact = mutual_info_leakage(enumerate_query_law(scheme, 1))
                    assert abs(exact - class_leakage(params, dist, "mi")) <= 1e-9
        assert time.monotonic() - start < 30.0


def test_criterion_07_kkt_stationarity():
    with criterion("7 kkt-stationarity"):
        params = SystemParams(3, 3)
        for x_last in np.logspace(0, 6, 20):
            x = solve_x_recursion(params, float(x_last))
            assert kkt_residual(params, x) <= 1e-6
            p = list(p_from_x(params, x).p_weights)
            p[1] *= 1.01
            assert kkt_residual(params, (p[0] / p[1], p[1] / p[2])) > 1e-3


def test_criterion_08_tangency():
    with criterion("8 tangency"):
        params = SystemParams(3, 2)
        grid = x_grid(1000)
        pts = mi_curve(params, 1000)
        last_pure_x = max(p.x_last for p in pts if p.kind == "tsc")
        target = tangency_x1(params)
        assert abs(target - 1 / (math.sqrt(2) - 1)) <= 1e-12
        i_found = int(np.argmin(np.abs(grid - last_pure_x)))
        i_target = int(np.argmin(np.abs(grid - target)))
        assert abs(i_found - i_target) <= 1


def test_criterion_09_decode_exhaustive():
    with criterion("9 decode-exhaustive"):
        for N in (2, 3):
            for K in (2, 3):
                params = SystemParams(N, K)
                dist = PatternDistribution(
                    0.5 / N,
                    tuple(0.5 * p for p in PatternDistribution.uniform(params).p_weights),
                )
                scheme = WpirScheme(params, dist)
                for fill in range(10):
                    store = MessageStore.random(params, 900 + fill)
                    for key in enumerate_keys(params):
                        for k in range(1, K + 1):
                            answers = [
                                wpir_answer(wpir_query(scheme, k, key, n), store)
                                for n in range(1, N + 1)
                            ]
                            assert wpir_decode(scheme, k, key, answers) == store.message(k)


def test_criterion_10_monte_carlo():
    with criterion("10 monte-carlo"):
        start = time.monotonic()
        params = SystemParams(3, 2)
        trials = 10**5
        schemes = {
            "uniform": WpirScheme(params, PatternDistribution.uniform(params)),
            "maxl-0.2": WpirScheme(params, solve_maxl(params, 0.2)),
            "pure-direct": WpirScheme(params, PatternDistribution.pure_direct(params)),
        }
        for name, scheme in schemes.items():
            report = run_simulation(SimConfig(scheme, trials, seed=1010, message_seed=2020))
            assert report.success_rate == 1.0
            slack = 3 * report.download_stderr if report.download_stderr > 0 else 1e-12
            assert abs(report.empirical_download - download_cost(scheme)) <= slack
            for n in range(1, 4):
                law = enumerate_query_law(scheme, n)
                marginal = {q: row[0] / 2 + row[1] / 2 for q, row in law.rows.items()}
                from wpir.tables import query_label

                freqs = report.query_frequencies[n - 1]
                for q, p in marginal.items():
                    observed = freqs.get(query_label(q), 0.0)
                    assert abs(observed - p) <= binomial_bound(p, trials)
        assert time.monotonic() - start < 20.0


def test_criterion_11_curve_shape():
    with criterion("11 curve-shape"):
        params = SystemParams(3, 2)
        grid_size = 500

        # optimal maximal-leakage curve: nonincreasing in rho, affine (hence
        # convex) in the 2^rho coordinate where probabilistic sharing is linear
        pts = maxl_curve(params, grid_size)
        ds = [p.download for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))
        us = [2**p.rho for p in pts]
        for i in range(1, len(pts) - 1):
            left = (ds[i] - ds[i - 1]) / (us[i] - us[i - 1])
            right = (ds[i + 1] - ds[i]) / (us[i + 1] - us[i])
            assert right >= left - 1e-9

        # mutual-information envelope: convex and nonincreasing in rho
        env = mi_curve(params, grid_size)
        rhos = [p.rho for p in env]
        ds = [p.download for p in env]
        assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))
        for i in range(1, len(env) - 1):
            left = (ds[i] - ds[i - 1]) / (rhos[i] - rhos[i - 1])
            right = (ds[i + 1] - ds[i]) / (rhos[i + 1] - rhos[i])
            assert right >= left - 1e-9

        # coincides with the no-direct-pattern curve below the tangency
        # leakage, strictly below it above
        sweep = [p for p in mi_sweep(params, grid_size) if p.rho < env[-1].rho]
        tangent_rho = class_leakage(params, p_from_x(params, (tangency_x1(params),)), "mi")
        assert len(env) == len(sweep) + 1
        # one grid cell of slack in rho around the tangency
        cross = next(i for i, p in enumerate(sweep) if p.rho > tangent_rho)
        margin = sweep[cross + 1].rho - sweep[cross - 1].rho
        for point, swept in zip(env, sweep):
            assert point.rho == swept.rho
            if point.kind == "tsc":
                assert abs(point.download - swept.download) <= 1e-12
                assert point.rho <= tangent_rho + margin
            else:
                assert point.download < swept.download
                assert point.rho >= tangent_rho - margin
