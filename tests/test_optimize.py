import decimal
import io
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wpir.core import PatternDistribution, SystemParams, WpirScheme, download_cost
from wpir.leakage import class_leakage, enumerate_query_law, maximal_leakage
from wpir.optimize import (
    CURVE_POINTS,
    GRID_EPS,
    MAXL_RHO_CLAMP,
    MI_BUDGET_TOL,
    X_MAX,
    OutOfRange,
    TradeoffPoint,
    _geometric_tail,
    _linspace,
    _mi_envelope,
    curve_to_json,
    direct_extreme_point,
    kkt_residual,
    legacy_maxl_curve,
    maxl_curve,
    maxl_leakage_cap,
    mi_curve,
    mi_point,
    mi_sweep,
    p_from_x,
    solve,
    solve_maxl,
    solve_x_recursion,
    tangency_x1,
    optimal_maxl_download,
    write_curve_csv,
    x_grid,
)


class TestSolveMaxl:
    def test_zero_budget_gives_uniform(self, params_n3k2):
        dist = solve_maxl(params_n3k2, 0.0)
        assert dist.p_direct == 0.0
        assert dist.p_weights == (1 / 9, 1 / 9)
        scheme = WpirScheme(params_n3k2, dist)
        assert download_cost(scheme) == pytest.approx(4 / 3, abs=1e-12)

    def test_large_budget_clamps_to_pure_direct(self, params_n3k2):
        cap = maxl_leakage_cap(params_n3k2)
        dist = solve_maxl(params_n3k2, cap + 0.5)
        assert dist.p_direct == pytest.approx(1 / 3, abs=1e-15)
        assert all(p == pytest.approx(0.0, abs=1e-15) for p in dist.p_weights)
        assert download_cost(WpirScheme(params_n3k2, dist)) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_budget(self, params_n3k2):
        dist = solve_maxl(params_n3k2, 0.3)
        assert dist.p_direct == pytest.approx(2**0.3 - 1, abs=1e-12)
        assert optimal_maxl_download(params_n3k2, 0.3) == pytest.approx(
            1.102188919988417, abs=1e-9
        )
        scheme = WpirScheme(params_n3k2, dist)
        leak = maximal_leakage(enumerate_query_law(scheme, 1))
        assert leak == pytest.approx(0.3, abs=1e-9)

    def test_negative_budget_rejected(self, params_n3k2):
        with pytest.raises(ValueError):
            solve_maxl(params_n3k2, -0.1)


class TestXRecursion:
    def test_all_ones(self):
        for N, K in [(2, 3), (3, 3), (3, 4)]:
            x = solve_x_recursion(SystemParams(N, K), 1.0)
            assert x == (1.0,) * (K - 1)

    def test_k2_passthrough(self, params_n3k2):
        assert solve_x_recursion(params_n3k2, 3.5) == (3.5,)

    def test_self_consistency_residual(self):
        params = SystemParams(3, 3)
        x = solve_x_recursion(params, 2.0)
        # the i = 2 step of the backward recursion, rearranged to residual form
        lhs = math.log((1 * x[0] + 2) / 3)
        rhs = (1 + (1 - 3)) * math.log((2 * x[1] + 1) / 3) - (1 - 3) * math.log(x[1])
        assert abs(lhs - rhs) <= 1e-10

    def test_out_of_range_input(self, params_n3k2):
        with pytest.raises(OutOfRange):
            solve_x_recursion(params_n3k2, 0.5)
        with pytest.raises(OutOfRange):
            solve_x_recursion(params_n3k2, 1e12)

    def test_overflow_to_inf_raises(self):
        # K * exp(s) overflows to inf here without raising OverflowError
        with pytest.raises(OutOfRange, match="overflows"):
            solve_x_recursion(SystemParams(1000, 100), 3062636.4173315265)


class TestPFromX:
    def test_uniform_at_ones(self):
        params = SystemParams(3, 3)
        dist = p_from_x(params, (1.0, 1.0))
        assert all(p == pytest.approx(3**-3, abs=1e-15) for p in dist.p_weights)
        dist.validate(params)

    def test_tangent_values(self, params_n3k2):
        x1 = 1 / (math.sqrt(2) - 1)
        dist = p_from_x(params_n3k2, (x1,))
        assert dist.p_weights[0] == pytest.approx(0.18230605355934235, abs=1e-9)
        assert dist.p_weights[1] == pytest.approx(0.07551363988699547, abs=1e-9)
        assert 3 * dist.p_weights[0] + 6 * dist.p_weights[1] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_ratio_round_trip(self):
        params = SystemParams(3, 4)
        x = solve_x_recursion(params, 2.5)
        p = p_from_x(params, x).p_weights
        assert [p[w - 1] / p[w] for w in range(1, 4)] == pytest.approx(x, abs=1e-12)


class TestKkt:
    def test_symmetric_point(self):
        params = SystemParams(3, 3)
        assert kkt_residual(params, (1.0, 1.0)) <= 1e-9

    @pytest.mark.parametrize("x_last", [1.5, 2.0, 5.0])
    def test_stationary_on_valid_branch(self, x_last):
        for N, K in [(3, 3), (3, 4), (2, 4)]:
            params = SystemParams(N, K)
            x = solve_x_recursion(params, x_last)
            assert kkt_residual(params, x) <= 1e-6

    def test_perturbation_breaks_stationarity(self):
        params = SystemParams(3, 3)
        x = solve_x_recursion(params, 2.0)
        p = list(p_from_x(params, x).p_weights)
        p[1] *= 1.01
        assert kkt_residual(params, (p[0] / p[1], p[1] / p[2])) > 1e-3


class TestMiPoints:
    def test_perfect_privacy_endpoint(self):
        for N, K in [(3, 2), (2, 3), (3, 3)]:
            params = SystemParams(N, K)
            pt = mi_point(params, 1.0)
            assert pt.rho == pytest.approx(0.0, abs=1e-12)
            assert pt.download == pytest.approx((1 - N**-K) / (1 - 1 / N), abs=1e-12)

    def test_tangent_download(self, params_n3k2):
        pt = mi_point(params_n3k2, 1 / (math.sqrt(2) - 1))
        assert pt.download == pytest.approx(1.2265409196609864, abs=1e-9)

    def test_monotone_sweep(self, params_n3k2):
        pts = mi_sweep(params_n3k2, 50)
        rhos = [p.rho for p in pts]
        downloads = [p.download for p in pts]
        assert all(b > a for a, b in zip(rhos, rhos[1:]))
        assert all(b < a for a, b in zip(downloads, downloads[1:]))

    def test_analytic_rho_matches_enumeration(self, params_n3k2):
        from wpir.leakage import mutual_info_leakage

        pt = mi_point(params_n3k2, 3.0)
        scheme = WpirScheme(params_n3k2, pt.dist)
        exact = mutual_info_leakage(enumerate_query_law(scheme, 1))
        assert pt.rho == pytest.approx(exact, abs=1e-9)


class TestCurves:
    def test_mi_curve_endpoints(self, params_n3k2):
        pts = mi_curve(params_n3k2, 200)
        assert pts[0].rho == pytest.approx(0.0, abs=1e-12)
        assert pts[0].download == pytest.approx(4 / 3, abs=1e-9)
        assert pts[-1].rho == pytest.approx(1 / 3, abs=1e-12)
        assert pts[-1].download == pytest.approx(1.0, abs=1e-12)

    def test_mi_curve_convex_nonincreasing(self, params_n3k2):
        pts = mi_curve(params_n3k2, 200)
        rhos = [p.rho for p in pts]
        downloads = [p.download for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(downloads, downloads[1:]))
        for i in range(1, len(pts) - 1):
            left = (downloads[i] - downloads[i - 1]) / (rhos[i] - rhos[i - 1])
            right = (downloads[i + 1] - downloads[i]) / (rhos[i + 1] - rhos[i])
            assert right >= left - 1e-9

    def test_mi_curve_tangency_location(self, params_n3k2):
        grid = np.asarray(x_grid(1000))
        pts = mi_curve(params_n3k2, 1000)
        last_pure_x = max(p.x_last for p in pts if p.kind == "tsc")
        target = tangency_x1(params_n3k2)
        i_found = int(np.argmin(np.abs(grid - last_pure_x)))
        i_target = int(np.argmin(np.abs(grid - target)))
        assert abs(i_found - i_target) <= 1

    def test_mi_shared_points_record_direct_mass(self, params_n3k2):
        pts = mi_curve(params_n3k2, 200)
        shared = [p for p in pts if p.kind == "shared"]
        assert shared
        for p in shared:
            assert 0.0 < p.dist.p_direct <= 1 / 3 + 1e-12
            p.dist.validate(params_n3k2)

    def test_maxl_curve_endpoints_and_form(self, params_n3k2):
        pts = maxl_curve(params_n3k2, 50)
        assert pts[0].rho == 0.0
        assert pts[0].download == pytest.approx(1 + 1 / 3, abs=1e-12)
        assert pts[-1].rho == pytest.approx(maxl_leakage_cap(params_n3k2), abs=1e-12)
        assert pts[-1].download == pytest.approx(1.0, abs=1e-12)
        # affine in 2^rho
        us = [2**p.rho for p in pts]
        ds = [p.download for p in pts]
        slope = (ds[-1] - ds[0]) / (us[-1] - us[0])
        for u, d in zip(us, ds):
            assert d == pytest.approx(ds[0] + slope * (u - us[0]), abs=1e-9)

    def test_new_code_dominates_legacy_at_min_download(self):
        for N in (2, 3, 4):
            for K in (2, 3, 4):
                params = SystemParams(N, K)
                new = WpirScheme(params, PatternDistribution.pure_direct(params))
                legacy = WpirScheme(
                    params,
                    PatternDistribution(0.0, (1 / N,) + (0.0,) * (K - 1)),
                )
                leak_new = maximal_leakage(enumerate_query_law(new, 1))
                leak_legacy = maximal_leakage(enumerate_query_law(legacy, 1))
                assert leak_new == pytest.approx(math.log2((K + N - 1) / N), abs=1e-9)
                assert leak_legacy == pytest.approx(
                    math.log2((1 + (N - 1) * K) / N), abs=1e-9
                )
                if N == 2:
                    # both patterns read the message from a single other
                    # server's worth of queries, so the leakages coincide
                    assert leak_new == pytest.approx(leak_legacy, abs=1e-12)
                else:
                    assert leak_new < leak_legacy

    def test_legacy_curve_matches_enumeration(self, params_n3k2):
        for pt in legacy_maxl_curve(params_n3k2, 10):
            scheme = WpirScheme(params_n3k2, pt.dist)
            assert maximal_leakage(enumerate_query_law(scheme, 1)) == pytest.approx(
                pt.rho, abs=1e-9
            )
            assert download_cost(scheme) == pytest.approx(pt.download, abs=1e-9)

    def test_grid_validation(self, params_n3k2):
        with pytest.raises(ValueError):
            maxl_curve(params_n3k2, 1)
        with pytest.raises(ValueError):
            mi_curve(params_n3k2, 1)


def _hex(xs) -> list[str]:
    return [float(x).hex() for x in xs]


#: The (start, stop) of every grid wpir builds for N, K in [2, 20]: maxL and
#: the no-direct baseline in rho from 0, then the exponents of `x_grid`.
_GRID_RANGES = [
    (0.0, cap)
    for cap in sorted(
        {maxl_leakage_cap(SystemParams(N, K)) for N in range(2, 21) for K in range(2, 21)}
        | {math.log2((1 + (N - 1) * K) / N) for N in range(2, 21) for K in range(2, 21)}
    )
] + [(math.log10(GRID_EPS), math.log10(X_MAX - 1 + GRID_EPS))]


@pytest.mark.parametrize("num", [2, 3, 20, 200, 1000])
def test_linspace_matches_numpy_on_every_curve_grid(num):
    for start, stop in _GRID_RANGES:
        expected = np.linspace(start, stop, num).tolist()
        assert _hex(_linspace(start, stop, num)) == _hex(expected), (start, stop)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(2, 2000),
)
def test_linspace_matches_numpy(a, b, num):
    start, stop = min(a, b), max(a, b)
    assume(start < stop and (stop - start) / (num - 1) != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # both sides overflow alike
        expected = np.linspace(start, stop, num).tolist()
    assert _hex(_linspace(start, stop, num)) == _hex(expected)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(2, 20),
    st.integers(2, 20),
    st.floats(min_value=0.0, allow_infinity=False)
    | st.sampled_from([1023.0, 1024.0, 1e308, sys.float_info.max]),
)
def test_solve_maxl_at_any_finite_budget(N, K, rho):
    params = SystemParams(N, K)
    dist = solve_maxl(params, rho)
    dist.validate(params)
    cap = maxl_leakage_cap(params)
    assert abs(class_leakage(params, dist, "maxl") - min(rho, cap)) <= 1e-9
    download = download_cost(WpirScheme(params, dist))
    assert abs(download - optimal_maxl_download(params, rho)) <= 1e-9


def test_maxl_clamp_lies_above_every_cap():
    # K log2 N < 1024 bounds K by 1023, and the cap is largest at N = 2
    assert maxl_leakage_cap(SystemParams(2, 1023)) == 9.0 < MAXL_RHO_CLAMP


def _normalized(params, pt) -> bool:
    return abs(pt.dist.total_mass(params) - 1.0) <= 1e-12


@pytest.mark.parametrize("N", range(2, 21))
def test_maxl_curves_over_the_size_grid(N):
    for K, grid_size in itertools.product(range(2, 21), (20, CURVE_POINTS)):
        params = SystemParams(N, K)
        pts = maxl_curve(params, grid_size)
        assert len(pts) == grid_size
        previous = math.inf
        for pt in pts:
            assert _normalized(params, pt), (N, K, pt.rho)
            leak = class_leakage(params, pt.dist, "maxl")
            assert abs(leak - pt.rho) <= 1e-9, (N, K, pt.rho)
            assert pt.download == optimal_maxl_download(params, pt.rho)
            assert pt.download <= previous
            previous = pt.download
        first, last = pts[0], pts[-1]
        assert first.rho == 0.0 and first.dist.p_direct == 0.0
        assert abs(first.download - (1 - N**-K) / (1 - 1 / N)) <= 1e-12
        assert last.rho == maxl_leakage_cap(params)
        assert abs(last.download - 1.0) <= 1e-12
        assert abs(last.dist.p_direct - 1 / N) <= 1e-12
        assert all(abs(p) <= 1e-12 for p in last.dist.p_weights)
        assert all(_normalized(params, pt) for pt in legacy_maxl_curve(params, grid_size))


def _legacy_maxl_download(params, rho):
    """`legacy_maxl_curve`'s download at leakage rho, by its closed form."""
    N, K = params.num_servers, params.num_messages
    share = min(1.0, N * (2.0**rho - 1.0) / ((K - 1) * (N - 1)))
    return 1.0 + (1.0 - share) * _geometric_tail(N, K)


def test_maxl_gain_over_legacy_over_the_size_grid():
    # the paper's claim: downloading directly from one server, not N - 1,
    # lowers the download at equal leakage, strictly from N = 3 on; at N = 2
    # the two patterns are the same
    for N, K in itertools.product(range(2, 21), repeat=2):
        params = SystemParams(N, K)
        legacy = legacy_maxl_curve(params, CURVE_POINTS)
        assert [_legacy_maxl_download(params, pt.rho) for pt in legacy] == [
            pt.download for pt in legacy
        ]
        new = maxl_curve(params, CURVE_POINTS)
        for pt in new:
            saving = _legacy_maxl_download(params, pt.rho) - pt.download
            assert saving >= -1e-12, (N, K, pt.rho)
            if N == 2:
                assert saving == 0.0, (K, pt.rho)
            elif pt.rho > 0:
                assert saving > 0.0, (N, K, pt.rho)
        # the caps: the leakage of each family's minimum-download scheme
        assert new[-1].rho == math.log2(1 + (K - 1) / N)
        assert legacy[-1].rho == math.log2((1 + (N - 1) * K) / N)
        for pt in (new[-1], legacy[-1]):
            assert abs(class_leakage(params, pt.dist, "maxl") - pt.rho) <= 1e-12, (N, K)


@pytest.mark.parametrize("grid_size", [20, CURVE_POINTS])
def test_mi_curves_over_the_size_grid(grid_size):
    kinds = ["tsc", "shared", "direct"]
    for N, K in itertools.product(range(2, 21), repeat=2):
        params = SystemParams(N, K)
        pts = mi_curve(params, grid_size)
        rho = [pt.rho for pt in pts]
        download = [pt.download for pt in pts]
        assert all(b >= a for a, b in zip(rho, rho[1:])), (N, K)
        assert all(b <= a for a, b in zip(download, download[1:])), (N, K)
        for pt in pts:
            assert abs(pt.dist.total_mass(params) - 1.0) <= 1e-9, (N, K, pt.rho)
            assert abs(class_leakage(params, pt.dist, "mi") - pt.rho) <= 1e-9, (N, K, pt.rho)
        order = [kinds.index(pt.kind) for pt in pts]
        assert order == sorted(order), (N, K)
        assert abs(rho[0]) <= 1e-12, (N, K)
        assert abs(download[0] - (1 - N**-K) / (1 - 1 / N)) <= 1e-12, (N, K)
        assert pts[-1] == direct_extreme_point(params), (N, K)


@pytest.mark.parametrize("N", range(2, 21))
def test_recursion_stays_on_the_branch_over_the_size_grid(N):
    grid = [float(x) for x in x_grid(CURVE_POINTS)]
    for K in range(2, 21):
        params = SystemParams(N, K)
        for x_last in grid:
            assert min(solve_x_recursion(params, x_last)) >= 1.0, (N, K, x_last)


@pytest.mark.parametrize("N", range(2, 21))
def test_mi_sweeps_over_the_size_grid(N):
    # the whole sweep, past the direct point's leakage, which --baseline-out
    # writes; there the leakage saturates and its last bits are rounding
    for K in range(2, 21):
        params = SystemParams(N, K)
        pts = mi_sweep(params, CURVE_POINTS)
        rho = [pt.rho for pt in pts]
        download = [pt.download for pt in pts]
        assert all(b >= a - 1e-12 for a, b in zip(rho, rho[1:])), (N, K)
        assert all(b <= a for a, b in zip(download, download[1:])), (N, K)
        assert all(_normalized(params, pt) for pt in pts), (N, K)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(2, 20),
    st.integers(2, 20),
    st.sampled_from(["maxl", "mi"]),
    st.floats(min_value=0.0, max_value=1.25),
)
def test_solve_returns_the_point_it_found(N, K, metric, frac):
    params = SystemParams(N, K)
    cap = maxl_leakage_cap(params) if metric == "maxl" else math.log2(K) / N
    rho = frac * cap
    pt = solve(params, metric, rho)
    assert abs(class_leakage(params, pt.dist, metric) - min(rho, cap)) <= 1e-9
    assert abs(pt.download - download_cost(WpirScheme(params, pt.dist))) <= 1e-12


#: The (K, i) of a fixed sample of K at N = 2, on both sides of 49, the first
#: K that fails, where `solve` under MI raises OutOfRange for the budget i/6
#: of the direct point's leakage (log2 K)/2. Over K <= 100, 235 of the 495
#: (K, i) pairs fail: at N = 2 the leakage rises so steeply in x_last just
#: above 1 that no float x_last leaks within MI_BUDGET_TOL of the budget.
#: A pair that starts to pass leaves the list.
MI_N2_FAILURES = {(49, 1), (55, 3), (55, 4), (57, 1), (57, 2), (57, 4)}
MI_N2_FAILURES |= {(100, i) for i in range(1, 6)}


def test_mi_failures_at_n_2_are_the_listed_ones():
    failed = set()
    for K in (2, 30, 48, 49, 50, 55, 57, 100):
        params = SystemParams(2, K)
        for i in range(1, 6):
            rho = i / 6 * math.log2(K) / 2
            try:
                pt = solve(params, "mi", rho)
            except OutOfRange:
                failed.add((K, i))
                continue
            assert abs(class_leakage(params, pt.dist, "mi") - rho) <= MI_BUDGET_TOL, (K, i)
    assert failed == MI_N2_FAILURES


class TestSolve:
    @pytest.mark.parametrize("N,K", [(3, 2), (5, 5), (2, 5)])
    def test_mi_at_or_beyond_direct_leakage_is_pure_direct(self, N, K):
        params = SystemParams(N, K)
        extreme = math.log2(K) / N
        for rho in (extreme, extreme + 0.5):
            assert solve(params, "mi", rho).dist == PatternDistribution.pure_direct(params)

    # at (3, 20) the tangent vertex is the uniform point
    @pytest.mark.parametrize("N,K", [(3, 2), (5, 5), (4, 3), (3, 20)])
    def test_mi_zero_budget_leaks_nothing(self, N, K):
        params = SystemParams(N, K)
        dist = solve(params, "mi", 0.0).dist
        assert dist.p_direct == 0.0
        assert abs(class_leakage(params, dist, "mi")) <= 1e-12
        dist.validate(params)

    def test_maxl_is_solve_maxl(self):
        for N, K in [(3, 2), (5, 5), (4, 3)]:
            params = SystemParams(N, K)
            for rho in (0.0, 0.1, maxl_leakage_cap(params), 2.0):
                point = solve(params, "maxl", rho)
                assert point.dist == solve_maxl(params, rho)
                # 2.0 is above the cap: the point leaks the cap, not the budget
                assert abs(point.rho - class_leakage(params, point.dist, "maxl")) <= 1e-12

    @pytest.mark.parametrize("metric", ["maxl", "mi"])
    @pytest.mark.parametrize("rho", [math.nan, -0.1, math.inf])
    def test_invalid_budget_rejected(self, params_n3k2, metric, rho):
        with pytest.raises(ValueError, match="leakage budget"):
            solve(params_n3k2, metric, rho)

    def test_mi_solves_at_one_size_sweep_once(self):
        params = SystemParams(2, 20)
        _mi_envelope.cache_clear()
        first = solve(params, "mi", 0.3)
        assert solve(params, "mi", 0.3) == first
        solve(params, "mi", 0.6)
        info = _mi_envelope.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_mi_curve_never_changes_the_kept_envelope(self):
        params = SystemParams(3, 4)
        sweep, a, direct = _mi_envelope(params, 30)
        assert isinstance(sweep, tuple)
        first = mi_curve(params, 30)
        expected = list(first)
        second = mi_curve(params, 30)
        assert second == expected and second is not first
        # the curves are the callers' own lists
        first.clear()
        second[0] = direct
        assert _mi_envelope(params, 30) == (sweep, a, direct)
        assert mi_curve(params, 30) == expected

    @pytest.mark.parametrize("N", [2, 3, 5, 9])
    def test_mi_bisection_exit_keeps_the_full_loop_result(self, N):
        bisected = 0
        for K in (2, 3, 5, 12, 20):
            params = SystemParams(N, K)
            sweep, a, _ = _mi_envelope(params, CURVE_POINTS)
            tangent = sweep[a]
            # the budgets that solve bisects: up to the tangent vertex's
            # leakage, which is below 0 where the vertex is the uniform point
            budgets = [frac * tangent.rho for frac in (0.0, 1e-6, 0.01, 0.25, 0.5, 0.9, 1.0)]
            for rho in (rho for rho in budgets if 0.0 <= rho <= tangent.rho):
                bisected += 1
                assert solve(params, "mi", rho).dist == _reference_bisection(params, rho)
        assert bisected >= 14


def test_csv_output_is_byte_stable(params_n3k2):
    pts = maxl_curve(params_n3k2, 10)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_curve_csv(maxl_curve(params_n3k2, 10), buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    header = bufs[0].splitlines()[0]
    assert header == "rho_bits,download_cost,p_direct,p_w0,p_w1"
    assert len(bufs[0].splitlines()) == 11


# ---------------------------------------------------------------------------
# reference formulas: the recursion and the ratio-to-probability map as first
# written. The recursion's alternating power sums cancel, so the reference
# evaluates them in decimal at 60 digits, and the package's running exponent
# must agree within RECURSION_RTOL. The probability map takes its integer
# constants from per-size tables and must agree exactly.

#: Largest relative gap between a component of `solve_x_recursion` and the
#: 60-digit reference over x_grid(10) x [2, 20]^2; 2.1e-11 was measured.
RECURSION_RTOL = 1e-10


def _reference_solve_x_recursion(params, x_last):
    N, K = params.num_servers, params.num_messages
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x_last = decimal.Decimal(x_last)
        logs = [None] * K  # logs[m] = ln(x_m), 1-indexed
        x = [None] * K
        anchor = (((K - 1) * x_last + 1) / K).ln()
        for i in range(1, K):
            rhs = sum((1 - N) ** j for j in range(i)) * anchor
            rhs -= sum((1 - N) ** j * logs[K - i + j] for j in range(1, i))
            x[K - i] = (K * rhs.exp() - i) / (K - i)
            logs[K - i] = x[K - i].ln()
        return tuple(x[1:])


def _reference_p_from_x(params, x):
    N, K = params.num_servers, params.num_messages
    prods = [1.0]
    for xi in x:
        prods.append(prods[-1] / xi)
    p0 = 1.0 / (N + N * sum(math.comb(K - 1, w) * (N - 1) ** w * prods[w] for w in range(1, K)))
    return tuple(p0 * prods[w] for w in range(K))


def _reference_bisection(params, rho):
    # solve's MI bisection below the tangent vertex as first written: all 200
    # steps, with no exit at the fixed point
    sweep, a, _ = _mi_envelope(params, CURVE_POINTS)
    lo, hi = 1.0, sweep[a].x_last
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        dist = p_from_x(params, solve_x_recursion(params, mid))
        if class_leakage(params, dist, "mi") < rho:
            lo = mid
        else:
            hi = mid
    return p_from_x(params, solve_x_recursion(params, math.sqrt(lo * hi)))


@pytest.mark.parametrize("N", range(2, 21))
def test_recursion_matches_reference_exactly(N):
    for K in range(2, 21):
        params = SystemParams(N, K)
        for x_last in [float(v) for v in x_grid(10)]:
            x = solve_x_recursion(params, x_last)
            for xi, ref in zip(x, _reference_solve_x_recursion(params, x_last), strict=True):
                assert abs(decimal.Decimal(xi) / ref - 1) <= RECURSION_RTOL, (N, K, x_last)
            assert p_from_x(params, x).p_weights == _reference_p_from_x(params, x)


# the hull-based envelope as first written: a sampled lower convex hull of the
# sweep and the direct point; the package takes the tangent vertex directly
# and must agree exactly; the full sweep the reference takes raises nowhere on
# the grid below


def _reference_lower_hull(points):
    hull = []
    for i, (r, d) in enumerate(points):
        if hull and points[hull[-1]][0] == r:
            continue  # ties in rho keep the smaller D (sorted first)
        while len(hull) >= 2:
            r1, d1 = points[hull[-2]]
            r2, d2 = points[hull[-1]]
            if (r2 - r1) * (d - d1) - (d2 - d1) * (r - r1) <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _reference_mi_curve(params, grid_size):
    extreme = direct_extreme_point(params)
    sweep = [pt for pt in mi_sweep(params, grid_size) if pt.rho < extreme.rho]
    return _reference_hull_curve(params, sweep)


def _reference_hull_curve(params, sweep):
    N = params.num_servers
    extreme = direct_extreme_point(params)
    pts = sweep + [extreme]
    order = sorted(range(len(pts)), key=lambda i: (pts[i].rho, pts[i].download))
    coords = [(pts[i].rho, pts[i].download) for i in order]
    hull_idx = {order[j] for j in _reference_lower_hull(coords)}

    hull_pts = sorted((pts[i] for i in hull_idx), key=lambda p: p.rho)

    def envelope_at(rho):
        for a, b in zip(hull_pts, hull_pts[1:]):
            if a.rho <= rho <= b.rho:
                t = (rho - a.rho) / (b.rho - a.rho)
                return a.download + t * (b.download - a.download), a, b
        return hull_pts[-1].download, hull_pts[-1], hull_pts[-1]

    out = []
    for i, pt in enumerate(sweep):
        if i in hull_idx:
            out.append(pt)
            continue
        download, a, b = envelope_at(pt.rho)
        t = (pt.rho - a.rho) / (b.rho - a.rho)
        p_direct = t * (1.0 / N)
        shared_weights = tuple((1.0 - N * p_direct) * pw for pw in a.dist.p_weights)
        dist = PatternDistribution(p_direct, shared_weights)
        out.append(TradeoffPoint(pt.rho, download, "shared", dist, a.x_last, t))
    out.append(extreme)
    return out


@pytest.mark.parametrize("N", range(2, 21))
def test_mi_curve_matches_hull_reference_exactly(N):
    for K in range(2, 21):
        params = SystemParams(N, K)
        for grid_size in (2, 20, 200):
            assert curve_to_json(mi_curve(params, grid_size)) == curve_to_json(
                _reference_mi_curve(params, grid_size)
            )
