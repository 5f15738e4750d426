"""Optimal pattern distributions and (leakage, download) tradeoff curves.

Under the maximal-leakage metric the optimum is a closed form in the
leakage budget. Under mutual information the optimal no-direct-pattern
distributions are parametrized by the probability-ratio sequence
x_w = p_{w-1} / p_w, whose components follow from the last one by a
backward recursion; the direct pattern then enters through the lower
convex envelope with the extreme point ((log2 K)/N, 1). `solve` gives the
optimal point at a leakage budget under either metric, and every curve is
a list of the same `TradeoffPoint`s.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from math import exp, log, log2
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

from .core import PatternDistribution, SystemParams, _left_sum, weight_class_counts
from .leakage import class_leakage

if TYPE_CHECKING:
    import numpy as np

#: Largest swept ratio; beyond this the curve point moves negligibly.
X_MAX = 1e9

#: Offset of the log-spaced grid so x_last = 1 is included exactly.
GRID_EPS = 1e-6

X_MIN_TOL = 1e-9

#: Grid size of `curve` by default and of the MI envelope that `solve` uses.
CURVE_POINTS = 200

#: Largest exponent of 2^rho under maxL. Every budget above the cap gives the
#: pure direct scheme, and the cap is below 10 bits at every size SystemParams
#: accepts; 2^rho has no float from rho = 1024.
MAXL_RHO_CLAMP = 64.0


class OutOfRange(Exception):
    """A ratio left the valid branch (some component fell below 1)."""


# ---------------------------------------------------------------------------
# maximal leakage


def maxl_leakage_cap(params: SystemParams) -> float:
    """Leakage of the minimum-download scheme, log2(1 + (K-1)/N) bits."""
    N, K = params.num_servers, params.num_messages
    return log2(1 + (K - 1) / N)


def check_budget(rho: float) -> None:
    """Reject a leakage budget that is negative or not finite, for either metric."""
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"leakage budget must be finite and nonnegative, got {rho}")


def solve_maxl(params: SystemParams, rho: float) -> PatternDistribution:
    """Optimal distribution for leakage budget rho (bits) under maximal leakage."""
    check_budget(rho)
    N, K = params.num_servers, params.num_messages
    p_direct = min(1.0 / N, (2.0 ** min(rho, MAXL_RHO_CLAMP) - 1.0) / (K - 1))
    p_w = (1.0 - N * p_direct) / N**K
    return PatternDistribution(p_direct, (p_w,) * K)


@functools.lru_cache(maxsize=16)
def _geometric_tail(N: int, K: int) -> float:
    """N^-1 + ... + N^-(K-1): the download above 1 of the uniform scheme."""
    return _left_sum(N**-j for j in range(1, K))


def optimal_maxl_download(params: SystemParams, rho: float) -> float:
    """Download cost achieved by solve_maxl: affine in 2^rho until it clamps at 1."""
    N, K = params.num_servers, params.num_messages
    share = N * (2.0 ** min(rho, MAXL_RHO_CLAMP) - 1.0) / (K - 1)
    return 1.0 + max(0.0, 1.0 - share) * _geometric_tail(N, K)


# ---------------------------------------------------------------------------
# mutual information: ratio recursion and KKT verification


@functools.lru_cache(maxsize=16)
def _alternating_powers(N: int, K: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(1-N)^j for j = 0..K-2, and their prefix sums: entry i is the sum over j < i."""
    powers = tuple((1 - N) ** j for j in range(K - 1))
    return powers, tuple(itertools.accumulate(powers, initial=0))


def solve_x_recursion(params: SystemParams, x_last: float) -> tuple[float, ...]:
    """Ratios (x_1, ..., x_{K-1}) from the free component x_{K-1} = x_last.

    Step i determines x_{K-i} in closed form from the later components;
    every component must stay >= 1 or the input is outside the valid branch.
    """
    N, K = params.num_servers, params.num_messages
    if not 1.0 <= x_last <= X_MAX:
        raise OutOfRange(f"x_last must lie in [1, {X_MAX:g}], got {x_last}")
    powers, power_sums = _alternating_powers(N, K)
    x = [0.0] * K  # 1-indexed, x[1..K-1]
    logs = [0.0] * K  # logs[m] = log(x[m]), taken once per component
    x[K - 1] = x_last
    logs[K - 1] = log(x_last)
    anchor = log(((K - 1) * x_last + 1) / K)
    for i in range(1, K):
        # the integer sums are exact, and the float terms, (1-N)^j *
        # log(x_{K-i+j}) for j = 1..i-1, are added from the left as
        # `core._left_sum` adds; written out, since a call per step costs
        # more than the sum at the sizes `curve` sweeps
        terms = 0.0
        for j in range(1, i):
            terms += powers[j] * logs[K - i + j]
        rhs = power_sums[i] * anchor - terms
        try:
            xi = (K * exp(rhs) - i) / (K - i)
        except OverflowError:
            raise OutOfRange(f"x_{K - i} overflows for x_last = {x_last}") from None
        if xi < 1.0 - X_MIN_TOL:
            raise OutOfRange(f"x_{K - i} = {xi} < 1 for x_last = {x_last}")
        x[K - i] = max(xi, 1.0)
        logs[K - i] = log(x[K - i])
    return tuple(x[1:])


def p_from_x(params: SystemParams, x: Sequence[float]) -> PatternDistribution:
    """Weight-class probabilities induced by the ratio sequence (no direct mass)."""
    N, K = params.num_servers, params.num_messages
    prods = [1.0]
    for xi in x:
        prods.append(prods[-1] / xi)
    counts = weight_class_counts(N, K)
    # added from the left, as in `solve_x_recursion`
    mass = 0.0
    for w in range(1, K):
        mass += counts[w] * prods[w]
    p0 = 1.0 / (N + N * mass)
    return PatternDistribution(0.0, tuple(p0 * prods[w] for w in range(K)))


def kkt_residual(params: SystemParams, x: Sequence[float]) -> float:
    """Max stationarity residual of the Lagrangian partials at the ratios x.

    Uses the explicit partial derivatives (natural logs) with all
    inequality multipliers zero and the equality multiplier y_{K-1}/N.
    """
    N, K = params.num_servers, params.num_messages
    counts = weight_class_counts(N, K)
    y = tuple(log((w * x[w - 1] + K - w) / K) for w in range(1, K))
    nu = y[K - 2] / N
    residuals = []
    for w in range(1, K - 1):
        r = counts[w] * (-y[w - 1] - (N - 1) * y[w] + (N - 1) * log(x[w]) + N * nu)
        residuals.append(r)
    residuals.append(counts[K - 1] * (-y[K - 2] + N * nu))
    return max(abs(r) for r in residuals)


# ---------------------------------------------------------------------------
# tradeoff points and curves


@dataclass(frozen=True, slots=True)
class TradeoffPoint:
    """A distribution `dist` that leaks `rho` bits at download cost `download`.

    `kind` names its family: `tsc` (no direct pattern, ratios from `x_last`),
    `shared` (the `tsc` scheme at `x_last` shared with the direct pattern, in
    proportion `share`), `direct`, `maxl` or `legacy-maxl`.
    """

    rho: float
    download: float
    kind: str
    dist: PatternDistribution
    x_last: float | None = None
    share: float | None = None

    def __post_init__(self):
        if self.rho < 0 or self.download < 1.0 - 1e-12:
            raise ValueError(f"invalid tradeoff point ({self.rho}, {self.download})")

    def to_json(self) -> dict:
        obj = {"rho_bits": self.rho, "download_cost": self.download, "kind": self.kind}
        if self.x_last is not None:
            obj["x_last"] = self.x_last
        if self.share is not None:
            obj["share"] = self.share
        obj["p_direct"] = self.dist.p_direct
        obj["p_weights"] = list(self.dist.p_weights)
        return obj


def mi_point(params: SystemParams, x_last: float) -> TradeoffPoint:
    """The optimal no-direct-pattern scheme at x_last, with its leakage and download."""
    N = params.num_servers
    dist = p_from_x(params, solve_x_recursion(params, x_last))
    rho = class_leakage(params, dist, "mi")
    download = N / (N - 1) * (1 - dist.p_weights[0])
    return TradeoffPoint(rho, download, "tsc", dist, x_last)


def direct_extreme_point(params: SystemParams) -> TradeoffPoint:
    """Minimum download with the clean single-server pattern only."""
    N, K = params.num_servers, params.num_messages
    return TradeoffPoint(log2(K) / N, 1.0, "direct", PatternDistribution.pure_direct(params))


def _check_grid_size(grid_size: int) -> None:
    if grid_size < 2:
        raise ValueError(f"grid size must be at least 2, got {grid_size}")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """`np.linspace(start, stop, num).tolist()` in plain Python, bit for bit
    whenever the step (stop - start) / (num - 1) does not underflow to 0."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def x_grid(grid_size: int) -> np.ndarray:
    """Log-spaced sweep of x_last over [1, X_MAX], endpoint 1 included exactly."""
    # numpy's logspace, not Python's `10.0 ** v`: the two differ in the last
    # bits, and every MI curve is pinned to numpy's values
    import numpy as np

    _check_grid_size(grid_size)
    g = np.logspace(math.log10(GRID_EPS), math.log10(X_MAX - 1 + GRID_EPS), grid_size)
    xs = 1.0 - GRID_EPS + g
    xs[0] = 1.0
    xs[-1] = X_MAX
    return xs


def mi_sweep(params: SystemParams, grid_size: int) -> list[TradeoffPoint]:
    """The p_direct = 0 curve: one point per grid value of x_last."""
    return [mi_point(params, float(x)) for x in x_grid(grid_size)]


def _mi_envelope(
    params: SystemParams, grid_size: int
) -> tuple[list[TradeoffPoint], int, TradeoffPoint]:
    """The swept points before the first one at or above the direct point's
    leakage, the index of the tangent vertex among them, and the direct point.

    The envelope is the sweep up to the tangent vertex, then the chord from
    it to the direct point. The vertex is the swept point whose chord to the
    direct point is the flattest; of equal slopes the first is taken, as a
    convex hull drops collinear points.
    """
    direct = direct_extreme_point(params)
    # swept in increasing x_last, so the first point at the direct point's
    # leakage ends the sweep: that point and every later one are dominated
    sweep = []
    for x in x_grid(grid_size):
        pt = mi_point(params, float(x))
        if pt.rho >= direct.rho:
            break
        sweep.append(pt)
    slopes = [(pt.download - direct.download) / (direct.rho - pt.rho) for pt in sweep]
    return sweep, slopes.index(min(slopes)), direct


def _shared_point(
    params: SystemParams, tangent: TradeoffPoint, direct: TradeoffPoint, rho: float
) -> TradeoffPoint:
    """The point at leakage rho on the chord from the tangent vertex to the
    direct point: the tangent scheme shared with the pure direct pattern."""
    N = params.num_servers
    t = (rho - tangent.rho) / (direct.rho - tangent.rho)
    p_direct = t * (1.0 / N)
    dist = PatternDistribution(
        p_direct, tuple((1.0 - N * p_direct) * pw for pw in tangent.dist.p_weights)
    )
    download = tangent.download + t * (direct.download - tangent.download)
    return TradeoffPoint(rho, download, "shared", dist, tangent.x_last, t)


def mi_curve(params: SystemParams, grid_size: int) -> list[TradeoffPoint]:
    """Lower convex envelope of the swept curve and the direct extreme point.

    Swept points past the tangent vertex are replaced by points at the same
    leakage on its chord to the direct point, whose distributions carry the
    resulting positive direct mass. Swept points with leakage at or beyond
    the extreme point's are dominated by it (their download exceeds 1), so
    the sweep stops at the first of them.
    """
    sweep, a, direct = _mi_envelope(params, grid_size)
    shared = [_shared_point(params, sweep[a], direct, pt.rho) for pt in sweep[a + 1 :]]
    return sweep[: a + 1] + shared + [direct]


def solve(params: SystemParams, metric: str, rho: float) -> TradeoffPoint:
    """Least-download point with leakage rho bits under `metric`.

    maxL is `solve_maxl`. MI lies on the envelope of `mi_curve` at
    CURVE_POINTS points: the direct point from its leakage on; on the chord,
    the shared scheme, exact since MI is affine along it; below the tangent
    vertex, the no-direct scheme whose x_last is bisected to give leakage rho.
    """
    if metric == "maxl":
        dist = solve_maxl(params, rho)  # checks the budget first
        return TradeoffPoint(rho, optimal_maxl_download(params, rho), "maxl", dist)
    if metric != "mi":
        raise ValueError(f"unknown leakage metric {metric!r}")
    check_budget(rho)
    # swept first at every budget, so that solve fails wherever mi_curve does
    sweep, a, direct = _mi_envelope(params, CURVE_POINTS)
    tangent = sweep[a]
    if rho >= direct.rho:
        return direct
    if rho > tangent.rho:
        return _shared_point(params, tangent, direct, rho)
    lo, hi = 1.0, tangent.x_last
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        bracket = (mid, hi) if mi_point(params, mid).rho < rho else (lo, mid)
        if bracket == (lo, hi):
            break  # a fixed point: every later step would leave it unchanged too
        lo, hi = bracket
    return mi_point(params, math.sqrt(lo * hi))


def maxl_curve(params: SystemParams, grid_size: int) -> list[TradeoffPoint]:
    """Optimal curve under maximal leakage, sampled uniformly in rho."""
    _check_grid_size(grid_size)
    cap = maxl_leakage_cap(params)
    return [solve(params, "maxl", rho) for rho in _linspace(0.0, cap, grid_size)]


def legacy_maxl_curve(params: SystemParams, grid_size: int) -> list[TradeoffPoint]:
    """Previously best known curve (p_direct = 0) under maximal leakage.

    The no-direct family shares the uniform scheme with the weight-0
    pattern. Its minimum-download pattern reads the message from N-1
    servers, so the leakage axis extends to log2((1 + (N-1)K)/N).
    """
    _check_grid_size(grid_size)
    N, K = params.num_servers, params.num_messages
    cap = log2((1 + (N - 1) * K) / N)
    geo = _geometric_tail(N, K)
    out = []
    for rho in _linspace(0.0, cap, grid_size):
        share = min(1.0, N * (2.0 ** rho - 1.0) / ((K - 1) * (N - 1)))
        base = (1.0 - share) / N**K
        dist = PatternDistribution(0.0, (share / N + base,) + (base,) * (K - 1))
        out.append(TradeoffPoint(rho, 1.0 + (1.0 - share) * geo, "legacy-maxl", dist))
    return out


# ---------------------------------------------------------------------------
# serialization


def tangency_x1(params: SystemParams) -> float:
    """First ratio component where the envelope leaves the swept curve."""
    N, K = params.num_servers, params.num_messages
    if N == 2:
        return math.inf  # K^((N-2)/(N-1)) = 1: tangency recedes to infinity
    return (K - 1) / (K ** ((N - 2) / (N - 1)) - 1)


def write_curve_csv(points: Iterable[TradeoffPoint], out: TextIO) -> None:
    """CSV rows `rho_bits,download_cost,p_direct,p_w0,...` at 12 significant digits."""
    points = list(points)
    n_weights = len(points[0].dist.p_weights)
    header = ["rho_bits", "download_cost", "p_direct"]
    header += [f"p_w{w}" for w in range(n_weights)]
    out.write(",".join(header) + "\n")
    for pt in points:
        row = [pt.rho, pt.download, pt.dist.p_direct, *pt.dist.p_weights]
        out.write(",".join(f"{v:.12g}" for v in row) + "\n")


def curve_to_json(points: Iterable[TradeoffPoint]) -> list[dict]:
    return [pt.to_json() for pt in points]
