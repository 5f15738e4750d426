"""Exact leakage of a few schemes under both metrics.

Leakage is a function of the per-server query law alone; here the laws are
computed by exhaustive enumeration over all N^K + N keys, and the
mutual-information value is cross-checked against the closed-form class law.
"""

import math

from wpir import PatternDistribution, SystemParams, WpirScheme
from wpir.leakage import (
    class_leakage,
    enumerate_query_law,
    maximal_leakage,
    mutual_info_leakage,
)
from wpir.optimize import p_from_x

params = SystemParams(num_servers=3, num_messages=2)

schemes = {
    "uniform (perfect privacy)": PatternDistribution.uniform(params),
    "pure direct (minimum download)": PatternDistribution.pure_direct(params),
    "mixed": PatternDistribution(0.1, (0.7 / 9, 0.7 / 9)),
}

print(f"{'scheme':32s} {'MaxL [bits]':>12s} {'MI [bits]':>12s}")
for name, dist in schemes.items():
    scheme = WpirScheme(params, dist)
    law = enumerate_query_law(scheme, n=1)
    print(f"{name:32s} {maximal_leakage(law):12.6f} {mutual_info_leakage(law):12.6f}")

# The pure direct pattern leaks log2((K+N-1)/N) under MaxL and (log2 K)/N
# under MI -- compare with the legacy minimum-download pattern that reads
# one symbol from each of N-1 servers:
legacy = WpirScheme(params, PatternDistribution(0.0, (1 / 3, 0.0)))
print()
print("minimum-download leakage, MaxL metric:")
print(f"  single-server direct : {math.log2(4 / 3):.6f} bits")
print(f"  legacy (N-1 servers) : {maximal_leakage(enumerate_query_law(legacy, 1)):.6f} bits")

# closed form vs enumeration for a no-direct-pattern distribution
# (the tangent point of the MI tradeoff curve, x1 = 1/(sqrt(2)-1))
dist = p_from_x(params, (1 / (math.sqrt(2) - 1),))
scheme = WpirScheme(params, dist)
exact = mutual_info_leakage(enumerate_query_law(scheme, 1))
closed = class_leakage(params, dist, "mi")
print()
print(f"MI enumeration {exact:.9f} vs closed form {closed:.9f}")
