"""Weakly private information retrieval codes.

A library for the single-server direct-download retrieval scheme: exact
leakage analysis under the maximal-leakage and mutual-information metrics,
optimal pattern distributions, tradeoff-curve generation, and a seeded
Monte-Carlo simulator.

The simulator is not re-exported: it is the one module that imports numpy
when it loads, so import `SimConfig` and `run_simulation` from `wpir.sim`.
"""

# set before the submodules are imported, since reports read it
__version__ = "0.1.0"

from .core import (
    DIRECT,
    DirectKey,
    DirectRequest,
    MessageStore,
    PatternDistribution,
    Query,
    QueryVector,
    RandomKey,
    SystemParams,
    TooLarge,
    TscKey,
    answer_length,
    enumerate_keys,
    key_probability,
    key_weight,
)
from .leakage import (
    LeakageReport,
    QueryLaw,
    class_leakage,
    enumerate_query_law,
    leakage_report,
    maximal_leakage,
    mutual_info_leakage,
)
from .optimize import (
    OutOfRange,
    TradeoffPoint,
    kkt_residual,
    maxl_curve,
    maxl_leakage_cap,
    mi_curve,
    mi_point,
    mi_sweep,
    p_from_x,
    solve_maxl,
    solve_x_recursion,
    optimal_maxl_download,
)
from .scheme import (
    WpirScheme,
    direct_fraction,
    download_cost,
    wpir_answer,
    wpir_decode,
    wpir_query,
)
from .tsc import (
    MalformedAnswers,
    tsc_answer,
    tsc_decode,
    tsc_query,
    uniform_download_cost,
)
