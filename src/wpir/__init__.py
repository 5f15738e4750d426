"""Weakly private information retrieval codes.

A library for the single-server direct-download retrieval scheme: exact
leakage analysis under the maximal-leakage and mutual-information metrics,
optimal pattern distributions, tradeoff-curve generation, and a seeded
Monte-Carlo simulator.

The package exports the scheme's three types, `SystemParams`,
`PatternDistribution` and `WpirScheme`, and `__version__`. Everything else
is imported from its module: `wpir.core`, `wpir.tsc`, `wpir.scheme`,
`wpir.leakage`, `wpir.optimize`, `wpir.tables`, `wpir.sim` and `wpir.cli`.
`wpir.sim` is the one module that imports numpy when it loads.
"""

# set before the submodules are imported, since reports read it
__version__ = "0.1.0"

from .core import PatternDistribution, SystemParams
from .scheme import WpirScheme

__all__ = ["__version__", "SystemParams", "PatternDistribution", "WpirScheme"]
