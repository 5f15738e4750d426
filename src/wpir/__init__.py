"""Weakly private information retrieval codes.

A library for the single-server direct-download retrieval scheme: exact
leakage analysis under the maximal-leakage and mutual-information metrics,
optimal pattern distributions, tradeoff-curve generation, and a seeded
Monte-Carlo simulator.

The package exports the scheme's three types, `SystemParams`,
`PatternDistribution` and `WpirScheme`, and `__version__`. Everything else
is imported from its module. The modules form two tiers, and imports run
from the second to the first only. The class tier (`core`, the class law
in `leakage`, `optimize` and `cli`) is all that `import wpir` and `wpir
curve` load, with no numpy. The per-key reference tier (`tsc`, `scheme`,
`tables`, `sim` and the oracle in `leakage`) walks keys to check it; the
CLI loads it inside `simulate`, `verify` and `dump-table`.
"""

# set before the submodules are imported, since reports read it
__version__ = "0.1.0"

from .core import PatternDistribution, SystemParams, WpirScheme

__all__ = ["__version__", "SystemParams", "PatternDistribution", "WpirScheme"]
