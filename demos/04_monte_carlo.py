"""Monte-Carlo retrievals against in-process servers.

Each trial draws a message index and a key, queries all servers and
decodes; its downloaded volume follows from the queries it sent. Trials are
drawn in seeded blocks of 1,024, each block one generator spawned from the
master seed by block index, so reruns are bit-identical and the first T
trials do not depend on the trial count.
"""

from wpir import PatternDistribution, SystemParams, WpirScheme
from wpir.core import download_cost
from wpir.optimize import solve_maxl
from wpir.sim import run_simulation

params = SystemParams(num_servers=3, num_messages=2)
trials = 50_000

schemes = {
    "uniform": PatternDistribution.uniform(params),
    "maxl rho=0.2": solve_maxl(params, 0.2),
    "pure direct": PatternDistribution.pure_direct(params),
}

for name, dist in schemes.items():
    scheme = WpirScheme(params, dist)
    report = run_simulation(scheme, trials, seed=1729, message_seed=271828)
    print(
        f"{name:14s} success={report['success_rate']:.3f}  "
        f"download={report['empirical_download']:.4f} ± {report['download_stderr']:.4f} "
        f"(theory {download_cost(scheme):.4f})  "
        f"max query-freq deviation={report['max_freq_deviation']:.4f}"
    )
