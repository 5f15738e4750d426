"""Command-line entry point.

Subcommands: curve (tradeoff CSV/JSON), simulate (Monte-Carlo run),
verify (oracle-equivalence checks at a given size), dump-table (symbolic
query/answer table). Exit codes: 0 success, 1 check failure or I/O error,
2 invalid input or a problem too large to enumerate.

Loading the module loads the class tier only, all that `curve` uses; the
commands that walk keys import the per-key modules they use.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii

from . import optimize
from .core import (
    MessageStore,
    PatternDistribution,
    SystemParams,
    TooLarge,
    WpirScheme,
    check_enumerable,
    download_cost,
    enumerate_keys,
    weight_class_counts,
)
from .leakage import (
    class_leakage,
    enumerate_query_law,
    maximal_leakage,
    mutual_info_leakage,
)

#: Default RNG seed when --seed is omitted; never wall-clock entropy.
DEFAULT_SEED = 1729
DEFAULT_MESSAGE_SEED = 271828


@contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _float_text(x: float) -> str:
    # json's float format with allow_nan, also for subclasses such as np.float64
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _is_float_map(o: dict) -> bool:
    """Whether `o` maps str to float and nothing else. The last value is
    tested first, so a dict whose last value is not a float (a curve point
    ends with its weight list) costs O(1)."""
    return (
        type(next(reversed(o.values()))) is float
        and set(map(type, o.values())) == {float}
        and set(map(type, o)) == {str}
    )


def _dumps_indented(obj) -> str:
    """`json.dumps(obj, indent=2)` for dicts with str keys, lists, tuples, str,
    int, bool, None and floats; TypeError for anything else.

    The standard library's encoder runs in pure Python whenever `indent` is
    set. This one joins one list of pieces, and writes a list or tuple of
    floats alone with one join of their texts: a run of one nonzero value (a
    maxL curve point's K equal weights) is formatted once, since equal
    nonzero floats print alike while 0.0 and -0.0 do not, and finite floats
    by one C-level map of `float.__repr__`. A flat str-to-float dict, such as
    a simulator frequency map, is written by one call of the C encoder, with
    the indentation in its item separator. Its keys are checked before that
    call, because the C encoder would coerce a non-str key rather than raise.
    """
    pieces: list[str] = []
    put = pieces.append

    def encode(o, indent: str) -> None:
        # `indent` is the newline and indentation that precede `o`'s closing bracket
        if isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = indent + "  "
            if _is_float_map(o):
                body = json.dumps(o, separators=("," + inner, ": "))
                put("{" + inner + body[1:-1] + indent + "}")
                return
            sep = "{" + inner
            for k, v in o.items():
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                if type(v) is float:
                    put(sep + encode_basestring_ascii(k) + ": " + _float_text(v))
                else:
                    put(sep + encode_basestring_ascii(k) + ": ")
                    encode(v, inner)
                sep = "," + inner
            put(indent + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = indent + "  "
            if set(map(type, o)) == {float}:
                first = o[0]
                if first and o.count(first) == len(o):
                    texts = [_float_text(first)] * len(o)
                else:  # the sum is NaN or infinite wherever an item is
                    texts = map(float.__repr__ if math.isfinite(sum(o)) else _float_text, o)
                put("[" + inner + ("," + inner).join(texts) + indent + "]")
                return
            sep = "[" + inner
            for v in o:
                if type(v) is float:
                    put(sep + _float_text(v))
                else:
                    put(sep)
                    encode(v, inner)
                sep = "," + inner
            put(indent + "]")
        elif isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(_float_text(o))
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    try:
        encode(obj, "\n")
    finally:
        # `encode` refers to itself through its closure; without this the
        # pieces would wait for a full collection
        del encode
    return "".join(pieces)


def cmd_curve(args) -> int:
    params = SystemParams(args.servers, args.messages)
    if args.metric == "maxl":
        curve, baseline_curve = optimize.maxl_curve, optimize.legacy_maxl_curve
    else:
        curve, baseline_curve = optimize.mi_curve, optimize.mi_sweep
    points = curve(params, args.points)
    # built before anything is written, so a failing baseline writes no curve
    if args.baseline_out is not None:
        baseline = baseline_curve(params, args.points)

    def emit(pts, out):
        if args.format == "json":
            out.write(_dumps_indented([pt.to_json() for pt in pts]) + "\n")
        else:
            optimize.write_curve_csv(pts, out)

    with _open_out(args.out) as out:
        emit(points, out)
    if args.baseline_out is not None:
        with _open_out(args.baseline_out) as out:
            emit(baseline, out)
    return 0


def cmd_simulate(args) -> int:
    # the simulator lists all N^K queries, so an oversize run is refused
    # before the optimizer or the simulator does any work
    if args.scheme_file is not None:
        if args.metric is not None or args.rho is not None:
            raise ValueError("--metric and --rho cannot be combined with --scheme-file")
        if args.servers is not None or args.messages is not None:
            raise ValueError("--servers and --messages cannot be combined with --scheme-file")
        with open(args.scheme_file, encoding="utf-8") as fh:
            scheme = WpirScheme.from_json(json.load(fh))
        check_enumerable(scheme.params)
    else:
        if args.metric is None or args.rho is None:
            raise ValueError("either --scheme-file or both --metric and --rho are required")
        params = SystemParams(
            3 if args.servers is None else args.servers,
            2 if args.messages is None else args.messages,
        )
        check_enumerable(params)
        scheme = WpirScheme(params, optimize.solve(params, args.metric, args.rho).dist)
    from . import sim

    report = sim.run_simulation(scheme, args.trials, args.seed, args.message_seed)
    with _open_out(args.out) as out:
        out.write(_dumps_indented(report) + "\n")
    return 0


def _verify_checks(params: SystemParams):
    import numpy as np

    from .scheme import download_cost_by_enumeration, wpir_answer, wpir_decode, wpir_query

    N, K = params.num_servers, params.num_messages
    rng = np.random.default_rng(DEFAULT_SEED)

    def check_decode():
        for trial in range(3):
            store = MessageStore.random(params, DEFAULT_MESSAGE_SEED + trial)
            for key in enumerate_keys(params):
                for k in range(1, K + 1):
                    queries = [wpir_query(params, k, key, n) for n in range(1, N + 1)]
                    answers = [wpir_answer(q, store) for q in queries]
                    if wpir_decode(params, k, key, answers) != store.message(k):
                        return f"decode mismatch for key {key}, message {k}"
        return None

    def check_leakage_engine():
        # random weights and direct mass; draws cycle through the servers
        for i in range(max(20, N)):
            n = i % N + 1
            share = rng.random()  # total direct mass N * p_direct
            raw = rng.random(K)
            mass = N * sum(c * raw[w] for w, c in enumerate(weight_class_counts(N, K)))
            dist = PatternDistribution(
                share / N, tuple(float(r * (1.0 - share) / mass) for r in raw)
            )
            law = enumerate_query_law(WpirScheme(params, dist), n)
            for metric, oracle in (("maxl", maximal_leakage), ("mi", mutual_info_leakage)):
                gap = abs(oracle(law) - class_leakage(params, dist, metric))
                if gap > 1e-9:
                    return f"{metric} engine vs enumeration differ by {gap:.3g} at server {n}"
        return None

    def check_maxl_solution():
        cap = optimize.maxl_leakage_cap(params)
        for rho in np.linspace(0.0, 1.2 * cap, 10):
            scheme = WpirScheme(params, optimize.solve_maxl(params, float(rho)))
            leak = maximal_leakage(enumerate_query_law(scheme, 1))
            if abs(leak - min(rho, cap)) > 1e-9:
                return f"maximal leakage off by {abs(leak - min(rho, cap)):.3g} at rho={rho:.4f}"
            cost = download_cost(scheme)
            bound = optimize.optimal_maxl_download(params, float(rho))
            if abs(cost - bound) > 1e-9:
                return f"download cost off by {abs(cost - bound):.3g} at rho={rho:.4f}"
            enum_cost = download_cost_by_enumeration(scheme, 1)
            if abs(enum_cost - cost) > 1e-9:
                return f"enumerated cost off by {abs(enum_cost - cost):.3g}"
        return None

    def check_kkt():
        for x_last in optimize.x_grid(10):
            x = optimize.solve_x_recursion(params, x_last)
            res = optimize.kkt_residual(params, x)
            if res > 1e-6:
                return f"KKT residual {res:.3g} at x_last={x_last:.4g}"
        return None

    return [
        ("decode-exhaustive", check_decode),
        ("leakage-engine-vs-enumeration", check_leakage_engine),
        ("maxl-closed-form", check_maxl_solution),
        ("kkt-stationarity", check_kkt),
    ]


def cmd_verify(args) -> int:
    params = SystemParams(args.servers, args.messages)
    failed = None
    for name, check in _verify_checks(params):
        error = check()
        if error is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {error}")
            if failed is None:
                failed = name
    if failed is not None:
        print(f"first failing check: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_dump_table(args) -> int:
    params = SystemParams(args.servers, args.messages)
    if not 1 <= args.message <= params.num_messages:
        raise ValueError(f"message index {args.message} outside 1..{params.num_messages}")
    from . import tables

    with _open_out(args.out) as out:
        out.write(tables.format_table(params, args.message) + "\n")
    return 0


def _int_at_least(low: int, wording: str):
    """The parser type of an int flag whose values are `low` or more; argparse
    names the flag in the error message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {wording}, got {value}")
        return value

    return parse


#: numpy seeds only with integers >= 0
_seed = _int_at_least(0, "non-negative integer")
#: refused by the parser, before the optimizer runs
_trials = _int_at_least(1, "positive integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wpir",
        description="Weakly private information retrieval: curves, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_size(p):
        p.add_argument("--servers", "-N", type=int, required=True, help="number of servers N")
        p.add_argument("--messages", "-K", type=int, required=True, help="number of messages K")

    p = sub.add_parser("curve", help="emit a (leakage, download) tradeoff curve")
    add_size(p)
    p.add_argument("--metric", choices=["maxl", "mi"], required=True)
    p.add_argument("--points", type=int, default=optimize.CURVE_POINTS, help="grid size (>= 2)")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument(
        "--baseline-out",
        default=None,
        help="also write the no-direct-pattern baseline curve here",
    )
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func="cmd_curve")

    p = sub.add_parser("simulate", help="run a Monte-Carlo retrieval simulation")
    p.add_argument("--scheme-file", default=None, help="JSON scheme description")
    p.add_argument("--metric", choices=["maxl", "mi"], default=None)
    p.add_argument("--rho", type=float, default=None, help="leakage budget in bits")
    # None: 3 servers and 2 messages, unless --scheme-file gives the size
    p.add_argument("--servers", "-N", type=int, default=None)
    p.add_argument("--messages", "-K", type=int, default=None)
    p.add_argument("--trials", type=_trials, default=100000)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--message-seed", type=_seed, default=DEFAULT_MESSAGE_SEED)
    p.add_argument("--out", default="-")
    p.set_defaults(func="cmd_simulate")

    p = sub.add_parser("verify", help="run oracle-equivalence checks at a given size")
    add_size(p)
    p.set_defaults(func="cmd_verify")

    p = sub.add_parser("dump-table", help="print the symbolic query/answer table")
    add_size(p)
    p.add_argument("--message", "-k", type=int, default=1, help="requested message index")
    p.add_argument("--out", default="-")
    p.set_defaults(func="cmd_dump_table")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs several times what parsing one command line does
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on each call, so the one parser sees a rebound command
    command = globals()[args.func]
    try:
        return command(args)
    except (TooLarge, ValueError, optimize.OutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
