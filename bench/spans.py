"""Spans and counters around the public functions of the wpir modules.

The tracer replaces module attributes at run time, from outside the
package, so that every caller's own binding is wrapped: ``wpir.sim.sample_key``
and ``wpir.core.sample_key`` are separate names and both are wrapped, each
reporting under the defining module's name (``core.sample_key``).

Each span records name, start, end, parent span and op id in flat arrays;
they stay in memory until :meth:`Tracer.write` saves them.  Per-key helpers,
and every wrapped call made while an enumeration span is open, are counted
but not spanned, so the enumeration's own cost stays in its self time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("core", "tsc", "scheme", "tables", "leakage", "optimize", "sim", "cli")

#: Called once per key, query or symbol: counted, never spanned.
COUNTED = frozenset(
    {
        "core.key_probability",
        "core.key_weight",
        "core.answer_length",
        "core.query_sort_key",
        "core.class_probabilities",
        "core.validate_key",
        "tsc.interference_server",
        "tables.message_letter",
        "tables.symbolic_answer",
        "tables.probability_class",
        "tables.key_label",
    }
)

#: Spans that walk the key space; wrapped calls inside them are only counted.
ENUMERATING = frozenset(
    {
        "leakage.enumerate_query_law",
        "scheme.download_cost_by_enumeration",
        "tables.table_rows",
    }
)

ERROR_TYPES = ("ValueError", "OutOfRange", "OverflowError")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.yields: list[int] = []
        # exceptions leaving a layer, keyed by (layer, exception type name)
        self.errors: collections.Counter = collections.Counter()
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.enum_depth = 0
        self._patches: list[tuple[object, str, object, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.yields.append(0)
        return self._ids[name]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        i = self._id(name)
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            yields = self.yields

            def counted_gen(*args, **kwargs):
                calls[i] += 1
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    yields[i] += n

            return functools.wraps(fn)(counted_gen)

        if name in COUNTED:

            def counted(*args, **kwargs):
                calls[i] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        enumerating = name in ENUMERATING
        layer = name.split(".", 1)[0]
        span_names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def spanned(*args, **kwargs):
            calls[i] += 1
            if tracer.enum_depth:
                return fn(*args, **kwargs)
            idx = len(span_names)
            parent = stack[-1] if stack else -1
            span_names.append(i)
            parents.append(parent)
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(idx)
            if enumerating:
                tracer.enum_depth += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if parent < 0 or not tracer.names[span_names[parent]].startswith(layer + "."):
                    tracer.errors[(layer, type(exc).__name__)] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if enumerating:
                    tracer.enum_depth -= 1

        return functools.wraps(fn)(spanned)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        mods = {layer: importlib.import_module(f"wpir.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        plan = [
            (mod, attr, obj, wrappers[obj])
            for mod in mods.values()
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]
        store = mods["core"].MessageStore
        original = store.__dict__["random"]
        wrapped = classmethod(self._wrap(original.__func__, "core.MessageStore.random"))
        return plan + [(store, "random", original, wrapped)]

    def install(self) -> None:
        """Wrap every public function of the LAYERS modules at every binding."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals: ``<name>.calls``, ``.self_s``, ``.s``, ``.yields``."""
        import numpy as np

        n = len(self.span_name)
        names = np.asarray(self.span_name, dtype=np.int32)
        parents = np.asarray(self.span_parent, dtype=np.int32)
        dur = (np.asarray(self.span_end, dtype=np.int64) - np.asarray(self.span_start, dtype=np.int64)) * 1e-9
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested], minlength=n)
        self_t = dur - covered
        m = len(self.names)
        self_by = np.bincount(names, weights=self_t, minlength=m)
        total_by = np.bincount(names, weights=dur, minlength=m)
        out: dict[str, float] = {"trace.spans": n}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = float(self_by[i])
            out[f"{name}.s"] = float(total_by[i])
            out[f"{name}.yields"] = self.yields[i]
        law = self._ids.get("leakage.enumerate_query_law")
        sim = self._ids.get("sim.run_simulation")
        law_check = 0.0
        if law is not None and sim is not None:
            mask = (names == law) & nested
            mask[mask] = names[parents[mask]] == sim
            law_check = float(dur[mask].sum())
        out["sim.law_check_s"] = law_check
        out["cli.layer_self_s"] = float(
            sum(self_by[i] for i, name in enumerate(self.names) if name.startswith("cli."))
        )
        for (layer, kind), count in self.errors.items():
            key = kind if kind in ERROR_TYPES else "other"
            out[f"{layer}.errors.{key}"] = out.get(f"{layer}.errors.{key}", 0) + count
        return out

    def write(self, path_stem) -> None:
        """Save the spans as ``<stem>.npz`` (columns) and ``<stem>.names.json``."""
        import numpy as np

        np.savez(
            f"{path_stem}.npz",
            name=np.asarray(self.span_name, dtype=np.int32),
            start_ns=np.asarray(self.span_start, dtype=np.int64),
            end_ns=np.asarray(self.span_end, dtype=np.int64),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            op=np.asarray(self.span_op, dtype=np.int32),
        )
        with open(f"{path_stem}.names.json", "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)
