"""Outside-in tracing of ceub's public functions.

The tracer wraps functions from outside the package: it replaces the
function object wherever a ``ceub.*`` module binds it, so a call made
through another module's import (``cli`` calls ``support_with_details``
through its own ``from .scaling import ...``) is caught as well. Each
call made while an op is active becomes a span (name, start, end,
parent span, op id) kept in memory; the spans are written out when the
run ends. Nothing inside ``ceub`` is changed.

Calls are nested on one thread, so the child spans of a span never
overlap and its self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

# Functions wrapped, by module. A later version of ceub may delete one;
# its metrics are then reported as absent instead of failing the run.
TARGETS = {
    "cli": ("main",),
    "formats": (
        "load_instance", "load_allocation", "load_equilibrium", "load_maxmin",
        "dump_instance", "dump_allocation", "dump_equilibrium", "dump_maxmin",
    ),
    "market": ("is_in_demand_set", "verify_equilibrium", "verify_pareto_optimal"),
    "graphs": ("make_cycle_free",),
    "pricing": ("price_forest",),
    "scaling": (
        "support_with_details", "solve_multiplier_lp", "assemble_equilibrium",
        "build_gain_table",
    ),
    "simplex": ("solve_lp",),
    "maxmin": ("maxmin_lp",),
    "generators": ("gen_instance", "gen_structured_instance", "gen_pareto_allocation"),
}

SETUP = "setup"


class Tracer:
    """Span recorder for the functions in TARGETS.

    ``op`` is the id of the op in progress: an int during a measured
    op, SETUP during input generation, None otherwise (calls then pass
    straight through). Counters are kept only during measured ops.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op)
        self.counts = {}
        self.absent = set()
        self.op = None
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        for module_name, names in TARGETS.items():
            try:
                module = importlib.import_module(f"ceub.{module_name}")
            except ModuleNotFoundError:
                module = None
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.add(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "ceub" and not mod_name.startswith("ceub."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if count is not None and op != SETUP:
                for key, amount in count(args, result):
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return wrapper

    def aggregate(self, ops) -> dict:
        """Per-name calls, total and self seconds over the spans of ``ops``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in ops:
                continue
            for key in _groups(name):
                entry = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - child[k]
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _groups(name):
    """The metric prefixes a span counts toward: its own name, and for
    the format readers and writers also ``formats.load``/``formats.dump``."""
    yield name
    module, _, func = name.partition(".")
    if module == "formats":
        yield f"formats.{func.split('_')[0]}"


def _lp_size(args, result):
    problem = args[0]
    return (("simplex.rows", len(problem.rows)), ("simplex.cols", len(problem.objective)))


def _bytes_in(args, result):
    return (("formats.bytes_in", len(args[0].encode("utf-8"))),)


def _bytes_out(args, result):
    return (("formats.bytes_out", len(result.encode("utf-8"))),)


_COUNTERS = {"simplex.solve_lp": _lp_size}
for _func in TARGETS["formats"]:
    _COUNTERS[f"formats.{_func}"] = _bytes_in if _func.startswith("load") else _bytes_out
