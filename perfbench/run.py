"""Benchmark of the ceub command line on seeded workloads.

    python3 perfbench/run.py --workload price-forest --seed 1 --seconds 30 --trace 0

Set-up generates the workload's markets from --seed and writes them as
JSON files, at least three times, spread over the run; ``setup_s`` is
the median (see workloads.build_corpus). A closed loop of one
client then runs CLI ops on those files, each an in-process call to
``ceub.cli.main``, and stops at the end of the block (see workloads.py)
that brings its op time nearest to --seconds. The ceub package is
imported afresh, untimed, before each set-up and each pass over the
corpus, so no state kept in a ceub module (a cache, say) carries over
from one visit of a market to the next. Every op's output is checked
outside the timed region: the first output of each market must pass the
workload's check (see workloads.check_output), every later one must be
byte-identical to it. After the loop, markets the loop did not reach run
once untimed, so the SHA-256 digest of all outputs always covers the whole
corpus; it is compared with ``perfbench/digests.json`` when that file
records the seed, and a mismatch fails every op.

With --trace 0 the last line reports the end-to-end metrics. With
--trace 1 the run wraps ceub's public functions from outside (see
tracing.py), runs whole passes over the corpus untraced and then traced,
and reports per-op means of the per-layer metrics; whole passes make the
counts exact. Spans go to ``perfbench/.work``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name the
environment and print each metric with its unit. A full record of the
run is left in ``perfbench/.work``.

``perfbench/selftest.py`` checks that traced runs repeat their exact
counts; ``perfbench/record_digests.py`` records the digests of checked
runs in ``perfbench/digests.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
DIGESTS = ROOT / "perfbench" / "digests.json"
# Set-up runs at least SETUP_REPEATS times, and a cheap one repeats until
# about SETUP_MIN_S of set-up time, up to SETUP_MAX_REPEATS; setup_s is
# the median. The first set-up runs before the loop, the others at even
# steps of the loop's op time, so their median does not come from one
# stretch of machine speed.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
WARMUP_OPS = 5
# Stop starting ops after this much wall time, so a run ends within 180 s
# even if the program under test became far slower.
DEADLINE_S = 150.0

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit. Span metrics are "<module>.<function>.<calls|
# self_s|total_s>"; the rest are counters. All are per-op means, except
# the generator times, which are set-up time per corpus market (draws that
# set-up discards included).
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "formats.load.self_s": "s",
    "formats.dump.self_s": "s",
    "formats.bytes_in": "bytes",
    "formats.bytes_out": "bytes",
    "market.is_in_demand_set.calls": "count",
    "market.is_in_demand_set.self_s": "s",
    "market.verify_equilibrium.calls": "count",
    "market.verify_equilibrium.self_s": "s",
    "market.verify_pareto_optimal.calls": "count",
    "market.verify_pareto_optimal.self_s": "s",
    "graphs.make_cycle_free.self_s": "s",
    "graphs.edges_removed": "count",
    "pricing.price_forest.self_s": "s",
    "pricing.trees": "count",
    "pricing.funded_trees": "count",
    "scaling.support_with_details.self_s": "s",
    "scaling.solve_multiplier_lp.self_s": "s",
    "scaling.solve_multiplier_lp.total_s": "s",
    "scaling.assemble_equilibrium.self_s": "s",
    "scaling.build_gain_table.calls": "count",
    "simplex.solve_lp.calls": "count",
    "simplex.solve_lp.self_s": "s",
    "simplex.rows": "count",
    "simplex.cols": "count",
    "maxmin.maxmin_lp.self_s": "s",
    "generators.gen_instance.total_s": "s",
    "generators.gen_structured_instance.total_s": "s",
    "generators.gen_pareto_allocation.total_s": "s",
    "rationals.max_bits": "bits",
    "bench.op_s": "s",
    "bench.trace_overhead": "ratio",
}
_SPAN_FIELDS = ("calls", "self_s", "total_s")


def import_ceub() -> None:
    """Import ceub from this checkout's ``src``, or exit with code 2."""
    package = ROOT / "src" / "ceub"
    if not (package / "__init__.py").is_file():
        print(f"error: no ceub package at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(package.parent))
    import ceub

    if Path(ceub.__file__).resolve().parent != package:
        print(f"error: imported ceub from {ceub.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def fresh_ceub() -> None:
    """Drop every ceub module and import the package and its modules again."""
    for name in [n for n in sys.modules if n == "ceub" or n.startswith("ceub.")]:
        del sys.modules[name]
    package = importlib.import_module("ceub")
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"ceub.{info.name}")
    gc.collect()


@dataclass
class Phase:
    """Ops run by one loop: item index and latency of each, and failures."""

    indices: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds; inf when failed
    failed: int = 0
    busy_s: float = 0.0
    cut: bool = False  # stopped by the deadline before its end condition

    @property
    def ops_per_s(self) -> float:
        return (len(self.indices) - self.failed) / self.busy_s


class Runner:
    def __init__(self, wl, items, started: float, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.items = items
        self.started = started
        self.errors = []
        self.ran = set()
        self._sink = io.StringIO()

    def op(self, k: int, op_id=None):
        """Run item k's commands; return (ok, seconds). With ``op_id`` the
        commands are traced under that id. The check runs untimed."""
        item = self.items[k]
        with contextlib.suppress(FileNotFoundError):
            os.unlink(item.paths["out"])
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stdout(self._sink):
            if op_id is not None:
                self.tracer.op = op_id
            start = time.perf_counter()
            try:
                ok = all(sys.modules["ceub.cli"].main(argv) == 0 for argv in item.argvs)
                crash = None
            except Exception:  # a crash in ceub is a failed op, not a failed run
                ok = False
                crash = traceback.format_exc(limit=-3)
            seconds = time.perf_counter() - start
            if op_id is not None:
                self.tracer.op = None
        self.ran.add(k)
        if not ok:
            self.errors.append(f"{item.name}: {crash or 'exit status not 0'}; "
                               f"output {self._sink.getvalue()!r}")
            return False, seconds
        return self.check(item), seconds

    def check(self, item) -> bool:
        from workloads import check_output, item_stats

        try:
            with open(item.paths["out"], "rb") as fh:
                data = fh.read()
        except OSError as exc:
            self.errors.append(f"{item.name}: no output: {exc}")
            return False
        sha = hashlib.sha256(data).hexdigest()
        if item.output_sha is not None:
            if sha == item.output_sha:
                return True
            self.errors.append(f"{item.name}: output differs from its first run")
            return False
        text = data.decode("utf-8")
        try:
            why = check_output(self.wl, item, text)
            if why is None:
                item.stats = item_stats(item, text)
        except Exception:  # a malformed output is a wrong output
            why = traceback.format_exc(limit=-2)
        if why is not None:
            self.errors.append(f"{item.name}: {why}")
            return False
        item.output_sha = sha
        return True

    def new_pass(self, traced: bool) -> None:
        """Import ceub afresh; a traced pass wraps the new modules."""
        if traced:
            self.tracer.uninstall()
        fresh_ceub()
        if traced:
            self.tracer.install()

    def loop(self, seconds: float, unit: int, traced: bool = False, between=None) -> Phase:
        """Run ops in corpus order, in units of ``unit`` ops, and stop at
        the end of the unit that brings op time nearest to ``seconds``.
        Each pass over the corpus starts on a fresh import of ceub. Traced
        ops get the ids 0, 1, 2, ... in order. ``between(busy_s)``, if
        given, runs untimed before each op."""
        phase = Phase()
        count = len(self.items)
        k = 0
        while True:
            if k and k % unit == 0 and phase.busy_s * (1 + unit / k / 2) >= seconds:
                break
            if time.monotonic() - self.started > DEADLINE_S:
                phase.cut = True
                break
            if between:
                between(phase.busy_s)
            if k % count == 0:
                self.new_pass(traced)
            ok, dt = self.op(k % count, k if traced else None)
            phase.indices.append(k % count)
            phase.busy_s += dt
            phase.latencies.append(dt if ok else math.inf)
            phase.failed += not ok
            k += 1
        return phase

    def cover(self) -> None:
        """Run, untimed, every item no loop reached."""
        for k in range(len(self.items)):
            if k in self.ran:
                continue
            if time.monotonic() - self.started > DEADLINE_S:
                self.errors.append("deadline reached before every market ran once")
                return
            self.op(k)

    def digest(self) -> str | None:
        if any(item.output_sha is None for item in self.items):
            return None
        lines = "".join(f"{item.name} {item.output_sha}\n" for item in self.items)
        return hashlib.sha256(lines.encode()).hexdigest()


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment(seed: int) -> dict:
    from importlib.util import find_spec

    from ceub.rationals import BACKEND

    cpu = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    if BACKEND == "gmpy2":
        note = "gmpy2 backend in use"
    elif find_spec("gmpy2") is None:
        note = "gmpy2 is not installed, so the README's gmpy2 speed-up is unmeasured here"
    else:
        note = "fractions backend forced by CEUB_RATIONAL_BACKEND"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "backend": BACKEND,
        "backend_note": note,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu": cpu,
        "seed": seed,
    }


def recorded_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def end_to_end(phase: Phase, setups: list) -> dict:
    return {
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": percentile(phase.latencies, 0.50) * 1e3,
        "latency_p95_ms": percentile(phase.latencies, 0.95) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, runner, base: Phase, traced: Phase) -> dict:
    from tracing import SETUP

    ops = len(traced.indices)
    spans = tracer.aggregate(set(range(ops)))
    setup_spans = tracer.aggregate({SETUP})
    item_totals = {}
    for k in traced.indices:
        for key, value in runner.items[k].stats.items():
            item_totals[key] = item_totals.get(key, 0) + value
    values = {}
    for name in PER_LAYER:
        prefix, _, last = name.rpartition(".")
        if name.startswith("generators."):
            values[name] = setup_spans.get(prefix, {}).get(last, 0) / len(runner.items)
        elif last in _SPAN_FIELDS:
            values[name] = spans.get(prefix, {}).get(last, 0) / ops
        elif name in tracer.counts:
            values[name] = tracer.counts[name] / ops
        else:
            values[name] = item_totals.get(name, 0) / ops
    values["bench.op_s"] = traced.busy_s / ops
    values["bench.trace_overhead"] = base.ops_per_s / traced.ops_per_s
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    import_ceub()
    os.environ["CEUB_LOG"] = "quiet"
    from tracing import Tracer, SETUP
    from workloads import WORKLOADS, build_corpus

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    run_name = f"{wl.name}-s{args.seed}-trace{args.trace}"
    corpus_dir = WORK / f"{run_name}-{os.getpid()}"
    tracer = Tracer() if args.trace else None

    def set_up(directory: Path):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        fresh_ceub()
        if not tracer:
            return build_corpus(wl, args.seed, str(directory))
        tracer.install()
        tracer.op = SETUP
        try:
            return build_corpus(wl, args.seed, str(directory))
        finally:
            tracer.op = None
            tracer.uninstall()

    items, first = set_up(corpus_dir)
    setups = [first]
    repeats = min(SETUP_MAX_REPEATS, max(SETUP_REPEATS, math.ceil(SETUP_MIN_S / first)))
    # Op time at which each further set-up runs; it builds a second
    # corpus, so the one in use stays as it is.
    slots = [args.seconds * k / repeats for k in range(1, repeats)]

    def set_up_between(busy_s: float) -> None:
        while slots and busy_s >= slots[0]:
            slots.pop(0)
            setups.append(set_up(corpus_dir / "setup")[1])
            gc.collect()

    runner = Runner(wl, items, started, tracer)
    for k in range(min(WARMUP_OPS, len(items))):
        runner.op(k)
    if tracer:
        base = runner.loop(args.seconds / 2, len(items))
        traced = runner.loop(args.seconds / 2, len(items), traced=True)
        tracer.uninstall()
        phase = traced
        if base.cut or traced.cut:
            runner.errors.append("deadline cut a pass short; per-layer counts are not exact")
    else:
        phase = runner.loop(args.seconds, wl.block_size, between=set_up_between)
        while slots and time.monotonic() - started < DEADLINE_S:
            set_up_between(slots[0])
    runner.cover()

    digest = runner.digest()
    expected = recorded_digest(wl.name, args.seed)
    failed = phase.failed
    if expected is not None and digest != expected:
        runner.errors.append(f"output digest {digest} differs from the recorded {expected}")
        failed = len(phase.indices)
    correct = not runner.errors

    if tracer:
        metrics = per_layer(tracer, runner, base, traced)
        units = PER_LAYER
        tracer.write(WORK / f"{run_name}.spans.jsonl.gz")
    else:
        metrics = end_to_end(phase, setups)
        units = END_TO_END
    shutil.rmtree(corpus_dir, ignore_errors=True)

    env = environment(args.seed)
    attempted = len(phase.indices)
    print(f"ceub benchmark: workload {wl.name}, {len(items)} markets, "
          f"{args.seconds:g} s, trace {args.trace}; closed loop, 1 client")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"ops: {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:g}")
    for name, unit in units.items():
        note = ""
        if name.startswith("latency_"):
            note = f"  (n={attempted})"
        elif tracer and name.rpartition(".")[0] in tracer.absent:
            note = "  (absent: function not found)"
        print(f"  {name:<44} {metrics[name]:.6g} {unit}{note}")
    status = "no digest recorded for this seed"
    if expected is not None:
        status = "matches the recorded digest" if digest == expected else "MISMATCH"
    print(f"output digest: {digest} ({status})")
    for error in runner.errors[:5]:
        print(f"error: {error}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else None, "unit": unit}
            for name, unit in units.items()
        },
    }
    with open(WORK / f"{run_name}.result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, environment=env, digest=digest, digest_status=status,
                       workload=wl.name, why=wl.why, errors=runner.errors,
                       latencies_s=phase.latencies, setups_s=setups),
                  fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
