"""Self-test of the benchmark's exact counts and metric list.

    python3 perfbench/selftest.py --seed 1 --seconds 4

For each workload, runs the traced benchmark twice with the same seed
and checks that every exact count (every ``*.calls`` metric, the LP
sizes, edges removed, trees, bytes and bit lengths) is identical in the
two runs. Also checks that BENCHMARK.json lists the metrics run.py
reports, and prints which share of op time each layer's self time takes.
Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

EXACT = {
    "simplex.rows",
    "simplex.cols",
    "graphs.edges_removed",
    "pricing.trees",
    "pricing.funded_trees",
    "formats.bytes_in",
    "formats.bytes_out",
    "rationals.max_bits",
}
# Layers whose self time the split sums, by metric.
SPLIT = {
    "simplex": ("simplex.solve_lp.self_s",),
    "market": (
        "market.is_in_demand_set.self_s",
        "market.verify_equilibrium.self_s",
        "market.verify_pareto_optimal.self_s",
    ),
    "graphs": ("graphs.make_cycle_free.self_s",),
    "formats": ("formats.load.self_s", "formats.dump.self_s"),
    "cli": ("cli.main.self_s",),
    "pricing": ("pricing.price_forest.self_s",),
    "scaling": (
        "scaling.support_with_details.self_s",
        "scaling.solve_multiplier_lp.self_s",
        "scaling.assemble_equilibrium.self_s",
    ),
    "maxmin": ("maxmin.maxmin_lp.self_s",),
}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metric_list(workloads) -> list:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {listed} vs {table}")
    if [w["name"] for w in bench["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()
    run.import_ceub()
    from workloads import WORKLOADS

    problems = check_metric_list(WORKLOADS)
    for workload in args.workload or list(WORKLOADS):
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: a traced run was not correct")
        exact = sorted(n for n in first["metrics"] if n.endswith(".calls") or n in EXACT)
        for name in exact:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} is {a} in one run and {b} in the other")
        metrics = {n: m["value"] for n, m in first["metrics"].items()}
        op = metrics["bench.op_s"]
        split = ", ".join(
            f"{layer} {sum(metrics[n] for n in names) / op:.1%}"
            for layer, names in SPLIT.items()
        )
        print(f"{workload}: {len(exact)} exact counts compared; self time per op: {split};"
              f" op {op * 1e3:.2f} ms, tracing overhead {metrics['bench.trace_overhead']:.3f}x")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
