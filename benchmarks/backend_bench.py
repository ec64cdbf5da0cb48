"""Compare the gmpy2 and fractions rational backends on the real pipeline.

The backend is chosen at import time from CEUB_RATIONAL_BACKEND, so the
comparison runs this script once per backend in a subprocess. Invoke with
no arguments for the side-by-side table, or with --run to execute the
workload in the current interpreter (that is what the subprocesses do).
A backend whose module is not installed is skipped, with a note.

    python3 benchmarks/backend_bench.py
"""

import argparse
import importlib.util
import os
import subprocess
import sys
import time


def workload(rounds: int) -> dict:
    from ceub.generators import GenConfig, gen_instance, gen_pareto_allocation
    from ceub.maxmin import maxmin_lp
    from ceub.rationals import BACKEND
    from ceub.scaling import support_pipeline

    pairs = []
    for seed in range(rounds):
        inst = gen_instance(GenConfig(seed=seed, agents=2 + seed % 6, items=2 + (seed // 6) % 6))
        pairs.append((inst, gen_pareto_allocation(inst, seed, mode="a")))

    start = time.perf_counter()
    for inst, alloc in pairs:
        support_pipeline(inst, alloc)
    pipeline = time.perf_counter() - start

    start = time.perf_counter()
    for inst, _ in pairs:
        maxmin_lp(inst)
    maxmin = time.perf_counter() - start

    return {"backend": BACKEND, "pipeline": pipeline, "maxmin": maxmin}


def run_child(backend: str, rounds: int) -> dict:
    env = dict(os.environ, CEUB_RATIONAL_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, __file__, "--run", "--rounds", str(rounds)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    backend_line, pipeline_line, maxmin_line = out.stdout.strip().splitlines()
    return {
        "backend": backend_line,
        "pipeline": float(pipeline_line),
        "maxmin": float(maxmin_line),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", action="store_true", help="execute the workload and print raw numbers")
    parser.add_argument("--rounds", type=int, default=100, help="instances per workload")
    args = parser.parse_args()

    if args.run:
        result = workload(args.rounds)
        print(result["backend"])
        print(result["pipeline"])
        print(result["maxmin"])
        return 0

    results = []
    for name in ("gmpy2", "fractions"):
        if importlib.util.find_spec(name) is None:
            print(f"skipping the {name} backend: module {name!r} is not installed")
            continue
        results.append(run_child(name, args.rounds))
    print(f"{args.rounds} generated instances per workload\n")
    print(f"{'backend':<12} {'support_pipeline':>18} {'maxmin_lp':>12}")
    for row in results:
        print(f"{row['backend']:<12} {row['pipeline']:>17.3f}s {row['maxmin']:>11.3f}s")
    if len(results) == 2 and results[0]["pipeline"] > 0:
        fast, slow = results
        print(f"\nfractions / gmpy2 pipeline ratio: {slow['pipeline'] / fast['pipeline']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
