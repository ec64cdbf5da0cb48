"""Measure the funded-tree mix of the price-forest workload's draws.

    python3 perfbench/mix.py --draws 40000 --block 300

Draws markets the way price-forest set-up does (n and m uniform from the
workload's sizes, mode-"a" allocation) and prints each funded-tree
count's share of the draws, its mean generation time, and the markets
per block it gets when a block of --block markets follows those shares
(largest remainders). The quota in workloads.py comes from this output.
"""

from __future__ import annotations

import argparse
import collections
import random

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=40000)
    parser.add_argument("--block", type=int, default=300)
    parser.add_argument("--seed", default="mix")
    args = parser.parse_args()
    run.import_ceub()
    from workloads import WORKLOADS, _market, funded_trees

    wl = WORKLOADS["price-forest"]
    rng = random.Random(args.seed)
    counts = collections.Counter()
    gen_s = collections.Counter()
    for _ in range(args.draws):
        market = _market(wl, rng.choice(wl.sizes), rng.choice(wl.sizes), rng.getrandbits(64))
        f = funded_trees(market.alloc)
        counts[f] += 1
        gen_s[f] += market.gen_s

    exact = {f: c * args.block / args.draws for f, c in counts.items()}
    quota = {f: int(q) for f, q in exact.items()}
    by_remainder = sorted(exact, key=lambda f: exact[f] - quota[f], reverse=True)
    for f in by_remainder[: args.block - sum(quota.values())]:
        quota[f] += 1
    print(f"{args.draws} draws, block of {args.block}")
    print("funded_trees  draws   share    gen_ms  per_block")
    for f in sorted(counts):
        print(f"{f:>12} {counts[f]:>6} {counts[f] / args.draws:8.4%} "
              f"{gen_s[f] / counts[f] * 1e3:8.2f} {quota[f]:>10}")
    print("quota:", {f: q for f, q in sorted(quota.items()) if q})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
