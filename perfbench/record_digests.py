"""Record the output digests of benchmark runs as the expected ones.

    python3 perfbench/record_digests.py

Reads the result files that runs of run.py left in perfbench/.work and
adds each workload and seed whose outputs were all checked to
perfbench/digests.json. A digest already recorded is never replaced: a
different one is reported and the script exits 1, because ceub promises
byte-identical output for the same input.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    digests = {}
    if run.DIGESTS.is_file():
        with open(run.DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    conflicts = 0
    for path in sorted(run.WORK.glob("*.result.json")):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if not result["correct"] or result["digest"] is None:
            continue
        seeds = digests.setdefault(result["workload"], {})
        seed = str(result["environment"]["seed"])
        if seeds.setdefault(seed, result["digest"]) != result["digest"]:
            print(f"conflict: {path.name} has {result['digest']}, recorded {seeds[seed]}")
            conflicts += 1
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{sum(len(s) for s in digests.values())} digests in {run.DIGESTS.name}")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
