"""The benchmark's workloads: seeded inputs, the CLI op each runs, and
the check each op's output must pass.

Every workload is a closed loop of one client in one process: an op is
one or two in-process calls to ``ceub.cli.main`` on JSON files that
set-up wrote, so the program sees only those files. The corpus is a
sequence of blocks with the same mix of markets, each block in a seeded
order, and a run measures whole blocks, so every run of a workload
measures the same mix.
"""

from __future__ import annotations

import os
import random
import re
import time
from dataclasses import dataclass, field
from typing import NamedTuple

# Nothing from ceub is bound at import time: run.py imports the package
# afresh between passes and set-ups, and each function here uses the
# modules imported last.


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: range  # agent and item counts are both drawn from this range
    blocks: int  # the corpus is this many blocks; a run measures whole blocks
    mode: str | None  # gen_pareto_allocation mode; None writes no allocation
    commands: tuple  # CLI argv templates, formatted with the item's paths
    # Funded trees -> markets per block. None: a block is one market of
    # every shape.
    quota: dict | None = None

    @property
    def block_size(self) -> int:
        return sum(self.quota.values()) if self.quota else len(self.sizes) ** 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="price-forest",
            why="near-integral welfare vertices split into many trees, so the "
            "multiplier LP in simplex carries the op; funded-tree mix as in uniform draws",
            sizes=range(2, 11),
            blocks=2,
            mode="a",
            commands=(("price", "{instance}", "{allocation}", "-o", "{out}"),),
            # Op time grows three- to fourfold per funded tree, so a block
            # holds each funded-tree count at its share of uniform draws
            # (perfbench/mix.py, 40000 draws: 10.8, 40.4, 31.4, 13.9, 3.1
            # and 0.34% for 1 to 6 trees) instead of leaving the mix to
            # chance. Markets with 7 or more funded trees (0.02% of draws,
            # about 4 s each) would need blocks of 5000 and are left out.
            quota={1: 33, 2: 121, 3: 94, 4: 42, 5: 9, 6: 1},
        ),
        Workload(
            name="price-cycles",
            why="max-min plus neutral trades gives few trees and real cycles, so "
            "the demand oracle, Pareto check, cycle removal and JSON carry the op",
            sizes=range(2, 7),
            blocks=4,
            mode="b",
            commands=(
                ("price", "{instance}", "{allocation}", "-o", "{out}"),
                ("verify", "{instance}", "{allocation}", "{out}"),
            ),
        ),
        Workload(
            name="maxmin-lp",
            why="the exact max-min LP: simplex is nearly all of the op and no "
            "pricing layer runs, the bypass for every pricing-side change",
            sizes=range(1, 9),
            blocks=5,
            mode=None,
            commands=(("maxmin", "{instance}", "-o", "{out}"),),
        ),
    )
}


@dataclass
class Item:
    """One market of the corpus and what the benchmark learns about it."""

    name: str
    inst: object
    alloc: object | None
    paths: dict
    argvs: list
    output_sha: str | None = None  # SHA-256 of the first output, once checked
    stats: dict = field(default_factory=dict)


def funded_trees(alloc) -> int:
    """Connected parts of the sharing graph that hold an item."""
    n, m = alloc.agent_count, alloc.item_count
    parent = list(range(n + m))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, row in enumerate(alloc.x):
        for j, share in enumerate(row):
            if share != 0:
                parent[root(i)] = root(n + j)
    return len({root(n + j) for j in range(m)})


class Market(NamedTuple):
    n: int
    m: int
    inst: object
    alloc: object | None
    gen_s: float  # time the generators took for this market


def _market(wl: Workload, n: int, m: int, seed: int) -> Market:
    from ceub import generators

    start = time.perf_counter()
    cfg = generators.GenConfig(seed=seed, agents=n, items=m)
    if wl.mode == "b":
        inst = generators.gen_structured_instance(cfg)
    else:
        inst = generators.gen_instance(cfg)
    alloc = None if wl.mode is None else generators.gen_pareto_allocation(inst, seed, wl.mode)
    return Market(n, m, inst, alloc, time.perf_counter() - start)


def draw_blocks(wl: Workload, rng: random.Random) -> list:
    """The corpus as blocks of markets."""
    if wl.quota is None:
        blocks = [
            [_market(wl, n, m, rng.getrandbits(64)) for n in wl.sizes for m in wl.sizes]
            for _ in range(wl.blocks)
        ]
    else:
        # Draw shapes uniformly and keep each market while its funded-tree
        # count still has room.
        kept = {f: [] for f in wl.quota}
        while any(len(kept[f]) < wl.blocks * q for f, q in wl.quota.items()):
            market = _market(wl, rng.choice(wl.sizes), rng.choice(wl.sizes), rng.getrandbits(64))
            f = funded_trees(market.alloc)
            if f in kept and len(kept[f]) < wl.blocks * wl.quota[f]:
                kept[f].append(market)
        blocks = [
            [mk for f, q in wl.quota.items() for mk in kept[f][b * q:(b + 1) * q]]
            for b in range(wl.blocks)
        ]
    for block in blocks:
        rng.shuffle(block)
    return blocks


def build_corpus(wl: Workload, seed: int, directory: str):
    """Generate the workload's markets from ``seed`` and write their files.

    Returns the items and the set-up time: the generator time of the
    markets kept plus the time to write their files. Draws that a quota
    discards are left out, since how many there are depends on the seed
    and not on the program.
    """
    from ceub.formats import dump_allocation, dump_instance

    rng = random.Random(f"{wl.name}/{seed}")
    items = []
    setup_s = 0.0
    for block in draw_blocks(wl, rng):
        for market in block:
            start = time.perf_counter()
            name = f"{len(items):04d}-{market.n}x{market.m}"
            paths = {
                "instance": os.path.join(directory, f"{name}.instance.json"),
                "out": os.path.join(directory, f"{name}.out.json"),
            }
            _write(paths["instance"], dump_instance(market.inst))
            if market.alloc is not None:
                paths["allocation"] = os.path.join(directory, f"{name}.allocation.json")
                _write(paths["allocation"], dump_allocation(market.alloc))
            argvs = [[part.format(**paths) for part in cmd] for cmd in wl.commands]
            items.append(Item(name, market.inst, market.alloc, paths, argvs))
            setup_s += market.gen_s + time.perf_counter() - start
    return items, setup_s


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def check_output(wl: Workload, item: Item, text: str) -> str | None:
    """Why the op's output is wrong, or None if it is right.

    A price output must support the original allocation: every agent in
    its demand set, budgets spent exactly, every item cleared, and the
    allocation Pareto optimal. A max-min output must be Pareto optimal
    with every utility equal to its ``lam``.
    """
    from ceub.formats import load_equilibrium, load_maxmin
    from ceub.market import make_allocation, utility, verify_equilibrium, verify_pareto_optimal
    from ceub.maxmin import check_maxmin_characterization

    if wl.mode is None:
        doc = load_maxmin(text)
        alloc = make_allocation(doc.shares)
        if not check_maxmin_characterization(item.inst, alloc):
            return "max-min shares are not Pareto optimal with equal utilities"
        if any(utility(item.inst, alloc, i) != doc.lam for i in range(item.inst.agent_count)):
            return "a utility differs from lam"
        return None
    doc = load_equilibrium(text)
    report = verify_equilibrium(item.inst, item.alloc, doc.prices, doc.budgets)
    if not (report.supported and report.budgets_exhausted and report.items_fully_allocated):
        return "written prices and budgets do not support the original allocation"
    if not verify_pareto_optimal(item.inst, item.alloc).ok:
        return "original allocation fails the Pareto check"
    return None


_RATIONAL = re.compile(r'"(-?[0-9]+)(?:/([0-9]+))?"')


def item_stats(item: Item, output: str) -> dict:
    """Exact per-op counts read from the op's input and output files."""
    texts = [output]
    for role in ("instance", "allocation"):
        if role in item.paths:
            with open(item.paths[role], encoding="utf-8") as fh:
                texts.append(fh.read())
    bits = 0
    for text in texts:
        for num, den in _RATIONAL.findall(text):
            bits = max(bits, abs(int(num)).bit_length(), int(den or 1).bit_length())
    stats = {"rationals.max_bits": bits}
    if item.alloc is not None:
        from ceub.formats import load_equilibrium

        doc = load_equilibrium(output)
        edges_in = sum(1 for row in item.alloc.x for z in row if z != 0)
        edges_out = sum(1 for row in doc.cycle_free for z in row if z != 0)
        stats["graphs.edges_removed"] = edges_in - edges_out
        stats["pricing.trees"] = len(doc.alpha)
        stats["pricing.funded_trees"] = sum(1 for a in doc.alpha if a != 0)
    return stats
