"""Problem data model, greedy demand oracle, and independent verifiers.

The model: n agents with additive, strictly positive valuations over m
divisible items. An allocation assigns each agent a fraction of each
item, with at most one unit of every item handed out in total. Prices
are anonymous per-item token amounts and budgets are per-agent token
amounts; tokens have no intrinsic value, so an agent's demand at prices
p and budget b is whatever affordable fractional bundle maximizes her
utility.

Price and budget vectors are plain tuples of Rational throughout the
package.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import lcm

from .errors import (
    DimensionMismatch,
    EmptyMatrix,
    InternalVerificationFailed,
    NonPositiveValuation,
    ZeroPrice,
)
from .rationals import ONE, ZERO, Rational, rat

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Instance:
    """n agents x m items with strictly positive valuations."""

    values: tuple  # n rows of m Rationals

    @property
    def agent_count(self) -> int:
        return len(self.values)

    @property
    def item_count(self) -> int:
        return len(self.values[0])


@dataclass(frozen=True)
class Allocation:
    """Fractional shares x[i][j] in [0,1] with column sums at most 1."""

    x: tuple  # n rows of m Rationals

    @property
    def agent_count(self) -> int:
        return len(self.x)

    @property
    def item_count(self) -> int:
        return len(self.x[0])

    def column_sum(self, j: int) -> Rational:
        return sum((row[j] for row in self.x if row[j] != 0), ZERO)


@dataclass(frozen=True)
class DemandReport:
    """One agent's demand-set check at given prices and budget."""

    agent: int
    achieved_utility: Rational
    optimal_utility: Rational
    spend: Rational
    in_demand_set: bool


@dataclass(frozen=True)
class TradingCycleCertificate:
    """A strictly improving trade along an alternating agent/item cycle.

    ``agents[t]`` receives item ``items[t]``, handed over by
    ``agents[(t+1) % k]``, who currently holds a positive share of it and
    is exactly compensated by the next hop. ``improvement_ratio`` is the
    product of receiver-to-giver value ratios around the cycle; > 1 means
    the first agent ends strictly better off with everyone else whole.
    """

    agents: tuple
    items: tuple
    improvement_ratio: Rational

    @property
    def vertices(self) -> tuple:
        out = []
        for a, j in zip(self.agents, self.items):
            out.append(("agent", a))
            out.append(("item", j))
        return tuple(out)


@dataclass(frozen=True)
class ParetoVerdict:
    """Outcome of verify_pareto_optimal: pass, an improving trading
    cycle, or an item with unallocated mass (full allocation being
    necessary when every valuation is positive)."""

    ok: bool
    certificate: TradingCycleCertificate | None = None
    unallocated_item: int | None = None


@dataclass(frozen=True)
class EquilibriumReport:
    """Per-agent demand reports plus whole-market flags."""

    reports: tuple
    items_fully_allocated: bool
    budgets_exhausted: bool

    @property
    def supported(self) -> bool:
        return all(r.in_demand_set for r in self.reports)


def validate_instance(raw_valuations) -> Instance:
    """Build an Instance, rejecting empty or non-positive matrices."""
    rows = [tuple(rat(v) for v in row) for row in raw_valuations]
    if not rows or not rows[0]:
        raise EmptyMatrix("an instance needs at least one agent and one item")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatch(f"valuation row {i} has {len(row)} entries, expected {width}")
        for j, v in enumerate(row):
            if v.numerator <= 0:
                raise NonPositiveValuation(i, j, v)
    return Instance(tuple(rows))


def make_allocation(raw_shares) -> Allocation:
    """Build an Allocation, enforcing the box and supply constraints."""
    rows = [tuple(rat(v) for v in row) for row in raw_shares]
    if not rows or not rows[0]:
        raise EmptyMatrix("an allocation needs at least one agent and one item")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatch(f"allocation row {i} has {len(row)} entries, expected {width}")
        for j, v in enumerate(row):
            if v < 0 or v > 1:
                raise DimensionMismatch(f"share x[{i}][{j}] = {v} outside [0, 1]")
    for j in range(width):
        total = sum((row[j] for row in rows), ZERO)
        if total > 1:
            raise DimensionMismatch(f"item {j} is over-allocated: column sum {total} > 1")
    return Allocation(tuple(rows))


def _check_dims(inst: Instance, alloc: Allocation) -> None:
    if alloc.agent_count != inst.agent_count or alloc.item_count != inst.item_count:
        raise DimensionMismatch(
            f"allocation is {alloc.agent_count}x{alloc.item_count}, "
            f"instance is {inst.agent_count}x{inst.item_count}"
        )


def utility(inst: Instance, alloc: Allocation, i: int) -> Rational:
    """Additive utility of agent i's bundle: sum_j x[i][j] * v[i][j]."""
    _check_dims(inst, alloc)
    row = alloc.x[i]
    vals = inst.values[i]
    return sum((row[j] * vals[j] for j in range(inst.item_count) if row[j] != 0), ZERO)


def bundle_utility(inst: Instance, bundle, i: int) -> Rational:
    vals = inst.values[i]
    return sum((z * vals[j] for j, z in enumerate(bundle) if z != 0), ZERO)


def bundle_cost(bundle, prices) -> Rational:
    return sum((z * prices[j] for j, z in enumerate(bundle) if z != 0), ZERO)


def max_affordable_utility(inst: Instance, prices, budget: Rational, i: int) -> Rational:
    """Best utility agent i can afford: greedy fractional knapsack.

    Items are bought whole in decreasing bang-per-buck v[i][j]/p[j] (ties
    by ascending item index) until one costs more than the budget left,
    which buys part of it. For this structure the greedy optimum is exact.

    The order is computed on ints: with v = vn/vd and p = pn/pd, the
    ratio is (vn*pd)/(vd*pn), and over L, the lcm of the vd*pn, every
    ratio becomes an integer numerator vn*pd*(L // (vd*pn)) that sorts
    exactly as the rational ratio does. The components are read through
    int(), so prices may be ints or either backend's rationals.
    """
    if len(prices) != inst.item_count:
        raise DimensionMismatch(f"{len(prices)} prices for {inst.item_count} items")
    for j, p in enumerate(prices):
        if p <= 0:
            raise ZeroPrice(j)
    budget = rat(budget)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    vals = inst.values[i]
    nums = []
    dens = []
    for v, p in zip(vals, prices):
        nums.append(int(v.numerator) * int(p.denominator))
        dens.append(int(v.denominator) * int(p.numerator))
    common = lcm(*dens)
    order = sorted(range(inst.item_count), key=lambda j: (-(nums[j] * (common // dens[j])), j))
    remaining = budget
    total = ZERO
    for j in order:
        p = prices[j]
        if remaining < p:
            return total + vals[j] * remaining / p
        total += vals[j]
        remaining -= p
    return total


def is_in_demand_set(inst: Instance, prices, budget: Rational, i: int, bundle) -> DemandReport:
    """Check one bundle against agent i's demand set at (prices, budget)."""
    if len(bundle) != inst.item_count:
        raise DimensionMismatch(f"bundle has {len(bundle)} entries for {inst.item_count} items")
    bundle = tuple(rat(z) for z in bundle)
    budget = rat(budget)
    spend = bundle_cost(bundle, prices)
    achieved = bundle_utility(inst, bundle, i)
    optimal = max_affordable_utility(inst, prices, budget, i)
    return DemandReport(
        agent=i,
        achieved_utility=achieved,
        optimal_utility=optimal,
        spend=spend,
        in_demand_set=(spend <= budget and achieved == optimal),
    )


def verify_equilibrium(inst: Instance, alloc: Allocation, prices, budgets) -> EquilibriumReport:
    """Demand-oracle verification of a price/budget pair against an
    allocation: every agent's bundle must be affordable and optimal;
    market flags record full allocation and exact budget exhaustion."""
    _check_dims(inst, alloc)
    if len(budgets) != inst.agent_count:
        raise DimensionMismatch(f"{len(budgets)} budgets for {inst.agent_count} agents")
    reports = tuple(
        is_in_demand_set(inst, prices, budgets[i], i, alloc.x[i])
        for i in range(inst.agent_count)
    )
    fully = all(alloc.column_sum(j) == 1 for j in range(inst.item_count))
    exhausted = all(reports[i].spend == rat(budgets[i]) for i in range(inst.agent_count))
    return EquilibriumReport(reports, fully, exhausted)


# ----------------------------------------------------------------------
# Pareto verification: exchange-graph cycle search.
#
# Vertices are agents 0..n-1 and items n..n+m-1. An edge agent->item
# (weight v[i][j]) means i can absorb item j; an edge item->agent
# (weight 1/v[i][j], present only when x[i][j] > 0) means i can release
# item j against exact compensation. A directed cycle with weight
# product > 1 is precisely a feasible trade that leaves one agent
# strictly better off and everyone else exactly whole, so the allocation
# is Pareto optimal iff no such cycle exists. The search is a
# multiplicative Bellman-Ford over exact rationals.
# ----------------------------------------------------------------------


def max_product_paths(size: int, edges) -> tuple:
    """Multiplicative Bellman-Ford with every vertex starting at 1.

    Edges are (u, w, weight) with positive exact weights over vertices
    0..size-1. Returns (dist, None), where dist is the least vector
    with dist >= 1 and dist[w] >= dist[u] * weight on every edge, or
    (None, cycle) when a directed cycle has weight product > 1; cycle
    lists its vertices in edge order u0 -> u1 -> ... -> u0.
    """
    dist = [ONE] * size
    pred = [-1] * size
    touched = -1
    for _ in range(size):
        touched = -1
        for u, w, weight in edges:
            cand = dist[u] * weight
            if cand > dist[w]:
                dist[w] = cand
                pred[w] = u
                touched = w
        if touched < 0:
            return dist, None

    # Still relaxing after |V| passes: walk predecessors into the cycle.
    v = touched
    for _ in range(size):
        v = pred[v]
    cycle = [v]
    cur = pred[v]
    while cur != v:
        cycle.append(cur)
        cur = pred[cur]
    cycle.reverse()
    return None, cycle


def verify_pareto_optimal(inst: Instance, alloc: Allocation) -> ParetoVerdict:
    """Pass, or produce an improving-cycle certificate / an unallocated item."""
    _check_dims(inst, alloc)
    n, m = inst.agent_count, inst.item_count
    for j in range(m):
        if alloc.column_sum(j) < 1:
            return ParetoVerdict(ok=False, unallocated_item=j)

    edges = []
    for i in range(n):
        vals = inst.values[i]
        for j in range(m):
            edges.append((i, n + j, vals[j]))
    for j in range(m):
        for i in range(n):
            if alloc.x[i][j] != 0:
                edges.append((n + j, i, ONE / inst.values[i][j]))

    _, cycle = max_product_paths(n + m, edges)
    if cycle is None:
        return ParetoVerdict(ok=True)

    agent_positions = [k for k, vertex in enumerate(cycle) if vertex < n]
    if not agent_positions:
        raise InternalVerificationFailed("predecessor cycle contains no agent vertex")
    start = min(agent_positions, key=lambda k: cycle[k])
    cycle = cycle[start:] + cycle[:start]
    agents = tuple(cycle[0::2])
    items = tuple(vertex - n for vertex in cycle[1::2])

    k = len(agents)
    ratio = ONE
    for t in range(k):
        giver = agents[(t + 1) % k]
        if alloc.x[giver][items[t]] == 0:
            raise InternalVerificationFailed("certificate giver holds none of the item")
        ratio = ratio * inst.values[agents[t]][items[t]] / inst.values[giver][items[t]]
    if ratio <= 1:
        raise InternalVerificationFailed(f"extracted cycle has ratio {ratio} <= 1")
    cert = TradingCycleCertificate(agents=agents, items=items, improvement_ratio=ratio)
    log.debug("improving cycle found: agents=%s items=%s ratio=%s", agents, items, ratio)
    return ParetoVerdict(ok=False, certificate=cert)
