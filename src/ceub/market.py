"""Problem data model, demand certificate, and independent verifiers.

The model: n agents with additive, strictly positive valuations over m
divisible items. An allocation assigns each agent a fraction of each
item, with at most one unit of every item handed out in total. Prices
are anonymous per-item token amounts and budgets are per-agent token
amounts; tokens have no intrinsic value, so an agent's demand at prices
p and budget b is whatever affordable fractional bundle maximizes her
utility.

A bundle's demand is decided on ints by the fractional-knapsack
threshold: a bundle in [0, 1]^m is demanded exactly when it spends
less than the budget on every item whole, or spends the whole budget
on items whose value per price is at least that of every item it does
not fully hold. The greedy knapsack (max_affordable_utility) runs on
Rationals, only to report the optimum a failing bundle misses.

Every allocation is read through its support, the sharing graph G(x),
which Allocation.graph builds once and keeps: the verifiers, cycle
removal and tree pricing all use it. Utilities and costs are summed
exactly over a row's support by _dot, and column sums over an item's
holders by Allocation.column_sum.

Prices and budgets may be ints, literal strings or Rationals; each
entry point coerces them once with rat.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import (
    DimensionMismatch,
    EmptyMatrix,
    InternalVerificationFailed,
    NonPositiveValuation,
    ZeroPrice,
)
from .rationals import ONE, ZERO, Rational, format_rational, rat

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

    @cached_property
    def scaled(self) -> tuple:
        """(rows, scales): each agent's values as ints over s_i, the lcm
        of their denominators, so rows[i][j] = v_ij * s_i and scales[i] =
        s_i. Built on first use and kept, like Allocation.graph, so eq,
        hash and repr ignore it."""
        rows, scales = zip(*map(_over_common_denominator, self.values))
        return tuple(map(tuple, rows)), scales


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

    @cached_property
    def graph(self) -> AllocationGraph:
        """G(x), from one scan of the share numerators. cached_property
        writes the instance dict directly, so the frozen dataclass keeps
        it, and eq, hash and repr ignore it."""
        agent_items = []
        item_agents = [[] for _ in range(self.item_count)]
        for i, row in enumerate(self.x):
            held = tuple(j for j, z in enumerate(row) if z.numerator)
            agent_items.append(held)
            for j in held:
                item_agents[j].append(i)
        return AllocationGraph(
            self.agent_count, self.item_count, tuple(agent_items), tuple(map(tuple, item_agents))
        )

    def column_sum(self, j: int) -> Rational:
        """How much of item j is handed out, summed on ints over its
        holders; a lone holder's share is returned as it is."""
        if not 0 <= j < self.item_count:
            raise DimensionMismatch(f"item {j} out of range for {self.item_count} items")
        holders = self.graph.item_agents[j]
        if len(holders) == 1:
            return self.x[holders[0]][j]
        ints, unit = _over_common_denominator([self.x[i][j] for i in holders])
        return Rational(sum(ints), unit)


@dataclass(frozen=True)
class AllocationGraph:
    """The bipartite sharing graph G(x): agent i and item j are joined
    exactly when x[i][j] > 0, so its adjacency lists are the supports of
    the allocation's rows and columns."""

    agent_count: int
    item_count: int
    agent_items: tuple  # per agent: ascending item indices with x > 0
    item_agents: tuple  # per item: ascending agent indices with x > 0

    @property
    def edge_count(self) -> int:
        return sum(len(items) for items in self.agent_items)


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


@dataclass(frozen=True)
class ParetoVerdict:
    """Outcome of verify_pareto_optimal: pass, an improving trading
    cycle, or an item with unallocated mass (full allocation being
    necessary when every valuation is positive)."""

    ok: bool
    certificate: TradingCycleCertificate | None = None
    unallocated_item: int | None = None

    @property
    def reason(self) -> str | None:
        """Why the allocation is not Pareto optimal, None if it is."""
        if self.unallocated_item is not None:
            return f"item {self.unallocated_item} is not fully allocated"
        c = self.certificate
        if c is None:
            return None
        return (
            f"improving cycle through agents {list(c.agents)} and items {list(c.items)},"
            f" ratio {format_rational(c.improvement_ratio)}"
        )


@dataclass(frozen=True)
class EquilibriumReport:
    """Per-agent demand reports plus whole-market flags."""

    reports: tuple
    items_fully_allocated: bool
    budgets_exhausted: bool

    @property
    def supported(self) -> bool:
        return all(r.in_demand_set for r in self.reports)

    @property
    def is_equilibrium(self) -> bool:
        """Every bundle demanded, every budget spent, every item sold."""
        return self.supported and self.budgets_exhausted and self.items_fully_allocated


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
    """Build an Allocation, enforcing the box and supply constraints.

    A share num/den (den > 0) lies in [0, 1] iff 0 <= num <= den, so the
    box is checked on ints; the supply is checked with column_sum, which
    builds the allocation's graph.
    """
    rows = [tuple(map(rat, row)) for row in raw_shares]
    if not rows or not rows[0]:
        raise EmptyMatrix("an allocation needs at least one agent and one item")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DimensionMismatch(f"allocation row {i} has {len(row)} entries, expected {width}")
        for j, v in enumerate(row):
            num = v.numerator
            if num < 0 or num > v.denominator:
                raise DimensionMismatch(f"share x[{i}][{j}] = {format_rational(v)} outside [0, 1]")
    alloc = Allocation(tuple(rows))
    for j in range(width):
        total = alloc.column_sum(j)
        if total > 1:
            raise DimensionMismatch(
                f"item {j} is over-allocated: column sum {format_rational(total)} > 1"
            )
    return alloc


def _check_dims(inst: Instance, alloc: Allocation) -> None:
    if alloc.agent_count != inst.agent_count or alloc.item_count != inst.item_count:
        raise DimensionMismatch(
            f"allocation is {alloc.agent_count}x{alloc.item_count}, "
            f"instance is {inst.agent_count}x{inst.item_count}"
        )


def utility(inst: Instance, alloc: Allocation, i: int) -> Rational:
    """Additive utility of agent i's bundle: sum_j x[i][j] * v[i][j]."""
    _check_dims(inst, alloc)
    _check_agent(inst, i)
    return _dot(alloc.x[i], inst.values[i], alloc.graph.agent_items[i])


def _dot(row, coeffs, support) -> Rational:
    """sum(row[j] * coeffs[j] for j in support), exactly: on ints over
    the lcm of the terms' denominators, with one Rational at the end."""
    num, den = 0, 1
    for j in support:
        a, b = row[j], coeffs[j]
        d = a.denominator * b.denominator
        common = lcm(den, d)
        num = num * (common // den) + a.numerator * b.numerator * (common // d)
        den = common
    return Rational(num, den)


def _check_agent(inst: Instance, i: int) -> None:
    if not 0 <= i < inst.agent_count:
        raise DimensionMismatch(f"agent {i} out of range for {inst.agent_count} agents")


def _check_prices(prices) -> tuple:
    """The prices as a tuple of Rationals, each checked positive."""
    prices = tuple(map(rat, prices))
    for j, p in enumerate(prices):
        if p.numerator <= 0:
            raise ZeroPrice(j)
    return prices


def _check_budget(budget: Rational) -> None:
    if budget.numerator < 0:
        raise ValueError(f"budget must be nonnegative, got {format_rational(budget)}")


def max_affordable_utility(inst: Instance, prices, budget: Rational, i: int) -> Rational:
    """Best utility agent i can afford: greedy fractional knapsack.

    Items are bought whole in decreasing bang-per-buck v[i][j]/p[j] (ties
    by ascending item index) until one costs more than the budget left,
    which buys part of it. For this structure the greedy optimum is exact.
    The demand check runs it only to report the optimum a failing bundle
    misses, so it works on Rationals.
    """
    m = inst.item_count
    if len(prices) != m:
        raise DimensionMismatch(f"{len(prices)} prices for {m} items")
    _check_agent(inst, i)
    prices = _check_prices(prices)
    budget = rat(budget)
    _check_budget(budget)
    vals = inst.values[i]
    left, total = budget, ZERO
    for j in sorted(range(m), key=lambda j: (-(vals[j] / prices[j]), j)):
        if left < prices[j]:
            return total + vals[j] * left / prices[j]
        total += vals[j]
        left -= prices[j]
    return total


def _over_common_denominator(numbers) -> tuple:
    """(ints, unit) with numbers[k] == ints[k] / unit, unit the lcm of
    the denominators."""
    unit = lcm(*(q.denominator for q in numbers))
    return [q.numerator * (unit // q.denominator) for q in numbers], unit


def _demand_report(inst: Instance, prices, units, budget, i: int, bundle, support) -> DemandReport:
    """Agent i's DemandReport for bundle, whose nonzero shares are at
    the indices in support, at checked prices (units holds them over
    their common denominator) and a checked budget.

    Spend and achieved utility are summed on ints over the support. A
    bundle outside the box [0, 1]^m is never demanded; one inside is
    judged by the knapsack's optimality certificate, on ints: it is
    demanded exactly when it costs at most the budget and either costs
    less with every item held whole, or costs the whole budget and the
    lowest v/p among its items is at least the highest v/p among the
    items it does not hold whole. A demanded bundle is worth the
    optimum, so the greedy runs only for the others, to report the
    optimum they miss; inside the box, it must not find the bundle
    affordable and worth that optimum.
    """
    costs, unit = units  # p[j] * unit
    weights, den = _over_common_denominator([bundle[j] for j in support])  # x[i][j] * den
    rows, scales = inst.scaled
    worth, vunit = rows[i], scales[i]  # v[i][j] * vunit
    spent = sum(w * costs[j] for w, j in zip(weights, support))
    spend = Rational(spent, den * unit)
    achieved = Rational(sum(w * worth[j] for w, j in zip(weights, support)), den * vunit)
    over = spent * budget.denominator - budget.numerator * den * unit  # sign of spend - budget

    in_box = all(0 < w <= den for w in weights)
    demanded = False
    if in_box and over < 0:
        demanded = len(support) == len(worth) and all(w == den for w in weights)
    elif in_box and over == 0:
        whole = [False] * len(worth)
        low = None  # the held item of least v/p
        for w, j in zip(weights, support):
            whole[j] = w == den
            if low is None or worth[j] * costs[low] < worth[low] * costs[j]:
                low = j
        # With nothing held, the budget is zero and nothing else is affordable.
        demanded = low is None or all(
            whole[j] or worth[j] * costs[low] <= worth[low] * costs[j] for j in range(len(worth))
        )
    if demanded:
        return DemandReport(i, achieved, achieved, spend, True)

    optimal = max_affordable_utility(inst, prices, budget, i)
    if in_box and over <= 0 and achieved == optimal:
        raise InternalVerificationFailed(
            f"the greedy demands agent {i}'s bundle at utility {format_rational(optimal)},"
            " the certificate does not"
        )
    return DemandReport(i, achieved, optimal, spend, False)


def is_in_demand_set(inst: Instance, prices, budget: Rational, i: int, bundle) -> DemandReport:
    """Check one bundle against agent i's demand set at (prices, budget).

    Any bundle may be checked, but one with a share outside [0, 1] is
    never demanded: the greedy only reports the optimum it misses.
    """
    if len(bundle) != inst.item_count:
        raise DimensionMismatch(f"bundle has {len(bundle)} entries for {inst.item_count} items")
    if len(prices) != inst.item_count:
        raise DimensionMismatch(f"{len(prices)} prices for {inst.item_count} items")
    _check_agent(inst, i)
    bundle = tuple(rat(z) for z in bundle)
    budget = rat(budget)
    prices = _check_prices(prices)
    _check_budget(budget)
    support = tuple(j for j, z in enumerate(bundle) if z.numerator)
    units = _over_common_denominator(prices)
    return _demand_report(inst, prices, units, budget, i, bundle, support)


def verify_equilibrium(inst: Instance, alloc: Allocation, prices, budgets) -> EquilibriumReport:
    """Demand-oracle verification of a price/budget pair against an
    allocation: every agent's bundle must be affordable and optimal;
    market flags record full allocation and exact budget exhaustion.

    The prices go to ints once, and each bundle is judged on the
    support of its row (see _demand_report). Errors come in this order:
    DimensionMismatch, ZeroPrice for the first price not positive, then
    ValueError for the first negative budget.
    """
    _check_dims(inst, alloc)
    n, m = inst.agent_count, inst.item_count
    if len(budgets) != n:
        raise DimensionMismatch(f"{len(budgets)} budgets for {n} agents")
    if len(prices) != m:
        raise DimensionMismatch(f"{len(prices)} prices for {m} items")
    budgets = tuple(rat(b) for b in budgets)
    prices = _check_prices(prices)
    for b in budgets:
        _check_budget(b)
    units = _over_common_denominator(prices)
    supports = alloc.graph.agent_items
    reports = tuple(
        _demand_report(inst, prices, units, budgets[i], i, row, supports[i])
        for i, row in enumerate(alloc.x)
    )
    fully = all(alloc.column_sum(j) == 1 for j in range(m))
    exhausted = all(r.spend == b for r, b in zip(reports, budgets))
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
    for j, holders in enumerate(alloc.graph.item_agents):
        for i in holders:
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
        raise InternalVerificationFailed(f"extracted cycle has ratio {format_rational(ratio)} <= 1")
    cert = TradingCycleCertificate(agents=agents, items=items, improvement_ratio=ratio)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("improving cycle found: agents=%s items=%s ratio=%s",
                  agents, items, format_rational(ratio))
    return ParetoVerdict(ok=False, certificate=cert)
