"""Rawlsian max-min allocations: the general LP and two fast special cases.

The max-min value of an instance is the largest W such that every agent
can be guaranteed utility at least W simultaneously. An optimal
allocation always exists with every utility exactly equal to W and all
items fully handed out, and it is Pareto optimal; those two facts make
max-min solutions a convenient source of interior supportable points.

Three solvers:

* maxmin_lp: the LP max W s.t. W <= u_i(x), column sums <= 1 -- works
  for any shape, exact.
* maxmin_two_agents: n = 2, sort items by relative preference and split
  one "median" item; O(m log m), also emits supporting prices/budgets.
* maxmin_two_items: m = 2, sort agents by relative preference and
  binary-search the one agent who splits across both items; O(log n)
  candidate evaluations after the sort, also emits prices/budgets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import InternalVerificationFailed, WrongAgentCount, WrongItemCount
from .market import (
    Allocation,
    Instance,
    bundle_cost,
    make_allocation,
    utility,
    verify_pareto_optimal,
)
from .rationals import ONE, ZERO, Rational
from .simplex import GREATER, LESS, OPTIMAL, make_problem, solve_lp

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PreferenceOrder:
    """Relative-preference ratios with their sorted permutation.

    Two agents: ratios[j] = v[1][j] / v[0][j], permutation ascending
    (items agent 0 relatively prefers come first). Two items:
    ratios[i] = v[i][0] / v[i][1], permutation descending (agents who
    relatively prefer item 0 come first). Ties keep original index
    order either way.
    """

    ratios: tuple
    permutation: tuple


@dataclass(frozen=True)
class SplitPoint:
    """The one split of a special-case solution.

    Two agents: index is the item both agents share and fraction is
    agent 0's share of it. Two items: index is the agent holding both
    items and fraction is the pair of that agent's two shares.
    """

    index: int
    fraction: object


@dataclass(frozen=True)
class MaxMinResult:
    allocation: Allocation
    lam: Rational  # the common utility value
    prices: tuple | None = None
    budgets: tuple | None = None
    order: PreferenceOrder | None = None
    split: SplitPoint | None = None
    probes: int | None = None  # candidate evaluations in the two-item search


def maxmin_lp(inst: Instance) -> MaxMinResult:
    """Max-min allocation for any instance shape, via the exact LP.

    Exact optima of the LP arrive with every utility equal to the
    optimum and every item fully allocated: any slack or any agent
    above the minimum could be redistributed to raise the minimum, so
    neither survives at an optimum. The settling pass verifies both
    facts, treating a violation as a solver bug rather than patching it.
    """
    n, m = inst.agent_count, inst.item_count
    lam_var = n * m
    objective = [ZERO] * lam_var + [ONE]
    rows = []
    for i in range(n):
        coeffs = [ZERO] * (lam_var + 1)
        for j in range(m):
            coeffs[i * m + j] = inst.values[i][j]
        coeffs[lam_var] = -ONE
        rows.append((coeffs, GREATER, ZERO))
    for j in range(m):
        coeffs = [ZERO] * (lam_var + 1)
        for i in range(n):
            coeffs[i * m + j] = ONE
        rows.append((coeffs, LESS, ONE))
    solution = solve_lp(make_problem(objective, rows))
    if solution.status != OPTIMAL:
        raise InternalVerificationFailed(f"max-min program {solution.status}")
    lam = solution.x[lam_var]
    shares = [[solution.x[i * m + j] for j in range(m)] for i in range(n)]
    alloc = _settle(inst, shares, lam)
    log.debug("max-min LP on %dx%d: lambda=%s", n, m, lam)
    return MaxMinResult(alloc, lam)


def _settle(inst: Instance, shares, lam) -> Allocation:
    n, m = inst.agent_count, inst.item_count
    for j in range(m):
        total = sum((shares[i][j] for i in range(n)), ZERO)
        if total != 1:
            raise InternalVerificationFailed(f"item {j} has column sum {total}, not 1")
    alloc = make_allocation(shares)
    for i in range(n):
        if utility(inst, alloc, i) != lam:
            raise InternalVerificationFailed(
                f"agent {i} settled at utility {utility(inst, alloc, i)}, not {lam}"
            )
    return alloc


def maxmin_two_agents(inst: Instance) -> MaxMinResult:
    """Max-min for exactly two agents, with supporting prices.

    Items are sorted by phi_j = v[1][j] / v[0][j]; agent 0 takes a
    prefix, agent 1 a suffix, and the median item s where the running
    totals cross is split so both utilities are exactly equal. Prices
    are agent 0's valuations, budgets the cost of each bundle.
    """
    if inst.agent_count != 2:
        raise WrongAgentCount(f"two-agent solver got {inst.agent_count} agents")
    m = inst.item_count
    v0, v1 = inst.values
    phi = tuple(v1[j] / v0[j] for j in range(m))
    perm = tuple(sorted(range(m), key=lambda j: (phi[j], j)))

    total1 = sum((v1[j] for j in perm), ZERO)
    # Smallest s where agent 0's prefix value reaches agent 1's suffix
    # value; at that s the split fraction lands in [0, 1].
    acc0 = ZERO
    acc1 = ZERO
    s = m - 1
    for t, j in enumerate(perm):
        acc0 += v0[j]
        acc1 += v1[j]
        if acc0 >= total1 - acc1:
            s = t
            break
    js = perm[s]
    prefix0 = acc0 - v0[js]  # agent 0's value strictly before s
    suffix1 = total1 - acc1  # agent 1's value strictly after s
    frac = (v1[js] + suffix1 - prefix0) / (v0[js] + v1[js])
    if frac < 0 or frac > 1:
        raise InternalVerificationFailed(f"median split {frac} out of range")

    rows = [[ZERO] * m for _ in range(2)]
    for t, j in enumerate(perm):
        if t < s:
            rows[0][j] = ONE
        elif t > s:
            rows[1][j] = ONE
    rows[0][js] = frac
    rows[1][js] = ONE - frac
    alloc = make_allocation(rows)
    lam = utility(inst, alloc, 0)
    if utility(inst, alloc, 1) != lam:
        raise InternalVerificationFailed("median split left utilities unequal")

    prices = tuple(v0)
    budgets = tuple(bundle_cost(alloc.x[i], prices) for i in range(2))
    return MaxMinResult(
        alloc,
        lam,
        prices=prices,
        budgets=budgets,
        order=PreferenceOrder(phi, perm),
        split=SplitPoint(index=js, fraction=frac),
    )


def maxmin_two_items(inst: Instance) -> MaxMinResult:
    """Max-min for exactly two items, with supporting prices.

    Agents are sorted by rho_i = v[i][0] / v[i][1] descending, so a
    prefix takes only item 0 and a suffix only item 1, with one agent k
    astride both. For a candidate k, equal utility W forces every other
    share (agent t gets W / value of its side), leaving a 2x2 system
    for agent k's pair; k is feasible when both of those shares are
    nonnegative. A negative share on item 0 means the prefix is
    oversubscribed (move k down), on item 1 the suffix (move k up), so
    binary search finds the feasible k in at most ceil(log2 n) + 1
    candidate evaluations, counted in probes.
    """
    if inst.item_count != 2:
        raise WrongItemCount(f"two-item solver got {inst.item_count} items")
    n = inst.agent_count
    v = inst.values
    rho = tuple(v[i][0] / v[i][1] for i in range(n))
    perm = tuple(sorted(range(n), key=lambda i: (-rho[i], i)))

    inv0 = [ONE / v[perm[t]][0] for t in range(n)]
    inv1 = [ONE / v[perm[t]][1] for t in range(n)]
    prefix0 = [ZERO] * (n + 1)  # running sums of 1/v over the sorted order
    prefix1 = [ZERO] * (n + 1)
    for t in range(n):
        prefix0[t + 1] = prefix0[t] + inv0[t]
        prefix1[t + 1] = prefix1[t] + inv1[t]

    probes = 0
    lo, hi = 0, n - 1
    found = None
    while lo <= hi:
        k = (lo + hi) // 2
        probes += 1
        a = perm[k]
        s1 = prefix0[k]  # agents before k, all on item 0
        s2 = prefix1[n] - prefix1[k + 1]  # agents after k, all on item 1
        w = (v[a][0] + v[a][1]) / (ONE + v[a][0] * s1 + v[a][1] * s2)
        xk0 = ONE - w * s1
        xk1 = ONE - w * s2
        if xk0 < 0:
            hi = k - 1
        elif xk1 < 0:
            lo = k + 1
        else:
            found = (k, w, xk0, xk1)
            break
    if found is None:
        raise InternalVerificationFailed("no feasible split agent in two-item search")

    k, w, xk0, xk1 = found
    rows = [[ZERO, ZERO] for _ in range(n)]
    for t in range(k):
        rows[perm[t]][0] = w * inv0[t]
    for t in range(k + 1, n):
        rows[perm[t]][1] = w * inv1[t]
    rows[perm[k]][0] = xk0
    rows[perm[k]][1] = xk1
    alloc = make_allocation(rows)
    for i in range(n):
        if utility(inst, alloc, i) != w:
            raise InternalVerificationFailed("two-item split left utilities unequal")

    split_agent = perm[k]
    prices = (v[split_agent][0], v[split_agent][1])
    budgets = tuple(bundle_cost(alloc.x[i], prices) for i in range(n))
    return MaxMinResult(
        alloc,
        w,
        prices=prices,
        budgets=budgets,
        order=PreferenceOrder(rho, perm),
        split=SplitPoint(index=split_agent, fraction=(xk0, xk1)),
        probes=probes,
    )


def check_maxmin_characterization(inst: Instance, alloc: Allocation) -> bool:
    """True iff alloc is Pareto optimal with all utilities exactly equal.

    These two properties characterize max-min optimality: together they
    pin the common utility to the max-min value.
    """
    if not verify_pareto_optimal(inst, alloc).ok:
        return False
    us = [utility(inst, alloc, i) for i in range(inst.agent_count)]
    return all(u == us[0] for u in us)
