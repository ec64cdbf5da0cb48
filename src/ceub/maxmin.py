"""Rawlsian max-min allocations: the general LP and two fast special cases.

The max-min value of an instance is the largest W such that every agent
can be guaranteed utility at least W simultaneously. An optimal
allocation always exists with every utility exactly equal to W and all
items fully handed out, and it is Pareto optimal; those two facts make
max-min solutions a convenient source of interior supportable points.

Three solvers:

* maxmin_lp: the LP max W s.t. W - u_i(x) <= 0, column sums <= 1 --
  works for any shape, exact.
* maxmin_two_agents: n = 2, sort items by relative preference and split
  one "median" item; O(m log m), also emits checked prices/budgets.
* maxmin_two_items: m = 2, sort agents by relative preference and
  binary-search the one agent who splits across both items; O(log n)
  candidate evaluations after the sort, also emits checked prices/budgets.

maxmin_lp returns only what its settle check, _settle, has passed. It
runs on ints: the shares and lambda over the basis determinant D of the
simplex, whose levels it takes as they are, and each agent's values
over s_i, the lcm of theirs (Instance.scaled). It requires every share
in [0, D], every item's shares to sum to exactly D, and every agent's
utility, scaled by s_i·D, to equal s_i times lambda's level; anything
else raises InternalVerificationFailed. maxmin_lp builds its Rationals
only after the check.

The fast paths come with prices, so they end in one demand check
instead, in _closed_form: with each budget the cost of its bundle, it
requires every bundle demanded, every budget spent, every item sold
exactly once and every agent at exactly lambda. A share outside [0, 1]
is never demanded.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from operator import mul

from . import simplex
from .errors import InternalVerificationFailed, WrongAgentCount, WrongItemCount
from .market import (
    Allocation,
    Instance,
    _dot,
    utility,
    verify_equilibrium,
    verify_pareto_optimal,
)
from .rationals import ONE, ZERO, Rational, format_rational
from .simplex import OPTIMAL

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

    max lambda s.t. lambda - sum_j v_ij x_ij <= 0 for each agent i and
    sum_i x_ij <= 1 for each item j. The program goes to the simplex as
    sparse int columns built from inst.scaled: agent row i is scaled by
    s_i, the lcm of its value denominators, so x_ij is -v_ij*s_i in row
    i and 1 in item row j, and lambda is s_i in every agent row. The
    rhs is 0 in agent rows and 1 in item rows, so every row is "<=" with
    a nonnegative rhs, and the origin with every slack basic is feasible.

    Exact optima of the LP arrive with every utility equal to the
    optimum and every item fully allocated: any slack or any agent
    above the minimum could be redistributed to raise the minimum, so
    neither survives at an optimum. _settle verifies both facts on the
    solver's ints, treating a violation as a solver bug rather than
    patching it; Rationals are built only after it passes.

    The simplex tries the hybrid rule first, so a unique optimum costs
    no Bland run.
    """
    return _maxmin_lp(inst, False)


def _maxmin_lp(inst: Instance, bland_first: bool) -> MaxMinResult:
    """maxmin_lp, with Bland's rule first when bland_first is set: for a
    caller whose values leave the optimum rarely unique, where the
    hybrid attempt would mostly be wasted."""
    n, m = inst.agent_count, inst.item_count
    lam_var = n * m
    weights, scales = inst.scaled
    columns = [[(i, -a), (n + j, 1)] for i, row in enumerate(weights) for j, a in enumerate(row)]
    columns.append(list(enumerate(scales)))
    cost = [0] * lam_var + [1]
    status, pivots, basis, levels, D, cols, width = simplex._solve(
        columns, [0] * n + [1] * m, cost, bland_first
    )
    if status != OPTIMAL:
        raise InternalVerificationFailed(f"max-min program {status}")
    shares = [[0] * m for _ in range(n)]
    lam_level = 0
    for bv, level in zip(basis, levels):
        if bv < lam_var:
            shares[bv // m][bv % m] = level
        elif bv == lam_var:
            lam_level = level
    _settle(weights, scales, shares, lam_level, D)
    rows = [[Rational(level, D) if level else ZERO for level in row] for row in shares]
    lam = Rational(lam_level, D)
    if log.isEnabledFor(logging.INFO):
        log.info(
            "max-min LP %dx%d: %d rows, %d columns, pivots %d hybrid + %d Bland,"
            " %d bits, lambda=%s",
            n, m, n + m, lam_var + 1, *pivots, simplex._read_off(cols, n + m, width, D),
            format_rational(lam),
        )
    return MaxMinResult(Allocation(tuple(map(tuple, rows))), lam)


def _settle(weights, scales, shares, lam, D) -> None:
    """Check, on ints, the allocation of shares[i][j] / D at utility
    lam / D: every share in [0, 1], every item sold exactly once, and
    every agent at exactly lam / D, that is sum_j shares[i][j] *
    weights[i][j] = scales[i] * lam. Anything else is a solver bug."""
    for i, row in enumerate(shares):
        for j, level in enumerate(row):
            if level < 0 or level > D:
                raise InternalVerificationFailed(
                    f"share x[{i}][{j}] = {format_rational(Rational(level, D))} outside [0, 1]"
                )
    for j, column in enumerate(zip(*shares)):
        total = sum(column)
        if total != D:
            raise InternalVerificationFailed(
                f"item {j} has column sum {format_rational(Rational(total, D))}, not 1"
            )
    for i, (row, ints, scale) in enumerate(zip(shares, weights, scales)):
        total = sum(map(mul, row, ints))
        if total != scale * lam:
            raise InternalVerificationFailed(
                f"agent {i} settled at utility {format_rational(Rational(total, scale * D))},"
                f" not {format_rational(Rational(lam, D))}"
            )


def _closed_form(inst: Instance, rows, lam, prices, order, split, probes=None) -> MaxMinResult:
    """The MaxMinResult of a fast path's Rational shares rows at utility
    lam, with each budget the cost of its bundle at prices, once one
    demand check has passed them: every bundle demanded (so no share
    lies outside [0, 1]), every budget spent, every item sold exactly
    once and every agent at exactly lam. Anything else is a bug."""
    alloc = Allocation(tuple(map(tuple, rows)))
    budgets = tuple(_dot(row, prices, held) for row, held in zip(alloc.x, alloc.graph.agent_items))
    try:
        report = verify_equilibrium(inst, alloc, prices, budgets)
    except ValueError as exc:  # a negative budget, so a negative share
        raise InternalVerificationFailed(f"fast-path {exc}") from None
    if not report.is_equilibrium:
        raise InternalVerificationFailed("fast-path prices and budgets do not support the allocation")
    for r in report.reports:
        if r.achieved_utility != lam:
            raise InternalVerificationFailed(
                f"agent {r.agent} at utility {format_rational(r.achieved_utility)},"
                f" not {format_rational(lam)}"
            )
    return MaxMinResult(alloc, lam, prices, budgets, order, split, probes)


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

    rows = [[ZERO] * m for _ in range(2)]
    for t, j in enumerate(perm):
        if t < s:
            rows[0][j] = ONE
        elif t > s:
            rows[1][j] = ONE
    rows[0][js] = frac
    rows[1][js] = ONE - frac
    lam = prefix0 + frac * v0[js]
    split = SplitPoint(index=js, fraction=frac)
    return _closed_form(inst, rows, lam, v0, PreferenceOrder(phi, perm), split)


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
    split = SplitPoint(index=perm[k], fraction=(xk0, xk1))
    return _closed_form(inst, rows, w, v[perm[k]], PreferenceOrder(rho, perm), split, probes)


def check_maxmin_characterization(inst: Instance, alloc: Allocation) -> bool:
    """True iff alloc is Pareto optimal with all utilities exactly equal.

    These two properties characterize max-min optimality: together they
    pin the common utility to the max-min value.
    """
    if not verify_pareto_optimal(inst, alloc).ok:
        return False
    us = [utility(inst, alloc, i) for i in range(inst.agent_count)]
    return all(u == us[0] for u in us)
