"""Cross-tree scaling factors that turn per-tree prices into an equilibrium.

Tree pricing supports every agent inside her own tree, but an agent may
still envy items priced in another tree. Multiplying all prices and
budgets of tree T by a factor alpha_T > 0 leaves within-tree support
intact and changes only the cross-tree comparisons, so the job reduces
to finding one factor per tree killing all cross-tree envy.

Two routes to the factors live here side by side:

* a closed form (the constructive path): the least solution of the
  difference constraints between trees, by multiplicative
  Bellman-Ford, and
* the per-pair GAIN quantity with its fixed-point map F (an
  independent check: at a correct alpha every gain is zero and
  F(alpha) = alpha exactly).

The closed form computes; GAIN is the independent check that the tests
run on the pipeline's output. It is not run per call: at prices that
pass the demand oracle on the cycle-free allocation, every gain is zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import InfeasibleLP, InternalVerificationFailed, NotParetoOptimal, OrphanItem, SameTree
from .graphs import make_cycle_free
from .market import (
    Allocation,
    EquilibriumReport,
    Instance,
    bundle_cost,
    bundle_utility,
    max_product_paths,
    verify_equilibrium,
    verify_pareto_optimal,
)
from .pricing import ForestDecomposition, TreePricing, price_forest
from .rationals import ONE, ZERO, Rational

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GainState:
    """Everything the gain formulas need: a priced cycle-free allocation.

    Prices, budgets, and utilities are the unscaled per-tree quantities.
    v_min is half the smallest valuation in the instance; it caps every
    gain so that a single bounded quantity witnesses unbounded envy
    (an agent facing a zero-scaled foreign tree would otherwise report
    infinite gain).

    Alpha vectors are indexed by decomposition tree id. Degenerate
    trees (an agent holding nothing) have no prices to scale; their
    entry is fixed at zero by convention and the simplex constraint
    sum(alpha) = 1 ranges over the funded trees.
    """

    inst: Instance
    alloc: Allocation
    decomp: ForestDecomposition
    pricing: TreePricing
    v_min: Rational


@dataclass(frozen=True)
class GainTable:
    """Gains of one alpha, aggregated per item and per tree.

    gain_ij[i][j] is zero for same-tree pairs and for unfunded agents;
    gain_j is the column maximum, gain_T the maximum over a tree's
    items (zero for degenerate trees, which own none).
    """

    gain_ij: tuple
    gain_j: tuple
    gain_T: tuple

    @property
    def all_zero(self) -> bool:
        return all(g == 0 for g in self.gain_T)


@dataclass(frozen=True)
class Equilibrium:
    """Scaled prices and budgets supporting an allocation.

    prices[j] = p_j * alpha[T(j)] and budgets[i] = b_i * alpha[T(i)]
    with p, b from tree pricing. allocation is the cycle-free transform
    the prices were derived from; the original input allocation is
    supported by the same prices and budgets.
    """

    prices: tuple
    budgets: tuple
    alpha: tuple
    allocation: Allocation
    decomposition: ForestDecomposition


@dataclass(frozen=True)
class PipelineDetails:
    """Intermediates of support_pipeline, for callers that audit them."""

    equilibrium: Equilibrium
    state: GainState
    alpha: tuple
    lam: Rational
    cycle_free: Allocation
    report: EquilibriumReport  # the demand oracle on y at the equilibrium


def build_gain_state(inst: Instance, alloc: Allocation) -> GainState:
    """Price a cycle-free allocation and package it for the gain oracle."""
    decomp, pricing = price_forest(inst, alloc)
    v_min = min(v for row in inst.values for v in row) / 2
    return GainState(inst, alloc, decomp, pricing, v_min)


def gain_ij(state: GainState, alpha, i: int, j: int) -> Rational:
    """Capped utility agent i could gain from item j in a foreign tree.

    At scaling alpha, agent i's budget buys utility u_i inside her own
    tree. The gain compares that to redirecting the whole budget toward
    item j: if the scaled budget covers j's scaled price the agent
    pockets v_ij minus the utility the spent portion used to earn;
    if j's tree is scaled to zero the item is free (gain v_ij); in the
    partial-purchase case the affordable fraction of v_ij replaces u_i
    entirely. Negative gains clamp to zero and everything is capped at
    v_min.
    """
    ti = state.decomp.tree_of_agent[i]
    tj = state.decomp.tree_of_item[j]
    if ti == tj:
        raise SameTree(i, j)
    budget = state.pricing.budgets[i]
    if budget == 0:
        raise ValueError(f"gain is undefined for unfunded agent {i}")
    value = state.inst.values[i][j]
    u = state.pricing.utilities[i]
    scaled_price = alpha[tj] * state.pricing.prices[j]
    scaled_budget = alpha[ti] * budget
    if scaled_price < scaled_budget:
        raw = value - scaled_price * u / scaled_budget
    elif alpha[tj] == 0:
        raw = value
    else:
        raw = value * scaled_budget / scaled_price - u
    if raw < 0:
        raw = ZERO
    return raw if raw < state.v_min else state.v_min


def build_gain_table(state: GainState, alpha) -> GainTable:
    n, m = state.inst.agent_count, state.inst.item_count
    toa = state.decomp.tree_of_agent
    toi = state.decomp.tree_of_item
    budgets = state.pricing.budgets
    matrix = tuple(
        tuple(
            ZERO
            if budgets[i] == 0 or toa[i] == toi[j]
            else gain_ij(state, alpha, i, j)
            for j in range(m)
        )
        for i in range(n)
    )
    per_item = tuple(max(matrix[i][j] for i in range(n)) for j in range(m))
    per_tree = tuple(
        max((per_item[j] for j in items), default=ZERO)
        for items in state.decomp.tree_items
    )
    return GainTable(matrix, per_item, per_tree)


def _check_alpha(state: GainState, alpha) -> None:
    if len(alpha) != state.decomp.tree_count:
        raise ValueError(f"{len(alpha)} multipliers for {state.decomp.tree_count} trees")
    if any(a < 0 for a in alpha):
        raise ValueError("negative multiplier")
    if sum(alpha, ZERO) != 1:
        raise ValueError("multipliers must sum to 1")
    for t in range(state.decomp.tree_count):
        if state.decomp.is_degenerate(t) and alpha[t] != 0:
            raise ValueError(f"tree {t} has no items; its multiplier must be 0")


def fixed_point_map(state: GainState, alpha) -> tuple:
    """One step of F(alpha)_T = (alpha_T + GAIN_T) / (1 + sum GAIN).

    Maps the simplex to itself; alpha is a fixed point exactly when all
    gains vanish, which is the equilibrium condition.
    """
    _check_alpha(state, alpha)
    table = build_gain_table(state, alpha)
    denom = ONE + sum(table.gain_T, ZERO)
    return tuple((alpha[t] + table.gain_T[t]) / denom for t in range(len(alpha)))


def solve_multiplier_lp(state: GainState):
    """Scaling factors maximizing the smallest multiplier lambda.

    Subject to sum(alpha) = 1, alpha_T >= lambda, and for every
    cross-tree agent-item pair the no-envy inequality
    (u_i / b_i) * alpha_T(j) >= (v_ij / p_j) * alpha_T(i), collapsed to
    the tightest ratio r_st per ordered tree pair. Dividing by lambda
    gives: minimize sum(d) subject to d >= 1 and d_t >= r_st * d_s.
    That set is closed under componentwise min, so its least element d
    (exact multiplicative Bellman-Ford) is the unique optimum, with
    alpha = d / sum(d) and lambda = 1 / sum(d).

    Returns (alpha, lambda) with alpha over all trees (zeros at
    degenerate ones). A cycle of ratio pairs with product > 1 admits
    no positive scaling and certifies that the allocation was not
    Pareto optimal to begin with (InfeasibleLP).
    """
    decomp = state.decomp
    funded = [t for t in range(decomp.tree_count) if not decomp.is_degenerate(t)]
    if not funded:
        # No items at all is impossible: instances are nonempty and
        # allocations fully allocated, so some tree owns an item.
        raise InternalVerificationFailed("no funded trees to scale")

    prices, budgets, utils = state.pricing.prices, state.pricing.budgets, state.pricing.utilities
    values = state.inst.values
    ratios: dict = {}  # (tree of i, tree of j) -> tightest v_ij*b_i / (p_j*u_i)
    for i in range(state.inst.agent_count):
        if budgets[i] == 0:
            continue
        s = decomp.tree_of_agent[i]
        for j in range(state.inst.item_count):
            t = decomp.tree_of_item[j]
            if t == s:
                continue
            r = values[i][j] * budgets[i] / (prices[j] * utils[i])
            key = (s, t)
            if key not in ratios or r > ratios[key]:
                ratios[key] = r

    # Degenerate trees own no items and fund no agent, so they touch no
    # ratio pair and stay out of the sum.
    d, cycle = max_product_paths(decomp.tree_count, [(s, t, r) for (s, t), r in ratios.items()])
    if cycle is not None:
        raise InfeasibleLP(
            f"ratio pairs around trees {cycle} multiply to more than 1, so no "
            "positive per-tree scaling removes cross-tree envy; "
            "the allocation is not Pareto optimal"
        )
    total = sum((d[t] for t in funded), ZERO)
    alpha = [ZERO] * decomp.tree_count
    for t in funded:
        alpha[t] = d[t] / total
    lam = ONE / total
    log.info("multipliers: %d trees, %d pair constraints, lambda=%s",
             len(funded), len(ratios), lam)
    return tuple(alpha), lam


def assemble_equilibrium(state: GainState, alpha) -> Equilibrium:
    """Scale each tree's prices and budgets by its multiplier in alpha.

    alpha is validated (ValueError); the result is not checked here, but
    by support_with_details, once, on y.
    """
    _check_alpha(state, alpha)
    decomp = state.decomp
    prices = tuple(
        state.pricing.prices[j] * alpha[decomp.tree_of_item[j]]
        for j in range(state.inst.item_count)
    )
    budgets = tuple(
        state.pricing.budgets[i] * alpha[decomp.tree_of_agent[i]]
        for i in range(state.inst.agent_count)
    )
    return Equilibrium(prices, budgets, tuple(alpha), state.alloc, decomp)


def _raise_if_not_pareto_optimal(inst: Instance, y: Allocation) -> None:
    """Raise the verifier's NotParetoOptimal for y, if it finds one."""
    verdict = verify_pareto_optimal(inst, y)
    if verdict.ok:
        return
    if verdict.unallocated_item is not None:
        raise NotParetoOptimal(
            f"item {verdict.unallocated_item} is not fully allocated; "
            "handing out the remainder improves someone",
            verdict=verdict,
        )
    c = verdict.certificate
    raise NotParetoOptimal(
        f"improving trade cycle through agents {c.agents} and items {c.items} "
        f"(ratio {c.improvement_ratio})",
        verdict=verdict,
    )


def support_with_details(inst: Instance, y: Allocation) -> PipelineDetails:
    """support_pipeline, returning every intermediate for auditing; the
    report is the demand oracle's one pass, on y."""
    try:
        x = make_cycle_free(inst, y)
        state = build_gain_state(inst, x)
        alpha, lam = solve_multiplier_lp(state)
        eq = assemble_equilibrium(state, alpha)
    except (NotParetoOptimal, OrphanItem, InternalVerificationFailed) as exc:
        _raise_if_not_pareto_optimal(inst, y)
        raise InternalVerificationFailed(f"Pareto-optimal input, yet: {exc}") from exc
    # First Welfare Theorem: positive prices that support y, with every
    # budget spent and every item sold, make y Pareto optimal. So this
    # one check certifies y; the exchange graph only explains a failure.
    # Its optima judge x' too: x' is demanded iff each bundle is affordable
    # and worth the optimum, and then every gain is zero, so none is built.
    report = verify_equilibrium(inst, y, eq.prices, eq.budgets)
    if not (report.supported and report.budgets_exhausted and report.items_fully_allocated):
        _raise_if_not_pareto_optimal(inst, y)
        raise InternalVerificationFailed("the prices do not support the original allocation")
    for i, row in enumerate(x.x):
        optimum = report.reports[i].optimal_utility
        if bundle_cost(row, eq.prices) > eq.budgets[i] or bundle_utility(inst, row, i) != optimum:
            raise InternalVerificationFailed(
                "scaled prices fail the demand oracle on the cycle-free allocation"
            )
    return PipelineDetails(eq, state, alpha, lam, x, report)


def support_pipeline(inst: Instance, y: Allocation) -> Equilibrium:
    """Prices and budgets supporting a Pareto-optimal allocation y.

    Remove graph cycles without touching utilities, price each tree from
    its root, scale trees by the closed-form multipliers, then check y
    once with the demand oracle and read the check of the cycle-free
    transform off that report.

    Raises NotParetoOptimal, with the exchange-graph verifier's verdict,
    if the construction or the check of y fails and y is not Pareto
    optimal; InternalVerificationFailed if y passes the verifier.
    """
    return support_with_details(inst, y).equilibrium
