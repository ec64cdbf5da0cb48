"""Cross-tree scaling factors that turn per-tree prices into an equilibrium.

Tree pricing supports every agent inside her own tree, but an agent may
still envy items priced in another tree. Multiplying all prices and
budgets of tree T by a factor alpha_T > 0 leaves within-tree support
intact and changes only the cross-tree comparisons, so the job reduces
to finding one factor per tree killing all cross-tree envy.

The factors have a closed form: the least solution of the difference
constraints between trees, by multiplicative Bellman-Ford
(solve_multiplier_lp). Each constraint needs an agent's best value per
price in a foreign tree, which is found by comparing ints; one Rational
is made per agent and tree.

support_with_details calls the stages in turn: make_cycle_free,
price_forest, solve_multiplier_lp. It multiplies each tree's prices and
budgets by the tree's factor. The demand certificate then checks the
scaled prices once, on the input allocation, and the cycle-free
transform is checked against that report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import InfeasibleLP, InternalVerificationFailed, NotParetoOptimal, OrphanItem
from .graphs import make_cycle_free
from .market import (
    Allocation,
    EquilibriumReport,
    Instance,
    _dot,
    _over_common_denominator,
    max_product_paths,
    verify_equilibrium,
    verify_pareto_optimal,
)
from .pricing import ForestDecomposition, TreePricing, price_forest
from .rationals import ONE, ZERO, Rational, format_rational

log = logging.getLogger(__name__)


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
    pricing: TreePricing  # the unscaled per-tree prices, budgets and utilities
    lam: Rational
    report: EquilibriumReport  # the demand oracle on y at the equilibrium


def _ratio_table(inst: Instance, decomp: ForestDecomposition, pricing: TreePricing) -> dict:
    """(tree of i, tree of j) -> the tightest v_ij * b_i / (p_j * u_i).

    For each funded agent i and each tree t other than its own, only
    i's best bang-per-buck v_ij / p_j in t matters. It is found on ints,
    with i's values over their common denominator (Instance.scaled) and
    the prices over theirs, by cross-multiplying; then one Rational is
    made per (agent, tree). Agents come in ascending order and, for
    each, the trees in the order of their lowest item, so each key is
    inserted when the agent-by-agent, item-by-item scan would first
    reach it.
    """
    trees = sorted(
        (t for t in range(decomp.tree_count) if not decomp.is_degenerate(t)),
        key=lambda t: decomp.tree_items[t][0],
    )
    ratios: dict = {}
    if len(trees) < 2:
        return ratios  # no agent sees a foreign tree
    prices, budgets, utils = pricing.prices, pricing.budgets, pricing.utilities
    costs, unit = _over_common_denominator(prices)  # p_j * unit
    for i, (worth, vunit) in enumerate(zip(*inst.scaled)):  # v_ij * vunit
        b, u = budgets[i], utils[i]
        if b.numerator == 0:
            continue
        s = decomp.tree_of_agent[i]
        for t in trees:
            if t == s:
                continue
            items = decomp.tree_items[t]
            best = items[0]
            for j in items:
                if worth[j] * costs[best] > worth[best] * costs[j]:
                    best = j
            # (worth/vunit) / (cost/unit) * b / u
            r = Rational(
                worth[best] * unit * b.numerator * u.denominator,
                vunit * costs[best] * b.denominator * u.numerator,
            )
            key = (s, t)
            if key not in ratios or r > ratios[key]:
                ratios[key] = r
    return ratios


def solve_multiplier_lp(inst: Instance, decomp: ForestDecomposition, pricing: TreePricing):
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
    funded = [t for t in range(decomp.tree_count) if not decomp.is_degenerate(t)]
    if not funded:
        # No items at all is impossible: instances are nonempty and
        # allocations fully allocated, so some tree owns an item.
        raise InternalVerificationFailed("no funded trees to scale")

    ratios = _ratio_table(inst, decomp, pricing)

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
    if log.isEnabledFor(logging.INFO):
        log.info("multipliers: %d trees, %d pair constraints, lambda=%s",
                 len(funded), len(ratios), format_rational(lam))
    return tuple(alpha), lam


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
        f"(ratio {format_rational(c.improvement_ratio)})",
        verdict=verdict,
    )


def support_with_details(inst: Instance, y: Allocation) -> PipelineDetails:
    """support_pipeline, returning every intermediate for auditing; the
    report is the demand oracle's one pass, on y."""
    try:
        x = make_cycle_free(inst, y)
        decomp, pricing = price_forest(inst, x)
        alpha, lam = solve_multiplier_lp(inst, decomp, pricing)
    except (NotParetoOptimal, OrphanItem, InternalVerificationFailed) as exc:
        _raise_if_not_pareto_optimal(inst, y)
        raise InternalVerificationFailed(f"Pareto-optimal input, yet: {exc}") from exc
    # Each tree's prices and budgets times its multiplier; the result is
    # not checked here, but once, on y.
    prices = tuple(p * alpha[t] for p, t in zip(pricing.prices, decomp.tree_of_item))
    budgets = tuple(b * alpha[t] for b, t in zip(pricing.budgets, decomp.tree_of_agent))
    eq = Equilibrium(prices, budgets, alpha, x, decomp)
    # First Welfare Theorem: positive prices that support y, with every
    # budget spent and every item sold, make y Pareto optimal. So this
    # one check certifies y; the exchange graph only explains a failure.
    # Its optima judge x' too: x' is demanded iff each bundle is affordable
    # and worth the optimum. When x is y, the report has already made that
    # test on the same rows.
    report = verify_equilibrium(inst, y, eq.prices, eq.budgets)
    if not report.is_equilibrium:
        _raise_if_not_pareto_optimal(inst, y)
        raise InternalVerificationFailed("the prices do not support the original allocation")
    if x is not y:
        supports = x.graph.agent_items
        for i, row in enumerate(x.x):
            affordable = _dot(row, eq.prices, supports[i]) <= eq.budgets[i]
            # price_forest summed the utility of x' on the same support.
            if not affordable or pricing.utilities[i] != report.reports[i].optimal_utility:
                raise InternalVerificationFailed(
                    "scaled prices fail the demand oracle on the cycle-free allocation"
                )
    return PipelineDetails(eq, pricing, lam, report)


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
