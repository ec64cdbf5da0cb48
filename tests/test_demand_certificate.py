"""The integer demand certificate and ratio table against the routes
they replaced.

market.verify_equilibrium and market.is_in_demand_set decide demand
with the fractional knapsack's optimality certificate on ints, and run
the greedy only for bundles that fail it. tests/oracles.py keeps the
route they replaced, greedy_verify_equilibrium and
greedy_is_in_demand_set: Rational cost and utility sums and the greedy
for every agent. Both must give the same reports, compared by repr so
that every field, with its type, agrees. They are compared on the
acceptance corpus and on mode-"b" markets, on y and on its cycle-free
transform, at the pipeline's prices with the budgets scaled by 1, 9/10
and 11/10, so that bundles in and out of the demand sets both occur.
Hand cases pin the certificate's branches, and the error precedence is
checked against the old route. A bundle outside [0, 1]^m is never
demanded; the old route judged it by the greedy alone, so on the two
such hand cases it demanded, only the optimum is compared.

scaling._ratio_table picks each agent's best bang-per-buck per foreign
tree on ints; oracles.fraction_ratio_table computes one Rational per
agent-item pair. The tables must agree in keys, values and insertion
order, and the multipliers (or the InfeasibleLP message) built on each
must be the same.
"""

import pytest

from ceub import market
from ceub.errors import CeubError, InfeasibleLP, InternalVerificationFailed
from ceub.generators import GenConfig, gen_pareto_allocation, gen_structured_instance
from ceub.graphs import make_cycle_free
from ceub.market import (
    is_in_demand_set,
    make_allocation,
    validate_instance,
    verify_equilibrium,
)
from ceub.rationals import rat
from ceub.scaling import _ratio_table, solve_multiplier_lp, support_with_details

from oracles import (
    Priced,
    bundle_utility,
    fraction_ratio_table,
    fraction_solve_multiplier_lp,
    greedy_is_in_demand_set,
    greedy_verify_equilibrium,
    priced,
)
from test_acceptance import corpus, pipeline_details

FACTORS = (rat(1), rat(9, 10), rat(11, 10))


def outcome(route, *args):
    """repr of what a route returns, or the type, message and item of
    what it raises."""
    try:
        return repr(route(*args))
    except (CeubError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "item", None)


def compare_reports(inst, y, eq, verdicts):
    """Both demand routes on y and on its cycle-free transform, at eq's
    prices and scaled budgets; records every in_demand_set seen in
    verdicts."""
    allocations = (y,) if eq.allocation is y else (y, eq.allocation)
    for factor in FACTORS:
        budgets = tuple(b * factor for b in eq.budgets)
        for alloc in allocations:
            ours = verify_equilibrium(inst, alloc, eq.prices, budgets)
            assert repr(ours) == repr(greedy_verify_equilibrium(inst, alloc, eq.prices, budgets))
            for i, report in enumerate(ours.reports):
                args = (inst, eq.prices, budgets[i], i, alloc.x[i])
                assert repr(is_in_demand_set(*args)) == repr(report)
                assert repr(greedy_is_in_demand_set(*args)) == repr(report)
                verdicts.add((factor, report.in_demand_set))


def mode_b_pairs():
    for n in range(2, 7):
        for m in range(2, 7):
            for seed in range(4):
                inst = gen_structured_instance(GenConfig(seed=seed, agents=n, items=m))
                yield inst, gen_pareto_allocation(inst, seed, mode="b")


def test_certificate_matches_the_greedy_route_on_the_corpus():
    verdicts = set()
    results, _ = pipeline_details()
    for (inst, y), details in zip(corpus(), results):
        compare_reports(inst, y, details.equilibrium, verdicts)
    # Scaled budgets leave bundles out of the demand sets, on both sides.
    assert verdicts == {(f, d) for f in FACTORS for d in (True, False)} - {(rat(1), False)}


def test_certificate_matches_the_greedy_route_on_mode_b_markets():
    verdicts = set()
    for inst, y in mode_b_pairs():
        compare_reports(inst, y, support_with_details(inst, y).equilibrium, verdicts)
    assert {d for _, d in verdicts} == {True, False}


def test_pipeline_never_runs_the_greedy_on_the_corpus(monkeypatch):
    def greedy(*args):
        raise AssertionError("the greedy ran on a demanded bundle")

    monkeypatch.setattr(market, "max_affordable_utility", greedy)
    for inst, y in corpus():
        assert support_with_details(inst, y).report.is_equilibrium


# Bundles outside the box that are affordable and worth the greedy's optimum.
GREEDY_DEMANDED = ("above one, at the optimum", "negative share")

# Values 4, 3, 1 at prices 2, 2, 1: bang-per-buck 2, 3/2 and 1.
KNAPSACK = [[4, 3, 1]]
PRICES = (2, 2, 1)


@pytest.mark.parametrize(
    "values, prices, budget, bundle, demanded",
    [
        (KNAPSACK, PRICES, 0, (0, 0, 0), True),
        (KNAPSACK, PRICES, 0, (0, 0, rat(1, 2)), False),
        (KNAPSACK, PRICES, 6, (1, 1, 1), True),
        (KNAPSACK, PRICES, 6, (1, 1, 0), False),
        (KNAPSACK, PRICES, 6, (1, 1, rat(1, 2)), False),
        # v/p ties at 1 for every item: any bundle spending the budget
        ([[2, 1, 3]], (2, 1, 3), 3, (1, 1, 0), True),
        ([[2, 1, 3]], (2, 1, 3), 3, (0, 0, 1), True),
        ([[2, 1, 3]], (2, 1, 3), 3, (rat(1, 2), 1, rat(1, 3)), True),
        # the threshold item bought in part
        (KNAPSACK, PRICES, 3, (1, rat(1, 2), 0), True),
        (KNAPSACK, PRICES, 3, (1, 0, 1), False),
        (KNAPSACK, PRICES, 3, (rat(1, 2), 1, 0), False),
        (KNAPSACK, PRICES, 3, (1, rat(1, 4), 0), False),
        (KNAPSACK, PRICES, 3, (1, 1, 0), False),
        # outside the box: never demanded
        ([[1, 1]], (1, 1), 2, (2, 0), False),
        ([[2, 1]], (1, 1), 2, (2, 0), False),
        ([[1, 1]], (1, 1), 1, (2, -1), False),
    ],
    ids=[
        "zero budget, empty bundle",
        "zero budget, non-empty bundle",
        "slack budget, every item whole",
        "slack budget, one item not held",
        "slack budget, one item in part",
        "tie, two items whole",
        "tie, one item whole",
        "tie, every item in part",
        "partial item at the threshold",
        "worse item whole",
        "better item in part",
        "budget not spent",
        "over budget",
        "above one, at the optimum",
        "above one, over the optimum",
        "negative share",
    ],
)
def test_certificate_on_hand_cases(request, values, prices, budget, bundle, demanded):
    inst = validate_instance(values)
    report = is_in_demand_set(inst, prices, budget, 0, bundle)
    assert report.in_demand_set is demanded
    old = greedy_is_in_demand_set(inst, prices, budget, 0, bundle)
    if request.node.callspec.id in GREEDY_DEMANDED:
        assert old.in_demand_set
        assert report.optimal_utility == old.optimal_utility
    else:
        assert repr(report) == repr(old)


def test_greedy_and_certificate_must_agree(monkeypatch):
    # A greedy that calls every bundle optimal contradicts the certificate.
    monkeypatch.setattr(
        market, "max_affordable_utility", lambda inst, prices, budget, i: achieved
    )
    inst = validate_instance(KNAPSACK)
    achieved = bundle_utility(inst, (1, 0, 1), 0)
    with pytest.raises(InternalVerificationFailed, match="agent 0"):
        is_in_demand_set(inst, PRICES, 3, 0, (1, 0, 1))


@pytest.mark.parametrize(
    "prices, budget, bundle",
    [
        ((2, 0, 0), -1, (1, 0)),  # bundle too short
        ((2, 0), -1, (1, 0, 0)),  # prices too short
        ((2, 0, -1), -1, (1, 0, 0)),  # item 1 is the first price not positive
        ((2, 1, 1), -1, (1, 0, 0)),  # negative budget
        ((2, 1, 1), rat(-1, 3), (0, 0, 0)),
    ],
)
def test_is_in_demand_set_error_precedence(prices, budget, bundle):
    inst = validate_instance(KNAPSACK)
    args = (inst, prices, budget, 0, bundle)
    ours = outcome(is_in_demand_set, *args)
    assert isinstance(ours, tuple)
    assert ours == outcome(greedy_is_in_demand_set, *args)


@pytest.mark.parametrize(
    "prices, budgets",
    [
        ((0, 1), (1,)),  # one budget for two agents
        ((1,), (1, 1)),  # one price for two items
        ((1, 0), (1, -1)),  # item 1's price is zero
        ((1, 1), (1, -1)),  # agent 1's budget is negative
        ((1, 1), (-1, -2)),  # agent 0's is the first
    ],
)
def test_verify_equilibrium_error_precedence(prices, budgets):
    inst = validate_instance([[1, 2], [2, 1]])
    alloc = make_allocation([[0, 1], [1, 0]])
    ours = outcome(verify_equilibrium, inst, alloc, prices, budgets)
    assert isinstance(ours, tuple)
    assert ours == outcome(greedy_verify_equilibrium, inst, alloc, prices, budgets)


# --------------------------------------------------------- ratio table


def compare_ratio_tables(state):
    ours = _ratio_table(*state)
    assert list(ours.items()) == list(fraction_ratio_table(*state).items())
    assert outcome(solve_multiplier_lp, *state) == outcome(fraction_solve_multiplier_lp, *state)
    return ours


def test_ratio_table_matches_the_fraction_loop_on_the_corpus():
    pairs = 0
    results, _ = pipeline_details()
    for (inst, _), details in zip(corpus(), results):
        state = Priced(inst, details.equilibrium.decomposition, details.pricing)
        pairs += len(compare_ratio_tables(state))
    assert pairs > 0


def test_ratio_table_matches_the_fraction_loop_on_mode_b_markets():
    # Max-min allocations come out of cycle removal as one funded tree,
    # so no agent has a foreign tree and the tables are empty.
    for inst, y in mode_b_pairs():
        assert compare_ratio_tables(priced(inst, make_cycle_free(inst, y))) == {}


@pytest.mark.parametrize(
    "owners",
    [(0, 1, 2), (2, 0, 1), (1, 2, 0)],
    ids=["agent i holds item i", "rotated left", "rotated right"],
)
def test_infeasible_multipliers_raise_the_same_message(owners):
    # Three one-item trees whose ratio pairs multiply to 8 around the
    # cycle; item k is the item agent owners[k] held when agent i held
    # item i. Relabelling the items changes the order of the trees'
    # lowest items, and so the order in which the ratio pairs go in.
    tenth = rat(1, 10)
    base = [[1, 2, tenth], [tenth, 1, 2], [2, tenth, 1]]
    values = [[row[owner] for owner in owners] for row in base]
    shares = [[int(owner == i) for owner in owners] for i in range(3)]
    state = priced(validate_instance(values), make_allocation(shares))
    ours = outcome(solve_multiplier_lp, *state)
    assert ours[0] is InfeasibleLP
    assert ours == outcome(fraction_solve_multiplier_lp, *state)
    assert list(_ratio_table(*state).items()) == list(fraction_ratio_table(*state).items())
