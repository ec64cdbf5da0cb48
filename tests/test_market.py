"""Data model, demand oracle, and the two verifiers.

The demand oracle is cross-checked against an LP formulation and the
Pareto verifier against a grid-domination search; both against-the-grain
routes live in oracles.py.
"""

import random
from dataclasses import replace

import pytest

from ceub.errors import DimensionMismatch, EmptyMatrix, NonPositiveValuation, ZeroPrice
from ceub.market import (
    is_in_demand_set,
    make_allocation,
    max_affordable_utility,
    utility,
    validate_instance,
    verify_equilibrium,
    verify_pareto_optimal,
)
from ceub.rationals import rat

from oracles import (
    LESS,
    OPTIMAL,
    dominates,
    execute_certificate,
    fraction_solve_lp,
    grid_allocations,
    make_problem,
    utilities_of,
)

TOY_VALUES = [[1], [99]]
TOY_SHARES = [[rat(99, 100)], [rat(1, 100)]]


def toy():
    return validate_instance(TOY_VALUES), make_allocation(TOY_SHARES)


# ---------------------------------------------------------------- model


def test_validate_instance_shapes():
    inst = validate_instance(TOY_VALUES)
    assert inst.agent_count == 2
    assert inst.item_count == 1
    inst = validate_instance([[rat(5, 3), rat(7, 2)], [rat(1, 9), 4]])
    assert inst.values[0][1] == rat(7, 2)


def test_validate_instance_rejects_zero_entry():
    with pytest.raises(NonPositiveValuation) as info:
        validate_instance([[1, 2], [3, 0]])
    assert info.value.agent == 1
    assert info.value.item == 1


def test_validate_instance_rejects_bad_shapes():
    with pytest.raises(EmptyMatrix):
        validate_instance([])
    with pytest.raises(EmptyMatrix):
        validate_instance([[]])
    with pytest.raises(DimensionMismatch):
        validate_instance([[1, 2], [3]])
    with pytest.raises(NonPositiveValuation):
        validate_instance([[-1]])
    with pytest.raises(NonPositiveValuation):
        validate_instance([[rat(-1, 2)]])


def test_make_allocation_constraints():
    alloc = make_allocation([[rat(1, 2), 0], [rat(1, 2), 1]])
    assert alloc.column_sum(0) == 1
    with pytest.raises(DimensionMismatch):
        make_allocation([[rat(3, 2), 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        make_allocation([[rat(-1, 2), 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        make_allocation([[rat(2, 3), 0], [rat(1, 2), 0]])
    with pytest.raises(EmptyMatrix):
        make_allocation([])
    with pytest.raises(DimensionMismatch, match="row 1 has 1 entries, expected 2"):
        make_allocation([[1, 0], [0]])


def test_utility_example():
    inst = validate_instance([[2, 3]])
    alloc = make_allocation([[rat(1, 2), rat(1, 3)]])
    assert utility(inst, alloc, 0) == 2


def test_utility_checks_dimensions():
    inst = validate_instance([[1], [2]])
    alloc = make_allocation([[rat(1, 2), rat(1, 2)], [0, 0]])
    with pytest.raises(DimensionMismatch):
        utility(inst, alloc, 0)


# --------------------------------------------------------- demand oracle


def test_max_affordable_greedy_example():
    # bang per buck 4/2 then 1/1: one unit of each fits the budget of 3
    inst = validate_instance([[4, 1]])
    assert max_affordable_utility(inst, (2, 1), 3, 0) == 5


def test_max_affordable_partial_purchase():
    inst = validate_instance([[4, 1]])
    assert max_affordable_utility(inst, (2, 1), 1, 0) == 2
    assert max_affordable_utility(inst, (2, 1), 0, 0) == 0


def test_max_affordable_tie_breaks_by_item_index():
    # equal ratios: the budget must go to item 0 first
    inst = validate_instance([[2, 2]])
    assert max_affordable_utility(inst, (1, 1), 1, 0) == 2


def test_max_affordable_input_checks():
    inst = validate_instance([[4, 1]])
    with pytest.raises(ZeroPrice) as info:
        max_affordable_utility(inst, (2, 0), 3, 0)
    assert info.value.item == 1
    with pytest.raises(ValueError):
        max_affordable_utility(inst, (2, 1), -1, 0)
    with pytest.raises(DimensionMismatch):
        max_affordable_utility(inst, (2,), 3, 0)


def test_string_prices_are_read_as_rationals():
    inst = validate_instance([[1, 2], [2, 1]])
    alloc = make_allocation([[0, 1], [1, 0]])
    exact = verify_equilibrium(inst, alloc, (1, 1), (1, 1))
    assert exact.is_equilibrium
    assert verify_equilibrium(inst, alloc, ("1", "1"), ("1", "1")) == exact
    assert is_in_demand_set(inst, ("1", "1/2"), 1, 0, (0, 1)).spend == rat(1, 2)
    assert max_affordable_utility(inst, ("1", "1/2"), 1, 0) == rat(5, 2)


@pytest.mark.parametrize(
    "check",
    [
        lambda inst, alloc: verify_equilibrium(inst, alloc, (1.0, 1), (1, 1)),
        lambda inst, alloc: is_in_demand_set(inst, (1, 0.5), 1, 0, (0, 1)),
        lambda inst, alloc: max_affordable_utility(inst, (1, 0.5), 1, 0),
    ],
    ids=["verify_equilibrium", "is_in_demand_set", "max_affordable_utility"],
)
def test_float_prices_are_rejected_as_inexact(check):
    inst = validate_instance([[1, 2], [2, 1]])
    alloc = make_allocation([[0, 1], [1, 0]])
    with pytest.raises(TypeError, match="floats are not exact"):
        check(inst, alloc)


@pytest.mark.parametrize("agent", [-1, 2])
def test_agent_index_out_of_range_is_a_dimension_mismatch(agent):
    inst = validate_instance([[1, 2], [2, 1]])
    alloc = make_allocation([[0, 1], [1, 0]])
    message = f"agent {agent} out of range for 2 agents"
    with pytest.raises(DimensionMismatch, match=message):
        is_in_demand_set(inst, (1, 1), 1, agent, (0, 1))
    with pytest.raises(DimensionMismatch, match=message):
        max_affordable_utility(inst, (1, 1), 1, agent)
    with pytest.raises(DimensionMismatch, match=message):
        utility(inst, alloc, agent)


@pytest.mark.parametrize("item", [-1, 2])
def test_item_index_out_of_range_is_a_dimension_mismatch(item):
    alloc = make_allocation([[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch, match=f"item {item} out of range for 2 items"):
        alloc.column_sum(item)


def test_short_price_vector_is_a_dimension_mismatch():
    # Each bundle holds item 1, which has no price.
    inst = validate_instance([[4, 1], [1, 4]])
    alloc = make_allocation([[0, 1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        is_in_demand_set(inst, (2,), 3, 0, (0, 1))
    with pytest.raises(DimensionMismatch, match="bundle has 1 entries for 2 items"):
        is_in_demand_set(inst, (2, 1), 3, 0, (1,))
    with pytest.raises(DimensionMismatch):
        verify_equilibrium(inst, alloc, (2,), (2, 2))


def test_demand_set_membership():
    inst = validate_instance([[4, 1]])
    report = is_in_demand_set(inst, (2, 1), 3, 0, (rat(1, 2), 1))
    assert report.spend == 2
    assert report.achieved_utility == 3
    assert report.optimal_utility == 5
    assert not report.in_demand_set

    report = is_in_demand_set(inst, (2, 1), 3, 0, (1, 1))
    assert report.in_demand_set


def test_demand_oracle_matches_lp():
    # maximize sum v_j z_j with sum p_j z_j <= budget and z in [0, 1]^m
    rng = random.Random(4242)
    price_grid = [rat(1, 2), 1, rat(3, 2), 2, 3]
    for _ in range(120):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        inst = validate_instance(
            [[rat(rng.randrange(1, 11), 2) for _ in range(m)] for _ in range(n)]
        )
        prices = tuple(rng.choice(price_grid) for _ in range(m))
        budget = rat(rng.randrange(0, 13), 4)
        i = rng.randrange(n)
        rows = [(prices, LESS, budget)]
        sol = fraction_solve_lp(make_problem(inst.values[i], rows, upper=[1] * m))
        assert sol.status == OPTIMAL
        assert max_affordable_utility(inst, prices, budget, i) == sol.objective_value


# ----------------------------------------------------- equilibrium check


def test_verify_equilibrium_toy():
    inst, alloc = toy()
    report = verify_equilibrium(inst, alloc, (1,), (rat(99, 100), rat(1, 100)))
    assert report.supported
    assert report.items_fully_allocated
    assert report.budgets_exhausted


def test_verify_equilibrium_flags_wrong_budgets():
    inst, alloc = toy()
    report = verify_equilibrium(inst, alloc, (1,), (1, 1))
    assert not report.supported
    assert not report.reports[1].in_demand_set
    assert not report.budgets_exhausted


def test_is_equilibrium_needs_all_three_flags():
    inst, alloc = toy()
    report = verify_equilibrium(inst, alloc, (1,), (rat(99, 100), rat(1, 100)))
    assert report.is_equilibrium
    undemanded = replace(report.reports[1], in_demand_set=False)
    for failing in (
        replace(report, reports=(report.reports[0], undemanded)),
        replace(report, budgets_exhausted=False),
        replace(report, items_fully_allocated=False),
    ):
        assert not failing.is_equilibrium


def test_verify_equilibrium_single_agent():
    inst = validate_instance([[7]])
    alloc = make_allocation([[1]])
    report = verify_equilibrium(inst, alloc, (7,), (7,))
    assert report.supported and report.items_fully_allocated and report.budgets_exhausted


def test_verify_equilibrium_checks_shapes():
    inst, alloc = toy()
    with pytest.raises(DimensionMismatch):
        verify_equilibrium(inst, alloc, (1,), (1,))
    with pytest.raises(DimensionMismatch):
        verify_equilibrium(inst, make_allocation([[1]]), (1,), (1,))


# ----------------------------------------------------- Pareto verifier


def test_pareto_certificate_for_crossed_preferences():
    # Each agent prefers the other's held item twice over; swapping is a
    # strict improvement with ratio 2 * 2 = 4.
    inst = validate_instance([[2, 1], [1, 2]])
    half = rat(1, 2)
    alloc = make_allocation([[half, half], [half, half]])
    verdict = verify_pareto_optimal(inst, alloc)
    assert not verdict.ok
    cert = verdict.certificate
    assert cert.improvement_ratio == 4
    assert sorted(cert.agents) == [0, 1]
    assert sorted(cert.items) == [0, 1]
    assert len(cert.agents) == len(cert.items) == 2


def test_pareto_accepts_matched_diagonal():
    inst = validate_instance([[2, 1], [1, 2]])
    verdict = verify_pareto_optimal(inst, make_allocation([[1, 0], [0, 1]]))
    assert verdict.ok
    assert verdict.certificate is None and verdict.unallocated_item is None


def test_pareto_rejects_unallocated_mass():
    inst, _ = toy()
    verdict = verify_pareto_optimal(inst, make_allocation([[rat(1, 2)], [rat(1, 4)]]))
    assert not verdict.ok
    assert verdict.unallocated_item == 0
    assert verdict.certificate is None


def test_certificate_trades_are_sound():
    # Executing any returned cycle must leave the first agent strictly
    # better off and everyone else exactly whole.
    rng = random.Random(97)
    executed = 0
    for _ in range(200):
        n = rng.randrange(2, 5)
        m = rng.randrange(1, 5)
        inst = validate_instance(
            [[rat(rng.randrange(1, 9), 2) for _ in range(m)] for _ in range(n)]
        )
        den = rng.choice((2, 3, 4))
        rows = []
        for i in range(n):
            rows.append([rat(0)] * m)
        for j in range(m):
            ticks = [0] * n
            for _ in range(den):
                ticks[rng.randrange(n)] += 1
            for i in range(n):
                rows[i][j] = rat(ticks[i], den)
        alloc = make_allocation(rows)
        verdict = verify_pareto_optimal(inst, alloc)
        if verdict.ok or verdict.certificate is None:
            continue
        executed += 1
        after = execute_certificate(inst, alloc, verdict.certificate)
        first = verdict.certificate.agents[0]
        for i in range(n):
            before_u = utility(inst, alloc, i)
            after_u = utility(inst, after, i)
            if i == first:
                assert after_u > before_u
            else:
                assert after_u == before_u
    assert executed >= 40


def test_pareto_verdicts_complete_on_refined_grid():
    # Heuristic completeness: any pass verdict on the coarse grid must
    # survive a domination search over the once-refined grid.
    instances = [
        validate_instance([[1, 2], [2, 1]]),
        validate_instance([[3, 1], [1, 1]]),
        validate_instance([[1, 1, 2], [2, 1, 1]]),
        validate_instance([[2, 3], [3, 2], [1, 1]]),
    ]
    for inst in instances:
        n, m = inst.agent_count, inst.item_count
        refined = list(grid_allocations(n, m, 4))
        for rows in grid_allocations(n, m, 2):
            verdict = verify_pareto_optimal(inst, make_allocation(rows))
            if not verdict.ok:
                continue
            assert not any(dominates(inst.values, other, rows) for other in refined)


def test_grid_domination_oracle_agrees_on_failures():
    # The other direction on a single instance: every coarse-grid fail
    # with a certificate is genuinely dominated within the refined grid
    # or by the executed certificate itself.
    inst = validate_instance([[2, 1], [1, 2]])
    for rows in grid_allocations(2, 2, 2):
        alloc = make_allocation(rows)
        verdict = verify_pareto_optimal(inst, alloc)
        if verdict.ok or verdict.certificate is None:
            continue
        after = execute_certificate(inst, alloc, verdict.certificate)
        assert dominates(inst.values, after.x, rows)


def test_utilities_of_matches_utility():
    inst = validate_instance([[2, 3], [4, 5]])
    alloc = make_allocation([[rat(1, 2), 0], [rat(1, 2), 1]])
    us = utilities_of(inst.values, alloc.x)
    assert us == tuple(utility(inst, alloc, i) for i in range(2))
