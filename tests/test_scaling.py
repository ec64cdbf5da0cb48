"""Cross-tree scaling: gain oracle, fixed-point map, multiplier LP, pipeline.

The pipeline under test turns a Pareto-optimal allocation into anonymous
prices and budgets that support it; every stage is exercised both on
hand-sized fixtures and on generated instances. The gain oracle and the
fixed-point map live in tests/oracles.py, as an independent check of the
closed-form multipliers.
"""

import logging
import random
from dataclasses import replace

import pytest

from ceub import graphs, market, scaling
from ceub.errors import InfeasibleLP, InternalVerificationFailed, NotParetoOptimal
from ceub.generators import GenConfig, gen_instance, gen_pareto_allocation, gen_structured_instance
from ceub.graphs import find_cycle
from ceub.market import (
    is_in_demand_set,
    make_allocation,
    validate_instance,
    verify_equilibrium,
)
from ceub.pricing import price_forest
from ceub.rationals import ZERO, rat
from ceub.scaling import solve_multiplier_lp, support_pipeline, support_with_details

from oracles import (
    Priced,
    SameTree,
    build_gain_table,
    bundle_cost,
    fixed_point_map,
    gain_ij,
    priced,
    v_min,
)

HALF = rat(1, 2)


def diagonal(values):
    inst = validate_instance(values)
    alloc = make_allocation([[1, 0], [0, 1]])
    return inst, alloc


def toy():
    inst = validate_instance([[1], [99]])
    alloc = make_allocation([[rat(99, 100)], [rat(1, 100)]])
    return inst, alloc


# ------------------------------------------------------------- gain oracle


def test_gain_cases_on_mismatched_diagonal():
    # own item worth 1, the other worth 3: every cross gain hits the cap
    inst, alloc = diagonal([[1, 3], [3, 1]])
    state = priced(inst, alloc)
    assert v_min(inst) == HALF

    # scaled price below scaled budget: the whole item is affordable
    assert gain_ij(*state, (1, 0), 0, 1) == HALF
    # zero multiplier on the agent's own tree kills her budget
    assert gain_ij(*state, (0, 1), 0, 1) == 0
    # equal multipliers: partial purchase, raw gain 2 capped to 1/2
    assert gain_ij(*state, (HALF, HALF), 0, 1) == HALF


def test_gain_requires_cross_tree_pairs():
    state = priced(*toy())
    with pytest.raises(SameTree):
        gain_ij(*state, (rat(1),), 0, 0)


def test_gain_undefined_for_unfunded_agents():
    inst = validate_instance([[1, 1], [1, 1]])
    alloc = make_allocation([[1, 1], [0, 0]])
    state = priced(inst, alloc)
    with pytest.raises(ValueError):
        gain_ij(*state, (1, 0), 1, 0)


def test_gain_table_shape_and_caps():
    inst, alloc = diagonal([[1, 3], [3, 1]])
    state = priced(inst, alloc)
    table = build_gain_table(*state, (HALF, HALF))
    assert table.gain_ij[0][0] == 0  # same tree
    assert table.gain_ij[0][1] == HALF
    assert table.gain_j == (HALF, HALF)
    assert table.gain_T == (HALF, HALF)
    assert not table.all_zero
    for row in table.gain_ij:
        for g in row:
            assert 0 <= g <= v_min(inst)


# --------------------------------------------------------- fixed-point map


def test_fixed_point_map_stays_on_simplex():
    rng = random.Random(11)
    for seed in range(20):
        cfg = GenConfig(seed=seed, agents=rng.randrange(2, 6), items=rng.randrange(2, 6))
        inst = gen_instance(cfg)
        y = gen_pareto_allocation(inst, seed)
        details = support_with_details(inst, y)
        decomp = details.equilibrium.decomposition
        count = decomp.tree_count
        funded = [t for t in range(count) if not decomp.is_degenerate(t)]
        ticks = [rng.randrange(0, 5) for _ in funded]
        total = sum(ticks) or 1
        alpha = [ZERO] * count
        for t, w in zip(funded, ticks):
            alpha[t] = rat(w, total)
        if sum(alpha, ZERO) != 1:
            alpha[funded[0]] += 1 - sum(alpha, ZERO)
        image = fixed_point_map(inst, decomp, details.pricing, tuple(alpha))
        assert sum(image, ZERO) == 1
        assert all(a >= 0 for a in image)
        for t in range(count):
            if decomp.is_degenerate(t):
                assert image[t] == 0


def test_fixed_point_with_nonzero_gains():
    # the unsupportable diagonal still fixes (1/2, 1/2): both trees gain
    # the same capped amount, so the normalization cancels
    inst, alloc = diagonal([[1, 3], [3, 1]])
    state = priced(inst, alloc)
    assert fixed_point_map(*state, (HALF, HALF)) == (HALF, HALF)
    assert not build_gain_table(*state, (HALF, HALF)).all_zero


def test_alpha_validation():
    inst, alloc = diagonal([[3, 1], [1, 3]])
    state = priced(inst, alloc)
    with pytest.raises(ValueError):
        fixed_point_map(*state, (rat(1),))
    with pytest.raises(ValueError):
        fixed_point_map(*state, (rat(2), rat(-1)))
    with pytest.raises(ValueError):
        fixed_point_map(*state, (HALF, rat(1, 3)))

    lopsided = priced(validate_instance([[1, 1], [1, 1]]), make_allocation([[1, 1], [0, 0]]))
    with pytest.raises(ValueError):
        fixed_point_map(*lopsided, (HALF, HALF))  # tree 1 is degenerate


# ------------------------------------------------------------ multiplier LP


def test_single_tree_is_trivially_scaled():
    alpha, lam = solve_multiplier_lp(*priced(*toy()))
    assert alpha == (rat(1),)
    assert lam == 1


def test_matched_diagonal_splits_evenly():
    inst, alloc = diagonal([[3, 1], [1, 3]])
    state = priced(inst, alloc)
    alpha, lam = solve_multiplier_lp(*state)
    assert alpha == (HALF, HALF)
    assert lam == HALF
    table = build_gain_table(*state, alpha)
    assert table.all_zero
    assert fixed_point_map(*state, alpha) == alpha


def test_mismatched_diagonal_is_infeasible():
    inst, alloc = diagonal([[1, 3], [3, 1]])
    with pytest.raises(InfeasibleLP):
        solve_multiplier_lp(*priced(inst, alloc))


def test_infeasible_lp_signals_not_pareto_optimal():
    assert issubclass(InfeasibleLP, NotParetoOptimal)


def test_identical_trees_split_evenly():
    inst, alloc = diagonal([[1, 1], [1, 1]])
    alpha, lam = solve_multiplier_lp(*priced(inst, alloc))
    assert alpha == (HALF, HALF)
    assert lam == HALF


def test_degenerate_trees_are_pinned_at_zero():
    inst = validate_instance([[1, 1], [1, 1]])
    alloc = make_allocation([[1, 1], [0, 0]])
    alpha, lam = solve_multiplier_lp(*priced(inst, alloc))
    assert alpha == (rat(1), ZERO)
    assert lam == 1


def test_multipliers_log_one_info_line(caplog):
    inst, alloc = diagonal([[3, 1], [1, 3]])
    state = priced(inst, alloc)
    with caplog.at_level(logging.INFO, logger="ceub.scaling"):
        solve_multiplier_lp(*state)
    assert [r.getMessage() for r in caplog.records if r.name == "ceub.scaling"] == [
        "multipliers: 2 trees, 2 pair constraints, lambda=1/2"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ceub.scaling"):
        solve_multiplier_lp(*state)
    assert not [r for r in caplog.records if r.name == "ceub.scaling"]


# ------------------------------------------------------- scaling the trees


def test_assemble_toy_equilibrium():
    inst, alloc = toy()
    eq = support_with_details(inst, alloc).equilibrium
    assert eq.prices == (rat(1),)
    assert eq.budgets == (rat(99, 100), rat(1, 100))
    assert eq.alpha == (rat(1),)
    report = verify_equilibrium(inst, eq.allocation, eq.prices, eq.budgets)
    assert report.supported and report.items_fully_allocated and report.budgets_exhausted


def test_assemble_scales_prices_and_budgets():
    inst, alloc = diagonal([[3, 1], [1, 3]])
    details = support_with_details(inst, alloc)
    eq = details.equilibrium
    assert eq.alpha == (HALF, HALF)
    assert details.pricing.prices == (rat(3), rat(3))
    assert eq.prices == (rat(3, 2), rat(3, 2))
    assert eq.budgets == (rat(3, 2), rat(3, 2))


# ----------------------------------------------------------- full pipeline


def test_support_pipeline_toy():
    inst = validate_instance([[1], [99]])
    y = make_allocation([[rat(99, 100)], [rat(1, 100)]])
    eq = support_pipeline(inst, y)
    assert eq.prices == (rat(1),)
    assert eq.budgets == (rat(99, 100), rat(1, 100))


def test_support_pipeline_supports_original_and_transform():
    # equal valuations, everything shared: the cycle-free transform is a
    # permutation, and the prices support both matrices
    inst = validate_instance([[1, 1], [1, 1]])
    y = make_allocation([[HALF, HALF], [HALF, HALF]])
    details = support_with_details(inst, y)
    eq = details.equilibrium
    assert find_cycle(eq.allocation.graph) is None
    for alloc in (y, eq.allocation):
        report = verify_equilibrium(inst, alloc, eq.prices, eq.budgets)
        assert report.supported
        assert report.budgets_exhausted
    for i in range(2):
        assert bundle_cost(y.x[i], eq.prices) == eq.budgets[i]


def test_exchange_graph_runs_only_on_failure(monkeypatch):
    calls = []
    real = scaling.verify_pareto_optimal

    def counted(inst, y):
        calls.append(y)
        return real(inst, y)

    monkeypatch.setattr(scaling, "verify_pareto_optimal", counted)
    inst = validate_instance([[2, 1], [1, 2]])
    support_with_details(inst, make_allocation([[1, 0], [0, 1]]))
    assert calls == []
    with pytest.raises(NotParetoOptimal):
        support_with_details(inst, make_allocation([[HALF, HALF], [HALF, HALF]]))
    assert len(calls) == 1


def test_forest_input_is_checked_once(monkeypatch):
    calls = []
    real = scaling.verify_equilibrium

    def counted(inst, alloc, prices, budgets):
        calls.append(alloc)
        return real(inst, alloc, prices, budgets)

    monkeypatch.setattr(scaling, "verify_equilibrium", counted)
    inst = validate_instance([[2, 1], [1, 2]])
    y = make_allocation([[1, 0], [0, 1]])
    details = support_with_details(inst, y)
    eq = details.equilibrium
    assert details.equilibrium.allocation is y
    assert calls == [y]
    assert details.report == real(inst, y, eq.prices, eq.budgets)

    # A Pareto-optimal input with a cycle: only y meets the oracle; x' is
    # checked against y's report.
    calls.clear()
    inst = validate_instance([[1, 1], [1, 1]])
    y = make_allocation([[HALF, HALF], [HALF, HALF]])
    details = support_with_details(inst, y)
    eq = details.equilibrium
    assert details.equilibrium.allocation is not y
    assert calls == [y]
    assert details.report == real(inst, y, eq.prices, eq.budgets)


def test_transform_is_checked_against_the_report_on_y(monkeypatch):
    # y's report credits agent 0 with one more unit of utility than x'
    # gives it, so x' is no longer demanded and the pipeline must say so.
    real = scaling.verify_equilibrium

    def inflated(inst, alloc, prices, budgets):
        report = real(inst, alloc, prices, budgets)
        first = report.reports[0]
        bumped = replace(
            first,
            achieved_utility=first.achieved_utility + 1,
            optimal_utility=first.optimal_utility + 1,
        )
        return replace(report, reports=(bumped,) + report.reports[1:])

    monkeypatch.setattr(scaling, "verify_equilibrium", inflated)
    inst = validate_instance([[1, 1], [1, 1]])
    y = make_allocation([[HALF, HALF], [HALF, HALF]])
    with pytest.raises(InternalVerificationFailed, match="cycle-free allocation"):
        support_with_details(inst, y)


def test_forest_input_is_not_checked_twice(monkeypatch):
    # y is already a forest, so x' is y and y's report is its check.
    def recheck(*args):
        raise AssertionError("the cycle-free allocation was checked again")

    monkeypatch.setattr(scaling, "_dot", recheck)
    inst = validate_instance([[2, 1], [1, 2]])
    y = make_allocation([[1, 0], [0, 1]])
    details = support_with_details(inst, y)
    assert details.equilibrium.allocation is y
    assert details.report.supported


def test_support_pipeline_rejects_dominated_input():
    inst = validate_instance([[2, 1], [1, 2]])
    y = make_allocation([[HALF, HALF], [HALF, HALF]])
    with pytest.raises(NotParetoOptimal) as info:
        support_pipeline(inst, y)
    verdict = info.value.verdict
    assert verdict is not None
    assert verdict.certificate.improvement_ratio == 4


def test_support_pipeline_rejects_partial_allocation():
    inst = validate_instance([[1], [99]])
    y = make_allocation([[HALF], [rat(1, 4)]])
    with pytest.raises(NotParetoOptimal) as info:
        support_pipeline(inst, y)
    assert info.value.verdict.unallocated_item == 0


def test_pipeline_details_expose_consistent_intermediates():
    rng = random.Random(5)
    for seed in range(25):
        cfg = GenConfig(seed=seed, agents=rng.randrange(2, 7), items=rng.randrange(2, 7))
        inst = gen_instance(cfg)
        y = gen_pareto_allocation(inst, seed, mode="a" if seed % 2 else "b")
        details = support_with_details(inst, y)
        eq = details.equilibrium
        state = Priced(inst, eq.decomposition, details.pricing)

        assert details.lam > 0
        assert sum(eq.alpha, ZERO) == 1
        assert (eq.decomposition, details.pricing) == price_forest(inst, eq.allocation)
        assert build_gain_table(*state, eq.alpha).all_zero
        assert fixed_point_map(*state, eq.alpha) == eq.alpha
        assert find_cycle(eq.allocation.graph) is None

        n = inst.agent_count
        for i in range(n):
            assert bundle_cost(y.x[i], eq.prices) == eq.budgets[i]
            report = is_in_demand_set(inst, eq.prices, eq.budgets[i], i, y.x[i])
            assert report.in_demand_set
        full = verify_equilibrium(inst, eq.allocation, eq.prices, eq.budgets)
        assert full.supported and full.items_fully_allocated and full.budgets_exhausted
        assert details.report == verify_equilibrium(inst, y, eq.prices, eq.budgets)


def test_each_graph_is_built_once_per_call(monkeypatch):
    # y arrives from make_allocation with its graph built; make_cycle_free
    # builds the graph after each elimination, and price_forest, the Pareto
    # check and the recheck of x' read the last one, G(x'), from x'.
    built = []
    eliminated = []
    real_graph, real_eliminate = market.AllocationGraph, graphs.eliminate_cycle

    def counted_graph(*args):
        built.append(args)
        return real_graph(*args)

    def counted_eliminate(*args):
        eliminated.append(args)
        return real_eliminate(*args)

    monkeypatch.setattr(market, "AllocationGraph", counted_graph)
    monkeypatch.setattr(graphs, "eliminate_cycle", counted_eliminate)
    cycles = 0
    for seed in range(12):
        cfg = GenConfig(seed=seed, agents=2 + seed % 4, items=2 + seed % 5)
        inst = gen_structured_instance(cfg)
        y = gen_pareto_allocation(inst, seed, "b")
        built.clear()
        eliminated.clear()
        support_with_details(inst, y)
        assert len(built) == len(eliminated)
        cycles += len(eliminated)
    assert cycles > 0
