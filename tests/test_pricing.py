"""Anchored tree pricing: decomposition, propagation, budgets, invariants.

Fixed examples are hand-priced; the invariant block runs on generated
Pareto-optimal forests because only those must satisfy the within-tree
demand conditions. The differential block holds price_forest's one walk
per tree to the two-walk route it replaced, kept in oracles.
"""

import dataclasses
import random

import pytest

from ceub.errors import CeubError, NotAForest, OrphanItem
from ceub.generators import GenConfig, gen_instance, gen_pareto_allocation, gen_structured_instance
from ceub.graphs import build_graph, make_cycle_free
from ceub.market import make_allocation, utility, validate_instance
from ceub.pricing import ForestDecomposition, price_forest
from ceub.rationals import ZERO, rat

from oracles import bundle_cost, price_tree, two_walk_price_forest
from test_acceptance import corpus

HALF = rat(1, 2)


def test_toy_prices_and_budgets():
    inst = validate_instance([[1], [99]])
    alloc = make_allocation([[rat(99, 100)], [rat(1, 100)]])
    decomp, pricing = price_forest(inst, alloc)
    assert decomp.tree_count == 1
    assert pricing.prices == (rat(1),)
    assert pricing.budgets == (rat(99, 100), rat(1, 100))
    assert pricing.utilities == (rat(99, 100), rat(99, 100))


def test_path_propagation():
    # agent0 - itemA - agent1 - itemB: anchoring at agent0 prices A at 2;
    # agent1 is indifferent at rate 2/3, so B lands at 6 * 2/3 = 4.
    inst = validate_instance([[2, 1], [3, 6]])
    alloc = make_allocation([[HALF, 0], [HALF, 1]])
    decomp, pricing = price_forest(inst, alloc)
    assert decomp.tree_count == 1
    assert pricing.prices == (rat(2), rat(4))
    assert pricing.budgets == (rat(1), rat(5))


def test_star_prices_at_face_value():
    inst = validate_instance([[5, 7]])
    alloc = make_allocation([[1, 1]])
    _, pricing = price_forest(inst, alloc)
    assert pricing.prices == (rat(5), rat(7))
    assert pricing.budgets == (rat(12),)


def test_empty_handed_agent_is_a_degenerate_tree():
    inst = validate_instance([[1, 1], [1, 1]])
    alloc = make_allocation([[1, 1], [0, 0]])
    decomp, pricing = price_forest(inst, alloc)
    assert decomp.tree_count == 2
    assert decomp.tree_of_agent == (0, 1)
    assert not decomp.is_degenerate(0)
    assert decomp.is_degenerate(1)
    assert decomp.tree_items[1] == ()
    assert pricing.budgets[1] == 0


def test_tree_numbering_follows_lowest_agent():
    # two separate trees: {agent0, agent2, item1} and {agent1, item0}
    inst = validate_instance([[1, 2], [3, 4], [5, 6]])
    alloc = make_allocation([[0, HALF], [1, 0], [0, HALF]])
    decomp, _ = price_forest(inst, alloc)
    assert decomp.tree_count == 2
    assert decomp.tree_of_agent == (0, 1, 0)
    assert decomp.tree_of_item == (1, 0)
    assert decomp.roots == (0, 1)
    assert decomp.tree_agents == ((0, 2), (1,))
    assert decomp.tree_items == ((1,), (0,))


def test_decompose_rejects_cycles():
    inst = validate_instance([[1, 1], [1, 1]])
    alloc = make_allocation([[HALF, HALF], [HALF, HALF]])
    with pytest.raises(NotAForest):
        price_forest(inst, alloc)


def test_decompose_rejects_orphan_items():
    inst = validate_instance([[1]])
    alloc = make_allocation([[0]])
    with pytest.raises(OrphanItem) as info:
        price_forest(inst, alloc)
    assert info.value.item == 0


def _generated_forest(seed):
    rng = random.Random(seed)
    cfg = GenConfig(seed=seed, agents=rng.randrange(2, 7), items=rng.randrange(2, 7))
    inst = gen_instance(cfg)
    alloc = gen_pareto_allocation(inst, seed, mode="a")
    return inst, make_cycle_free(inst, alloc)


def test_pricing_invariants_on_generated_forests():
    for seed in range(40):
        inst, alloc = _generated_forest(seed)
        g = build_graph(inst, alloc)
        decomp, pricing = price_forest(inst, alloc)
        n, m = inst.agent_count, inst.item_count

        for i in range(n):
            held = g.agent_items[i]
            if not held:
                assert pricing.budgets[i] == 0
                continue
            rate = inst.values[i][held[0]] / pricing.prices[held[0]]
            for j in held[1:]:
                # indifference: equal bang per buck across held items
                assert inst.values[i][j] / pricing.prices[j] == rate
            for j in range(m):
                if decomp.tree_of_item[j] == decomp.tree_of_agent[i]:
                    # no within-tree deviation on Pareto-optimal input
                    assert inst.values[i][j] / pricing.prices[j] <= rate

        for tree in range(decomp.tree_count):
            spent = sum((pricing.budgets[i] for i in decomp.tree_agents[tree]), ZERO)
            supply = sum((pricing.prices[j] for j in decomp.tree_items[tree]), ZERO)
            assert spent == supply

        assert pricing.budgets == tuple(bundle_cost(row, pricing.prices) for row in alloc.x)
        assert pricing.utilities == tuple(utility(inst, alloc, i) for i in range(n))


def test_root_choice_only_rescales():
    # The reference's price_tree, re-rooted at any agent of a tree, gives
    # price_forest's prices for that tree times one positive factor.
    for seed in (3, 11, 19):
        inst, alloc = _generated_forest(seed)
        g = build_graph(inst, alloc)
        decomp, pricing = price_forest(inst, alloc)
        for tree in range(decomp.tree_count):
            if decomp.is_degenerate(tree):
                continue
            base = {j: pricing.prices[j] for j in decomp.tree_items[tree]}
            for other_root in decomp.tree_agents[tree]:
                roots = list(decomp.roots)
                roots[tree] = other_root
                moved = dataclasses.replace(decomp, roots=tuple(roots))
                rebased = price_tree(inst, g, moved, tree)
                assert set(rebased) == set(base)
                factors = {rebased[j] / base[j] for j in base}
                assert len(factors) == 1
                assert factors.pop() > 0


# ------------------------------------------------------------ differential


def outcome(route, inst, alloc):
    """What a pricing route returns, or the type and message it raises."""
    try:
        return route(inst, alloc)
    except CeubError as exc:
        return type(exc), str(exc)


def assert_same_as_two_walks(inst, alloc):
    ours = outcome(price_forest, inst, alloc)
    assert ours == outcome(two_walk_price_forest, inst, alloc)
    return ours


def test_one_walk_matches_two_walks_on_the_acceptance_corpus():
    # Before cycle removal many mode-"b" allocations are cyclic, so the
    # raw pairs compare the NotAForest messages, edge counts included.
    cyclic = 0
    for inst, alloc in corpus():
        cyclic += assert_same_as_two_walks(inst, alloc)[0] is NotAForest
        decomp, _ = assert_same_as_two_walks(inst, make_cycle_free(inst, alloc))
        assert isinstance(decomp, ForestDecomposition)
    assert cyclic > 0


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(2, 7))
def test_one_walk_matches_two_walks_on_mode_b_markets(n, m):
    for seed in range(4):
        inst = gen_structured_instance(GenConfig(seed=seed, agents=n, items=m))
        alloc = make_cycle_free(inst, gen_pareto_allocation(inst, seed, mode="b"))
        decomp, _ = assert_same_as_two_walks(inst, alloc)
        assert isinstance(decomp, ForestDecomposition)


@pytest.mark.parametrize(
    "values, shares, error",
    [
        ([[1, 1], [1, 1]], [[1, 1], [0, 0]], None),  # agent 1 holds nothing
        ([[1, 2], [3, 4], [5, 6]], [[0, 0], [1, 1], [0, 0]], None),  # two empty hands
        ([[1, 1]], [[1, 0]], OrphanItem),
        ([[1, 2, 3], [4, 5, 6]], [[1, 0, 0], [0, 0, 1]], OrphanItem),
        ([[1, 1], [1, 1]], [[HALF, HALF], [HALF, HALF]], NotAForest),
        (
            [[1, 2, 3]] * 4,
            [[HALF, 0, 0], [HALF, 0, 0], [0, HALF, HALF], [0, HALF, HALF]],
            NotAForest,
        ),
    ],
    ids=[
        "degenerate agent",
        "degenerate agents",
        "orphan item",
        "middle orphan",
        "2x2 cycle",
        "cycle in the second tree",
    ],
)
def test_one_walk_matches_two_walks_on_hand_cases(values, shares, error):
    got = assert_same_as_two_walks(validate_instance(values), make_allocation(shares))
    if error is None:
        assert isinstance(got[0], ForestDecomposition)
    else:
        assert got[0] is error
