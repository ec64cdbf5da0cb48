"""Closed forms against the linear programs they replaced.

The cross-tree multipliers (scaling.solve_multiplier_lp) and the mode-"a"
welfare vertex (generators.gen_pareto_allocation) are computed in closed
form; tests/oracles.py keeps the LPs as differential oracles. Markets are
drawn with one agent or one item, tied values from the grid {1, 2}, and
extreme ratios 10^-6 against 10^6, and both routes must give identical
exact answers, or both raise InfeasibleLP.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceub.errors import InfeasibleLP
from ceub.generators import (
    DEFAULT_GRID,
    GenConfig,
    gen_pareto_allocation,
    gen_structured_instance,
)
from ceub.graphs import make_cycle_free
from ceub.market import make_allocation, validate_instance
from ceub.rationals import rat
from ceub.scaling import build_gain_state, solve_multiplier_lp

from oracles import multiplier_lp, welfare_lp_allocation

TIES = (rat(1), rat(2))
EXTREME = (rat(1, 10**6), rat(1), rat(10**6))
GRIDS = (TIES, EXTREME, DEFAULT_GRID)

# Derandomized and without an example database: the same draws on every run.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def integral_markets(draw):
    """Values from one grid, and an owner per item: a cycle-free
    allocation that may leave agents empty. Owners are either arbitrary,
    so mostly dominated, or maximizers of a weighted welfare sum, so
    Pareto optimal and feasible for the multipliers."""
    grid = draw(st.sampled_from(GRIDS))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    values = [[draw(st.sampled_from(grid)) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        owners = [draw(st.integers(0, n - 1)) for _ in range(m)]
    else:
        weights = [draw(st.sampled_from(grid)) for _ in range(n)]
        owners = [max(range(n), key=lambda i: weights[i] * values[i][j]) for j in range(m)]
    return values, owners


def both_routes(state):
    """(alpha, lambda) from each route, or InfeasibleLP from each."""
    out = []
    for solve in (solve_multiplier_lp, multiplier_lp):
        try:
            out.append(solve(state))
        except InfeasibleLP:
            out.append(InfeasibleLP)
    return out


@PROPERTY
@given(integral_markets())
@example(([[rat(1)]], [0]))
@example(([[rat(1), rat(2), rat(3)]], [0, 0, 0]))
@example(([[rat(1)], [rat(2)], [rat(3)]], [2]))
@example(([[rat(1, 10**6), rat(10**6)], [rat(10**6), rat(1, 10**6)]], [0, 1]))
def test_multipliers_match_the_lp(market):
    values, owners = market
    rows = [[rat(int(owners[j] == i)) for j in range(len(owners))] for i in range(len(values))]
    state = build_gain_state(validate_instance(values), make_allocation(rows))
    closed, lp = both_routes(state)
    assert closed == lp


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 4), m=st.integers(1, 4))
def test_multipliers_match_the_lp_on_shared_items(seed, n, m):
    # Mode "b" shares items, so after cycle removal trees hold several
    # agents and prices are propagated across them.
    inst = gen_structured_instance(GenConfig(seed=seed, agents=n, items=m))
    y = gen_pareto_allocation(inst, seed, mode="b")
    state = build_gain_state(inst, make_cycle_free(inst, y))
    closed, lp = both_routes(state)
    assert closed == lp


def test_positive_cross_tree_cycle_is_infeasible_on_both_routes():
    # Agent i holds item i. Each pair of trees is envy-free on its own
    # (ratios 2 and 1/10), but the three-tree cycle multiplies to 8.
    tenth = rat(1, 10)
    inst = validate_instance([[1, 2, tenth], [tenth, 1, 2], [2, tenth, 1]])
    alloc = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    state = build_gain_state(inst, alloc)
    with pytest.raises(InfeasibleLP, match=r"trees \[\d, \d, \d\]"):
        solve_multiplier_lp(state)
    with pytest.raises(InfeasibleLP):
        multiplier_lp(state)


@PROPERTY
@given(
    grid=st.sampled_from(GRIDS),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
    data=st.data(),
)
def test_welfare_vertex_matches_the_lp(grid, n, m, seed, data):
    values = [[data.draw(st.sampled_from(grid)) for _ in range(m)] for _ in range(n)]
    inst = validate_instance(values)
    assert gen_pareto_allocation(inst, seed, mode="a").x == welfare_lp_allocation(inst, seed).x
