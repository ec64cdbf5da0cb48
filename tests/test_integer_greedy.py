"""The integer bang-per-buck order against the Rational one it replaced.

market.max_affordable_utility sorts items on integer numerators over a
common denominator and buys whole units until the last, partial one;
tests/oracles.py keeps the greedy that sorted on Rational ratios and
bought a Rational share of every item as
fraction_max_affordable_utility. Both must return the
same utility, and is_in_demand_set must return the same report with
either one. Markets have 1-10 agents and 1-10 items, values and prices
spanning 1/10**6 to 10**6, prices that are all Python ints, and prices
proportional to one agent's values, so that agent sees tied ratios.
Budgets are zero, above the sum of the prices, exactly the bundle's
cost, or drawn. Bundles are drawn shares or the greedy's own choice of
whole items, so bundles in and out of the demand set both occur. The
explicit examples pin orders that a truncated or unscaled integer key
gets wrong.
"""

from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceub import market
from ceub.market import bundle_cost, is_in_demand_set, max_affordable_utility, validate_instance
from ceub.rationals import rat

from oracles import fraction_max_affordable_utility

TINY, HUGE = rat(1, 10**6), rat(10**6)
NUMBERS = tuple(rat(v) for v in ("1", "2", "3", "1/2", "1/3", "2/3", "3/2", "7/5")) + (TINY, HUGE)
SHARES = tuple(rat(v) for v in ("0", "1", "1/2", "1/3"))
BUDGETS = ("zero", "above", "spend", "drawn")

# Derandomized and without an example database: the same draws on every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def ratio_order(values, prices):
    """Items by decreasing v/p, ties by ascending index, on Rationals."""
    return sorted(range(len(values)), key=lambda j: (-(rat(values[j]) / rat(prices[j])), j))


@st.composite
def markets(draw):
    """(values, prices, budgets, bundles) for one market."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    number = st.sampled_from(NUMBERS)
    values = [[draw(number) for _ in range(m)] for _ in range(n)]
    kind = draw(st.sampled_from(("rational", "int", "tied")))
    if kind == "int":
        prices = tuple(draw(st.integers(1, 5)) for _ in range(m))
    elif kind == "tied":
        row = values[draw(st.integers(0, n - 1))]
        prices = tuple(v * draw(st.sampled_from((1, 2))) for v in row)
    else:
        prices = tuple(draw(number) for _ in range(m))
    budgets, bundles = [], []
    for i in range(n):
        if draw(st.booleans()):
            bundle = tuple(draw(st.sampled_from(SHARES)) for _ in range(m))
        else:
            bought = set(ratio_order(values[i], prices)[: draw(st.integers(0, m))])
            bundle = tuple(rat(int(j in bought)) for j in range(m))
        budget = draw(st.sampled_from(BUDGETS))
        if budget == "zero":
            budgets.append(0)
        elif budget == "above":
            budgets.append(sum(prices) + draw(st.sampled_from((TINY, rat(1)))))
        elif budget == "spend":
            budgets.append(bundle_cost(bundle, prices))
        else:
            budgets.append(draw(number))
        bundles.append(bundle)
    return values, prices, budgets, bundles


def test_integer_order_matches_the_fraction_greedy():
    seen = set()

    @PROPERTY
    @given(markets())
    # floor(v/p) is 0 for both items; the better one has the higher index
    @example(([[rat(1, 3), rat(1, 2)]], (1, 1), [1], [(rat(0), rat(1))]))
    # equal numerators vn*pd = 1, ratios 1/2 and 1: unscaled keys tie
    @example(([[rat(1, 2), rat(1)]], (1, 1), [1], [(rat(0), rat(1))]))
    # ratios 10**-6 against 10**6, with the better item last
    @example(([[TINY, HUGE]], (HUGE, rat(1)), [1], [(rat(0), rat(1, 10**6))]))
    # int prices, a zero budget and a budget above the sum of the prices
    @example(([[rat(4), rat(1)], [rat(1), rat(4)]], (2, 1), [0, 4], [(0, 0), (1, 1)]))
    def check(market_data):
        values, prices, budgets, bundles = market_data
        inst = validate_instance(values)
        for i, (budget, bundle) in enumerate(zip(budgets, bundles)):
            got = max_affordable_utility(inst, prices, budget, i)
            assert got == fraction_max_affordable_utility(inst, prices, budget, i)
            report = is_in_demand_set(inst, prices, budget, i, bundle)
            with patch.object(market, "max_affordable_utility", fraction_max_affordable_utility):
                assert report == is_in_demand_set(inst, prices, budget, i, bundle)
            seen.add(report.in_demand_set)

    check()
    assert seen == {True, False}
