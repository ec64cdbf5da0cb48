"""The simplex's pivot rule: the hybrid attempt, its certificate, the
Bland re-solve, the pivot cap, and which rule each caller runs first.

ceub.simplex._solve runs the hybrid rule (Dantzig's largest reduced
cost, Bland's column after a degenerate pivot) and keeps its optimum
only when every nonbasic column has a strictly negative reduced cost;
otherwise it starts again under Bland's rule. Either way the vertex is
Bland's, so every max-min document is byte for byte the one Bland's rule
alone writes. Here: those bytes against a forced Bland run, a program
whose optimum is not unique, the certificate recomputed on Rationals
from the returned basis, Beale's cycling example, the cap on pivots, and
the first rule of each caller: maxmin_lp tries the hybrid rule first,
and mode-"b" generation, whose values are built to leave
utility-neutral trades, asks for Bland's rule first."""

from unittest.mock import patch

import pytest

from ceub import maxmin, simplex
from ceub.errors import InternalVerificationFailed
from ceub.formats import MaxminDoc, dump_maxmin
from ceub.generators import GenConfig, gen_instance, gen_pareto_allocation, gen_structured_instance
from ceub.maxmin import maxmin_lp
from ceub.rationals import ZERO, Rational, rat

from oracles import (
    BLAND,
    HYBRID,
    LESS,
    OPTIMAL,
    core_solve_lp,
    fraction_solve_lp,
    gauss_solve,
    make_problem,
    row_solve_lp,
)

GENERATORS = (gen_instance, gen_structured_instance)


def solve_call(inst, run=maxmin_lp):
    """The arguments and the result of run(inst)'s one call of
    simplex._solve."""
    calls = []
    solve = simplex._solve

    def recorded(*args):
        calls.append((args, solve(*args)))
        return calls[-1][1]

    with patch.object(simplex, "_solve", recorded):
        run(inst)
    (call,) = calls
    return call


def maxmin_bytes(result):
    return dump_maxmin(MaxminDoc(result.lam, result.allocation.x, result.prices, result.budgets))


def assert_bland_bytes(inst):
    assert maxmin_bytes(maxmin_lp(inst)) == maxmin_bytes(maxmin._maxmin_lp(inst, True))


@pytest.mark.parametrize("generator", GENERATORS)
def test_documents_are_the_bytes_of_blands_rule(generator):
    for seed in range(3):
        for n in range(1, 9):
            for m in range(1, 9):
                assert_bland_bytes(generator(GenConfig(seed=seed, agents=n, items=m)))


@pytest.mark.parametrize("generator", GENERATORS)
def test_twelve_by_twelve_documents_are_the_bytes_of_blands_rule(generator):
    assert_bland_bytes(generator(GenConfig(seed=12, agents=12, items=12)))


# max x1 + 2 x2 s.t. x1 + 2 x2 <= 2: every point of the edge from (2, 0)
# to (0, 1) is optimal. Dantzig's column is x2, and its vertex (0, 1)
# leaves x1 at reduced cost 0; Bland's rule takes x1 and stops at (2, 0).
TIED = make_problem([1, 2], [((1, 2), LESS, 2)])


def test_a_zero_reduced_cost_resolves_under_blands_rule():
    path = []
    pivot = simplex._pivot

    def recorded(*args):
        path.append((args[1][args[2]], args[3]))
        return pivot(*args)

    columns, b, cost = [[(0, 1)], [(0, 2)]], [2], [1, 2]
    with patch.object(simplex, "_pivot", recorded):
        hybrid = simplex._solve(columns, b, cost)
    assert path == [(2, 1), (2, 0)]
    bland = simplex._solve(columns, b, cost, True)
    assert (hybrid[1], bland[1]) == ((1, 1), (0, 1))
    assert hybrid[0] == bland[0] == OPTIMAL
    assert hybrid[2:] == bland[2:]
    solution = core_solve_lp(TIED, HYBRID)
    assert solution.x == (2, 0)
    assert solution == row_solve_lp(TIED, HYBRID)
    assert solution.hybrid == 1 and solution.pivots == (0, 1)
    assert solution.x == core_solve_lp(TIED, BLAND).x == fraction_solve_lp(TIED, HYBRID).x


def reduced_costs(columns, cost, basis):
    """c_j − y·A_j for every column, structural and slack, on Rationals:
    y solves yB = c_B for the basis's columns."""
    m = len(basis)
    dense = [[Rational(0)] * m for _ in columns]
    for j, column in enumerate(columns):
        for r, v in column:
            dense[j][r] = Rational(v)
    y = gauss_solve([dense[bv] for bv in basis], [cost[bv] for bv in basis])
    return [c - sum((a * z for a, z in zip(col, y)), ZERO) for col, c in zip(dense, cost)]


@pytest.mark.parametrize("generator", GENERATORS)
def test_the_certificate_holds_on_rationals(generator):
    # Each optimum the hybrid rule keeps has a negative reduced cost in
    # every nonbasic column, recomputed from its basis alone, and its
    # levels over D are B⁻¹b.
    certified = 0
    for seed in range(3):
        for n in range(1, 7):
            for m in range(1, 7):
                inst = generator(GenConfig(seed=seed, agents=n, items=m))
                (columns, b, cost, _), _ = solve_call(inst)
                status, pivots, basis, levels, D, _, _ = simplex._solve(columns, b, cost)
                assert status == OPTIMAL
                if pivots[1]:
                    continue
                certified += 1
                everything = columns + [[(r, 1)] for r in range(n + m)]
                d = reduced_costs(everything, cost + [0] * (n + m), basis)
                assert all(d[j] < 0 for j in range(len(everything)) if j not in basis)
                B = [[Rational(0)] * len(basis) for _ in basis]
                for k, bv in enumerate(basis):
                    for r, v in everything[bv]:
                        B[r][k] = Rational(v)
                assert gauss_solve(B, b) == tuple(Rational(level, D) for level in levels)
    assert certified >= 30


# Beale (1955) built this program, degenerate at the origin, so that
# Dantzig's rule cycles on its Rational tableau; the optimum is
# x = (1/25, 0, 1, 0).
BEALE = make_problem(
    [rat(3, 4), -150, rat(1, 50), -6],
    [
        ((rat(1, 4), -60, rat(-1, 25), 9), LESS, 0),
        ((rat(1, 2), -90, rat(-1, 50), 3), LESS, 0),
        ((0, 0, 1, 0), LESS, 1),
    ],
)


@pytest.mark.parametrize("rule", (BLAND, HYBRID))
def test_beales_example_reaches_its_optimum(rule):
    solution = core_solve_lp(BEALE, rule)
    assert solution.status == OPTIMAL
    assert solution.x == (rat(1, 25), 0, 1, 0)
    assert solution.objective_value == rat(1, 20)


@pytest.mark.parametrize("first", (False, True))
def test_a_solver_that_makes_no_progress_hits_the_pivot_cap(first):
    # With _pivot a no-op nothing changes, so the same column enters
    # forever; 2 rows and 4 columns allow 2·C(4, 2) = 12 pivots.
    calls = []

    def stuck(cols, basis, r, c, alpha, D, *rest):
        calls.append(c)
        return D

    with (
        patch.object(simplex, "_pivot", stuck),
        pytest.raises(InternalVerificationFailed, match="12 pivots"),
    ):
        simplex._solve([[(0, 1)], [(1, 1)]], [1, 1], [1, 1], first)
    assert len(calls) == 12


@pytest.mark.parametrize(
    "generator, first", ((gen_instance, False), (gen_structured_instance, False))
)
def test_each_generator_takes_the_expected_first_rule(generator, first):
    args, (_, pivots, *_) = solve_call(generator(GenConfig(seed=1, agents=6, items=6)))
    assert args[3] is first
    assert (pivots[0] == 0) is first


@pytest.mark.parametrize("generator", GENERATORS)
def test_mode_b_generation_takes_blands_rule_first(generator):
    inst = generator(GenConfig(seed=1, agents=6, items=6))
    args, (_, pivots, *_) = solve_call(inst, lambda inst: gen_pareto_allocation(inst, 1, "b"))
    assert args[3] is True
    assert pivots[0] == 0


def test_random_values_at_24_by_24_are_certified_under_the_hybrid_rule():
    # Random values at n = m = 24 leave a unique optimum: the hybrid
    # attempt certifies it in about a hundred pivots, and Bland's rule,
    # which takes some two thousand here, never runs.
    args, (status, pivots, *_) = solve_call(gen_instance(GenConfig(seed=0, agents=24, items=24)))
    assert args[3] is False
    assert status == OPTIMAL
    assert pivots[1] == 0
