"""The reference simplex the LP oracles stand on, oracles.fraction_solve_lp:
hand cases, malformed input, and the vertex-enumeration oracle."""

import random

import pytest

from ceub.rationals import ZERO, rat

from oracles import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    MalformedProblem,
    brute_force_lp,
    fraction_solve_lp,
    make_problem,
    satisfies,
)


def test_single_variable_cap():
    # max x s.t. x <= 3
    sol = fraction_solve_lp(make_problem([1], [((1,), LESS, 3)]))
    assert sol.status == OPTIMAL
    assert sol.x == (3,)
    assert sol.objective_value == 3


def test_contradictory_rows_infeasible():
    # x >= 1 and x <= 0 cannot both hold
    sol = fraction_solve_lp(make_problem([1], [((1,), GREATER, 1), ((1,), LESS, 0)]))
    assert sol.status == INFEASIBLE
    assert sol.x is None and sol.objective_value is None


def test_unbounded():
    sol = fraction_solve_lp(make_problem([1], []))
    assert sol.status == UNBOUNDED


def test_equality_row():
    sol = fraction_solve_lp(make_problem([1, 1], [((1, 1), EQUAL, 2)], upper=[2, 2]))
    assert sol.status == OPTIMAL
    assert sol.objective_value == 2


def test_negative_rhs_is_normalized():
    # -x <= -2 means x >= 2
    problem = make_problem([-1], [((-1,), LESS, -2)], upper=[5])
    sol = fraction_solve_lp(problem)
    assert sol.status == OPTIMAL
    assert sol.x == (2,)
    assert sol.objective_value == -2


def test_negative_lower_bound_shift():
    sol = fraction_solve_lp(make_problem([-1], [], lower=[-3], upper=[1]))
    assert sol.status == OPTIMAL
    assert sol.x == (-3,)
    assert sol.objective_value == 3


def test_redundant_equalities_are_dropped():
    rows = [((1, 1), EQUAL, 2), ((1, 1), EQUAL, 2), ((2, 2), EQUAL, 4)]
    sol = fraction_solve_lp(make_problem([1, 0], rows, upper=[2, 2]))
    assert sol.status == OPTIMAL
    assert sol.x == (2, 0)


def test_degenerate_vertex_terminates():
    # x = y forced by two opposing rows; the origin is a degenerate vertex.
    rows = [((1, -1), LESS, 0), ((-1, 1), LESS, 0), ((1, 1), LESS, 2)]
    sol = fraction_solve_lp(make_problem([1, 1], rows))
    assert sol.status == OPTIMAL
    assert sol.objective_value == 2


def test_fractional_data_stays_exact():
    rows = [((rat(1, 3), rat(1, 7)), LESS, rat(5, 21))]
    sol = fraction_solve_lp(make_problem([rat(2, 5), rat(1, 5)], rows, upper=[1, 1]))
    assert sol.status == OPTIMAL
    lhs = rat(1, 3) * sol.x[0] + rat(1, 7) * sol.x[1]
    assert lhs <= rat(5, 21)
    assert rat(2, 5) * sol.x[0] + rat(1, 5) * sol.x[1] == sol.objective_value


def test_tree_multiplier_program_diagonal_instance():
    # Two single-item trees where each agent values her own item at 3 and
    # the other at 1: maximize lam subject to the cross-tree envy rows.
    # Unique optimum alpha = (1/2, 1/2), lam = 1/2.
    rows = [
        ((rat(-1, 3), 1, 0), GREATER, 0),
        ((1, rat(-1, 3), 0), GREATER, 0),
        ((1, 1, 0), EQUAL, 1),
        ((1, 0, -1), GREATER, 0),
        ((0, 1, -1), GREATER, 0),
    ]
    sol = fraction_solve_lp(make_problem([0, 0, 1], rows, upper=[1, 1, 1]))
    assert sol.status == OPTIMAL
    assert sol.x == (rat(1, 2), rat(1, 2), rat(1, 2))
    assert sol.objective_value == rat(1, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_problem([], []),
        lambda: make_problem([1, 2], [((1,), LESS, 3)]),
        lambda: make_problem([1], [((1,), "<", 3)]),
        lambda: make_problem([1], [(1, LESS)]),
        lambda: make_problem([1], [], lower=[0, 0]),
        lambda: make_problem([1], [], upper=[1, 1]),
    ],
)
def test_malformed_problems(build):
    with pytest.raises(MalformedProblem):
        build()


def test_solve_rejects_raw_data():
    with pytest.raises(MalformedProblem):
        fraction_solve_lp({"objective": [1]})


def test_determinism():
    problem = make_problem(
        [3, -1, 2], [((1, 1, 1), LESS, 4), ((2, -1, 0), GREATER, 1)], upper=[3, 3, 3]
    )
    first = fraction_solve_lp(problem)
    second = fraction_solve_lp(problem)
    assert first == second


def _random_problem(rng):
    nvars = rng.randrange(1, 5)
    nrows = rng.randrange(0, 5)
    rows = []
    for _ in range(nrows):
        coeffs = tuple(rat(rng.randrange(-3, 4)) for _ in range(nvars))
        relation = rng.choice((LESS, EQUAL, GREATER))
        rows.append((coeffs, relation, rat(rng.randrange(-4, 9))))
    objective = tuple(rat(rng.randrange(-3, 4)) for _ in range(nvars))
    upper = tuple(rat(rng.randrange(1, 6)) for _ in range(nvars))
    return make_problem(objective, rows, upper=upper)


def test_agrees_with_vertex_enumeration():
    # Boxed variables keep every problem bounded, so the oracle's vertex
    # sweep decides both feasibility and the optimal value.
    rng = random.Random(77)
    optimal_seen = 0
    infeasible_seen = 0
    for _ in range(150):
        problem = _random_problem(rng)
        sol = fraction_solve_lp(problem)
        status, value = brute_force_lp(problem)
        assert sol.status == status
        if status == OPTIMAL:
            optimal_seen += 1
            assert sol.objective_value == value
            assert satisfies(problem, sol.x)
            direct = sum(
                (c * z for c, z in zip(problem.objective, sol.x) if c != 0), ZERO
            )
            assert direct == sol.objective_value
        else:
            infeasible_seen += 1
    assert optimal_seen >= 40 and infeasible_seen >= 20
