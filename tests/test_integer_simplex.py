"""The integer simplex against the Rational one it replaced, and the
"<=" max-min program against the ">=" one.

simplex.solve_lp is a revised simplex on ints (D·B⁻¹ and the duals);
tests/oracles.py keeps the Rational tableau as fraction_solve_lp. Both
follow Bland's rule, so they must make the same pivots, (leaving,
entering) variable for variable, and agree exactly on status, x and
objective value. Problems are drawn with EQUAL rows, repeated
(redundant) rows, negative right-hand sides, lower and upper bounds,
and degenerate ties from {0, +-1, +-1/2}; the explicit examples pin an
infeasible, an unbounded and a redundant case, a phase 1 over rows of
different scales and a negative pivot while expelling an artificial.
The max-min programs of both generators, up to 8 agents by 8 items, are
compared the same way. maxmin_lp writes its agent rows as "<= 0", which
needs no phase 1; it must return the same lambda and shares as the
">= 0" program.

solve_lp packs each column of [E | rhs] into one int; tests/oracles.py
keeps the kernel with one int list per row as row_solve_lp. The two
must return equal LpSolutions, pivot counts and bits included, on the
drawn problems, on every max-min program up to 8 by 8, and on problems
whose fields are wider than 64 and than 128 bits.

maxmin_lp builds its int columns from the instance and hands them to
the simplex's integer core, without an LpProblem; tests/oracles.py keeps
the route it replaced as lp_maxmin (solve_lp on maxmin_program, then a
settle check on Rationals). The two must make the same pivots and
return the same result and info line on every shape up to 8 by 8 and on
values whose fields are wider than 64 bits."""

import logging
from contextlib import contextmanager
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceub import simplex
from ceub.generators import GenConfig, gen_instance, gen_structured_instance
from ceub.maxmin import maxmin_lp
from ceub.market import validate_instance
from ceub.rationals import rat
from ceub.simplex import EQUAL, GREATER, LESS, OPTIMAL, make_problem, solve_lp

import oracles
from oracles import fraction_solve_lp, lp_maxmin, maxmin_geq_program, maxmin_program, row_solve_lp

TIES = tuple(rat(v) for v in ("0", "1", "-1", "1/2", "-1/2"))
WIDE = TIES + tuple(rat(v) for v in ("2", "-3", "5/3", "-7/4"))
RELATIONS = (LESS, EQUAL, GREATER)
FLIP = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}

# Derandomized and without an example database: the same draws on every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def lp_problems(draw):
    """A problem over one value set; sometimes a row is repeated at a
    scale, negative scales flipping its relation, so it is redundant."""
    num = st.sampled_from(draw(st.sampled_from((TIES, WIDE))))
    nvars = draw(st.integers(1, 4))
    coeffs = st.tuples(*[num] * nvars)
    rows = draw(st.lists(st.tuples(coeffs, st.sampled_from(RELATIONS), num), max_size=5))
    if rows and draw(st.booleans()):
        row, relation, rhs = draw(st.sampled_from(rows))
        k = draw(st.sampled_from((rat(1), rat(2), rat(-1, 2))))
        rows.append((tuple(k * c for c in row), relation if k > 0 else FLIP[relation], k * rhs))
    lower = draw(st.tuples(*[st.sampled_from((rat(0), rat(-1), rat(1, 2)))] * nvars))
    upper = tuple(
        draw(st.one_of(st.none(), st.sampled_from((rat(0), rat(1), rat(3, 2))))) for _ in lower
    )
    upper = tuple(None if u is None else low + u for low, u in zip(lower, upper))
    return make_problem(draw(coeffs), rows, lower, upper)


@contextmanager
def pivot_path(module, name, row_arg):
    """Record the (leaving, entering) variables of every call to the
    pivot function module.name, whose row and column arguments come at
    positions row_arg and row_arg + 1 after (tableau, basis, ...)."""
    path = []
    pivot = getattr(module, name)

    def recorded(*args):
        path.append((args[1][args[row_arg]], args[row_arg + 1]))
        return pivot(*args)

    with patch.object(module, name, recorded):
        yield path


@PROPERTY
@given(lp_problems())
@example(make_problem([1], [((1,), GREATER, 1), ((1,), LESS, 0)]))  # infeasible
@example(make_problem([1, 1], [((1, -1), LESS, 1)]))  # unbounded
@example(
    make_problem(  # redundant EQUAL rows, expelled after phase 1
        [1, 0], [((1, 1), EQUAL, 2), ((1, 1), EQUAL, 2), ((-2, -2), EQUAL, -4)], upper=[2, 2]
    )
)
@example(
    make_problem(  # degenerate: three rows tie at the origin
        [1, 1], [((1, -1), LESS, 0), ((-1, 1), LESS, 0), ((1, 1), LESS, 0)]
    )
)
@example(make_problem([-1, 1], [((-1, rat(1, 2)), LESS, -1)], lower=[-1, rat(1, 2)]))  # rhs < 0
@example(  # row scales 4 and 1: phase 1 must weight the artificials 1 and 4
    make_problem([1], [((rat(-7, 4),), EQUAL, 0), ((2,), EQUAL, 0)])
)
@example(  # expulsion pivots on -1, then phase 2 raises the second variable
    make_problem([0, 1], [((-1, 0), EQUAL, 0), ((0, 1), LESS, 1)])
)
def test_integer_tableau_matches_the_fraction_simplex(problem):
    assert_same_run(problem)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    generator=st.sampled_from((gen_instance, gen_structured_instance)),
)
@example(seed=8, n=8, m=8, generator=gen_instance)
@example(seed=8, n=8, m=8, generator=gen_structured_instance)
def test_maxmin_programs_pivot_like_the_fraction_simplex(seed, n, m, generator):
    assert_same_run(maxmin_program(generator(GenConfig(seed=seed, agents=n, items=m))))


def assert_same_run(problem):
    with pivot_path(simplex, "_pivot", 2) as new_path:
        new = solve_lp(problem)
    with pivot_path(oracles, "_fraction_pivot", 3) as old_path:
        old = fraction_solve_lp(problem)
    assert new_path == old_path
    assert (new.status, new.x, new.objective_value) == (old.status, old.x, old.objective_value)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    generator=st.sampled_from((gen_instance, gen_structured_instance)),
)
def test_maxmin_without_phase_1_matches_the_geq_program(seed, n, m, generator):
    inst = generator(GenConfig(seed=seed, agents=n, items=m))
    old = fraction_solve_lp(maxmin_geq_program(inst))
    assert old.status == OPTIMAL
    result = maxmin_lp(inst)
    assert result.lam == old.x[n * m]
    assert result.allocation.x == tuple(
        tuple(old.x[i * m + j] for j in range(m)) for i in range(n)
    )


def test_pivot_counts_per_phase():
    # One pivot takes x from the slack; the ">=" row first needs phase 1.
    assert solve_lp(make_problem([1], [((1,), LESS, 3)])).pivots == (0, 1)
    sol = solve_lp(make_problem([-1], [((1,), GREATER, 2)], upper=[5]))
    assert sol.x == (2,) and sol.pivots == (1, 0)


@PROPERTY
@given(lp_problems())
@example(make_problem([1], [((1,), GREATER, 1), ((1,), LESS, 0)]))  # infeasible
@example(make_problem([1, 1], [((1, -1), LESS, 1)]))  # unbounded
@example(
    make_problem(  # redundant EQUAL rows, expelled after phase 1
        [1, 0], [((1, 1), EQUAL, 2), ((1, 1), EQUAL, 2), ((-2, -2), EQUAL, -4)], upper=[2, 2]
    )
)
@example(make_problem([0, 1], [((-1, 0), EQUAL, 0), ((0, 1), LESS, 1)]))  # negative pivot
def test_packed_columns_match_the_row_kernel(problem):
    assert solve_lp(problem) == row_solve_lp(problem)


@pytest.mark.parametrize("generator", (gen_instance, gen_structured_instance))
def test_maxmin_programs_match_the_row_kernel(generator):
    for n in range(1, 9):
        for m in range(1, 9):
            problem = maxmin_program(generator(GenConfig(seed=n * 8 + m, agents=n, items=m)))
            assert solve_lp(problem) == row_solve_lp(problem)


def field_widths(solve, arg):
    """The field widths of every pivot solve(arg) takes."""
    widths = []
    pivot = simplex._pivot

    def recorded(*args):
        widths.append(args[8])
        return pivot(*args)

    with patch.object(simplex, "_pivot", recorded):
        solve(arg)
    return set(widths)


BIG = 2**100
MERSENNE = 2**61 - 1


def wide_instance(n, m):
    """Values (2^61 - 1) / 3^k, k = 0, 1, ..., so that each agent row
    has the lcm 3^(k_max) of its denominators."""
    return validate_instance(
        [[rat(MERSENNE, 3 ** (i * m + j)) for j in range(m)] for i in range(n)]
    )


def wide_maxmin_program(n, m):
    return maxmin_program(wide_instance(n, m))


WIDE_PROBLEMS = [
    wide_maxmin_program(1, 1),
    wide_maxmin_program(2, 1),
    wide_maxmin_program(2, 2),
    wide_maxmin_program(3, 3),
    wide_maxmin_program(4, 4),
    # phase 1 over ">=" and "=" rows of coefficients near 2^100
    make_problem(
        [1, -2, 3],
        [
            ((BIG + 1, -BIG, rat(BIG, 3)), GREATER, BIG - 7),
            ((rat(BIG - 1, 5), BIG, 1), EQUAL, 3 * BIG),
            ((1, 1, 1), LESS, 2 * BIG),
        ],
    ),
    # expulsion pivots on -(2^100 + 3), then phase 2 raises the second variable
    make_problem([0, 1], [((-(BIG + 3), 0), EQUAL, 0), ((0, BIG - 1), LESS, BIG)]),
    # the second and third rows repeat the first: expelled as redundant
    make_problem(
        [1, 0],
        [
            ((BIG, BIG + 1), EQUAL, 2 * BIG),
            ((BIG, BIG + 1), EQUAL, 2 * BIG),
            ((-2 * BIG, -2 * BIG - 2), EQUAL, -4 * BIG),
        ],
        upper=[2, 2],
    ),
]


@pytest.mark.parametrize("problem", WIDE_PROBLEMS)
def test_wide_fields_match_both_oracles(problem):
    assert solve_lp(problem) == row_solve_lp(problem)
    assert_same_run(problem)


def test_wide_problems_need_wide_fields():
    widths = set().union(*(field_widths(solve_lp, problem) for problem in WIDE_PROBLEMS))
    assert any(64 < w <= 128 for w in widths)
    assert max(widths) > 128


# ------------------------------------------------- the max-min integer door


def assert_same_maxmin(inst, caplog):
    """maxmin_lp, from inst.values to the integer core, against solve_lp
    on the reference program and the Rational settle: the same pivots,
    field width, result and info line."""
    n, m = inst.agent_count, inst.item_count
    caplog.clear()
    with pivot_path(simplex, "_pivot", 2) as new_path, caplog.at_level(logging.INFO, "ceub.maxmin"):
        new = maxmin_lp(inst)
    with pivot_path(simplex, "_pivot", 2) as old_path:
        old, solution = lp_maxmin(inst)
    assert new_path and new_path == old_path
    assert new == old
    assert field_widths(maxmin_lp, inst) == field_widths(solve_lp, maxmin_program(inst))
    assert [r.getMessage() for r in caplog.records if r.name == "ceub.maxmin"] == [
        f"max-min LP {n}x{m}: {n + m} rows, {n * m + 1} columns,"
        f" pivots {solution.pivots[0]}+{solution.pivots[1]}, {solution.bits} bits,"
        f" lambda={old.lam}"
    ]


@pytest.mark.parametrize("generator", (gen_instance, gen_structured_instance))
def test_maxmin_lp_matches_solve_lp_on_the_reference_program(generator, caplog):
    for n in range(1, 9):
        for m in range(1, 9):
            assert_same_maxmin(generator(GenConfig(seed=n * 8 + m, agents=n, items=m)), caplog)


@pytest.mark.parametrize("shape", ((1, 1), (2, 1), (2, 2), (3, 3), (4, 4)))
def test_wide_values_go_through_the_integer_door(shape, caplog):
    assert_same_maxmin(wide_instance(*shape), caplog)


def test_the_integer_door_takes_wide_fields():
    assert min(field_widths(maxmin_lp, wide_instance(4, 4))) > 64
