"""The package's simplex against the two reference simplexes, and the
"<=" max-min program against the ">=" one.

ceub.simplex._solve is a revised simplex on packed ints (D·B⁻¹ and the
duals) for "<=" rows with a nonnegative rhs; oracles.core_solve_lp puts
an LpProblem of that form through it. tests/oracles.py keeps the
Rational tableau as fraction_solve_lp, and the two-phase simplex with
one int list per row of D·B⁻¹ as row_solve_lp. All three take Bland's
rule and the hybrid rule, with its certificate and Bland re-solve, so
under either rule they must make the same pivots, (leaving, entering)
variable for variable, and end at Bland's vertex. core_solve_lp must
take fraction_solve_lp's pivot path and return row_solve_lp's
LpSolution exactly, pivot counts and bits included: on drawn "<="
problems (degenerate ties from {0, +-1, +-1/2}, unbounded ones,
repeated rows), on every max-min program up to 8 agents by 8 items, and
on max-min programs whose fields are wider than 64 and than 128 bits.
The general draws (EQUAL rows, repeated rows at negative scales,
negative right-hand sides, lower and upper bounds) and three
wide problems that need phase 1, an expulsion on a negative pivot or the
deletion of redundant rows compare row_solve_lp with fraction_solve_lp
the same way. maxmin_lp writes its agent rows as "<= 0", which needs no
phase 1; it must return the same lambda and shares as the ">= 0"
program.

maxmin_lp builds its int columns from the instance and hands them to
the simplex without an LpProblem; tests/oracles.py keeps the route it
replaced as lp_maxmin (the Rational door, row_solve_lp, on
maxmin_program, then a settle check on Rationals). With either rule
first, the two must make the same pivots and return the same result and
info line on every shape up to 8 by 8 and on values whose fields are
wider than 64 bits, and the result must be the one maxmin_lp returns,
which tries the hybrid rule first."""

import logging
from contextlib import contextmanager
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceub import maxmin, simplex
from ceub.generators import GenConfig, gen_instance, gen_structured_instance
from ceub.maxmin import maxmin_lp
from ceub.market import validate_instance
from ceub.rationals import rat

import oracles
from oracles import (
    BLAND,
    EQUAL,
    GREATER,
    HYBRID,
    LESS,
    OPTIMAL,
    core_solve_lp,
    fraction_solve_lp,
    lp_maxmin,
    make_problem,
    maxmin_geq_program,
    maxmin_program,
    row_solve_lp,
)

RULES = (BLAND, HYBRID)
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


@st.composite
def le_problems(draw):
    """A problem the package's simplex takes: "<=" rows with a
    nonnegative rhs and zero lower bounds, over one value set; sometimes
    a row is repeated at a positive scale."""
    values = draw(st.sampled_from((TIES, WIDE)))
    num = st.sampled_from(values)
    nvars = draw(st.integers(1, 4))
    coeffs = st.tuples(*[num] * nvars)
    rhs = st.sampled_from([v for v in values if v >= 0])
    rows = draw(st.lists(st.tuples(coeffs, st.just(LESS), rhs), max_size=5))
    if rows and draw(st.booleans()):
        row, relation, b = draw(st.sampled_from(rows))
        k = draw(st.sampled_from((rat(1), rat(2), rat(1, 2))))
        rows.append((tuple(k * c for c in row), relation, k * b))
    upper = tuple(
        draw(st.one_of(st.none(), st.sampled_from((rat(0), rat(1), rat(3, 2)))))
        for _ in range(nvars)
    )
    return make_problem(draw(coeffs), rows, upper=upper)


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


def result(solution):
    return solution.status, solution.x, solution.objective_value


def assert_pivots_like_the_fraction_simplex(solve, module, pivot, problem, rule):
    """solve(problem, rule), whose pivot function is module.pivot, makes
    fraction_solve_lp's pivots under rule, a hybrid attempt and a Bland
    run alike, and agrees with it on status, x and objective value.
    Returns solve's LpSolution."""
    with pivot_path(module, pivot, 2) as new_path:
        new = solve(problem, rule)
    with pivot_path(oracles, "_fraction_pivot", 3) as old_path:
        old = fraction_solve_lp(problem, rule)
    assert new_path == old_path
    assert result(new) == result(old)
    return new


def assert_core_run(problem):
    """Under either rule, the package's simplex takes fraction_solve_lp's
    pivots and returns row_solve_lp's LpSolution, pivot counts and bits
    included; its status, x and value are those of Bland's rule."""
    results = set()
    for rule in RULES:
        solution = assert_pivots_like_the_fraction_simplex(
            core_solve_lp, simplex, "_pivot", problem, rule
        )
        assert solution == row_solve_lp(problem, rule)
        results.add(result(solution))
    assert len(results) == 1


def assert_row_run(problem):
    results = set()
    for rule in RULES:
        solution = assert_pivots_like_the_fraction_simplex(
            row_solve_lp, oracles, "_row_pivot", problem, rule
        )
        results.add(result(solution))
    assert len(results) == 1


def in_core_form(problem):
    """Whether problem has only "<=" rows with rhs >= 0 and zero lower
    bounds, the form the package's simplex takes."""
    rows = problem.rows
    return all(rel == LESS and rhs >= 0 for _, rel, rhs in rows) and not any(problem.lower)


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
    assert_row_run(problem)


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
    assert_core_run(maxmin_program(generator(GenConfig(seed=seed, agents=n, items=m))))


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
    # One pivot takes x from the slack; the ">=" row first needs phase 1,
    # which only the two-phase reference runs.
    assert core_solve_lp(make_problem([1], [((1,), LESS, 3)])).pivots == (0, 1)
    sol = row_solve_lp(make_problem([-1], [((1,), GREATER, 2)], upper=[5]))
    assert sol.x == (2,) and sol.pivots == (1, 0)


@PROPERTY
@given(le_problems())
@example(make_problem([1, 1], [((1, -1), LESS, 1)]))  # unbounded
@example(
    make_problem(  # degenerate: three rows tie at the origin
        [1, 1], [((1, -1), LESS, 0), ((-1, 1), LESS, 0), ((1, 1), LESS, 0)]
    )
)
@example(
    make_problem(  # repeated rows at scales 1 and 2
        [1, 1], [((1, 1), LESS, 2), ((1, 1), LESS, 2), ((2, 2), LESS, 4)], upper=[2, 2]
    )
)
def test_packed_columns_match_the_row_kernel(problem):
    assert_core_run(problem)


@pytest.mark.parametrize("generator", (gen_instance, gen_structured_instance))
def test_maxmin_programs_match_the_row_kernel(generator):
    for n in range(1, 9):
        for m in range(1, 9):
            problem = maxmin_program(generator(GenConfig(seed=n * 8 + m, agents=n, items=m)))
            assert_core_run(problem)


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
    if in_core_form(problem):
        assert_core_run(problem)
    else:
        assert_row_run(problem)


def test_wide_problems_need_wide_fields():
    core = [problem for problem in WIDE_PROBLEMS if in_core_form(problem)]
    assert len(core) == 5
    widths = set().union(*(field_widths(core_solve_lp, problem) for problem in core))
    assert any(64 < w <= 128 for w in widths)
    assert max(widths) > 128


# ------------------------------------------------- the max-min integer door


def maxmin_lp_with(rule):
    """maxmin_lp with rule first."""
    return lambda inst: maxmin._maxmin_lp(inst, rule == BLAND)


def assert_same_maxmin(inst, caplog):
    """maxmin_lp, from inst.values to the package's simplex, against the
    Rational door (row_solve_lp) on the reference program and the
    Rational settle, with either rule first: the same pivots, result
    and info line, and the field width core_solve_lp takes on the
    reference program. The result is the one maxmin_lp returns."""
    n, m = inst.agent_count, inst.item_count
    default = maxmin_lp(inst)
    for rule in RULES:
        caplog.clear()
        with (
            pivot_path(simplex, "_pivot", 2) as new_path,
            caplog.at_level(logging.INFO, "ceub.maxmin"),
        ):
            new = maxmin_lp_with(rule)(inst)
        with pivot_path(oracles, "_row_pivot", 2) as old_path:
            old, solution = lp_maxmin(inst, rule)
        assert new_path and new_path == old_path
        assert new == old == default
        widths = field_widths(maxmin_lp_with(rule), inst)
        assert widths == field_widths(lambda p: core_solve_lp(p, rule), maxmin_program(inst))
        assert [r.getMessage() for r in caplog.records if r.name == "ceub.maxmin"] == [
            f"max-min LP {n}x{m}: {n + m} rows, {n * m + 1} columns,"
            f" pivots {solution.hybrid} hybrid + {solution.pivots[1]} Bland,"
            f" {solution.bits} bits, lambda={old.lam}"
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
