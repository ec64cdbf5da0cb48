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
">= 0" program."""

from contextlib import contextmanager
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceub import maxmin, simplex
from ceub.generators import GenConfig, gen_instance, gen_structured_instance
from ceub.maxmin import maxmin_lp
from ceub.rationals import rat
from ceub.simplex import EQUAL, GREATER, LESS, OPTIMAL, make_problem, solve_lp

import oracles
from oracles import fraction_solve_lp, maxmin_geq_program

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
    assert_same_run(maxmin._program(generator(GenConfig(seed=seed, agents=n, items=m))))


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
