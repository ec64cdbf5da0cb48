"""Exact linear programming over rationals.

A small two-phase primal simplex. In the package it serves only the
max-min program; the test suite also uses it for its LP oracles (the
multiplier and welfare programs, the demand-oracle cross-check).
Everything is exact: the tableau holds Rationals, pivots are
exact divisions, and optimality/infeasibility/unboundedness are decided
by exact sign tests, so there are no tolerances anywhere.

Conventions
-----------
* Problems maximize ``c . x`` subject to rows ``(coeffs, relation, rhs)``
  with relation one of ``<=``, ``=``, ``>=``, plus per-variable bounds
  (finite lower, optional upper).
* Internally, variables are shifted by their lower bounds, upper bounds
  become extra ``<=`` rows, and right-hand sides are normalized to be
  nonnegative. ``<=`` rows get a slack, ``>=`` rows a surplus plus an
  artificial, ``=`` rows an artificial.
* Phase 1 maximizes minus the sum of artificials; a negative optimum
  means infeasible, otherwise artificials are pivoted out (or their rows
  dropped as redundant) before phase 2 optimizes the real objective.
* Pivoting follows Bland's rule -- entering variable is the lowest
  index with positive reduced cost, leaving row breaks ratio ties by
  lowest basic variable index -- which guarantees termination without
  any Big-M machinery and makes the solver fully deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import MalformedProblem
from .rationals import ONE, ZERO, Rational, rat

log = logging.getLogger(__name__)

LESS = "<="
EQUAL = "="
GREATER = ">="
_RELATIONS = (LESS, EQUAL, GREATER)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x subject to rows and variable bounds."""

    objective: tuple
    rows: tuple  # of (coeffs tuple, relation, rhs)
    lower: tuple  # per-variable finite lower bound
    upper: tuple  # per-variable upper bound or None for unbounded above

    @property
    def var_count(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: tuple | None
    objective_value: Rational | None


def make_problem(objective, rows, lower=None, upper=None) -> LpProblem:
    """Validate and normalize raw problem data into an LpProblem.

    Raises MalformedProblem for structural defects: empty objective,
    ragged rows, unknown relations, bound vectors of the wrong length.
    """
    obj = tuple(rat(c) for c in objective)
    n = len(obj)
    if n == 0:
        raise MalformedProblem("objective has no variables")
    checked_rows = []
    for k, row in enumerate(rows):
        try:
            coeffs, relation, rhs = row
        except (TypeError, ValueError):
            raise MalformedProblem(f"row {k} is not (coeffs, relation, rhs)") from None
        coeffs = tuple(rat(c) for c in coeffs)
        if len(coeffs) != n:
            raise MalformedProblem(f"row {k} has {len(coeffs)} coefficients, expected {n}")
        if relation not in _RELATIONS:
            raise MalformedProblem(f"row {k} has unknown relation {relation!r}")
        checked_rows.append((coeffs, relation, rat(rhs)))
    low = tuple(ZERO for _ in range(n)) if lower is None else tuple(rat(v) for v in lower)
    if len(low) != n:
        raise MalformedProblem(f"{len(low)} lower bounds for {n} variables")
    if upper is None:
        up = tuple(None for _ in range(n))
    else:
        up = tuple(None if v is None else rat(v) for v in upper)
    if len(up) != n:
        raise MalformedProblem(f"{len(up)} upper bounds for {n} variables")
    return LpProblem(obj, tuple(checked_rows), low, up)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact two-phase primal simplex with Bland's pivot rule."""
    if not isinstance(problem, LpProblem):
        raise MalformedProblem(f"not an LpProblem: {type(problem).__name__}")
    n = problem.var_count

    # Shift variables to x' = x - lower >= 0 and collect working rows.
    # Upper bounds become plain rows in the shifted space.
    work = []
    for coeffs, relation, rhs in problem.rows:
        shifted = rhs - sum(
            (c * problem.lower[j] for j, c in enumerate(coeffs) if c != 0), ZERO
        )
        work.append([list(coeffs), relation, shifted])
    for j, bound in enumerate(problem.upper):
        if bound is None:
            continue
        coeffs = [ZERO] * n
        coeffs[j] = ONE
        work.append([coeffs, LESS, bound - problem.lower[j]])

    # Normalize right-hand sides to be nonnegative.
    for row in work:
        if row[2] < 0:
            row[0] = [-c for c in row[0]]
            row[2] = -row[2]
            row[1] = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[row[1]]

    m = len(work)
    slack_of_row = [None] * m
    art_of_row = [None] * m
    col = n
    for r, (_, relation, _) in enumerate(work):
        if relation in (LESS, GREATER):
            slack_of_row[r] = col
            col += 1
    art_start = col
    for r, (_, relation, _) in enumerate(work):
        if relation in (GREATER, EQUAL):
            art_of_row[r] = col
            col += 1
    total = col

    # Tableau rows carry the rhs in the final position.
    tableau = []
    basis = []
    for r, (coeffs, relation, rhs) in enumerate(work):
        row = coeffs + [ZERO] * (total - n) + [rhs]
        if slack_of_row[r] is not None:
            row[slack_of_row[r]] = ONE if relation == LESS else -ONE
        if art_of_row[r] is not None:
            row[art_of_row[r]] = ONE
        tableau.append(row)
        basis.append(art_of_row[r] if art_of_row[r] is not None else slack_of_row[r])

    # ------------------------------------------------------------------
    # Phase 1: maximize -(sum of artificials). Artificials are basic, so
    # the objective row starts as the sum of their rows (this zeroes the
    # basic columns at once).
    # ------------------------------------------------------------------
    if art_start < total:
        obj = [ZERO] * (total + 1)
        for r in range(m):
            if art_of_row[r] is not None:
                row = tableau[r]
                for k in range(total + 1):
                    if row[k] != 0:
                        obj[k] += row[k]
        for a in range(art_start, total):
            obj[a] = ZERO
        status = _iterate(tableau, basis, obj, total, allow=total)
        if status == UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
            raise MalformedProblem("phase-1 objective unbounded; solver invariant broken")
        infeasibility = sum(
            (tableau[r][total] for r in range(len(basis)) if basis[r] >= art_start), ZERO
        )
        if infeasibility != 0:
            return LpSolution(INFEASIBLE, None, None)
        _expel_artificials(tableau, basis, art_start, total)

    # ------------------------------------------------------------------
    # Phase 2: the real objective, reduced against the current basis.
    # Artificial columns are dead; they never re-enter.
    # ------------------------------------------------------------------
    obj = [ZERO] * (total + 1)
    for j, c in enumerate(problem.objective):
        obj[j] = c
    for r, bv in enumerate(basis):
        coef = obj[bv]
        if coef != 0:
            row = tableau[r]
            for k in range(total + 1):
                if row[k] != 0:
                    obj[k] -= coef * row[k]
    status = _iterate(tableau, basis, obj, total, allow=art_start)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    shifted = [ZERO] * total
    for r, bv in enumerate(basis):
        shifted[bv] = tableau[r][total]
    x = tuple(shifted[j] + problem.lower[j] for j in range(n))
    value = sum((c * x[j] for j, c in enumerate(problem.objective) if c != 0), ZERO)
    return LpSolution(OPTIMAL, x, value)


def _iterate(tableau, basis, obj, total, allow):
    """Run simplex pivots until optimal or unbounded.

    `allow` bounds the entering-column search: columns >= allow (the
    artificials in phase 2) are never eligible.
    """
    m = len(tableau)
    while True:
        entering = -1
        for j in range(allow):
            if obj[j] > 0:
                entering = j  # Bland: lowest eligible index
                break
        if entering < 0:
            return OPTIMAL
        leaving = -1
        best = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][total] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    best = ratio
                    leaving = r
        if leaving < 0:
            return UNBOUNDED
        _pivot(tableau, basis, obj, leaving, entering, total)


def _pivot(tableau, basis, obj, r, c, total):
    row = tableau[r]
    factor = row[c]
    if factor != 1:
        tableau[r] = row = [v / factor for v in row]
    for other in range(len(tableau)):
        if other == r:
            continue
        coef = tableau[other][c]
        if coef != 0:
            target = tableau[other]
            tableau[other] = [tv - coef * rv for tv, rv in zip(target, row)]
    coef = obj[c]
    if coef != 0:
        for k in range(total + 1):
            if row[k] != 0:
                obj[k] -= coef * row[k]
    basis[r] = c


def _expel_artificials(tableau, basis, art_start, total):
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    r = 0
    while r < len(basis):
        if basis[r] < art_start:
            r += 1
            continue
        row = tableau[r]
        pivot_col = -1
        for j in range(art_start):
            if row[j] != 0:
                pivot_col = j
                break
        if pivot_col < 0:
            # The row reads 0 = 0 over real variables: redundant.
            del tableau[r]
            del basis[r]
            continue
        _pivot(tableau, basis, [ZERO] * (total + 1), r, pivot_col, total)
        r += 1
