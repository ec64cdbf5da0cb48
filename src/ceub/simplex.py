"""Exact linear programming over rationals.

A small two-phase primal simplex. In the package it serves only the
max-min program; the test suite also uses it for its LP oracles (the
multiplier and welfare programs, the demand-oracle cross-check).
Everything is exact, and optimality/infeasibility/unboundedness are
decided by exact sign tests, so there are no tolerances anywhere.

The tableau holds Python ints, fraction-free in the manner of Edmonds
(1967) and Bareiss (1968): each row is its rational row times some
positive factor, divided by the gcd of its entries, and it reads back
as rationals after division by its entry in the basic column. Pivots
depend only on signs and on ratios within a row, and neither depends
on the factor, so the pivot sequence is the one the Rational tableau
would take (tests/oracles.py keeps that tableau as fraction_solve_lp).
Rationals appear only on entry, where rows are scaled to ints, and on
exit, where x is read off.

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
  A problem without artificials starts feasible and skips phase 1.
* Pivoting follows Bland's rule -- entering variable is the lowest
  index with positive reduced cost, leaving row breaks ratio ties by
  lowest basic variable index -- which guarantees termination without
  any Big-M machinery and makes the solver fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .errors import MalformedProblem
from .rationals import ONE, ZERO, Rational, rat

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
    pivots: tuple = (0, 0)  # phase-1 and phase-2 pivot counts


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
    shifts = [(j, low) for j, low in enumerate(problem.lower) if low != 0]
    work = []
    for coeffs, relation, rhs in problem.rows:
        shifted = rhs - sum((coeffs[j] * low for j, low in shifts), ZERO)
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

    # Tableau rows carry the rhs in the final position. Each is scaled
    # by the lcm of its denominators, so the slack or artificial column
    # holds that lcm where the rational tableau holds 1.
    tableau = []
    basis = []
    for r, (coeffs, relation, rhs) in enumerate(work):
        ints, scale = _integral(coeffs + [rhs])
        row = ints[:n] + [0] * (total - n) + ints[n:]
        if slack_of_row[r] is not None:
            row[slack_of_row[r]] = scale if relation == LESS else -scale
        if art_of_row[r] is not None:
            row[art_of_row[r]] = scale
        tableau.append(row)
        basis.append(art_of_row[r] if art_of_row[r] is not None else slack_of_row[r])

    # ------------------------------------------------------------------
    # Phase 1: maximize -(sum of artificials). Artificials are basic, so
    # the objective row starts as the sum of their rows (this zeroes the
    # basic columns at once).
    # ------------------------------------------------------------------
    phase1 = 0
    if art_start < total:
        arts = [r for r in range(m) if art_of_row[r] is not None]
        common = lcm(*(tableau[r][art_of_row[r]] for r in arts))
        obj = [0] * (total + 1)
        for r in arts:
            weight = common // tableau[r][art_of_row[r]]
            obj = [o + weight * v for o, v in zip(obj, tableau[r])]
        for a in range(art_start, total):
            obj[a] = 0
        status, phase1 = _iterate(tableau, basis, obj, total, allow=total)
        if status == UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
            raise MalformedProblem("phase-1 objective unbounded; solver invariant broken")
        # Basic levels are nonnegative, so their sum is zero only if each is.
        if any(tableau[r][total] != 0 for r in range(len(basis)) if basis[r] >= art_start):
            return LpSolution(INFEASIBLE, None, None, (phase1, 0))
        _expel_artificials(tableau, basis, art_start, total)

    # ------------------------------------------------------------------
    # Phase 2: the real objective, reduced against the current basis.
    # Artificial columns are dead; they never re-enter.
    # ------------------------------------------------------------------
    ints, _ = _integral(problem.objective)
    obj = ints + [0] * (total + 1 - n)
    for r, bv in enumerate(basis):
        if obj[bv] != 0:
            obj = _eliminate(obj, tableau[r], bv)
    status, phase2 = _iterate(tableau, basis, obj, total, allow=art_start)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, (phase1, phase2))

    shifted = [ZERO] * total
    for r, bv in enumerate(basis):
        shifted[bv] = Rational(tableau[r][total], tableau[r][bv])
    x = tuple(shifted[j] + problem.lower[j] for j in range(n))
    value = sum((c * x[j] for j, c in enumerate(problem.objective) if c != 0), ZERO)
    return LpSolution(OPTIMAL, x, value, (phase1, phase2))


def _integral(values):
    """A rational vector scaled by the lcm of its denominators: the
    integer vector and the scale."""
    scale = lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values], scale


def _iterate(tableau, basis, obj, total, allow):
    """Run simplex pivots until optimal or unbounded; (status, pivots).

    `allow` bounds the entering-column search: columns >= allow (the
    artificials in phase 2) are never eligible. A row's ratio rhs/a
    does not depend on its scale, so ratios compare by cross-multiplying.
    """
    m = len(tableau)
    pivots = 0
    while True:
        entering = -1
        for j in range(allow):
            if obj[j] > 0:
                entering = j  # Bland: lowest eligible index
                break
        if entering < 0:
            return OPTIMAL, pivots
        leaving = -1
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                t = tableau[r][total]
                if leaving < 0:
                    best_t, best_a, leaving = t, a, r
                    continue
                left, right = t * best_a, best_t * a
                if left < right or (left == right and basis[r] < basis[leaving]):
                    best_t, best_a, leaving = t, a, r
        if leaving < 0:
            return UNBOUNDED, pivots
        _pivot(tableau, basis, leaving, entering)
        obj = _eliminate(obj, tableau[leaving], entering)
        pivots += 1


def _pivot(tableau, basis, r, c):
    """Make column c basic in row r, with a positive entry there."""
    row = tableau[r]
    if row[c] < 0:
        tableau[r] = row = [-v for v in row]
    for other in range(len(tableau)):
        if other != r and tableau[other][c] != 0:
            tableau[other] = _eliminate(tableau[other], row, c)
    basis[r] = c


def _eliminate(target, row, c):
    """target - (target[c] / row[c]) * row, times row[c] > 0 and divided
    by the gcd of its entries: the same rational row up to a positive
    factor, with column c zeroed."""
    a, p = target[c], row[c]
    g = gcd(a, p)
    a //= g
    p //= g
    if p == 1:
        out = [t - a * v for t, v in zip(target, row)]
    else:
        out = [p * t - a * v for t, v in zip(target, row)]
    g = gcd(*out)
    if g > 1:
        out = [v // g for v in out]
    return out


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
        _pivot(tableau, basis, r, pivot_col)
        r += 1
