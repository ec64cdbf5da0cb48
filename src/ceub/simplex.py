"""Exact linear programming over rationals.

A small two-phase primal simplex. In the package it serves only the
max-min program; the test suite also uses it for its LP oracles (the
multiplier and welfare programs, the demand-oracle cross-check).
Everything is exact, and optimality/infeasibility/unboundedness are
decided by exact sign tests, so there are no tolerances anywhere.

It is the revised simplex (Dantzig & Orchard-Hays 1954) kept
fraction-free in the manner of Edmonds (1967) and Bareiss (1968). The
constraint matrix is never rewritten: it is held as sparse int columns
(each row scaled to ints, its slack or artificial scaled with it, so
the starting basis is the identity). The state is

* ``D``, a positive int: the absolute value of the basis determinant;
* ``E = D·B⁻¹`` beside the rhs column ``D·B⁻¹b``, one int row per
  constraint;
* ``w = −D·y``, the duals y times −D.

``D·c_j + w·A_j`` is D times the reduced cost of column j (for the
objective scaled to ints), and ``E·A_j`` is D times its tableau column,
so a pivot prices and ratio tests columns on demand, from their
nonzeros. It then updates every other row of E, and w, by the Bareiss
step ``(p·x − a·y) // D``, where p is the pivot entry, a the row's
entry in the entering column and y the pivot row. The division is
exact, since E stays the adjugate of B up to sign, and D becomes p.
Pivots depend only on signs and on ratios within a column, and
neither depends on D or on the column scales, so the pivot
sequence is the one the Rational tableau would take (tests/oracles.py
keeps that tableau as fraction_solve_lp). Rationals appear only on
entry, where rows are scaled to ints, and on exit, where x is read off.

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
from math import lcm

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
    bits: int = 0  # bit length of the largest int in the final E and D


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
    """Exact two-phase revised simplex with Bland's pivot rule."""
    if not isinstance(problem, LpProblem):
        raise MalformedProblem(f"not an LpProblem: {type(problem).__name__}")
    n = problem.var_count

    # Shift variables to x' = x - lower >= 0 and collect working rows as
    # their nonzero terms. Upper bounds become plain rows in the shifted
    # space.
    shifts = [(j, low) for j, low in enumerate(problem.lower) if low != 0]
    work = []
    for coeffs, relation, rhs in problem.rows:
        shifted = rhs - sum((coeffs[j] * low for j, low in shifts), ZERO)
        work.append([[(j, c) for j, c in enumerate(coeffs) if c], relation, shifted])
    for j, bound in enumerate(problem.upper):
        if bound is not None:
            work.append([[(j, ONE)], LESS, bound - problem.lower[j]])

    # Normalize right-hand sides to be nonnegative.
    for row in work:
        if row[2] < 0:
            row[0] = [(j, -c) for j, c in row[0]]
            row[2] = -row[2]
            row[1] = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[row[1]]

    # Sparse int columns: the n structural columns, then a slack or
    # surplus per "<="/">=" row, then an artificial per ">="/"=" row.
    # Row r is scaled by the lcm s_r of its denominators; its slack,
    # surplus and artificial are scaled by s_r too, so they keep the
    # entries +-1, and the starting basis is the identity.
    m = len(work)
    columns = [[] for _ in range(n)]
    scales = []
    E = []
    for r, (terms, _, rhs) in enumerate(work):
        ints, scale = _integral([c for _, c in terms] + [rhs])
        for (j, _), v in zip(terms, ints):
            columns[j].append((r, v))
        scales.append(scale)
        E.append([int(k == r) for k in range(m)] + ints[-1:])
    basis = [None] * m
    for r, (_, relation, _) in enumerate(work):
        if relation != EQUAL:
            basis[r] = len(columns)
            columns.append([(r, 1 if relation == LESS else -1)])
    art_start = len(columns)
    for r, (_, relation, _) in enumerate(work):
        if relation != LESS:
            basis[r] = len(columns)
            columns.append([(r, 1)])
    total = len(columns)
    D = 1

    # ------------------------------------------------------------------
    # Phase 1: maximize -(sum of artificials). Artificial r stands for
    # s_r times the rational one, so its cost is -lcm(s)/s_r. With E = I
    # and D = 1, w is minus the basic costs.
    # ------------------------------------------------------------------
    phase1 = 0
    if art_start < total:
        common = lcm(*(scales[r] for r in range(m) if basis[r] >= art_start))
        cost = [0] * total
        for r in range(m):
            if basis[r] >= art_start:
                cost[basis[r]] = -(common // scales[r])
        w = [-cost[bv] for bv in basis]
        status, phase1, D = _iterate(E, basis, columns, cost, w, D, total)
        if status == UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
            raise MalformedProblem("phase-1 objective unbounded; solver invariant broken")
        # Basic levels are nonnegative, so their sum is zero only if each is.
        if any(E[r][m] != 0 for r in range(m) if basis[r] >= art_start):
            return LpSolution(INFEASIBLE, None, None, (phase1, 0), _bits(E, D))
        D = _expel_artificials(E, basis, columns, D, art_start)

    # ------------------------------------------------------------------
    # Phase 2: the real objective, w = -c_B·E against the current basis.
    # Artificial columns are dead; they never re-enter.
    # ------------------------------------------------------------------
    ints, _ = _integral(problem.objective)
    cost = ints + [0] * (total - n)
    w = [0] * m
    for r, bv in enumerate(basis):
        if cost[bv] != 0:
            w = [v - cost[bv] * e for v, e in zip(w, E[r])]
    status, phase2, D = _iterate(E, basis, columns, cost, w, D, art_start)
    pivots = (phase1, phase2)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, pivots, _bits(E, D))

    shifted = [ZERO] * total
    for r, bv in enumerate(basis):
        shifted[bv] = Rational(E[r][m], D)
    for j, low in shifts:
        shifted[j] += low
    x = tuple(shifted[:n])
    value = sum((c * x[j] for j, c in enumerate(problem.objective) if c != 0), ZERO)
    return LpSolution(OPTIMAL, x, value, pivots, _bits(E, D))


def _integral(values):
    """A rational vector scaled by the lcm of its denominators: the
    integer vector and the scale."""
    scale = lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (scale // int(v.denominator)) for v in values], scale


def _bits(E, D):
    """Bit length of the largest int in E and D."""
    return max(D.bit_length(), max((v.bit_length() for row in E for v in row), default=0))


def _column(E, column):
    """E·A_j from the nonzeros of column j: D times its tableau column."""
    alpha = [0] * len(E)
    for k, v in column:
        alpha = [a + row[k] * v for a, row in zip(alpha, E)]
    return alpha


def _iterate(E, basis, columns, cost, w, D, allow):
    """Run simplex pivots until optimal or unbounded; (status, pivots, D).

    `allow` bounds the entering-column search: columns >= allow (the
    artificials in phase 2) are never eligible. A row's ratio rhs/a
    does not depend on D, so ratios compare by cross-multiplying.
    """
    m = len(w)
    priced = list(zip(range(allow), columns, cost))
    pivots = 0
    while True:
        for entering, column, c in priced:  # Bland: lowest eligible index
            g = D * c
            for r, v in column:
                g += w[r] * v
            if g > 0:
                break
        else:
            return OPTIMAL, pivots, D
        alpha = _column(E, columns[entering])
        leaving = -1
        for r, a in enumerate(alpha):
            if a > 0:
                t = E[r][m]
                if leaving < 0:
                    best_t, best_a, leaving = t, a, r
                    continue
                left, right = t * best_a, best_t * a
                if left < right or (left == right and basis[r] < basis[leaving]):
                    best_t, best_a, leaving = t, a, r
        if leaving < 0:
            return UNBOUNDED, pivots, D
        D = _pivot(E, basis, leaving, entering, alpha, D, w, g)
        pivots += 1


def _pivot(E, basis, r, c, alpha, D, w, g):
    """Make column c basic in row r and return the new D, the pivot p.

    alpha is E·A_c and g is D times c's reduced cost; w is None when the
    objective does not matter. Every other row x of E becomes
    (p·x − a·y) // D, with a its entry in alpha and y row r, and w the
    same with a = g; a row with a = 0 is thus rescaled by p/D. A
    negative pivot entry (only an expulsion takes one) first negates
    row r, so that D stays positive.
    """
    if alpha[r] < 0:
        E[r] = [-v for v in E[r]]
        alpha[r] = -alpha[r]
    p = alpha[r]
    row = E[r]
    for i, a in enumerate(alpha):
        if a != 0:
            if i != r:
                E[i] = [(p * v - a * y) // D for v, y in zip(E[i], row)]
        elif p != D:
            E[i] = [p * v // D for v in E[i]]
    if w is not None:
        # zip stops at w's end, before the rhs entry of row.
        w[:] = [(p * v - g * y) // D for v, y in zip(w, row)]
    basis[r] = c
    return p


def _expel_artificials(E, basis, columns, D, art_start):
    """Pivot zero-level artificials out of the basis, drop redundant rows,
    and return the new D."""
    r = 0
    while r < len(basis):
        if basis[r] < art_start:
            r += 1
            continue
        row = E[r]
        for j in range(art_start):
            if sum(row[k] * v for k, v in columns[j]) != 0:
                D = _pivot(E, basis, r, j, _column(E, columns[j]), D, None, 0)
                r += 1
                break
        else:
            # The row reads 0 = 0 over real variables: redundant.
            del E[r]
            del basis[r]
    return D
