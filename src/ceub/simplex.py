"""Exact linear programming over rationals.

A small two-phase primal simplex. In the package it serves only the
max-min program; the test suite also uses it for its LP oracles (the
multiplier and welfare programs, the demand-oracle cross-check).
Everything is exact, and optimality/infeasibility/unboundedness are
decided by exact sign tests, so there are no tolerances anywhere.

It has two doors and one integer core. ``solve_lp`` is the Rational
door: it takes an ``LpProblem``, shifts the variables by their lower
bounds, turns upper bounds into rows, scales each row to ints and reads
the optimum back as Rationals. ``maxmin.maxmin_lp`` is the integer
door: it builds the sparse int columns of the max-min program straight
from the valuations and reads its own answer off the ints. Both hand
the core, ``_solve``, the same thing: sparse int columns, a relation, a
scale and a nonnegative int rhs per row, and an int objective. The core
starts the basis, runs both phases and returns the basic levels and D
as ints.

It is the revised simplex (Dantzig & Orchard-Hays 1954) kept
fraction-free in the manner of Edmonds (1967) and Bareiss (1968). The
constraint matrix is never rewritten: it is held as sparse int columns
(each row scaled to ints, its slack or artificial scaled with it, so
the starting basis is the identity). The state is

* ``D``, a positive int: the absolute value of the basis determinant;
* ``E = D·B⁻¹`` beside the rhs column ``D·B⁻¹b``;
* ``w = −D·y``, the duals y times −D, as a list of ints.

``D·c_j + w·A_j`` is D times the reduced cost of column j (for the
objective scaled to ints), and ``E·A_j`` is D times its tableau column,
so a pivot prices and ratio tests columns on demand, from their
nonzeros. It then takes the Bareiss step ``(p·x − a·y) // D`` on every
other row of [E | rhs], and on w, where p is the pivot entry, a the
row's entry in the entering column and y the pivot row. The division
is exact, since E stays the adjugate of B up to sign, and D becomes p.

Each column of [E | rhs] is one Python int, its m entries packed as
signed fields of W bits, row r at bit r·W (Kronecker substitution, as
in GMP- and FLINT-style polynomial arithmetic; Harvey 2009). A linear
combination of packed columns is the packed linear combination, so
``E·A_j`` is one multiply-add per nonzero of A_j, and the Bareiss step
on a whole column k is ``(p·C_k − y_k·α′) // D``, with α′ the packed
entering column and p − D in its field r, so that row r stays. That is
a few big-int operations per column, in C, instead of one interpreted
operation per entry; the division is exact on the whole int because it
is exact in every field. Fields are read off only after such exact
steps, never from an intermediate.

The width comes from Hadamard's bound. Every entry of E, of the rhs and
of ``E·A_j`` is, up to sign, a minor of the integer matrix
[A | slacks | artificials | b], and every minor is at most the product
of the Euclidean norms of that matrix's rows, each at least 1 since
each row holds a slack or an artificial. W is the bit length of that
bound plus a sign bit, so every entry fits its field and decoding is
exact; carries between fields in the packed int lose nothing, since it
is an exact integer. Dropping a redundant row keeps the bound, since a
minor of the remaining rows is a minor of the whole.

Pivots depend only on signs and on ratios within a column, and neither
depends on D, on the column scales or on how E is stored, so the pivot
sequence is the one the Rational tableau would take (tests/oracles.py
keeps that tableau as fraction_solve_lp, and this simplex with one int
list per row of E as row_solve_lp). Rationals appear only in the doors:
in solve_lp on entry, where rows are scaled to ints, and on exit, where
x is read off; in maxmin_lp only on exit.

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
from math import isqrt, lcm, prod

from .errors import MalformedProblem
from .rationals import ONE, ZERO, Rational, rat

LESS = "<="
EQUAL = "="
GREATER = ">="
_RELATIONS = (LESS, EQUAL, GREATER)
_FLIP = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}

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
    shifts = [(j, low) for j, low in enumerate(problem.lower) if low]
    work = []
    for coeffs, relation, rhs in problem.rows:
        if shifts:
            rhs -= sum((coeffs[j] * low for j, low in shifts), ZERO)
        work.append(([(j, c) for j, c in enumerate(coeffs) if c], relation, rhs))
    for j, bound in enumerate(problem.upper):
        if bound is not None:
            work.append(([(j, ONE)], LESS, bound - problem.lower[j]))

    # Sparse int columns of the n structural variables. Row r is scaled
    # by the lcm s_r of its denominators, and negated if its rhs is
    # negative.
    columns = [[] for _ in range(n)]
    relations = []
    scales = []
    b = []
    for r, (terms, relation, rhs) in enumerate(work):
        ints, scale = _integral([c for _, c in terms] + [rhs])
        if ints[-1] < 0:
            ints = [-v for v in ints]
            relation = _FLIP[relation]
        for (j, _), v in zip(terms, ints):
            columns[j].append((r, v))
        relations.append(relation)
        scales.append(scale)
        b.append(ints[-1])
    cost, scale = _integral(problem.objective)
    status, pivots, basis, levels, D, cols, width = _solve(columns, relations, scales, b, cost)
    bits = _read_off(cols, len(basis), width, D)
    if status != OPTIMAL:
        return LpSolution(status, None, None, pivots, bits)

    # c·x = c_B·levels / (scale·D) in the shifted space, plus c·lower.
    shifted = [ZERO] * n
    total = 0
    for bv, level in zip(basis, levels):
        if bv < n:
            shifted[bv] = Rational(level, D)
            total += cost[bv] * level
    value = Rational(total, scale * D)
    for j, low in shifts:
        shifted[j] += low
        value += problem.objective[j] * low
    return LpSolution(OPTIMAL, tuple(shifted), value, pivots, bits)


def _solve(columns, relations, scales, b, cost):
    """The integer core: both phases of the simplex on sparse int columns.

    columns are the structural columns, each a list of (row, int) for
    its nonzeros in row order; relations, scales and b give each row's
    relation, the positive scale s_r it was multiplied by and its rhs,
    which must be nonnegative; cost is the objective on the structural
    columns, as ints. Each row gets a slack or surplus, and an
    artificial if it is not "<=", so the starting basis is the identity.

    Returns (status, (phase-1, phase-2) pivots, basis, levels, D, cols,
    width): levels are the basic levels times D, and cols the packed
    columns of [E | rhs] in fields of width bits; an infeasible problem
    returns as phase 1 left it.
    """
    m = len(b)
    n = len(columns)
    columns = list(columns)
    # Hadamard's bound on the minors of [A | slacks | artificials | b]:
    # the product of its row norms, each at least 1.
    norms = [v * v + 1 + (relation == GREATER) for v, relation in zip(b, relations)]
    for column in columns:
        for r, v in column:
            norms[r] += v * v
    width = isqrt(prod(norms)).bit_length() + 1
    cols = [1 << (k * width) for k in range(m)]
    cols.append(_pack(b, width))
    # Then a slack or surplus per "<="/">=" row and an artificial per
    # ">="/"=" row. They stand for s_r times the rational ones, so they
    # keep the entries +-1, and the starting basis is the identity.
    basis = [None] * m
    for r, relation in enumerate(relations):
        if relation != EQUAL:
            basis[r] = len(columns)
            columns.append([(r, 1 if relation == LESS else -1)])
    art_start = len(columns)
    for r, relation in enumerate(relations):
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
        phase1_cost = [0] * total
        for r in range(m):
            if basis[r] >= art_start:
                phase1_cost[basis[r]] = -(common // scales[r])
        w = [-phase1_cost[bv] for bv in basis]
        status, phase1, D = _iterate(cols, basis, columns, phase1_cost, w, D, total, width)
        if status == UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
            raise MalformedProblem("phase-1 objective unbounded; solver invariant broken")
        # Basic levels are nonnegative, so their sum is zero only if each is.
        levels = _unpack(cols[m], m, width)
        if any(levels[r] != 0 for r in range(m) if basis[r] >= art_start):
            return INFEASIBLE, (phase1, 0), basis, levels, D, cols, width
        D = _expel_artificials(cols, basis, columns, D, art_start, width)

    # ------------------------------------------------------------------
    # Phase 2: the real objective, w = -c_B·E against the current basis.
    # Artificial columns are dead; they never re-enter.
    # ------------------------------------------------------------------
    cost = cost + [0] * (total - n)
    w = [0] * m
    for r, bv in enumerate(basis):
        if cost[bv] != 0:
            w = [v - cost[bv] * e for v, e in zip(w, _row(cols, r, width))]
    status, phase2, D = _iterate(cols, basis, columns, cost, w, D, art_start, width)
    levels = _unpack(cols[-1], len(basis), width)
    return status, (phase1, phase2), basis, levels, D, cols, width


def _integral(values):
    """A rational vector scaled by the lcm of its denominators: the
    integer vector and the scale."""
    dens = [int(v.denominator) for v in values]
    scale = lcm(*dens)
    return [int(v.numerator) * (scale // d) for v, d in zip(values, dens)], scale


def _pack(values, width):
    """The ints values as signed width-bit fields of one int, lowest first."""
    x = 0
    for v in reversed(values):
        x = (x << width) + v
    return x


def _unpack(x, count, width):
    """The count signed width-bit fields of x, lowest first. Adding half
    a field to every field makes each one nonnegative, so no field
    borrows from the next and each is read off by a shift and a mask."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    x += half * (((1 << count * width) - 1) // mask)
    return [(x >> s & mask) - half for s in range(0, count * width, width)]


def _row(cols, r, width):
    """Field r of every column: row r of [E | rhs]. With s = r·W, the
    fields below r add up to less than 2^(s−1) in absolute value, so
    adding 2^(s−1) keeps their borrow out of field r, and adding half a
    field at bit s makes field r nonnegative."""
    s = r * width
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    lift = (half << s) + (half << s >> width)
    return [((x + lift) >> s & mask) - half for x in cols]


def _read_off(cols, count, width, D):
    """The bit length of the largest int in E, the rhs and D, from one
    decode of every field: the columns packed end to end are the entries
    of [E | rhs] as count·(m + 1) fields."""
    entries = _unpack(_pack(cols, count * width), len(cols) * count, width)
    return max(D.bit_length(), max(map(int.bit_length, entries), default=0))


def _column(cols, column):
    """E·A_j from the nonzeros of column j, packed: D times its tableau
    column."""
    alpha = 0
    for k, v in column:
        alpha += cols[k] * v
    return alpha


def _iterate(cols, basis, columns, cost, w, D, allow, width):
    """Run simplex pivots until optimal or unbounded; (status, pivots, D).

    `allow` bounds the entering-column search: columns >= allow (the
    artificials in phase 2) are never eligible. A row's ratio rhs/a
    does not depend on D, so ratios compare by cross-multiplying.
    """
    m = len(w)
    priced = list(zip(range(allow), columns, cost))
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    span = len(basis) * width
    bias = half * (((1 << span) - 1) // mask)
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
        alpha = _column(cols, columns[entering])
        # alpha and the rhs decode as in _unpack, a row at a time and
        # each field once: the rhs only where alpha is positive, and the
        # pivot entry is handed on to _pivot.
        lifted = alpha + bias
        levels = cols[m] + bias
        leaving = -1
        for r, s in enumerate(range(0, span, width)):
            a = (lifted >> s & mask) - half
            if a > 0:
                t = (levels >> s & mask) - half
                if leaving < 0:
                    best_t, best_a, leaving = t, a, r
                    continue
                left, right = t * best_a, best_t * a
                if left < right or (left == right and basis[r] < basis[leaving]):
                    best_t, best_a, leaving = t, a, r
        if leaving < 0:
            return UNBOUNDED, pivots, D
        D = _pivot(cols, basis, leaving, entering, alpha, D, w, g, width, best_a)
        pivots += 1


def _pivot(cols, basis, r, c, alpha, D, w, g, width, p):
    """Make column c basic in row r and return the new D, |p|.

    alpha is E·A_c packed, p its field r, the pivot entry, and g is D
    times c's reduced cost; w is None when the objective does not
    matter. With y row r of [E | rhs] and field r of alpha changed from
    p to p − D, every column x becomes (p·x − y_k·alpha) // D: field
    i ≠ r is the Bareiss step (p·x_i − a_i·y_k) / D, and field r is
    (p·y_k − (p − D)·y_k) / D = y_k. A column with y_k = 0 skips the
    alpha product. w becomes (p·w − g·y) // D. A negative pivot entry
    (only an expulsion takes one) negates row r, so that D stays
    positive: p and y change sign, and the same alpha, now −p − D in
    field r, leaves −y_k there.
    """
    y = _row(cols, r, width)
    if p < 0:
        p = -p
        y = [-v for v in y]
    alpha -= D << r * width
    cols[:] = [(p * x - v * alpha) // D if v else p * x // D for x, v in zip(cols, y)]
    if w is not None:
        # zip stops at w's end, before the rhs entry of y.
        w[:] = [(p * v - g * e) // D for v, e in zip(w, y)]
    basis[r] = c
    return p


def _expel_artificials(cols, basis, columns, D, art_start, width):
    """Pivot zero-level artificials out of the basis, drop redundant rows,
    and return the new D."""
    r = 0
    while r < len(basis):
        if basis[r] < art_start:
            r += 1
            continue
        row = _row(cols, r, width)
        for j in range(art_start):
            p = sum(row[k] * v for k, v in columns[j])
            if p != 0:
                D = _pivot(cols, basis, r, j, _column(cols, columns[j]), D, None, 0, width, p)
                r += 1
                break
        else:
            # The row reads 0 = 0 over real variables: redundant.
            count = len(basis)
            for k, x in enumerate(cols):
                fields = _unpack(x, count, width)
                del fields[r]
                cols[k] = _pack(fields, width)
            del basis[r]
    return D
