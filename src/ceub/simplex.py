"""Exact linear programming on integers: the max-min program's simplex.

A primal simplex for "maximize c·x subject to A·x <= b, x >= 0" with
b >= 0, on sparse int columns. Its one caller is ``maxmin.maxmin_lp``,
which builds the int columns of the max-min program straight from the
valuations and reads its own answer off the returned ints. Since b is
nonnegative, the origin with every slack basic is feasible, so there is
no phase 1. Everything is exact, and optimality and unboundedness are
decided by exact sign tests, so there are no tolerances anywhere.

It is the revised simplex (Dantzig & Orchard-Hays 1954) kept
fraction-free in the manner of Edmonds (1967) and Bareiss (1968). The
constraint matrix is never rewritten: it is held as sparse int columns,
with a slack column per row, so the starting basis is the identity. The
state is

* ``D``, a positive int: the absolute value of the basis determinant;
* ``E = D·B⁻¹`` beside the rhs column ``D·B⁻¹b``;
* ``w = −D·y``, the duals y times −D, as a list of ints.

``D·c_j + w·A_j`` is D times the reduced cost of column j, and
``E·A_j`` is D times its tableau column, so a pivot prices and ratio
tests columns on demand, from their nonzeros. It then takes the Bareiss
step ``(p·x − a·y) // D`` on every other row of [E | rhs], and on w,
where p is the pivot entry, a the row's entry in the entering column
and y the pivot row. The division is exact, since E stays the adjugate
of B up to sign, and D becomes p.

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
[A | slacks | b], and every minor is at most the product of the
Euclidean norms of that matrix's rows, each at least 1 since each row
holds a slack. W is the bit length of that bound plus a sign bit, so
every entry fits its field and decoding is exact; carries between
fields in the packed int lose nothing, since it is an exact integer.

Pivoting follows a hybrid rule, kept only when it is certified. The
entering column is the one with the largest D·reduced cost, ties to the
lowest index (Dantzig 1963), except right after a degenerate pivot
(ratio 0), when it is the lowest index with a positive reduced cost
(Bland 1977). The leaving row breaks ratio ties by the lowest basic
index. Every cycle would consist of degenerate pivots only, each of
them Bland's, so the rule terminates. At its optimum, if every nonbasic
column has a strictly negative reduced cost, that optimum is the
program's only one (Mangasarian, "Uniqueness of solution in linear
programming", 1979), so it is the vertex Bland's rule reaches, and it
is returned. Otherwise, and if the program is unbounded, the solver
starts again from the all-slack basis under Bland's rule throughout;
the caller can also ask for that run alone. Either way the vertex is
Bland's, and the solver is fully deterministic. As a guard against a
solver fault, a run that would pivot more than 2·C(columns, rows) times,
slacks counted among the columns, raises InternalVerificationFailed:
Bland's rule never repeats a basis, and under the hybrid rule only the
first basis of a degenerate stretch can recur, once.

Pivots depend only on signs, on ratios within a column and on reduced
costs compared at one D, and none of these depends on how E is stored,
so the pivot sequence is the one the Rational tableau would take, with
each slack's reduced cost divided by its row's scale. tests/oracles.py
keeps that tableau as fraction_solve_lp, and this simplex with one int
list per row of E, two phases and Rational problems as row_solve_lp;
both take either rule.
"""

from __future__ import annotations

from math import comb, isqrt, prod

from .errors import InternalVerificationFailed

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _solve(columns, b, cost, bland_first=False):
    """The simplex on sparse int columns, for "<=" rows with b >= 0.

    columns are the structural columns, each a list of (row, int) for
    its nonzeros in row order; b is the rhs, one nonnegative int per
    row, and cost the objective on the structural columns, as ints.
    Each row gets a slack, so the starting basis is the identity, with
    w = 0 and D = 1. The hybrid rule goes first, and its optimum is
    kept if it is certified unique; otherwise, or from the start when
    bland_first is set, Bland's rule runs from that basis.

    Returns (status, pivots, basis, levels, D, cols, width): pivots is
    the pair (hybrid, Bland) of pivots made under each rule, levels are
    the basic levels times D, and cols the packed columns of [E | rhs]
    in fields of width bits.
    """
    m = len(b)
    # Hadamard's bound on the minors of [A | slacks | b]: the product of
    # its row norms, each at least 1.
    norms = [v * v + 1 for v in b]
    for column in columns:
        for r, v in column:
            norms[r] += v * v
    width = isqrt(prod(norms)).bit_length() + 1
    n = len(columns)
    columns = list(columns) + [[(r, 1)] for r in range(m)]
    cost = list(cost) + [0] * m
    hybrid = 0
    if not bland_first:
        cols, basis = _slack_basis(b, n, width)
        status, hybrid, D, unique = _iterate(cols, basis, columns, cost, [0] * m, 1, width, True)
        if unique:
            return status, (hybrid, 0), basis, _unpack(cols[m], m, width), D, cols, width
    cols, basis = _slack_basis(b, n, width)
    status, bland, D, _ = _iterate(cols, basis, columns, cost, [0] * m, 1, width, False)
    return status, (hybrid, bland), basis, _unpack(cols[m], m, width), D, cols, width


def _slack_basis(b, n, width):
    """The packed [E | rhs] = [I | b] and the basis of the slacks, the
    columns after the n structural ones."""
    m = len(b)
    cols = [1 << (k * width) for k in range(m)]
    cols.append(_pack(b, width))
    return cols, list(range(n, n + m))


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


def _iterate(cols, basis, columns, cost, w, D, width, dantzig):
    """Run simplex pivots until optimal or unbounded; (status, pivots,
    D, unique). Bland's rule throughout, or with dantzig the hybrid
    rule; unique is whether the hybrid rule's optimum has a strictly
    negative reduced cost in every nonbasic column.

    The pass that finds no positive reduced cost has priced every
    column, and a basic column's is exactly 0, so the optimum is
    certified when exactly one column per row priced at 0. A row's
    ratio rhs/a does not depend on D, so ratios compare by
    cross-multiplying.
    """
    m = len(w)
    priced = list(zip(range(len(columns)), columns, cost))
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    span = len(basis) * width
    bias = half * (((1 << span) - 1) // mask)
    cap = 2 * comb(len(columns), m)
    pivots = 0
    bland = not dantzig
    while True:
        best = zeros = 0
        for j, column, c in priced:
            g = D * c
            for r, v in column:
                g += w[r] * v
            if g > best:
                best, entering = g, j
                if bland:  # Bland: lowest eligible index
                    break
            elif not g:
                zeros += 1
        if not best:
            return OPTIMAL, pivots, D, dantzig and zeros == m
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
            return UNBOUNDED, pivots, D, False
        if pivots == cap:
            raise InternalVerificationFailed(f"the simplex made {cap} pivots without an optimum")
        D = _pivot(cols, basis, leaving, entering, alpha, D, w, best, width, best_a)
        pivots += 1
        # After a degenerate pivot the hybrid rule takes Bland's column.
        bland = not (dantzig and best_t)


def _pivot(cols, basis, r, c, alpha, D, w, g, width, p):
    """Make column c basic in row r and return the new D, p.

    alpha is E·A_c packed, p > 0 its field r, the pivot entry, and g is
    D times c's reduced cost. With y row r of [E | rhs] and field r of
    alpha changed from p to p − D, every column x becomes
    (p·x − y_k·alpha) // D: field i ≠ r is the Bareiss step
    (p·x_i − a_i·y_k) / D, and field r is (p·y_k − (p − D)·y_k) / D =
    y_k. A column with y_k = 0 skips the alpha product. w becomes
    (p·w − g·y) // D.
    """
    y = _row(cols, r, width)
    alpha -= D << r * width
    cols[:] = [(p * x - v * alpha) // D if v else p * x // D for x, v in zip(cols, y)]
    # zip stops at w's end, before the rhs entry of y.
    w[:] = [(p * v - g * e) // D for v, e in zip(w, y)]
    basis[r] = c
    return p
