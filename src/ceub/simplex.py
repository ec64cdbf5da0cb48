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

Pivoting follows Bland's rule: the entering column is the lowest index
with positive reduced cost, and the leaving row breaks ratio ties by
the lowest basic index. That guarantees termination and makes the
solver fully deterministic. Pivots depend only on signs and on ratios
within a column, and neither depends on D, on row scales or on how E is
stored, so the pivot sequence is the one the Rational tableau would
take. tests/oracles.py keeps that tableau as fraction_solve_lp, and
this simplex with one int list per row of E, two phases and Rational
problems as row_solve_lp.
"""

from __future__ import annotations

from math import isqrt, prod

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def _solve(columns, b, cost):
    """The simplex on sparse int columns, for "<=" rows with b >= 0.

    columns are the structural columns, each a list of (row, int) for
    its nonzeros in row order; b is the rhs, one nonnegative int per
    row, and cost the objective on the structural columns, as ints.
    Each row gets a slack, so the starting basis is the identity, with
    w = 0 and D = 1.

    Returns (status, pivots, basis, levels, D, cols, width): levels are
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
    cols = [1 << (k * width) for k in range(m)]
    cols.append(_pack(b, width))
    basis = list(range(len(columns), len(columns) + m))
    columns = list(columns) + [[(r, 1)] for r in range(m)]
    cost = list(cost) + [0] * m
    status, pivots, D = _iterate(cols, basis, columns, cost, [0] * m, 1, width)
    levels = _unpack(cols[m], m, width)
    return status, pivots, basis, levels, D, cols, width


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


def _iterate(cols, basis, columns, cost, w, D, width):
    """Run simplex pivots until optimal or unbounded; (status, pivots, D).

    A row's ratio rhs/a does not depend on D, so ratios compare by
    cross-multiplying.
    """
    m = len(w)
    priced = list(zip(range(len(columns)), columns, cost))
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
