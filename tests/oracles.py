"""Independent oracles for the test suite.

Deliberately different algorithms from the code under test: the LP
oracle enumerates hyperplane intersections instead of pivoting, the
domination oracle searches a refined allocation grid instead of the
exchange graph, and the trade executor replays a certificate literally.
The multiplier and welfare oracles solve, with fraction_solve_lp, the
linear programs whose optima the package computes in closed form.
LpProblem, make_problem and LpSolution are the Rational LP interface the
package's simplex once had, and the two reference solvers take them.
fraction_solve_lp is the two-phase simplex with Bland's rule on a
tableau of Rationals. row_solve_lp is that simplex on ints, as the
package ran it before its columns were packed and its phase 1 removed:
E = D·B⁻¹ as one list of ints per row, updated entry by entry, with the
bound shift, both phases and artificial expulsion. core_solve_lp puts a
"<=" problem with a nonnegative rhs through the package's simplex,
ceub.simplex._solve; it must take fraction_solve_lp's pivots and return
row_solve_lp's LpSolution, pivots and bits included. All three take a
pivot rule: BLAND, the default, or HYBRID, the package's rule (Dantzig's
column, Bland's after a degenerate pivot), whose optimum is kept only
when every nonbasic reduced cost is negative, with a Bland run from the
start otherwise.
maxmin_geq_program is the max-min LP with its agent rows written as
">= 0", which needs phase 1. maxmin_program is the "<= 0" max-min LP as
an LpProblem, and lp_maxmin is maxmin_lp as it stood before it handed
its int columns straight to the simplex: row_solve_lp on maxmin_program,
then rational_settle, the settle check on Rationals.
eager_support_with_details is the pricing pipeline as it stood before
the equilibrium became the Pareto certificate: the exchange-graph
verifier first, then the construction, then every bundle of y checked
by hand and y's report computed once more, as `ceub price` did. Its
construction runs checked_assemble_equilibrium, which scales each
tree's prices and budgets by its multiplier and puts the cycle-free
allocation through the demand oracle and the gain table, as the
package's assembly step once did on every call; assemble_equilibrium is
that step without the checks, its multipliers checked first.
bundle_utility and bundle_cost are the Rational sums over every entry
of a bundle that the package made before each allocation carried its
sharing graph; the package's utility, column sums and fast-path budgets
are now exact int sums over the graph's supports (market._dot).
degrade_allocation is the negative generator that ceub.generators once
exported: it applies a strictly losing trade to a Pareto-optimal
allocation, producing a dominated allocation whose improving cycle is
exactly the reverse trade.
fraction_max_affordable_utility is the greedy knapsack walked share by
share: the items sorted on Rational ratios, and every purchase a share
min(1, remaining / price) of its item, where the package's greedy buys
whole items until the one that does not fit.
greedy_is_in_demand_set and greedy_verify_equilibrium are the demand
oracle as it stood before the knapsack certificate: each bundle's cost
and utility summed on Rationals over every entry, the greedy's optimum
computed for every agent, and each column summed on Rationals; the
greedy is an argument, so either greedy can be put behind them. They
judge a bundle by the greedy alone, so they also demand a bundle with
a share outside [0, 1] that is affordable and worth the optimum; the
package never does.
fraction_ratio_table and fraction_solve_multiplier_lp are the
multipliers as they stood before their bang-per-buck comparisons moved
to ints: one Rational ratio per cross-tree agent-item pair.
json_reference is the document writer as it stood before formats got
its own emitter: json.dumps with two-space indentation.
The gain oracle (gain_ij, build_gain_table, fixed_point_map) is the
second route to the tree multipliers that ceub.scaling once kept beside
the closed form: the per-pair GAIN quantity and the fixed-point map F.
At a correct alpha every gain is zero and F(alpha) = alpha exactly.
They take what solve_multiplier_lp takes: the instance, the trees and
the unscaled prices, which priced bundles (Priced) for a cycle-free
allocation.
two_walk_price_forest is price_forest as it stood before its two walks
became one: decompose_forest finds each tree with a breadth-first walk,
price_tree walks it again from the same root to price it, tree_budgets
reads off each bundle's cost, and utility runs once per agent.
No test_ prefix, so pytest does not collect this module.
"""

import json
from collections import deque
from dataclasses import dataclass, replace
from itertools import combinations, product
from math import lcm
from typing import NamedTuple

from ceub import simplex
from ceub.errors import (
    CeubError,
    DimensionMismatch,
    InfeasibleLP,
    InternalVerificationFailed,
    NotAForest,
    NotParetoOptimal,
    OrphanItem,
    ZeroPrice,
)
from ceub.generators import DEFAULT_GRID, SplitMix64
from ceub.rationals import ONE, ZERO, Rational, rat
from ceub.simplex import OPTIMAL, UNBOUNDED
from ceub.graphs import AllocationGraph, make_cycle_free
from ceub.market import (
    Allocation,
    DemandReport,
    EquilibriumReport,
    Instance,
    _check_dims,
    is_in_demand_set,
    make_allocation,
    max_affordable_utility,
    max_product_paths,
    utility,
    verify_equilibrium,
    verify_pareto_optimal,
)
from ceub.maxmin import MaxMinResult
from ceub.pricing import ForestDecomposition, TreePricing, price_forest
from ceub.scaling import Equilibrium, PipelineDetails, solve_multiplier_lp


LESS = "<="
EQUAL = "="
GREATER = ">="
_RELATIONS = (LESS, EQUAL, GREATER)
_FLIP = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}

# The pivot rules: Bland's throughout, or the hybrid rule of
# ceub.simplex, kept when its optimum is certified unique.
BLAND = "bland"
HYBRID = "hybrid"

INFEASIBLE = "infeasible"


class MalformedProblem(CeubError):
    """Raised when a linear program is structurally invalid."""


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
    pivots: tuple = (0, 0)  # phase-1 and phase-2 pivot counts of the Bland run
    bits: int = 0  # bit length of the largest int in the final E and D
    hybrid: int = 0  # pivots of the hybrid rule's run, both phases together


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


def _integral(values):
    """A rational vector scaled by the lcm of its denominators: the
    integer vector and the scale."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def core_solve_lp(problem: LpProblem, rule=BLAND) -> LpSolution:
    """problem through the package's simplex, ceub.simplex._solve, under
    rule. It must be a "<=" program with a nonnegative rhs and zero
    lower bounds. Upper bounds become rows after the problem's own, as
    in row_solve_lp, and each row is scaled to ints by the lcm of its
    denominators. The Bland pivots are (0, k): there is no phase 1."""
    n = problem.var_count
    assert all(relation == LESS for _, relation, _ in problem.rows), "the core takes <= rows"
    assert not any(problem.lower), "the core takes zero lower bounds"
    work = [(coeffs, rhs) for coeffs, _, rhs in problem.rows]
    for j, bound in enumerate(problem.upper):
        if bound is not None:
            work.append((tuple(ONE if k == j else ZERO for k in range(n)), bound))
    assert all(rhs >= 0 for _, rhs in work), "the core takes a nonnegative rhs"
    columns = [[] for _ in range(n)]
    b = []
    for r, (coeffs, rhs) in enumerate(work):
        ints, _ = _integral([*coeffs, rhs])
        for j, v in enumerate(ints[:-1]):
            if v:
                columns[j].append((r, v))
        b.append(ints[-1])
    cost, _ = _integral(problem.objective)
    status, (hybrid, pivots), basis, levels, D, cols, width = simplex._solve(
        columns, b, cost, rule == BLAND
    )
    bits = simplex._read_off(cols, len(basis), width, D)
    if status != OPTIMAL:
        return LpSolution(status, None, None, (0, pivots), bits, hybrid)
    x = [ZERO] * n
    for bv, level in zip(basis, levels):
        if bv < n:
            x[bv] = Rational(level, D)
    value = sum((c * z for c, z in zip(problem.objective, x) if c != 0), ZERO)
    return LpSolution(OPTIMAL, tuple(x), value, (0, pivots), bits, hybrid)


def gauss_solve(rows, rhs):
    """Solve a square exact linear system; None if singular."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        head = aug[col][col]
        if head != 1:
            aug[col] = [v / head for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def satisfies(problem, x) -> bool:
    for coeffs, relation, rhs in problem.rows:
        lhs = sum((c * z for c, z in zip(coeffs, x) if c != 0), ZERO)
        if relation == LESS and lhs > rhs:
            return False
        if relation == GREATER and lhs < rhs:
            return False
        if relation == EQUAL and lhs != rhs:
            return False
    for j in range(problem.var_count):
        if x[j] < problem.lower[j]:
            return False
        if problem.upper[j] is not None and x[j] > problem.upper[j]:
            return False
    return True


def enumerate_vertices(problem):
    """All feasible intersections of var_count constraint/bound planes."""
    n = problem.var_count
    planes = [(coeffs, rhs) for coeffs, _, rhs in problem.rows]
    for j in range(n):
        unit = [ZERO] * n
        unit[j] = ONE
        planes.append((tuple(unit), problem.lower[j]))
        if problem.upper[j] is not None:
            planes.append((tuple(unit), problem.upper[j]))
    seen = set()
    out = []
    for combo in combinations(planes, n):
        point = gauss_solve([p[0] for p in combo], [p[1] for p in combo])
        if point is None or point in seen or not satisfies(problem, point):
            continue
        seen.add(point)
        out.append(point)
    return out


def brute_force_lp(problem):
    """(status, optimal value) by vertex enumeration.

    Only valid when every variable is boxed (finite bounds both ways):
    the feasible region is then a polytope, so it is nonempty iff it has
    a vertex and the maximum is attained at one.
    """
    assert all(b is not None for b in problem.upper), "oracle needs boxed variables"
    best = None
    for x in enumerate_vertices(problem):
        value = sum((c * z for c, z in zip(problem.objective, x) if c != 0), ZERO)
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def column_splits(n: int, den: int):
    """All ways to hand out one whole item to n agents in 1/den steps."""

    def rec(parts, remaining):
        if parts == 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in rec(parts - 1, remaining - k):
                yield (k,) + rest

    return [tuple(rat(t, den) for t in ticks) for ticks in rec(n, den)]


def grid_allocations(n: int, m: int, den: int):
    """Every fully allocated n x m matrix with entries in 1/den steps."""
    cols = column_splits(n, den)
    for chosen in product(cols, repeat=m):
        yield tuple(tuple(chosen[j][i] for j in range(m)) for i in range(n))


def utilities_of(values, rows):
    return tuple(
        sum((x * v for x, v in zip(row, vals) if x != 0), ZERO)
        for row, vals in zip(rows, values)
    )


def dominates(values, better, worse) -> bool:
    """Strict Pareto domination of one share matrix over another."""
    ub = utilities_of(values, better)
    uw = utilities_of(values, worse)
    return all(b >= w for b, w in zip(ub, uw)) and any(b > w for b, w in zip(ub, uw))


def execute_certificate(inst, alloc: Allocation, cert) -> Allocation:
    """Apply a trading-cycle certificate at half the feasible scale.

    Receiver agents[t] gains eps[t] of items[t]; the giver agents[t+1]
    loses it and is exactly compensated by the next hop, so everyone but
    agents[0] stays at the same utility and agents[0] strictly gains
    whenever the certificate ratio exceeds one.
    """
    k = len(cert.agents)
    v = inst.values
    chain = [ONE]
    for t in range(1, k):
        a = cert.agents[t]
        chain.append(chain[-1] * v[a][cert.items[t - 1]] / v[a][cert.items[t]])
    scale = min(
        alloc.x[cert.agents[(t + 1) % k]][cert.items[t]] / chain[t] for t in range(k)
    ) / 2
    assert scale > 0
    rows = [list(r) for r in alloc.x]
    for t in range(k):
        eps = scale * chain[t]
        rows[cert.agents[t]][cert.items[t]] += eps
        rows[cert.agents[(t + 1) % k]][cert.items[t]] -= eps
    return make_allocation(rows)


def multiplier_lp(inst: Instance, decomp: ForestDecomposition, pricing: TreePricing):
    """Cross-tree multipliers by the LP: maximize the smallest multiplier.

    Variables are one alpha per funded tree plus the floor lambda;
    constraints force sum(alpha) = 1, lambda <= alpha_T <= 1, and for
    every cross-tree agent-item pair the no-envy inequality
    (u_i / b_i) * alpha_T(j) >= (v_ij / p_j) * alpha_T(i), collapsed to
    the tightest ratio per ordered tree pair. Returns (alpha, lambda)
    with zeros at degenerate trees; raises InfeasibleLP when the program
    is infeasible or pins lambda at zero.
    """
    scaled = [t for t in range(decomp.tree_count) if not decomp.is_degenerate(t)]
    pos = {tree: k for k, tree in enumerate(scaled)}
    count = len(scaled)
    if count == 0:
        raise InternalVerificationFailed("no funded trees to scale")

    prices, budgets, utils = pricing.prices, pricing.budgets, pricing.utilities
    values = inst.values
    ratios: dict = {}
    for i in range(inst.agent_count):
        if budgets[i] == 0:
            continue
        s = decomp.tree_of_agent[i]
        for j in range(inst.item_count):
            t = decomp.tree_of_item[j]
            if t == s:
                continue
            r = values[i][j] * budgets[i] / (prices[j] * utils[i])
            if (s, t) not in ratios or r > ratios[(s, t)]:
                ratios[(s, t)] = r

    lam_var = count
    rows = []
    for (s, t), r in sorted(ratios.items()):
        coeffs = [ZERO] * (count + 1)
        coeffs[pos[t]] = ONE
        coeffs[pos[s]] = -r
        rows.append((coeffs, GREATER, ZERO))
    rows.append(([ONE] * count + [ZERO], EQUAL, ONE))
    for k in range(count):
        coeffs = [ZERO] * (count + 1)
        coeffs[k] = ONE
        coeffs[lam_var] = -ONE
        rows.append((coeffs, GREATER, ZERO))

    solution = fraction_solve_lp(
        make_problem(objective=[ZERO] * count + [ONE], rows=rows, upper=[ONE] * (count + 1))
    )
    if solution.status == INFEASIBLE:
        raise InfeasibleLP("multiplier program infeasible")
    if solution.status != OPTIMAL:
        raise InternalVerificationFailed(f"multiplier program {solution.status}")
    lam = solution.x[lam_var]
    if lam <= 0:
        raise InfeasibleLP("every feasible scaling pins some tree at zero")
    alpha = [ZERO] * decomp.tree_count
    for tree, k in pos.items():
        alpha[tree] = solution.x[k]
    return tuple(alpha), lam


def welfare_lp_allocation(inst, seed: int) -> Allocation:
    """Mode-"a" allocation by the welfare LP: the vertex Bland's rule
    returns for max sum_ij w_i * v_ij * x_ij s.t. column sums <= 1, with
    the weights drawn from the seed as the generator draws them."""
    rng = SplitMix64(seed)
    n, m = inst.agent_count, inst.item_count
    weights = [rng.choice(DEFAULT_GRID) for _ in range(n)]
    objective = [weights[i] * inst.values[i][j] for i in range(n) for j in range(m)]
    rows = []
    for j in range(m):
        coeffs = [ZERO] * (n * m)
        for i in range(n):
            coeffs[i * m + j] = ONE
        rows.append((coeffs, LESS, ONE))
    solution = fraction_solve_lp(make_problem(objective, rows))
    assert solution.status == OPTIMAL
    return make_allocation([[solution.x[i * m + j] for j in range(m)] for i in range(n)])


def maxmin_geq_program(inst) -> LpProblem:
    """The max-min LP with agent rows sum_j v_ij x_ij - lambda >= 0,
    as maxmin_lp built it before it moved to the "<=" form."""
    n, m = inst.agent_count, inst.item_count
    lam_var = n * m
    objective = [ZERO] * lam_var + [ONE]
    rows = []
    for i in range(n):
        coeffs = [ZERO] * (lam_var + 1)
        for j in range(m):
            coeffs[i * m + j] = inst.values[i][j]
        coeffs[lam_var] = -ONE
        rows.append((coeffs, GREATER, ZERO))
    for j in range(m):
        coeffs = [ZERO] * (lam_var + 1)
        for i in range(n):
            coeffs[i * m + j] = ONE
        rows.append((coeffs, LESS, ONE))
    return make_problem(objective, rows)


def maxmin_program(inst) -> LpProblem:
    """max lambda s.t. lambda - sum_j v_ij x_ij <= 0 for each agent i and
    sum_i x_ij <= 1 for each item j; x_ij is variable i*m + j, lambda
    the last. Built as the LpProblem that make_problem would return,
    without its per-entry checks: every entry is already a Rational."""
    n, m = inst.agent_count, inst.item_count
    lam_var = n * m
    zeros = [ZERO] * (lam_var + 1)
    rows = []
    for i, values in enumerate(inst.values):
        coeffs = zeros.copy()
        coeffs[i * m:(i + 1) * m] = [-v for v in values]
        coeffs[lam_var] = ONE
        rows.append((tuple(coeffs), LESS, ZERO))
    for j in range(m):
        coeffs = zeros.copy()
        coeffs[j:lam_var:m] = [ONE] * n
        rows.append((tuple(coeffs), LESS, ONE))
    objective = zeros.copy()
    objective[lam_var] = ONE
    return LpProblem(tuple(objective), tuple(rows), tuple(zeros), (None,) * (lam_var + 1))


def lp_maxmin(inst, rule=BLAND):
    """maxmin_lp as it stood before it reached the simplex's integer
    core directly: the Rational door on maxmin_program, which row_solve_lp
    keeps, under rule, then rational_settle. Returns (MaxMinResult,
    LpSolution)."""
    n, m = inst.agent_count, inst.item_count
    solution = row_solve_lp(maxmin_program(inst), rule)
    if solution.status != OPTIMAL:
        raise InternalVerificationFailed(f"max-min program {solution.status}")
    lam = solution.x[n * m]
    shares = [[solution.x[i * m + j] for j in range(m)] for i in range(n)]
    return MaxMinResult(rational_settle(inst, shares, lam), lam), solution


def rational_settle(inst, shares, lam) -> Allocation:
    """The allocation of shares, if every item is sold and every agent
    is at utility lam; anything else is a solver bug. The check on
    Rationals that maxmin._settle makes on ints."""
    n, m = inst.agent_count, inst.item_count
    for j in range(m):
        total = sum((shares[i][j] for i in range(n)), ZERO)
        if total != 1:
            raise InternalVerificationFailed(f"item {j} has column sum {total}, not 1")
    alloc = make_allocation(shares)
    for i in range(n):
        if utility(inst, alloc, i) != lam:
            raise InternalVerificationFailed(
                f"agent {i} settled at utility {utility(inst, alloc, i)}, not {lam}"
            )
    return alloc


def fraction_solve_lp(problem: LpProblem, rule=BLAND) -> LpSolution:
    """The exact two-phase simplex with Bland's rule on a tableau of
    Rationals, as the package's simplex ran before its integer rewrite;
    the reference that every other simplex here must pivot like.

    Under rule HYBRID it first runs the hybrid rule of ceub.simplex in
    both phases and keeps its optimum if every nonbasic column has a
    strictly negative reduced cost; otherwise it runs Bland's rule from
    the start. The int simplexes hold a slack, surplus or artificial of
    row r as s_r times the Rational one, where s_r is the lcm of the
    row's denominators, so that Dantzig's comparison takes each such
    column's reduced cost over s_r."""
    if not isinstance(problem, LpProblem):
        raise MalformedProblem(f"not an LpProblem: {type(problem).__name__}")
    if rule == HYBRID:
        solution, unique = _fraction_run(problem, True)
        if unique:
            return solution
    return _fraction_run(problem, False)[0]


def _fraction_run(problem, dantzig):
    """One run of fraction_solve_lp: (LpSolution, unique)."""
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
    unit = [ONE] * total
    for r, (coeffs, _, rhs) in enumerate(work):
        scale = lcm(*(v.denominator for v in (*coeffs, rhs)))
        for k in (slack_of_row[r], art_of_row[r]):
            if k is not None:
                unit[k] = Rational(1, scale)
    unit = unit if dantzig else None

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
        status, _ = _fraction_iterate(tableau, basis, obj, total, total, unit)
        if status == UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
            raise MalformedProblem("phase-1 objective unbounded; solver invariant broken")
        infeasibility = sum(
            (tableau[r][total] for r in range(len(basis)) if basis[r] >= art_start), ZERO
        )
        if infeasibility != 0:
            return LpSolution(INFEASIBLE, None, None), False
        _fraction_expel_artificials(tableau, basis, art_start, total)

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
    status, unique = _fraction_iterate(tableau, basis, obj, total, art_start, unit)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None), False

    shifted = [ZERO] * total
    for r, bv in enumerate(basis):
        shifted[bv] = tableau[r][total]
    x = tuple(shifted[j] + problem.lower[j] for j in range(n))
    value = sum((c * x[j] for j, c in enumerate(problem.objective) if c != 0), ZERO)
    return LpSolution(OPTIMAL, x, value), unique


def _fraction_iterate(tableau, basis, obj, total, allow, unit):
    """Run simplex pivots until optimal or unbounded; (status, unique).

    `allow` bounds the entering-column search: columns >= allow (the
    artificials in phase 2) are never eligible. With unit None, Bland's
    rule throughout. Otherwise the hybrid rule: the largest reduced cost
    times unit[j], ties to the lowest index, and Bland's column after a
    degenerate pivot; unique is whether its optimum has a strictly
    negative reduced cost in every nonbasic column.
    """
    m = len(tableau)
    bland = unit is None
    while True:
        entering = -1
        key = zeros = 0
        for j in range(allow):
            if obj[j] > 0:
                if bland:
                    entering = j  # Bland: lowest eligible index
                    break
                scaled = obj[j] * unit[j]
                if scaled > key:
                    key, entering = scaled, j
            elif obj[j] == 0:
                zeros += 1
        if entering < 0:
            return OPTIMAL, unit is not None and zeros == len(basis)
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
            return UNBOUNDED, False
        _fraction_pivot(tableau, basis, obj, leaving, entering, total)
        bland = unit is None or best == 0


def _fraction_pivot(tableau, basis, obj, r, c, total):
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


def _fraction_expel_artificials(tableau, basis, art_start, total):
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
        _fraction_pivot(tableau, basis, [ZERO] * (total + 1), r, pivot_col, total)
        r += 1


def row_solve_lp(problem: LpProblem, rule=BLAND) -> LpSolution:
    """The exact two-phase revised simplex with Bland's rule, with
    E = D·B⁻¹ held as one int row per constraint, as the package's
    Rational door ran before its columns were packed into ints and its
    phase 1 was removed; the differential oracle for both changes.
    Under rule HYBRID it first runs the hybrid rule in both phases, as
    fraction_solve_lp does, and counts that run's pivots in hybrid."""
    if not isinstance(problem, LpProblem):
        raise MalformedProblem(f"not an LpProblem: {type(problem).__name__}")
    if rule == BLAND:
        return _row_run(problem, False)[0]
    solution, unique = _row_run(problem, True)
    hybrid = sum(solution.pivots)
    if unique:
        return replace(solution, pivots=(0, 0), hybrid=hybrid)
    return replace(_row_run(problem, False)[0], hybrid=hybrid)


def _row_run(problem, dantzig):
    """One run of row_solve_lp: (LpSolution, unique)."""
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
        status, phase1, D, _ = _row_iterate(E, basis, columns, cost, w, D, total, dantzig)
        if status == UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
            raise MalformedProblem("phase-1 objective unbounded; solver invariant broken")
        # Basic levels are nonnegative, so their sum is zero only if each is.
        if any(E[r][m] != 0 for r in range(m) if basis[r] >= art_start):
            return LpSolution(INFEASIBLE, None, None, (phase1, 0), _row_bits(E, D)), False
        D = _row_expel_artificials(E, basis, columns, D, art_start)

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
    status, phase2, D, unique = _row_iterate(E, basis, columns, cost, w, D, art_start, dantzig)
    pivots = (phase1, phase2)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, pivots, _row_bits(E, D)), False

    shifted = [ZERO] * total
    for r, bv in enumerate(basis):
        shifted[bv] = Rational(E[r][m], D)
    for j, low in shifts:
        shifted[j] += low
    x = tuple(shifted[:n])
    value = sum((c * x[j] for j, c in enumerate(problem.objective) if c != 0), ZERO)
    return LpSolution(OPTIMAL, x, value, pivots, _row_bits(E, D)), unique


def _row_bits(E, D):
    """Bit length of the largest int in E and D."""
    return max(D.bit_length(), max((v.bit_length() for row in E for v in row), default=0))


def _row_column(E, column):
    """E·A_j from the nonzeros of column j: D times its tableau column."""
    alpha = [0] * len(E)
    for k, v in column:
        alpha = [a + row[k] * v for a, row in zip(alpha, E)]
    return alpha


def _row_iterate(E, basis, columns, cost, w, D, allow, dantzig):
    """Run simplex pivots until optimal or unbounded; (status, pivots,
    D, unique), with Bland's rule or, with dantzig, the hybrid rule, as
    ceub.simplex._iterate runs them.

    `allow` bounds the entering-column search: columns >= allow (the
    artificials in phase 2) are never eligible. A row's ratio rhs/a
    does not depend on D, so ratios compare by cross-multiplying.
    """
    m = len(w)
    priced = list(zip(range(allow), columns, cost))
    pivots = 0
    bland = not dantzig
    while True:
        g = zeros = 0
        for j, column, c in priced:
            d = D * c
            for r, v in column:
                d += w[r] * v
            if d > g:
                g, entering = d, j
                if bland:  # Bland: lowest eligible index
                    break
            elif d == 0:
                zeros += 1
        if g == 0:
            return OPTIMAL, pivots, D, dantzig and zeros == len(basis)
        alpha = _row_column(E, columns[entering])
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
            return UNBOUNDED, pivots, D, False
        D = _row_pivot(E, basis, leaving, entering, alpha, D, w, g)
        pivots += 1
        bland = not (dantzig and best_t)


def _row_pivot(E, basis, r, c, alpha, D, w, g):
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


def _row_expel_artificials(E, basis, columns, D, art_start):
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
                D = _row_pivot(E, basis, r, j, _row_column(E, columns[j]), D, None, 0)
                r += 1
                break
        else:
            # The row reads 0 = 0 over real variables: redundant.
            del E[r]
            del basis[r]
    return D


class SameTree(CeubError):
    """Raised when a cross-tree quantity is requested for an agent and an
    item living in the same tree."""

    def __init__(self, agent: int, item: int):
        self.agent = agent
        self.item = item
        super().__init__(f"agent {agent} and item {item} are in the same tree")


class Priced(NamedTuple):
    """An instance with the trees and unscaled prices of a cycle-free
    allocation: the arguments of solve_multiplier_lp and the gain oracle."""

    inst: Instance
    decomp: ForestDecomposition
    pricing: TreePricing


def priced(inst: Instance, x: Allocation) -> Priced:
    return Priced(inst, *price_forest(inst, x))


@dataclass(frozen=True)
class GainTable:
    """Gains of one alpha, aggregated per item and per tree.

    gain_ij[i][j] is zero for same-tree pairs and for unfunded agents;
    gain_j is the column maximum, gain_T the maximum over a tree's
    items (zero for degenerate trees, which own none).
    """

    gain_ij: tuple
    gain_j: tuple
    gain_T: tuple

    @property
    def all_zero(self) -> bool:
        return all(g == 0 for g in self.gain_T)


def v_min(inst: Instance):
    """Half the smallest valuation in the instance. It caps every gain
    so that a single bounded quantity witnesses unbounded envy (an agent
    facing a zero-scaled foreign tree would otherwise report infinite
    gain)."""
    return min(v for row in inst.values for v in row) / 2


def gain_ij(
    inst: Instance, decomp: ForestDecomposition, pricing: TreePricing, alpha, i: int, j: int
):
    """Capped utility agent i could gain from item j in a foreign tree.

    At scaling alpha, agent i's budget buys utility u_i inside her own
    tree. The gain compares that to redirecting the whole budget toward
    item j: if the scaled budget covers j's scaled price the agent
    pockets v_ij minus the utility the spent portion used to earn;
    if j's tree is scaled to zero the item is free (gain v_ij); in the
    partial-purchase case the affordable fraction of v_ij replaces u_i
    entirely. Negative gains clamp to zero and everything is capped at
    v_min.
    """
    ti = decomp.tree_of_agent[i]
    tj = decomp.tree_of_item[j]
    if ti == tj:
        raise SameTree(i, j)
    budget = pricing.budgets[i]
    if budget == 0:
        raise ValueError(f"gain is undefined for unfunded agent {i}")
    value = inst.values[i][j]
    u = pricing.utilities[i]
    scaled_price = alpha[tj] * pricing.prices[j]
    scaled_budget = alpha[ti] * budget
    if scaled_price < scaled_budget:
        raw = value - scaled_price * u / scaled_budget
    elif alpha[tj] == 0:
        raw = value
    else:
        raw = value * scaled_budget / scaled_price - u
    if raw < 0:
        raw = ZERO
    cap = v_min(inst)
    return raw if raw < cap else cap


def build_gain_table(
    inst: Instance, decomp: ForestDecomposition, pricing: TreePricing, alpha
) -> GainTable:
    n, m = inst.agent_count, inst.item_count
    toa = decomp.tree_of_agent
    toi = decomp.tree_of_item
    budgets = pricing.budgets
    matrix = tuple(
        tuple(
            ZERO
            if budgets[i] == 0 or toa[i] == toi[j]
            else gain_ij(inst, decomp, pricing, alpha, i, j)
            for j in range(m)
        )
        for i in range(n)
    )
    per_item = tuple(max(matrix[i][j] for i in range(n)) for j in range(m))
    per_tree = tuple(
        max((per_item[j] for j in items), default=ZERO)
        for items in decomp.tree_items
    )
    return GainTable(matrix, per_item, per_tree)


def _check_alpha(decomp: ForestDecomposition, alpha) -> None:
    """alpha must be a point of the simplex over the funded trees."""
    if len(alpha) != decomp.tree_count:
        raise ValueError(f"{len(alpha)} multipliers for {decomp.tree_count} trees")
    if any(a < 0 for a in alpha):
        raise ValueError("negative multiplier")
    if sum(alpha, ZERO) != 1:
        raise ValueError("multipliers must sum to 1")
    for t in range(decomp.tree_count):
        if decomp.is_degenerate(t) and alpha[t] != 0:
            raise ValueError(f"tree {t} has no items; its multiplier must be 0")


def fixed_point_map(
    inst: Instance, decomp: ForestDecomposition, pricing: TreePricing, alpha
) -> tuple:
    """One step of F(alpha)_T = (alpha_T + GAIN_T) / (1 + sum GAIN).

    Maps the simplex to itself; alpha is a fixed point exactly when all
    gains vanish, which is the equilibrium condition.
    """
    _check_alpha(decomp, alpha)
    table = build_gain_table(inst, decomp, pricing, alpha)
    denom = ONE + sum(table.gain_T, ZERO)
    return tuple((alpha[t] + table.gain_T[t]) / denom for t in range(len(alpha)))


def assemble_equilibrium(
    inst: Instance, x: Allocation, decomp: ForestDecomposition, pricing: TreePricing, alpha
) -> Equilibrium:
    """Each tree's prices and budgets scaled by its multiplier in alpha,
    which is checked first (ValueError)."""
    _check_alpha(decomp, alpha)
    prices = tuple(
        pricing.prices[j] * alpha[decomp.tree_of_item[j]] for j in range(inst.item_count)
    )
    budgets = tuple(
        pricing.budgets[i] * alpha[decomp.tree_of_agent[i]] for i in range(inst.agent_count)
    )
    return Equilibrium(prices, budgets, tuple(alpha), x, decomp)


def checked_assemble_equilibrium(
    inst: Instance, x: Allocation, decomp: ForestDecomposition, pricing: TreePricing, alpha
) -> Equilibrium:
    """The assembly step as it stood while it checked its own result.

    The scaled pair must support the cycle-free allocation under the
    demand oracle, and the gain table at alpha must be identically zero.
    Failure of either check is a pipeline bug, not a property of the
    input.
    """
    eq = assemble_equilibrium(inst, x, decomp, pricing, alpha)
    report = verify_equilibrium(inst, x, eq.prices, eq.budgets)
    if not report.supported:
        raise InternalVerificationFailed(
            "scaled prices fail the demand oracle on the cycle-free allocation"
        )
    if not build_gain_table(inst, decomp, pricing, alpha).all_zero:
        raise InternalVerificationFailed("gain table is nonzero at the solved multipliers")
    return eq


def eager_support_with_details(inst: Instance, y: Allocation) -> PipelineDetails:
    """support_pipeline, returning every intermediate for auditing."""
    verdict = verify_pareto_optimal(inst, y)
    if not verdict.ok:
        raise NotParetoOptimal(verdict.reason, verdict=verdict)
    x = make_cycle_free(inst, y)
    decomp, pricing = price_forest(inst, x)
    alpha, lam = solve_multiplier_lp(inst, decomp, pricing)
    eq = checked_assemble_equilibrium(inst, x, decomp, pricing, alpha)
    # The same prices and budgets must support the original allocation:
    # its bundles cost exactly the budgets and sit in the demand sets.
    for i in range(inst.agent_count):
        if bundle_cost(y.x[i], eq.prices) != eq.budgets[i]:
            raise InternalVerificationFailed(
                f"original bundle of agent {i} does not cost its budget"
            )
        if not is_in_demand_set(inst, eq.prices, eq.budgets[i], i, y.x[i]).in_demand_set:
            raise InternalVerificationFailed(
                f"original bundle of agent {i} left its demand set"
            )
    # The report `ceub price` then computed for its output file.
    report = verify_equilibrium(inst, y, eq.prices, eq.budgets)
    return PipelineDetails(eq, pricing, lam, report)


def bundle_utility(inst: Instance, bundle, i: int):
    """Agent i's utility for bundle, summed on Rationals over every entry."""
    vals = inst.values[i]
    return sum((z * vals[j] for j, z in enumerate(bundle) if z != 0), ZERO)


def bundle_cost(bundle, prices):
    """What bundle costs at prices, summed on Rationals over every entry."""
    return sum((z * prices[j] for j, z in enumerate(bundle) if z != 0), ZERO)


def degrade_allocation(inst: Instance, alloc: Allocation, seed: int):
    """A strictly dominated allocation, or None if no losing trade exists.

    Picks agents i1, i2 and items j1, j2 where i1 holds j1, i2 holds
    j2, and the 2x2 minor is strictly unbalanced, then trades j1 for j2
    at i2's indifference rate. i2 stays exactly whole and the unbalance
    makes i1 strictly worse, so the result is dominated by the input
    and the reverse trade is the improving cycle a verifier must find.
    On a Pareto-optimal input every feasible trade at i2's rate is
    losing or neutral for i1, so only the strict-minor check matters.
    """
    n, m = inst.agent_count, inst.item_count
    v = inst.values
    x = alloc.x
    candidates = [
        (i1, j1, i2, j2)
        for i1 in range(n)
        for i2 in range(n)
        if i1 != i2
        for j1 in range(m)
        for j2 in range(m)
        if j1 != j2
        and x[i1][j1] > 0
        and x[i2][j2] > 0
        and v[i1][j2] * v[i2][j1] < v[i1][j1] * v[i2][j2]
    ]
    if not candidates:
        return None
    rng = SplitMix64(seed)
    i1, j1, i2, j2 = rng.choice(candidates)
    limit = min(x[i1][j1], x[i2][j2] * v[i2][j2] / v[i2][j1])
    delta = limit * rat(1 + rng.below(3), 4)
    repay = delta * v[i2][j1] / v[i2][j2]
    rows = [list(r) for r in x]
    rows[i1][j1] -= delta
    rows[i2][j1] += delta
    rows[i2][j2] -= repay
    rows[i1][j2] += repay
    return make_allocation(rows)


def fraction_max_affordable_utility(inst: Instance, prices, budget, i: int):
    """Best utility agent i can afford: greedy fractional knapsack.

    Items are bought in decreasing bang-per-buck v[i][j]/p[j] (ties by
    ascending item index), at most one unit each, until the budget runs
    out. For this structure the greedy optimum is exact.
    """
    if len(prices) != inst.item_count:
        raise DimensionMismatch(f"{len(prices)} prices for {inst.item_count} items")
    for j, p in enumerate(prices):
        if p <= 0:
            raise ZeroPrice(j)
    budget = rat(budget)
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    vals = inst.values[i]
    order = sorted(range(inst.item_count), key=lambda j: (-(vals[j] / prices[j]), j))
    remaining = budget
    total = ZERO
    for j in order:
        if remaining <= 0:
            break
        share = remaining / prices[j]
        if share > 1:
            share = ONE
        total += share * vals[j]
        remaining -= share * prices[j]
    return total


def greedy_is_in_demand_set(
    inst: Instance, prices, budget, i: int, bundle, optimum=max_affordable_utility
) -> DemandReport:
    """Check one bundle against agent i's demand set at (prices, budget)."""
    if len(bundle) != inst.item_count:
        raise DimensionMismatch(f"bundle has {len(bundle)} entries for {inst.item_count} items")
    if len(prices) != inst.item_count:
        raise DimensionMismatch(f"{len(prices)} prices for {inst.item_count} items")
    bundle = tuple(rat(z) for z in bundle)
    budget = rat(budget)
    spend = bundle_cost(bundle, prices)
    achieved = bundle_utility(inst, bundle, i)
    optimal = optimum(inst, prices, budget, i)
    return DemandReport(
        agent=i,
        achieved_utility=achieved,
        optimal_utility=optimal,
        spend=spend,
        in_demand_set=(spend <= budget and achieved == optimal),
    )


def greedy_verify_equilibrium(
    inst: Instance, alloc: Allocation, prices, budgets, optimum=max_affordable_utility
) -> EquilibriumReport:
    """Demand-oracle verification of a price/budget pair against an
    allocation: every agent's bundle must be affordable and optimal;
    market flags record full allocation and exact budget exhaustion."""
    _check_dims(inst, alloc)
    if len(budgets) != inst.agent_count:
        raise DimensionMismatch(f"{len(budgets)} budgets for {inst.agent_count} agents")
    reports = tuple(
        greedy_is_in_demand_set(inst, prices, budgets[i], i, alloc.x[i], optimum)
        for i in range(inst.agent_count)
    )
    fully = all(
        sum((row[j] for row in alloc.x if row[j] != 0), ZERO) == 1
        for j in range(inst.item_count)
    )
    exhausted = all(reports[i].spend == rat(budgets[i]) for i in range(inst.agent_count))
    return EquilibriumReport(reports, fully, exhausted)


def fraction_ratio_table(inst: Instance, decomp: ForestDecomposition, pricing: TreePricing) -> dict:
    """(tree of i, tree of j) -> tightest v_ij*b_i / (p_j*u_i), on Rationals."""
    prices, budgets, utils = pricing.prices, pricing.budgets, pricing.utilities
    values = inst.values
    ratios: dict = {}
    for i in range(inst.agent_count):
        if budgets[i] == 0:
            continue
        s = decomp.tree_of_agent[i]
        for j in range(inst.item_count):
            t = decomp.tree_of_item[j]
            if t == s:
                continue
            r = values[i][j] * budgets[i] / (prices[j] * utils[i])
            key = (s, t)
            if key not in ratios or r > ratios[key]:
                ratios[key] = r
    return ratios


def fraction_solve_multiplier_lp(inst: Instance, decomp: ForestDecomposition, pricing: TreePricing):
    """solve_multiplier_lp with the ratio table of fraction_ratio_table."""
    funded = [t for t in range(decomp.tree_count) if not decomp.is_degenerate(t)]
    if not funded:
        raise InternalVerificationFailed("no funded trees to scale")
    ratios = fraction_ratio_table(inst, decomp, pricing)
    d, cycle = max_product_paths(decomp.tree_count, [(s, t, r) for (s, t), r in ratios.items()])
    if cycle is not None:
        raise InfeasibleLP(
            f"ratio pairs around trees {cycle} multiply to more than 1, so no "
            "positive per-tree scaling removes cross-tree envy; "
            "the allocation is not Pareto optimal"
        )
    total = sum((d[t] for t in funded), ZERO)
    alpha = [ZERO] * decomp.tree_count
    for t in funded:
        alpha[t] = d[t] / total
    return tuple(alpha), ONE / total


def json_reference(doc) -> str:
    """A document as json.dumps writes it, with the trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def decompose_forest(g: AllocationGraph) -> ForestDecomposition:
    """Group agents and items into trees, rejecting cyclic graphs.

    Every item must be held by at least one agent (OrphanItem
    otherwise), so each tree contains an agent; agents open trees in
    ascending order, so trees come out numbered by their lowest agent.
    """
    n, m = g.agent_count, g.item_count
    for j in range(m):
        if not g.item_agents[j]:
            raise OrphanItem(j)

    tree_of_agent = [-1] * n
    tree_of_item = [-1] * m
    tree_agents = []
    tree_items = []
    for i in range(n):
        if tree_of_agent[i] != -1:
            continue
        tree = len(tree_agents)
        agents, items = [], []
        edges_seen = 0
        queue = deque([i])
        tree_of_agent[i] = tree
        while queue:
            a = queue.popleft()
            agents.append(a)
            for j in g.agent_items[a]:
                edges_seen += 1
                if tree_of_item[j] == -1:
                    tree_of_item[j] = tree
                    items.append(j)
                    for other in g.item_agents[j]:
                        if tree_of_agent[other] == -1:
                            tree_of_agent[other] = tree
                            queue.append(other)
        # A connected graph on k vertices with k or more edges has a cycle.
        if edges_seen >= len(agents) + len(items):
            raise NotAForest(
                f"component of agent {i} has {edges_seen} edges on "
                f"{len(agents) + len(items)} vertices"
            )
        tree_agents.append(tuple(sorted(agents)))
        tree_items.append(tuple(sorted(items)))

    return ForestDecomposition(
        tree_count=len(tree_agents),
        tree_of_agent=tuple(tree_of_agent),
        tree_of_item=tuple(tree_of_item),
        tree_agents=tuple(tree_agents),
        tree_items=tuple(tree_items),
        roots=tuple(agents[0] for agents in tree_agents),
    )


def price_tree(inst: Instance, g: AllocationGraph, decomp: ForestDecomposition, tree: int) -> dict:
    """Item prices within one tree, anchored at its root agent.

    The root's adjacent items are priced at the root's valuation;
    breadth-first propagation across shared items then forces every
    other price by indifference: an agent holding j at price p_j prices
    any other item k it holds at p_k = v_ik * p_j / v_ik-anchor, i.e.
    all of an agent's held items cost the same per unit of value.
    """
    v = inst.values
    root = decomp.roots[tree]
    prices: dict = {}
    # rate[i] = p_j / v_ij, identical for every item j agent i holds.
    rate: dict = {root: Rational(1)}
    queue = deque([root])
    seen_agents = {root}
    while queue:
        i = queue.popleft()
        for j in g.agent_items[i]:
            if j not in prices:
                prices[j] = rate[i] * v[i][j]
            for other in g.item_agents[j]:
                if other not in seen_agents:
                    seen_agents.add(other)
                    rate[other] = prices[j] / v[other][j]
                    queue.append(other)
    return prices


def tree_budgets(alloc: Allocation, prices) -> tuple:
    """Per-agent budgets: exactly what each agent's bundle costs.

    With anchored tree prices this makes budget exhaustion hold by
    construction. An agent holding nothing gets budget zero.
    """
    return tuple(bundle_cost(row, prices) for row in alloc.x)


def two_walk_price_forest(inst: Instance, alloc: Allocation) -> tuple:
    """price_forest as it stood before its two walks became one."""
    _check_dims(inst, alloc)
    g = alloc.graph
    decomp = decompose_forest(g)
    prices = [None] * inst.item_count
    for tree in range(decomp.tree_count):
        if decomp.is_degenerate(tree):
            continue
        for j, p in price_tree(inst, g, decomp, tree).items():
            prices[j] = p
    if None in prices:
        raise InternalVerificationFailed(f"item {prices.index(None)} was left unpriced")
    budgets = tree_budgets(alloc, prices)
    utilities = tuple(utility(inst, alloc, i) for i in range(inst.agent_count))
    return decomp, TreePricing(tuple(prices), budgets, utilities)
