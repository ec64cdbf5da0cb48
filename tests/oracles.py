"""Independent oracles for the test suite.

Deliberately different algorithms from the code under test: the LP
oracle enumerates hyperplane intersections instead of pivoting, the
domination oracle searches a refined allocation grid instead of the
exchange graph, and the trade executor replays a certificate literally.
The multiplier and welfare oracles solve, with the exact simplex, the
linear programs whose optima the package computes in closed form.
fraction_solve_lp is the simplex as it stood before its tableau moved
to integers: the same pivots, on Rationals. maxmin_geq_program is the
max-min LP with its agent rows written as ">= 0", which needs phase 1.
eager_support_with_details is the pricing pipeline as it stood before
the equilibrium became the Pareto certificate: the exchange-graph
verifier first, then the construction, then every bundle of y checked
by hand and y's report computed once more, as `ceub price` did. Its
construction runs checked_assemble_equilibrium, which puts the
cycle-free allocation through the demand oracle and the gain table as
assemble_equilibrium once did on every call.
fraction_max_affordable_utility is the greedy demand oracle as it stood
before its bang-per-buck order moved to integers and its walk to whole
units: the items sorted on Rational ratios, and every purchase a share
min(1, remaining / price) of its item.
No test_ prefix, so pytest does not collect this module.
"""

from itertools import combinations, product

from ceub.errors import (
    DimensionMismatch,
    InfeasibleLP,
    InternalVerificationFailed,
    MalformedProblem,
    NotParetoOptimal,
    ZeroPrice,
)
from ceub.generators import DEFAULT_GRID, SplitMix64
from ceub.rationals import ONE, ZERO, rat
from ceub.simplex import (
    EQUAL,
    GREATER,
    INFEASIBLE,
    LESS,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    LpSolution,
    make_problem,
    solve_lp,
)
from ceub.graphs import make_cycle_free
from ceub.market import (
    Allocation,
    Instance,
    bundle_cost,
    is_in_demand_set,
    make_allocation,
    verify_equilibrium,
    verify_pareto_optimal,
)
from ceub.scaling import (
    Equilibrium,
    PipelineDetails,
    assemble_equilibrium,
    build_gain_state,
    build_gain_table,
    solve_multiplier_lp,
)


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


def multiplier_lp(state):
    """Cross-tree multipliers by the LP: maximize the smallest multiplier.

    Variables are one alpha per funded tree plus the floor lambda;
    constraints force sum(alpha) = 1, lambda <= alpha_T <= 1, and for
    every cross-tree agent-item pair the no-envy inequality
    (u_i / b_i) * alpha_T(j) >= (v_ij / p_j) * alpha_T(i), collapsed to
    the tightest ratio per ordered tree pair. Returns (alpha, lambda)
    with zeros at degenerate trees; raises InfeasibleLP when the program
    is infeasible or pins lambda at zero.
    """
    decomp = state.decomp
    scaled = [t for t in range(decomp.tree_count) if not decomp.is_degenerate(t)]
    pos = {tree: k for k, tree in enumerate(scaled)}
    count = len(scaled)
    if count == 0:
        raise InternalVerificationFailed("no funded trees to scale")

    prices, budgets, utils = state.pricing.prices, state.pricing.budgets, state.pricing.utilities
    values = state.inst.values
    ratios: dict = {}
    for i in range(state.inst.agent_count):
        if budgets[i] == 0:
            continue
        s = decomp.tree_of_agent[i]
        for j in range(state.inst.item_count):
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

    solution = solve_lp(
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
    solution = solve_lp(make_problem(objective, rows))
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


def fraction_solve_lp(problem: LpProblem) -> LpSolution:
    """The exact two-phase simplex with Bland's rule on a tableau of
    Rationals, as ceub.simplex.solve_lp ran before its integer rewrite;
    the differential oracle for that rewrite."""
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
        status = _fraction_iterate(tableau, basis, obj, total, allow=total)
        if status == UNBOUNDED:  # cannot happen: phase-1 objective is bounded by 0
            raise MalformedProblem("phase-1 objective unbounded; solver invariant broken")
        infeasibility = sum(
            (tableau[r][total] for r in range(len(basis)) if basis[r] >= art_start), ZERO
        )
        if infeasibility != 0:
            return LpSolution(INFEASIBLE, None, None)
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
    status = _fraction_iterate(tableau, basis, obj, total, allow=art_start)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None)

    shifted = [ZERO] * total
    for r, bv in enumerate(basis):
        shifted[bv] = tableau[r][total]
    x = tuple(shifted[j] + problem.lower[j] for j in range(n))
    value = sum((c * x[j] for j, c in enumerate(problem.objective) if c != 0), ZERO)
    return LpSolution(OPTIMAL, x, value)


def _fraction_iterate(tableau, basis, obj, total, allow):
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
        _fraction_pivot(tableau, basis, obj, leaving, entering, total)


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


def checked_assemble_equilibrium(state, alpha) -> Equilibrium:
    """assemble_equilibrium as it stood while it checked its own result.

    The scaled pair must support the cycle-free allocation under the
    demand oracle, and the gain table at alpha must be identically zero.
    Failure of either check is a pipeline bug, not a property of the
    input.
    """
    eq = assemble_equilibrium(state, alpha)
    report = verify_equilibrium(state.inst, state.alloc, eq.prices, eq.budgets)
    if not report.supported:
        raise InternalVerificationFailed(
            "scaled prices fail the demand oracle on the cycle-free allocation"
        )
    if not build_gain_table(state, alpha).all_zero:
        raise InternalVerificationFailed("gain table is nonzero at the solved multipliers")
    return eq


def eager_support_with_details(inst: Instance, y: Allocation) -> PipelineDetails:
    """support_pipeline, returning every intermediate for auditing."""
    verdict = verify_pareto_optimal(inst, y)
    if not verdict.ok:
        if verdict.unallocated_item is not None:
            raise NotParetoOptimal(
                f"item {verdict.unallocated_item} is not fully allocated; "
                "handing out the remainder improves someone",
                verdict=verdict,
            )
        c = verdict.certificate
        raise NotParetoOptimal(
            f"improving trade cycle through agents {c.agents} and items {c.items} "
            f"(ratio {c.improvement_ratio})",
            verdict=verdict,
        )
    x = make_cycle_free(inst, y)
    state = build_gain_state(inst, x)
    alpha, lam = solve_multiplier_lp(state)
    eq = checked_assemble_equilibrium(state, alpha)
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
    return PipelineDetails(eq, state, alpha, lam, x, report)


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
