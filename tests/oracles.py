"""Independent oracles for the test suite.

Deliberately different algorithms from the code under test: the LP
oracle enumerates hyperplane intersections instead of pivoting, the
domination oracle searches a refined allocation grid instead of the
exchange graph, and the trade executor replays a certificate literally.
The multiplier and welfare oracles solve, with the exact simplex, the
linear programs whose optima the package computes in closed form.
No test_ prefix, so pytest does not collect this module.
"""

from itertools import combinations, product

from ceub.errors import InfeasibleLP, InternalVerificationFailed
from ceub.generators import DEFAULT_GRID, SplitMix64
from ceub.rationals import ONE, ZERO, rat
from ceub.simplex import EQUAL, GREATER, INFEASIBLE, LESS, OPTIMAL, make_problem, solve_lp
from ceub.market import Allocation, make_allocation


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
