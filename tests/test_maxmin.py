"""Max-min allocations: exact LP route, the two fast paths, and the
equal-utility + Pareto-optimality characterization."""

import logging
import random

import pytest

from ceub import maxmin
from ceub.errors import InternalVerificationFailed, WrongAgentCount, WrongItemCount
from ceub.generators import GenConfig, gen_instance, gen_structured_instance
from ceub.market import make_allocation, utility, validate_instance, verify_equilibrium
from ceub.maxmin import (
    check_maxmin_characterization,
    maxmin_lp,
    maxmin_two_agents,
    maxmin_two_items,
)
from ceub.rationals import Rational, rat

from oracles import LESS, make_problem, maxmin_geq_program, maxmin_program


def probe_bound(n: int) -> int:
    # ceil(log2 n) + 1 candidate evaluations for the binary search
    return (n - 1).bit_length() + 1


def test_toy_maxmin():
    inst = validate_instance([[1], [99]])
    result = maxmin_lp(inst)
    assert result.lam == rat(99, 100)
    assert result.allocation.x == ((rat(99, 100),), (rat(1, 100),))


def test_identical_agents_share_evenly():
    inst = validate_instance([[1], [1], [1]])
    result = maxmin_lp(inst)
    assert result.lam == rat(1, 3)
    assert result.allocation.x == ((rat(1, 3),), (rat(1, 3),), (rat(1, 3),))


def test_matched_diagonal_gets_own_items():
    inst = validate_instance([[3, 1], [1, 3]])
    result = maxmin_lp(inst)
    assert result.lam == 3
    assert result.allocation.x == ((rat(1), rat(0)), (rat(0), rat(1)))


def test_symmetric_square():
    inst = validate_instance([[1, 1], [1, 1]])
    result = maxmin_lp(inst)
    assert result.lam == 1
    assert utility(inst, result.allocation, 0) == 1
    assert utility(inst, result.allocation, 1) == 1


def test_single_agent_takes_everything():
    inst = validate_instance([[2, 5]])
    result = maxmin_lp(inst)
    assert result.lam == 7
    assert result.allocation.x == ((rat(1), rat(1)),)


def test_lp_output_is_settled():
    rng = random.Random(31)
    for seed in range(40):
        cfg = GenConfig(seed=seed, agents=rng.randrange(1, 6), items=rng.randrange(1, 6))
        inst = gen_instance(cfg)
        result = maxmin_lp(inst)
        n, m = inst.agent_count, inst.item_count
        for i in range(n):
            assert utility(inst, result.allocation, i) == result.lam
        for j in range(m):
            assert result.allocation.column_sum(j) == 1
        assert check_maxmin_characterization(inst, result.allocation)


def test_lp_logs_one_info_line(caplog):
    # The agents disagree on the items' relative worth, so the hybrid rule
    # goes first, and its optimum is certified unique: no Bland pivots.
    # Bland's rule alone takes 6 pivots here.
    inst = validate_instance([[3, 1], [1, 3]])
    with caplog.at_level(logging.INFO, logger="ceub.maxmin"):
        maxmin_lp(inst)
    assert [r.getMessage() for r in caplog.records if r.name == "ceub.maxmin"] == [
        "max-min LP 2x2: 4 rows, 5 columns, pivots 5 hybrid + 0 Bland, 4 bits, lambda=3"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ceub.maxmin"):
        maxmin_lp(inst)
    assert not [r for r in caplog.records if r.name == "ceub.maxmin"]


# ---------------------------------------------------------------- settle

# [[3, 1], [1, 3]] at D = 2: each agent holds its favourite item whole,
# utility 3, that is lam = 6 over D.
SETTLED = dict(weights=[[3, 1], [1, 3]], scales=[1, 1], shares=[[2, 0], [0, 2]], lam=6, D=2)


def settle(**changes):
    args = {**SETTLED, **changes}
    maxmin._settle(args["weights"], args["scales"], args["shares"], args["lam"], args["D"])


def test_settle_accepts_a_settled_allocation():
    settle()
    settle(weights=[[6, 2], [1, 3]], scales=[2, 1])  # agent 0's values over 2


@pytest.mark.parametrize(
    "shares, message",
    [
        ([[2, -1], [0, 2]], r"x\[0\]\[1\] = -1/2 outside"),  # negative
        ([[3, 0], [0, 2]], r"x\[0\]\[0\] = 3/2 outside"),  # above D
        ([[2, 0], [1, 2]], r"item 0 has column sum 3/2"),  # D + 1
        ([[1, 0], [0, 2]], r"item 0 has column sum 1/2"),  # D - 1
    ],
)
def test_settle_rejects_shares(shares, message):
    with pytest.raises(InternalVerificationFailed, match=message):
        settle(shares=shares)


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(lam=7), r"agent 0 settled at utility 3, not 7/2"),
        (dict(lam=5), r"agent 0 settled at utility 3, not 5/2"),
        # agent 0 at 2 * 3 + 1 * 1 = 7 = lam, agent 1 at 1 * 8, one unit above
        (
            dict(weights=[[3, 1], [1, 8]], shares=[[2, 1], [0, 1]], lam=7),
            r"agent 1 settled at utility 4, not 7/2",
        ),
    ],
)
def test_settle_rejects_an_agent_one_unit_off_lambda(changes, message):
    with pytest.raises(InternalVerificationFailed, match=message):
        settle(**changes)


# ------------------------------------------------------- closed-form check

# Each case breaks one fact the fast paths' one demand check stands for,
# keeping the others where the arithmetic allows: _closed_form must
# refuse it. Identical agents value both items 1 at prices 1 and 1, so
# every in-box bundle that spends its budget is demanded.
SAME = [[1, 1]] * 4
H, Q = rat(1, 2), rat(1, 4)
BROKEN = {
    # Column sums and utilities are right; a share is outside the box.
    "a share of -1/2": (SAME, [[1, -H], [0, H], [0, H], [0, H]], H, (1, 1)),
    "a share of 3/2": (SAME, [[3 * H, -1], [-H, 1], [0, H], [0, H]], H, (1, 1)),
    # A bundle whose cost, so its budget, is negative.
    "a negative budget": (SAME[:3], [[-H, 0], [3 * Q, H], [3 * Q, H]], 5 * Q, (1, 1)),
    # Every bundle demanded and every agent at lambda.
    "an item sold 1/2 times": (SAME[:2], [[Q, H], [Q, H]], 3 * Q, (1, 1)),
    "an item sold 3/2 times": (SAME[:2], [[1, Q], [H, 3 * Q]], 5 * Q, (1, 1)),
    # Every bundle demanded and every item sold once.
    "every agent one unit below lambda": ([[3, 1], [1, 3]], [[1, 0], [0, 1]], 4, (3, 1)),
    "every agent one unit above lambda": ([[3, 1], [1, 3]], [[1, 0], [0, 1]], 2, (3, 1)),
    "agent 1 one unit above lambda": ([[3, 1], [1, 4]], [[1, 0], [0, 1]], 3, (3, 1)),
}


def closed_form(values, rows, lam, prices):
    inst = validate_instance(values)
    return maxmin._closed_form(
        inst, [list(map(rat, row)) for row in rows], rat(lam), tuple(map(rat, prices))
    )


def test_closed_form_accepts_a_supported_allocation():
    result = closed_form([[3, 1], [1, 3]], [[1, 0], [0, 1]], 3, (3, 1))
    assert result.allocation.x == ((1, 0), (0, 1))
    assert result.lam == 3 and result.budgets == (3, 1) and result.prices == (3, 1)


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_closed_form_rejects(case):
    with pytest.raises(InternalVerificationFailed):
        closed_form(*BROKEN[case])


# ------------------------------------------------------------ two agents


def test_two_agents_toy():
    inst = validate_instance([[1], [99]])
    result = maxmin_two_agents(inst)
    assert result.lam == rat(99, 100)
    assert result.allocation.x == ((rat(99, 100),), (rat(1, 100),))
    assert result.prices == (rat(1),)
    assert result.budgets == (rat(99, 100), rat(1, 100))


def split_in_phi_order(inst, x) -> bool:
    # In the order of phi_j = v[1][j] / v[0][j] (ties by index), agent 0
    # holds a prefix, agent 1 the suffix, and at most one item between
    # them is shared.
    v0, v1 = inst.values
    order = sorted(range(inst.item_count), key=lambda j: (v1[j] / v0[j], j))
    ours = [x[0][j] for j in order]
    return (
        ours == sorted(ours, reverse=True)
        and sum(0 < z < 1 for z in ours) <= 1
        and all(x[0][j] + x[1][j] == 1 for j in order)
    )


def test_two_agents_orders_by_relative_preference():
    inst = validate_instance([[4, 1, 2], [1, 2, 1]])
    result = maxmin_two_agents(inst)
    # phi = (1/4, 2, 1/2): agent 0 keeps the low-ratio prefix, item 0,
    # which it shares; agent 1 takes items 2 and 1 whole.
    assert result.lam == maxmin_lp(inst).lam
    assert result.allocation.x == ((rat(4, 5), 0, 0), (rat(1, 5), 1, 1))
    assert split_in_phi_order(inst, result.allocation.x)


def test_two_agents_requires_two_agents():
    with pytest.raises(WrongAgentCount):
        maxmin_two_agents(validate_instance([[1], [1], [1]]))


def test_two_agents_agrees_with_lp_and_supports_itself():
    rng = random.Random(88)
    for trial in range(60):
        m = rng.randrange(1, 7)
        inst = validate_instance(
            [[rat(rng.randrange(1, 13), 2) for _ in range(m)] for _ in range(2)]
        )
        fast = maxmin_two_agents(inst)
        slow = maxmin_lp(inst)
        assert fast.lam == slow.lam
        assert utility(inst, fast.allocation, 0) == fast.lam
        assert utility(inst, fast.allocation, 1) == fast.lam
        assert split_in_phi_order(inst, fast.allocation.x)
        report = verify_equilibrium(inst, fast.allocation, fast.prices, fast.budgets)
        assert report.supported
        assert report.items_fully_allocated
        assert report.budgets_exhausted


# ------------------------------------------------------------- two items


def test_two_items_matched_diagonal():
    inst = validate_instance([[3, 1], [1, 3]])
    result = maxmin_two_items(inst)
    assert result.lam == 3
    assert result.probes <= probe_bound(2)
    # rho = (3, 1/3): agent 0 takes item 0, agent 1 item 1.
    assert result.allocation.x == ((1, 0), (0, 1))


def test_two_items_requires_two_items():
    with pytest.raises(WrongItemCount):
        maxmin_two_items(validate_instance([[1, 1, 1]]))


def test_two_items_agrees_with_lp_within_probe_budget():
    rng = random.Random(1234)
    for trial in range(60):
        n = rng.randrange(1, 9)
        inst = validate_instance(
            [[rat(rng.randrange(1, 13), 2) for _ in range(2)] for _ in range(n)]
        )
        fast = maxmin_two_items(inst)
        slow = maxmin_lp(inst)
        assert fast.lam == slow.lam
        for i in range(n):
            assert utility(inst, fast.allocation, i) == fast.lam
        assert fast.probes <= probe_bound(n)
        assert sum(1 for row in fast.allocation.x if row[0] and row[1]) <= 1


def test_fast_paths_check_their_prices(monkeypatch):
    # A budget one token above its bundle's cost is not spent, and buys
    # more than the bundle: neither fast path may return it. Only the
    # budget sum is patched, so the settle check passes and the demand
    # oracle is what refuses.
    real = maxmin._dot
    monkeypatch.setattr(maxmin, "_dot", lambda row, prices, held: real(row, prices, held) + 1)
    unsupported = "fast-path prices and budgets do not support"
    with pytest.raises(InternalVerificationFailed, match=unsupported):
        maxmin_two_agents(validate_instance([[2, 1, 3], [1, 2, 1]]))
    with pytest.raises(InternalVerificationFailed, match=unsupported):
        maxmin_two_items(validate_instance([[2, 1], [1, 2], [3, 1]]))


# -------------------------------------------------------- characterization


def test_characterization_accepts_lp_output():
    inst = validate_instance([[2, 3], [4, 1]])
    result = maxmin_lp(inst)
    assert check_maxmin_characterization(inst, result.allocation)


def test_characterization_rejects_unequal_utilities():
    inst = validate_instance([[1, 1], [1, 1]])
    everything_to_agent0 = make_allocation([[1, 1], [0, 0]])
    assert not check_maxmin_characterization(inst, everything_to_agent0)


def test_characterization_rejects_dominated_equal_utilities():
    # both agents sit at utility 1, but swapping doubles both
    inst = validate_instance([[1, 3], [3, 1]])
    diagonal = make_allocation([[1, 0], [0, 1]])
    assert utility(inst, diagonal, 0) == utility(inst, diagonal, 1)
    assert not check_maxmin_characterization(inst, diagonal)


@pytest.mark.parametrize("generator", (gen_instance, gen_structured_instance))
def test_program_is_already_normalized(generator):
    # maxmin_program skips make_problem; it must build what make_problem
    # would return from the same data, with every entry a Rational.
    for n in range(1, 9):
        for m in range(1, 9):
            inst = generator(GenConfig(seed=n * 8 + m, agents=n, items=m))
            p = maxmin_program(inst)
            assert p == make_problem(p.objective, p.rows, p.lower, p.upper)
            # The agent rows of the ">= 0" program, negated; the same item rows.
            geq = maxmin_geq_program(inst)
            agents = [(tuple(-c for c in coeffs), LESS, -rhs) for coeffs, _, rhs in geq.rows[:n]]
            assert p.rows == tuple(agents) + geq.rows[n:]
            assert p.objective == geq.objective
            entries = p.objective + p.lower + tuple(v for row in p.rows for v in (*row[0], row[2]))
            assert all(type(v) is Rational for v in entries)
            assert p.upper == (None,) * (n * m + 1)
