"""Max-min allocations: exact LP route, the two fast paths, and the
equal-utility + Pareto-optimality characterization."""

import logging
import random

import pytest

from ceub import maxmin
from ceub.errors import InternalVerificationFailed, WrongAgentCount, WrongItemCount
from ceub.generators import GenConfig, gen_instance
from ceub.market import make_allocation, utility, validate_instance, verify_equilibrium
from ceub.maxmin import (
    check_maxmin_characterization,
    maxmin_lp,
    maxmin_two_agents,
    maxmin_two_items,
)
from ceub.rationals import rat


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
    # The "<=" agent rows make the all-slack basis feasible: no phase-1 pivots.
    inst = validate_instance([[3, 1], [1, 3]])
    with caplog.at_level(logging.INFO, logger="ceub.maxmin"):
        maxmin_lp(inst)
    assert [r.getMessage() for r in caplog.records if r.name == "ceub.maxmin"] == [
        "max-min LP 2x2: 4 rows, 5 columns, pivots 0+6, 4 bits, lambda=3"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ceub.maxmin"):
        maxmin_lp(inst)
    assert not [r for r in caplog.records if r.name == "ceub.maxmin"]


# ------------------------------------------------------------ two agents


def test_two_agents_toy():
    inst = validate_instance([[1], [99]])
    result = maxmin_two_agents(inst)
    assert result.lam == rat(99, 100)
    assert result.allocation.x == ((rat(99, 100),), (rat(1, 100),))
    assert result.prices == (rat(1),)
    assert result.budgets == (rat(99, 100), rat(1, 100))
    assert result.split.index == 0
    assert result.split.fraction == rat(99, 100)
    assert result.order.ratios == (rat(99),)
    assert result.order.permutation == (0,)


def test_two_agents_orders_by_relative_preference():
    inst = validate_instance([[4, 1, 2], [1, 2, 1]])
    result = maxmin_two_agents(inst)
    # phi = (1/4, 2, 1/2): agent 0 keeps the low-ratio prefix
    assert result.order.ratios == (rat(1, 4), rat(2), rat(1, 2))
    assert result.order.permutation == (0, 2, 1)
    assert result.lam == maxmin_lp(inst).lam
    split = result.split
    perm = result.order.permutation
    pos = perm.index(split.index)
    x = result.allocation.x
    for k, j in enumerate(perm):
        if k < pos:
            assert x[0][j] == 1 and x[1][j] == 0
        elif k > pos:
            assert x[0][j] == 0 and x[1][j] == 1
        else:
            assert x[0][j] == split.fraction
            assert x[1][j] == 1 - split.fraction


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
        assert 0 <= fast.split.fraction <= 1
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
    assert result.order.ratios == (rat(3), rat(1, 3))
    assert result.order.permutation == (0, 1)


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
        assert fast.split.index in range(n)
        xk0, xk1 = fast.split.fraction
        assert 0 <= xk0 <= 1 and 0 <= xk1 <= 1


def test_fast_paths_check_their_prices(monkeypatch):
    # A budget one token above its bundle's cost is not spent, and buys
    # more than the bundle: neither fast path may return it.
    real = maxmin.bundle_cost
    monkeypatch.setattr(maxmin, "bundle_cost", lambda bundle, prices: real(bundle, prices) + 1)
    with pytest.raises(InternalVerificationFailed):
        maxmin_two_agents(validate_instance([[2, 1, 3], [1, 2, 1]]))
    with pytest.raises(InternalVerificationFailed):
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
