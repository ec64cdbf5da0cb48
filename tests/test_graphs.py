"""Sharing graph, cycle detection, and utility-preserving elimination."""

import random

import pytest

from ceub.errors import InternalVerificationFailed, NotParetoOptimal
from ceub.graphs import SimpleCycle, build_graph, eliminate_cycle, find_cycle, make_cycle_free
from ceub.market import Allocation, make_allocation, utility, validate_instance
from ceub.rationals import rat

HALF = rat(1, 2)


def toy():
    inst = validate_instance([[1], [99]])
    alloc = make_allocation([[rat(99, 100)], [rat(1, 100)]])
    return inst, alloc


def all_halves_2x2(values):
    inst = validate_instance(values)
    return inst, make_allocation([[HALF, HALF], [HALF, HALF]])


def forest_check(graph) -> bool:
    # Independent acyclicity test: union-find over the bipartite edges.
    parent = list(range(graph.agent_count + graph.item_count))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in graph.edges():
        a, b = find(i), find(graph.agent_count + j)
        if a == b:
            return False
        parent[a] = b
    return True


def test_build_graph_toy():
    inst, alloc = toy()
    g = build_graph(inst, alloc)
    assert g.edge_count == 2
    assert g.agent_items == ((0,), (0,))
    assert g.item_agents == ((0, 1),)


def test_build_graph_permutation():
    inst = validate_instance([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    alloc = make_allocation([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = build_graph(inst, alloc)
    assert g.edge_count == 3
    assert forest_check(g)


def test_build_graph_shared_square():
    inst, alloc = all_halves_2x2([[2, 1], [1, 2]])
    g = build_graph(inst, alloc)
    assert g.edge_count == 4
    assert not forest_check(g)


def test_find_cycle_on_forest():
    inst, alloc = toy()
    assert find_cycle(build_graph(inst, alloc)) is None


def test_find_cycle_on_shared_square():
    inst, alloc = all_halves_2x2([[1, 1], [1, 1]])
    cycle = find_cycle(build_graph(inst, alloc))
    assert cycle == SimpleCycle(agents=(0, 1), items=(0, 1))
    assert cycle.length == 2


def test_eliminate_cycle_requires_neutral_closure():
    # crossed preferences close at ratio 4; one direction is a strict gain
    inst, alloc = all_halves_2x2([[2, 1], [1, 2]])
    cycle = find_cycle(build_graph(inst, alloc))
    with pytest.raises(NotParetoOptimal):
        eliminate_cycle(inst, alloc, cycle)


def test_eliminate_cycle_on_indifferent_square():
    inst, alloc = all_halves_2x2([[1, 1], [1, 1]])
    cycle = find_cycle(build_graph(inst, alloc))
    after, shift = eliminate_cycle(inst, alloc, cycle)
    assert after.x == ((rat(1), rat(0)), (rat(0), rat(1)))
    assert utility(inst, after, 0) == 1
    assert utility(inst, after, 1) == 1
    assert shift.epsilons == (HALF, HALF)
    assert shift.zeroed_edge == (1, 0)
    assert after.x[shift.zeroed_edge[0]][shift.zeroed_edge[1]] == 0


def test_eliminate_cycle_rejects_malformed_cycles():
    inst, alloc = all_halves_2x2([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        eliminate_cycle(inst, alloc, SimpleCycle(agents=(0,), items=(0,)))
    with pytest.raises(ValueError):
        eliminate_cycle(inst, alloc, SimpleCycle(agents=(0, 0), items=(0, 1)))
    sparse = make_allocation([[1, HALF], [0, HALF]])
    with pytest.raises(ValueError):
        eliminate_cycle(inst, sparse, SimpleCycle(agents=(0, 1), items=(0, 1)))


@pytest.mark.parametrize(
    "agents, items",
    [((0, -1), (0, 1)), ((0, 2), (0, 1)), ((0, -2), (0, 1)), ((0, 1), (-1, 0)), ((0, 1), (0, 2))],
    ids=["agent-1", "agent-n", "agent-aliases-0", "item-1", "item-m"],
)
def test_eliminate_cycle_rejects_out_of_range_vertices(agents, items):
    # -2 is agent 0 again and -1 is agent 1 as Python indexes, so without
    # the range check these cycles would pass the hop check.
    inst, alloc = all_halves_2x2([[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="out of range for 2 agents and 2 items"):
        eliminate_cycle(inst, alloc, SimpleCycle(agents=agents, items=items))


def test_eliminate_cycle_checks_the_changed_shares():
    # Built without make_allocation, so both columns hold 2: pushing the
    # chain until x[1][0] reaches zero raises x[0][0] to 2.
    inst = validate_instance([[1, 1], [1, 1]])
    overfull = Allocation(((rat(1), rat(1)), (rat(1), rat(1))))
    with pytest.raises(InternalVerificationFailed, match=r"x\[0\]\[0\]"):
        eliminate_cycle(inst, overfull, SimpleCycle(agents=(0, 1), items=(0, 1)))


def test_make_cycle_free_leaves_forests_alone():
    inst, alloc = toy()
    assert make_cycle_free(inst, alloc) is alloc


def _random_neutral_instance(rng, n, m):
    # Values of the form r_i * s_j make every cycle close at ratio 1, so
    # elimination always proceeds no matter how tangled the allocation.
    scales = [rat(rng.randrange(1, 7), 2) for _ in range(n)]
    levels = [rat(rng.randrange(1, 7)) for _ in range(m)]
    return validate_instance([[r * s for s in levels] for r in scales])


def _random_full_allocation(rng, n, m, den=4):
    rows = [[rat(0)] * m for _ in range(n)]
    for j in range(m):
        for _ in range(den):
            rows[rng.randrange(n)][j] += rat(1, den)
    return make_allocation(rows)


def test_make_cycle_free_properties():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randrange(2, 6)
        m = rng.randrange(1, 6)
        inst = _random_neutral_instance(rng, n, m)
        alloc = _random_full_allocation(rng, n, m)
        before = [utility(inst, alloc, i) for i in range(n)]

        # edge counts strictly decrease across eliminations
        counts = [build_graph(inst, alloc).edge_count]
        current = alloc
        while True:
            cycle = find_cycle(build_graph(inst, current))
            if cycle is None:
                break
            current, _ = eliminate_cycle(inst, current, cycle)
            counts.append(build_graph(inst, current).edge_count)
        assert all(a > b for a, b in zip(counts, counts[1:]))

        result = make_cycle_free(inst, alloc)
        assert result.x == current.x
        g = build_graph(inst, result)
        assert forest_check(g)
        trees = _component_count(g)
        assert g.edge_count <= n + m - trees
        for i in range(n):
            assert utility(inst, result, i) == before[i]
        for j in range(m):
            assert result.column_sum(j) == alloc.column_sum(j)
            for i in range(n):
                assert 0 <= result.x[i][j] <= 1


def _component_count(g) -> int:
    size = g.agent_count + g.item_count
    parent = list(range(size))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in g.edges():
        a, b = find(i), find(g.agent_count + j)
        if a != b:
            parent[a] = b
    return len({find(v) for v in range(size)})


def test_normalization_is_deterministic():
    # The same tangled graph must always surface the same first cycle.
    inst, alloc = all_halves_2x2([[1, 1], [1, 1]])
    seen = {find_cycle(build_graph(inst, alloc)) for _ in range(5)}
    assert len(seen) == 1
