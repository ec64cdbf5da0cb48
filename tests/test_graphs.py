"""Sharing graph, cycle detection, and utility-preserving elimination."""

import random

import pytest

from ceub.errors import InternalVerificationFailed, NotParetoOptimal
from ceub.graphs import _eliminate_cycle, find_cycle, make_cycle_free
from ceub.market import Allocation, make_allocation, utility, validate_instance
from ceub.rationals import rat

from test_acceptance import corpus
from test_demand_certificate import mode_b_pairs

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

    for i, items in enumerate(graph.agent_items):
        for j in items:
            a, b = find(i), find(graph.agent_count + j)
            if a == b:
                return False
            parent[a] = b
    return True


def test_build_graph_toy():
    _, alloc = toy()
    g = alloc.graph
    assert g.edge_count == 2
    assert g.agent_items == ((0,), (0,))
    assert g.item_agents == ((0, 1),)


def test_build_graph_permutation():
    alloc = make_allocation([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    g = alloc.graph
    assert g.edge_count == 3
    assert forest_check(g)


def test_build_graph_shared_square():
    _, alloc = all_halves_2x2([[2, 1], [1, 2]])
    g = alloc.graph
    assert g.edge_count == 4
    assert not forest_check(g)


def test_find_cycle_on_forest():
    _, alloc = toy()
    assert find_cycle(alloc.graph) is None


def test_find_cycle_on_shared_square():
    _, alloc = all_halves_2x2([[1, 1], [1, 1]])
    cycle = find_cycle(alloc.graph)
    assert cycle == ((0, 1), (0, 1))


def test_eliminate_cycle_requires_neutral_closure():
    # crossed preferences close at ratio 4; one direction is a strict gain
    inst, alloc = all_halves_2x2([[2, 1], [1, 2]])
    cycle = find_cycle(alloc.graph)
    with pytest.raises(NotParetoOptimal):
        _eliminate_cycle(inst, alloc, *cycle)


@pytest.mark.parametrize(
    "values, message",
    [
        ([[2, 1], [1, 2]], "cycle closes with ratio 4; the forward traversal"),
        ([[1, 2], [2, 1]], "cycle closes with ratio 1/4; the reverse traversal"),
    ],
    ids=["forward", "reverse"],
)
def test_make_cycle_free_names_the_improving_direction(values, message):
    inst, alloc = all_halves_2x2(values)
    with pytest.raises(NotParetoOptimal) as caught:
        make_cycle_free(inst, alloc)
    assert str(caught.value) == f"{message} strictly improves agent 0 while keeping all others whole"


def test_eliminate_cycle_on_indifferent_square():
    inst, alloc = all_halves_2x2([[1, 1], [1, 1]])
    after, zeroed = _eliminate_cycle(inst, alloc, *find_cycle(alloc.graph))
    assert after.x == ((rat(1), rat(0)), (rat(0), rat(1)))
    assert utility(inst, after, 0) == 1
    assert utility(inst, after, 1) == 1
    assert zeroed == (1, 0)
    assert after.x[zeroed[0]][zeroed[1]] == 0


def check_cycle_shape(alloc, cycle):
    """What eliminating a cycle relies on: k >= 2 agents and k items,
    all distinct and in range, and every hop a positive-share edge."""
    agents, items = cycle
    k = len(agents)
    assert k >= 2 and len(items) == k
    assert len(set(agents)) == k and len(set(items)) == k
    assert all(type(a) is int and 0 <= a < alloc.agent_count for a in agents)
    assert all(type(j) is int and 0 <= j < alloc.item_count for j in items)
    for t in range(k):
        j = items[t]
        assert alloc.x[agents[t]][j] > 0 and alloc.x[agents[(t + 1) % k]][j] > 0


def cycles_until_forest(inst, alloc):
    """Every cycle find_cycle returns on the way to a forest, each checked
    against the allocation it was found in."""
    found = []
    current = alloc
    while (cycle := find_cycle(current.graph)) is not None:
        check_cycle_shape(current, cycle)
        found.append(cycle)
        current, _ = _eliminate_cycle(inst, current, *cycle)
    assert forest_check(current.graph)
    return found


def equal_values(x):
    """x with equal values for every agent and item, so every cycle
    closes neutrally and elimination runs to a forest."""
    return validate_instance([[1] * len(x[0])] * len(x)), make_allocation(x)


def cyclic(pairs):
    return [(inst, y) for inst, y in pairs if find_cycle(y.graph) is not None]


CYCLE_CASES = {
    "corpus": (lambda: cyclic(corpus()), None),
    "mode-b": (lambda: cyclic(mode_b_pairs()), None),
    "all-halves-square": (
        lambda: [equal_values([[HALF, HALF], [HALF, HALF]])],
        [((0, 1), (0, 1))],
    ),
    "three-cycle": (
        lambda: [equal_values([[HALF, 0, HALF], [HALF, HALF, 0], [0, HALF, HALF]])],
        [((0, 1, 2), (0, 1, 2))],
    ),
    "two-disjoint-cycles": (
        lambda: [equal_values([
            [HALF, HALF, 0, 0], [HALF, HALF, 0, 0], [0, 0, HALF, HALF], [0, 0, HALF, HALF],
        ])],
        [((0, 1), (0, 1)), ((2, 3), (2, 3))],
    ),
    "cycle-behind-tree": (
        lambda: [equal_values([[1, HALF, 0, 0], [0, HALF, HALF, HALF], [0, 0, HALF, HALF]])],
        [((1, 2), (2, 3))],
    ),
}


@pytest.mark.parametrize("case", list(CYCLE_CASES))
def test_find_cycle_returns_what_elimination_needs(case):
    pairs, expected = CYCLE_CASES[case]
    found = [cycles_until_forest(inst, alloc) for inst, alloc in pairs()]
    assert found and all(found)
    if expected is not None:
        assert found == [expected]


def test_eliminate_cycle_checks_the_changed_shares():
    # Built without make_allocation, so both columns hold 2: pushing the
    # chain until x[1][0] reaches zero raises x[0][0] to 2.
    inst = validate_instance([[1, 1], [1, 1]])
    overfull = Allocation(((rat(1), rat(1)), (rat(1), rat(1))))
    with pytest.raises(InternalVerificationFailed, match=r"x\[0\]\[0\]"):
        _eliminate_cycle(inst, overfull, (0, 1), (0, 1))


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
        counts = [alloc.graph.edge_count]
        current = alloc
        while True:
            cycle = find_cycle(current.graph)
            if cycle is None:
                break
            current, _ = _eliminate_cycle(inst, current, *cycle)
            counts.append(current.graph.edge_count)
        assert all(a > b for a, b in zip(counts, counts[1:]))

        result = make_cycle_free(inst, alloc)
        assert result.x == current.x
        g = result.graph
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

    for i, items in enumerate(g.agent_items):
        for j in items:
            a, b = find(i), find(g.agent_count + j)
            if a != b:
                parent[a] = b
    return len({find(v) for v in range(size)})


def test_normalization_is_deterministic():
    # The same tangled graph must always surface the same first cycle.
    _, alloc = all_halves_2x2([[1, 1], [1, 1]])
    seen = {find_cycle(alloc.graph) for _ in range(5)}
    assert len(seen) == 1
