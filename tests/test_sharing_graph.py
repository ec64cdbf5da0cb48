"""The allocation's own sharing graph and the exact sums.

Allocation.graph is G(x), built once per allocation on first use and
kept on the object; make_allocation and the loaders build none, so
loading an equilibrium or max-min document builds no graph at all.
utility and the fast paths' budgets sum exactly on ints over the
graph's row supports (market._dot), and Allocation.column_sum sums an
item's nonzero shares on ints, read from the rows; tests/oracles.py
keeps the Rational sums over every entry that they replaced,
bundle_utility and bundle_cost. Both must agree, compared by repr so
that the type agrees too, on the acceptance corpus and on mode-"b"
markets, on y and on its cycle-free transform.
"""

from ceub import graphs, market
from ceub.cli import main
from ceub.formats import (
    dump_allocation,
    dump_instance,
    load_allocation,
    load_equilibrium,
    load_maxmin,
)
from ceub.graphs import find_cycle
from ceub.market import (
    Allocation,
    make_allocation,
    utility,
    verify_equilibrium,
    verify_pareto_optimal,
)
from ceub.maxmin import maxmin_two_agents, maxmin_two_items
from ceub.rationals import ZERO, rat
from ceub.scaling import support_with_details

from oracles import bundle_cost, bundle_utility
from test_acceptance import corpus, pipeline_details
from test_demand_certificate import mode_b_pairs


def rational_column_sum(alloc: Allocation, j: int):
    """Item j's column summed on Rationals over every row."""
    return sum((row[j] for row in alloc.x if row[j] != 0), ZERO)


def compare_sums(inst, y, x):
    for alloc in (y,) if x is y else (y, x):
        for i in range(inst.agent_count):
            assert repr(utility(inst, alloc, i)) == repr(bundle_utility(inst, alloc.x[i], i))
        for j in range(inst.item_count):
            assert repr(alloc.column_sum(j)) == repr(rational_column_sum(alloc, j))


def compare_fast_paths(inst) -> int:
    """The fast paths' lambda and budgets against the Rational sums;
    returns how many fast paths ran."""
    results = []
    if inst.agent_count == 2:
        results.append(maxmin_two_agents(inst))
    if inst.item_count == 2:
        results.append(maxmin_two_items(inst))
    for result in results:
        x = result.allocation.x
        assert repr(result.lam) == repr(bundle_utility(inst, x[0], 0))
        expected = tuple(bundle_cost(row, result.prices) for row in x)
        assert repr(result.budgets) == repr(expected)
    return len(results)


def test_sums_match_the_rational_route_on_the_corpus():
    results, _ = pipeline_details()
    fast = 0
    for (inst, y), details in zip(corpus(), results):
        compare_sums(inst, y, details.equilibrium.allocation)
        fast += compare_fast_paths(inst)
    assert fast > 0


def test_sums_match_the_rational_route_on_mode_b_markets():
    fast = 0
    for inst, y in mode_b_pairs():
        compare_sums(inst, y, support_with_details(inst, y).equilibrium.allocation)
        fast += compare_fast_paths(inst)
    assert fast > 0


def test_the_graph_is_built_once_and_kept_outside_the_fields():
    x = ((rat(1, 2), rat(1)), (rat(1, 2), rat(0)))
    alloc = make_allocation(x)
    assert alloc.graph is alloc.graph
    assert alloc.graph.agent_items == ((0, 1), (0,))
    assert alloc.graph.item_agents == ((0, 1), (0,))
    fresh = Allocation(x)
    assert "graph" not in vars(fresh)
    assert fresh == alloc and hash(fresh) == hash(alloc) and repr(fresh) == repr(alloc)
    assert "graph" not in repr(alloc)


def test_a_loaded_allocation_builds_its_graph_once(monkeypatch):
    # A forest y is its own cycle-free transform, so every reader below
    # sees the graph that loading built.
    built = []
    eliminated = []
    real_graph, real_eliminate = market.AllocationGraph, graphs._eliminate_cycle

    def counted_graph(*args):
        built.append(args)
        return real_graph(*args)

    def counted_eliminate(*args):
        eliminated.append(args)
        return real_eliminate(*args)

    forests = [(inst, y) for inst, y in corpus()[:40] if find_cycle(y.graph) is None]
    assert len(forests) > 10
    monkeypatch.setattr(market, "AllocationGraph", counted_graph)
    monkeypatch.setattr(graphs, "_eliminate_cycle", counted_eliminate)
    for inst, y in forests:
        built.clear()
        loaded = load_allocation(dump_allocation(y))
        eq = support_with_details(inst, loaded).equilibrium
        assert verify_equilibrium(inst, loaded, eq.prices, eq.budgets).is_equilibrium
        assert verify_pareto_optimal(inst, loaded).ok
        for i in range(inst.agent_count):
            utility(inst, loaded, i)
        for j in range(inst.item_count):
            assert loaded.column_sum(j) == 1
        assert len(built) == 1
    assert not eliminated


def test_loading_results_builds_no_graph(tmp_path, monkeypatch):
    # The loaders check each share matrix's supply with column_sum, which
    # reads the rows, and keep only .x: no reader of theirs needs G(x).
    instance, allocation = tmp_path / "m.instance.json", tmp_path / "m.allocation.json"
    eq, mm = tmp_path / "m.eq.json", tmp_path / "m.mm.json"
    texts = []
    for inst, y in corpus()[:20]:
        instance.write_text(dump_instance(inst), encoding="utf-8")
        allocation.write_text(dump_allocation(y), encoding="utf-8")
        assert main(["price", str(instance), str(allocation), "-o", str(eq)]) == 0
        assert main(["maxmin", str(instance), "-o", str(mm)]) == 0
        texts.append((eq.read_text(encoding="utf-8"), mm.read_text(encoding="utf-8")))
    built = []
    real_graph = market.AllocationGraph

    def counted_graph(*args):
        built.append(args)
        return real_graph(*args)

    monkeypatch.setattr(market, "AllocationGraph", counted_graph)
    for eq_text, mm_text in texts:
        load_equilibrium(eq_text)
        load_maxmin(mm_text)
    assert not built
