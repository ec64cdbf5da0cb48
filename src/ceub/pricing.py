"""Anchored price propagation on a cycle-free allocation graph.

Within one tree of G(x), relative prices are forced: an agent sharing
two items must be exactly indifferent between them at the supporting
prices, so p_k / p_j = v_ik / v_ij along every edge path. Anchoring
each tree at its lowest-index agent by pricing that agent's adjacent
items at face value (p_j = v_root,j) fixes the whole tree. Budgets are
then read off as the cost of each agent's own bundle.

Trees are priced independently; relating them to each other is the
cross-tree scaling step, which only multiplies every price and budget
inside a tree by a common factor and therefore preserves everything
computed here.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .errors import InternalVerificationFailed, NotAForest, OrphanItem
from .graphs import AllocationGraph, build_graph
from .market import Allocation, Instance, _check_dims, bundle_cost, utility
from .rationals import Rational

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ForestDecomposition:
    """Connected components of a cycle-free allocation graph.

    Trees are numbered by their lowest agent index. A tree with no
    items (an agent allocated nothing) is degenerate: it has no prices
    to scale, so the cross-tree step ignores it.
    """

    tree_count: int
    tree_of_agent: tuple
    tree_of_item: tuple
    tree_agents: tuple  # per tree: ascending agent indices
    tree_items: tuple  # per tree: ascending item indices
    roots: tuple  # per tree: its lowest agent index

    def is_degenerate(self, tree: int) -> bool:
        return not self.tree_items[tree]


@dataclass(frozen=True)
class TreePricing:
    """Prices, budgets, and utilities induced by anchored propagation."""

    prices: tuple
    budgets: tuple
    utilities: tuple


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


def price_forest(inst: Instance, alloc: Allocation) -> tuple:
    """Prices, budgets, and utilities for a cycle-free allocation.

    Returns (ForestDecomposition, TreePricing). Budgets are exactly
    what each agent's bundle costs, so budget exhaustion holds by
    construction; whether the bundle is also demanded at these prices is
    a separate check that only becomes true after cross-tree scaling.
    """
    _check_dims(inst, alloc)
    g = build_graph(inst, alloc)
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
    log.debug("priced %d trees, roots %s", decomp.tree_count, decomp.roots)
    return decomp, TreePricing(tuple(prices), budgets, utilities)
