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
from .market import Allocation, Instance, _check_dims, _dot
from .rationals import ONE

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


def price_forest(inst: Instance, alloc: Allocation) -> tuple:
    """Trees, prices, budgets, and utilities for a cycle-free allocation.

    Returns (ForestDecomposition, TreePricing) from one breadth-first
    walk per tree. Agents open trees in ascending order, so trees are
    numbered by their lowest agent, the root, at rate 1. The first agent
    i to reach item j prices it at rate[i] * v_ij; an agent first reached
    through j gets rate p_j / v_ij. Raises OrphanItem for an item nobody
    holds and NotAForest for a tree with as many edges as vertices.
    Budgets are exactly what each bundle costs, so budget exhaustion
    holds by construction; demand holds only after cross-tree scaling.
    """
    _check_dims(inst, alloc)
    g = alloc.graph
    n, m = inst.agent_count, inst.item_count
    for j in range(m):
        if not g.item_agents[j]:
            raise OrphanItem(j)

    v = inst.values
    tree_of_agent = [-1] * n
    tree_of_item = [-1] * m
    rate = [None] * n
    prices = [None] * m
    tree_agents = []
    tree_items = []
    for root in range(n):
        if tree_of_agent[root] != -1:
            continue
        tree = len(tree_agents)
        agents, items = [], []
        edges_seen = 0
        queue = deque([root])
        tree_of_agent[root] = tree
        rate[root] = ONE
        while queue:
            a = queue.popleft()
            agents.append(a)
            for j in g.agent_items[a]:
                edges_seen += 1
                if tree_of_item[j] == -1:
                    tree_of_item[j] = tree
                    items.append(j)
                    prices[j] = p = rate[a] * v[a][j]
                    for other in g.item_agents[j]:
                        if tree_of_agent[other] == -1:
                            tree_of_agent[other] = tree
                            rate[other] = p / v[other][j]
                            queue.append(other)
        # A connected graph on k vertices with k or more edges has a cycle.
        if edges_seen >= len(agents) + len(items):
            raise NotAForest(
                f"component of agent {root} has {edges_seen} edges on "
                f"{len(agents) + len(items)} vertices"
            )
        tree_agents.append(tuple(sorted(agents)))
        tree_items.append(tuple(sorted(items)))
    if None in prices:
        raise InternalVerificationFailed(f"item {prices.index(None)} was left unpriced")

    decomp = ForestDecomposition(
        tree_count=len(tree_agents),
        tree_of_agent=tuple(tree_of_agent),
        tree_of_item=tuple(tree_of_item),
        tree_agents=tuple(tree_agents),
        tree_items=tuple(tree_items),
        roots=tuple(t[0] for t in tree_agents),
    )
    # Every item j that agent i holds costs rate[i] * v_ij, so i's bundle
    # costs rate[i] times its utility.
    utilities = tuple(_dot(row, v[i], g.agent_items[i]) for i, row in enumerate(alloc.x))
    budgets = tuple(r * u for r, u in zip(rate, utilities))
    log.debug("priced %d trees, roots %s", decomp.tree_count, decomp.roots)
    return decomp, TreePricing(tuple(prices), budgets, utilities)
