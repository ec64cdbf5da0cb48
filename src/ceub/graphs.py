"""Cycle finding and utility-preserving cycle elimination.

G(x) has an (undirected) edge between agent i and item j exactly when
x[i][j] > 0. Each allocation builds it once, as Allocation.graph, an
AllocationGraph (re-exported here). Any Pareto-optimal
fully-allocated x can be transformed into one whose graph is a forest
without changing a single agent's utility: every graph cycle supports
a closed chain of share transfers that keeps each intermediate agent
exactly whole, and Pareto optimality forces the chain to close
neutrally for the first agent too, so pushing it until some edge hits
zero removes an edge for free.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .errors import InternalVerificationFailed, NotParetoOptimal
from .market import Allocation, AllocationGraph, Instance, _check_dims
from .rationals import ONE, Rational, format_rational

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimpleCycle:
    """Alternating cycle a_0, j_0, a_1, j_1, ..., j_{k-1} back to a_0.

    Item j_t is shared by agents a_t and a_{t+1 mod k}; every hop is a
    positive-allocation edge and all vertices are distinct, k >= 2.
    """

    agents: tuple
    items: tuple

    @property
    def length(self) -> int:
        return len(self.agents)


@dataclass(frozen=True)
class CycleShift:
    """The transfer amounts applied along a cycle and the edge it zeroes.

    epsilons[t] is the share of item j_t moved to agent a_t (and away
    from agent a_{t+1 mod k}); consecutive amounts obey the exact
    compensation chain eps[t+1] = eps[t] * v[a_{t+1}][j_t] / v[a_{t+1}][j_{t+1}].
    """

    epsilons: tuple
    zeroed_edge: tuple


def find_cycle(g: AllocationGraph) -> SimpleCycle | None:
    """Some simple cycle of G, or None if G is a forest.

    Depth-first search from the lowest-index unvisited agent vertex with
    ascending neighbor order, so the result is deterministic; the cycle
    is normalized to start at its lowest agent, heading toward its
    lower-indexed neighbor item.
    """
    n = g.agent_count
    size = n + g.item_count

    def neighbors(v: int):
        return g.agent_items[v] if v < n else g.item_agents[v - n]

    visited = [False] * size
    for root in range(size):
        if visited[root]:
            continue
        path = []  # current DFS path of vertex ids
        pos = {}  # vertex -> index in path
        stack = [(root, -1, 0)]  # (vertex, parent, next neighbor offset)
        while stack:
            v, parent, offset = stack.pop()
            if offset == 0:
                visited[v] = True
                pos[v] = len(path)
                path.append(v)
            raw = neighbors(v)
            advanced = False
            for idx in range(offset, len(raw)):
                w = raw[idx] if v >= n else raw[idx] + n
                if w == parent:
                    continue
                if w in pos:
                    return _normalize(path[pos[w]:], n)
                if not visited[w]:
                    stack.append((v, parent, idx + 1))
                    stack.append((w, v, 0))
                    advanced = True
                    break
            if not advanced:
                del pos[v]
                path.pop()
    return None


def _normalize(vertices, n: int) -> SimpleCycle:
    start = min(range(len(vertices)), key=lambda k: vertices[k] if vertices[k] < n else n)
    seq = vertices[start:] + vertices[:start]
    if seq[-1] < seq[1]:
        seq = [seq[0]] + seq[:0:-1]
    return SimpleCycle(agents=tuple(seq[0::2]), items=tuple(v - n for v in seq[1::2]))


def _check_cycle(alloc: Allocation, cycle: SimpleCycle) -> None:
    k = cycle.length
    if k < 2 or len(cycle.items) != k:
        raise ValueError(f"not a valid cycle: {k} agents, {len(cycle.items)} items")
    n, m = alloc.agent_count, alloc.item_count
    if not all(0 <= a < n for a in cycle.agents) or not all(0 <= j < m for j in cycle.items):
        raise ValueError(f"cycle vertex out of range for {n} agents and {m} items")
    if len(set(cycle.agents)) != k or len(set(cycle.items)) != k:
        raise ValueError("cycle vertices are not distinct")
    for t in range(k):
        a_here, a_next = cycle.agents[t], cycle.agents[(t + 1) % k]
        j = cycle.items[t]
        if alloc.x[a_here][j] == 0 or alloc.x[a_next][j] == 0:
            raise ValueError(f"cycle hop at item {j} is not a positive-allocation edge")


def eliminate_cycle(inst: Instance, alloc: Allocation, cycle: SimpleCycle):
    """Push the compensation chain around the cycle until an edge zeroes.

    Returns (new allocation, CycleShift). Every agent's utility is
    preserved exactly; if the chain cannot close neutrally the input was
    not Pareto optimal (one traversal direction would be a strict
    improvement) and NotParetoOptimal is raised.
    """
    _check_dims(inst, alloc)
    _check_cycle(alloc, cycle)
    agents, items = cycle.agents, cycle.items
    k = cycle.length
    v = inst.values

    ratio = ONE
    for t in range(k):
        ratio = ratio * v[agents[t]][items[t]] / v[agents[(t + 1) % k]][items[t]]
    if ratio != 1:
        direction = "forward" if ratio > 1 else "reverse"
        raise NotParetoOptimal(
            f"cycle closes with ratio {format_rational(ratio)}; the {direction} traversal strictly "
            f"improves agent {agents[0]} while keeping all others whole"
        )

    # Accumulated chain factors: eps_t = eps_0 * chain[t].
    chain = [ONE]
    for t in range(k - 1):
        nxt = agents[t + 1]
        chain.append(chain[t] * v[nxt][items[t]] / v[nxt][items[t + 1]])

    eps0 = None
    zero_at = -1
    for t in range(k):
        bound = alloc.x[agents[(t + 1) % k]][items[t]] / chain[t]
        if eps0 is None or bound < eps0:
            eps0 = bound
            zero_at = t
    epsilons = tuple(eps0 * c for c in chain)

    # Only the 2k cycle entries change, and each item's column sum is
    # unchanged by the shift, so the result is built directly and only
    # the changed entries are checked against the box.
    rows = [list(row) for row in alloc.x]
    for t in range(k):
        j = items[t]
        for a, delta in ((agents[t], epsilons[t]), (agents[(t + 1) % k], -epsilons[t])):
            share = rows[a][j] + delta
            if share < 0 or share > 1:
                raise InternalVerificationFailed(
                    f"cycle shift moved x[{a}][{j}] to {format_rational(share)}"
                )
            rows[a][j] = share
    result = Allocation(tuple(map(tuple, rows)))
    zeroed = (agents[(zero_at + 1) % k], items[zero_at])
    if result.x[zeroed[0]][zeroed[1]] != 0:
        raise InternalVerificationFailed("chosen edge did not reach zero")
    return result, CycleShift(epsilons=epsilons, zeroed_edge=zeroed)


def make_cycle_free(inst: Instance, alloc: Allocation) -> Allocation:
    """Eliminate cycles until G(x) is a forest; utilities never change.

    Each elimination removes at least one edge, so the loop runs at most
    |edges| times. When G(alloc) is already a forest, alloc itself is
    returned, the same object, so callers can tell by identity that
    nothing changed.
    """
    _check_dims(inst, alloc)
    current = alloc
    for _ in range(alloc.graph.edge_count + 1):
        cycle = find_cycle(current.graph)
        if cycle is None:
            return current
        current, shift = eliminate_cycle(inst, current, cycle)
        log.debug("eliminated cycle %s/%s, zeroed %s", cycle.agents, cycle.items, shift.zeroed_edge)
    raise InternalVerificationFailed("cycle elimination failed to terminate")
