"""Deterministic generators for instances and certified allocations.

Everything here is driven by an explicit 64-bit split-mix recurrence
rather than a library RNG, so a seed reproduces the same stream on any
platform or language. Two allocation modes exist because they stress
different things:

* mode "a": maximizers of a positively weighted welfare sum, each item
  going wholly to the agent with the largest weighted value (lowest
  index on ties). Pareto optimal by construction and integral, so the
  sharing graph is a forest of one-agent trees.
* mode "b": a max-min solution followed by a few bounded
  utility-neutral four-cycle trades. The trades deliberately create
  shared items and graph cycles while preserving Pareto optimality,
  feeding the cycle-elimination machinery something to do. Neutral
  trades need value ratios that match across two agents, which random
  matrices almost never contain, so pair mode "b" with
  gen_structured_instance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .market import Allocation, Instance, make_allocation, validate_instance
from .maxmin import _maxmin_lp
from .rationals import ONE, ZERO, rat

log = logging.getLogger(__name__)

_MASK = (1 << 64) - 1


# The drawable values: integers 1..20 plus halves.
DEFAULT_GRID = tuple(rat(k, 2) for k in range(1, 41))


class SplitMix64:
    """The split-mix generator, written out so any language can match it.

    state += 0x9E3779B97F4A7C15              (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB (mod 2^64)
    output z ^ (z >> 31)

    below(k) reduces a word modulo k; the bias is irrelevant at the
    grid sizes used here and keeps the stream spec one line long.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_word() % bound

    def choice(self, seq):
        return seq[self.below(len(seq))]


@dataclass(frozen=True)
class GenConfig:
    """Seeded generator parameters; values are drawn from DEFAULT_GRID."""

    seed: int
    agents: int
    items: int

    def __post_init__(self):
        if self.agents < 1 or self.items < 1:
            raise ValueError("agents and items must be at least 1")


def gen_instance(cfg: GenConfig) -> Instance:
    """Instance with independent grid draws, row-major from the seed."""
    rng = SplitMix64(cfg.seed)
    values = [
        [rng.choice(DEFAULT_GRID) for _ in range(cfg.items)]
        for _ in range(cfg.agents)
    ]
    return validate_instance(values)


_SCALES = (rat(1, 2), rat(1), rat(3, 2), rat(2))
_LEVELS = tuple(rat(k) for k in range(1, 11))


def gen_structured_instance(cfg: GenConfig) -> Instance:
    """Instance with a rank-one backbone: v[i][j] = scale_i * level_j.

    Within the backbone every 2x2 minor vanishes, so any two agents
    agree on the relative worth of any two items; those are exactly the
    sites where utility-neutral trades exist. A quarter of the cells
    are then re-drawn from the grid to keep the matrix from being
    degenerate everywhere.
    """
    rng = SplitMix64(cfg.seed)
    scales = [rng.choice(_SCALES) for _ in range(cfg.agents)]
    levels = [rng.choice(_LEVELS) for _ in range(cfg.items)]
    values = [[s * q for q in levels] for s in scales]
    for i in range(cfg.agents):
        for j in range(cfg.items):
            if rng.below(4) == 0:
                values[i][j] = rng.choice(DEFAULT_GRID)
    return validate_instance(values)


def gen_pareto_allocation(inst: Instance, seed: int, mode: str = "a") -> Allocation:
    """A Pareto-optimal, fully allocated allocation, deterministic in seed.

    Mode "a" maximizes a positively weighted welfare sum item by item;
    any maximizer of such a sum is Pareto optimal, and positive weights
    force full allocation. Mode "b" starts from the max-min solution
    (Pareto optimal with equal utilities) and layers on up to three
    utility-neutral trades where the instance admits them.
    """
    if mode == "a":
        return _welfare_vertex(inst, seed)
    if mode == "b":
        return _perturbed_maxmin(inst, seed)
    raise ValueError(f"unknown generator mode {mode!r}, expected 'a' or 'b'")


def _welfare_vertex(inst: Instance, seed: int) -> Allocation:
    # The welfare LP has one supply row per item, so it splits into one
    # problem per item: the item goes wholly to a maximizer of
    # weights[i] * v[i][j]. Among tied maximizers this is the lowest
    # index, the vertex Bland's rule reaches from the all-slack basis.
    rng = SplitMix64(seed)
    n, m = inst.agent_count, inst.item_count
    weights = [rng.choice(DEFAULT_GRID) for _ in range(n)]
    rows = [[ZERO] * m for _ in range(n)]
    for j in range(m):
        winner = max(range(n), key=lambda i: weights[i] * inst.values[i][j])
        rows[winner][j] = ONE
    return make_allocation(rows)


def _perturbed_maxmin(inst: Instance, seed: int) -> Allocation:
    rng = SplitMix64(seed)
    n, m = inst.agent_count, inst.item_count
    # Mode "b" is paired with values built to leave neutral trades, so
    # the max-min optimum is rarely unique: Bland's rule goes first.
    rows = [list(r) for r in _maxmin_lp(inst, True).allocation.x]
    v = inst.values
    applied = 0
    for _ in range(4 * (n + m)):
        if applied == 3 or n < 2 or m < 2:
            break
        i1, i2 = rng.below(n), rng.below(n)
        j1, j2 = rng.below(m), rng.below(m)
        if i1 == i2 or j1 == j2:
            continue
        if v[i1][j1] * v[i2][j2] != v[i1][j2] * v[i2][j1]:
            continue  # trade would change someone's utility
        if rows[i2][j1] == 0 or rows[i1][j2] == 0:
            continue  # no donor share on one leg
        # i1 takes delta of j1 from i2 and repays with j2; the matched
        # minor makes both utility changes exactly zero.
        limit = min(rows[i2][j1], rows[i1][j2] * v[i1][j2] / v[i1][j1])
        delta = limit * rat(1 + rng.below(3), 4)
        repay = delta * v[i1][j1] / v[i1][j2]
        rows[i1][j1] += delta
        rows[i2][j1] -= delta
        rows[i1][j2] -= repay
        rows[i2][j2] += repay
        applied += 1
    log.debug("mode b applied %d neutral trades", applied)
    return make_allocation(rows)

