"""The single-pass pricing pipeline against the eager one it replaced.

scaling.support_with_details constructs first and checks y once with
the demand oracle; the exchange-graph verifier runs only to explain a
failure. tests/oracles.py keeps the eager pipeline, which ran the
verifier up front, checked every bundle of y by hand and computed y's
report again. On every input both must return equal PipelineDetails,
or raise the same exception class with the same message and verdict.

The inputs are derandomized (fixed seeds) and come in six categories:
Pareto-optimal pairs from both generators (including n = 1 and m = 1),
random integral allocations (each item to one agent; many dominated
with a cycle-free graph), degrade_allocation outputs (dominated, fully
allocated), one share scaled down (0 < column sum < 1), one agent's row
halved, and one column zeroed (an item nobody holds). The test also
records where the single-pass pipeline rejects each input and requires
every route to occur: cycle removal (NotParetoOptimal), the
multipliers (InfeasibleLP), pricing (OrphanItem) and the report on y.
"""

import random

import pytest

from ceub.errors import CeubError
from ceub.generators import (
    GenConfig,
    degrade_allocation,
    gen_instance,
    gen_pareto_allocation,
    gen_structured_instance,
)
from ceub.graphs import make_cycle_free
from ceub.market import make_allocation, verify_equilibrium
from ceub.rationals import ZERO, rat
from ceub.scaling import (
    assemble_equilibrium,
    build_gain_state,
    solve_multiplier_lp,
    support_with_details,
)

from oracles import eager_support_with_details

FACTORS = (rat(1, 2), rat(2, 3), rat(1, 7), rat(99, 100))


def outcome(pipeline, inst, y):
    try:
        return ("ok", pipeline(inst, y))
    except CeubError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "verdict", None))


def failure_route(inst, y):
    """The stage at which the single-pass pipeline first fails on y."""
    try:
        state = build_gain_state(inst, make_cycle_free(inst, y))
        eq = assemble_equilibrium(state, solve_multiplier_lp(state)[0])
    except CeubError as exc:
        return type(exc).__name__
    report = verify_equilibrium(inst, y, eq.prices, eq.budgets)
    if report.is_equilibrium:
        return None
    return "report"


def pareto_pairs():
    """(instance, Pareto-optimal allocation, seed) from both generators."""
    rng = random.Random(2027)
    shapes = [(1, m) for m in range(1, 6)] + [(n, 1) for n in range(2, 6)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(90)]
    for seed, (n, m) in enumerate(shapes):
        cfg = GenConfig(seed=seed, agents=n, items=m)
        for inst, mode in ((gen_instance(cfg), "a"), (gen_structured_instance(cfg), "b")):
            yield inst, gen_pareto_allocation(inst, seed, mode), seed


def positions(y):
    return [(i, j) for i, row in enumerate(y.x) for j, z in enumerate(row) if z != 0]


def edited(y, change):
    rows = [list(row) for row in y.x]
    change(rows)
    return make_allocation(rows)


def cases():
    for inst, y, seed in pareto_pairs():
        rng = random.Random(seed)
        yield "pareto optimal", inst, y
        n, m = inst.agent_count, inst.item_count
        owner = [rng.randrange(n) for _ in range(m)]
        yield "random vertex", inst, make_allocation(
            [[1 if owner[j] == a else 0 for j in range(m)] for a in range(n)]
        )
        worse = degrade_allocation(inst, y, seed)
        if worse is not None:
            yield "degraded", inst, worse
        i, j = rng.choice(positions(y))
        factor = rng.choice(FACTORS)

        def scale_share(rows):
            rows[i][j] *= factor

        def halve_row(rows):
            rows[i] = [z / 2 for z in rows[i]]

        def zero_column(rows):
            for row in rows:
                row[j] = ZERO

        yield "partial share", inst, edited(y, scale_share)
        yield "halved row", inst, edited(y, halve_row)
        yield "zeroed column", inst, edited(y, zero_column)


@pytest.fixture(scope="module")
def compared():
    """Per category: (inputs, differences, failure routes seen)."""
    table = {}
    for category, inst, y in cases():
        count, diffs, routes = table.setdefault(category, [0, [], set()])
        table[category][0] = count + 1
        lazy = outcome(support_with_details, inst, y)
        eager = outcome(eager_support_with_details, inst, y)
        if lazy != eager:
            diffs.append((inst, y, lazy, eager))
        routes.add(failure_route(inst, y))
    return table


@pytest.mark.parametrize(
    "category",
    ["pareto optimal", "random vertex", "degraded", "partial share", "halved row", "zeroed column"],
)
def test_single_pass_matches_eager_pipeline(compared, category):
    count, diffs, _ = compared[category]
    assert count >= 100
    assert diffs == []


def test_every_failure_route_is_exercised(compared):
    routes = {category: seen for category, (_, _, seen) in compared.items()}
    assert routes["pareto optimal"] == {None}
    failures = set().union(*routes.values()) - {None}
    assert failures == {"NotParetoOptimal", "InfeasibleLP", "OrphanItem", "report"}
