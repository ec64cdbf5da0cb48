"""Acceptance criteria, one test per criterion, run at the stated sizes.

Criteria 2, 3, and 4 share one 500-instance corpus (n, m <= 8, both
generator modes, alternating by seed parity). Each test finishes with a
single pass line; timing bounds are asserted where the criterion states
one.
"""

import random
import time

import pytest

from ceub.cli import main
from ceub.errors import NotParetoOptimal
from ceub.formats import (
    dump_allocation,
    dump_equilibrium,
    dump_instance,
    load_allocation,
    load_equilibrium,
    load_instance,
)
from ceub.generators import (
    GenConfig,
    gen_instance,
    gen_pareto_allocation,
    gen_structured_instance,
)
from ceub.graphs import _eliminate_cycle, find_cycle, make_cycle_free
from ceub.market import (
    is_in_demand_set,
    make_allocation,
    utility,
    validate_instance,
    verify_equilibrium,
    verify_pareto_optimal,
)
from ceub.maxmin import maxmin_lp, maxmin_two_agents, maxmin_two_items
from ceub.rationals import ZERO, rat
from ceub.scaling import support_pipeline, support_with_details

from oracles import (
    EQUAL,
    GREATER,
    LESS,
    OPTIMAL,
    Priced,
    brute_force_lp,
    build_gain_table,
    core_solve_lp,
    degrade_allocation,
    fixed_point_map,
    fraction_solve_lp,
    make_problem,
)

CORPUS_SIZE = 500
_corpus_cache = {}


def corpus():
    """500 generated Pareto-optimal (instance, allocation) pairs."""
    if "pairs" not in _corpus_cache:
        pairs = []
        for seed in range(CORPUS_SIZE):
            cfg = GenConfig(seed=seed, agents=2 + seed % 7, items=2 + (seed // 7) % 7)
            if seed % 2 == 0:
                inst = gen_instance(cfg)
                alloc = gen_pareto_allocation(inst, seed, mode="a")
            else:
                inst = gen_structured_instance(cfg)
                alloc = gen_pareto_allocation(inst, seed, mode="b")
            pairs.append((inst, alloc))
        _corpus_cache["pairs"] = pairs
    return _corpus_cache["pairs"]


def pipeline_details():
    """support_with_details over the corpus, timed once and shared."""
    if "details" not in _corpus_cache:
        start = time.perf_counter()
        results = [support_with_details(inst, y) for inst, y in corpus()]
        _corpus_cache["details"] = (results, time.perf_counter() - start)
    return _corpus_cache["details"]


def test_criterion_1_toy_golden():
    inst = validate_instance([[1], [99]])
    y = make_allocation([[rat(99, 100)], [rat(1, 100)]])
    best = None
    for _ in range(10):
        start = time.perf_counter()
        eq = support_pipeline(inst, y)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    assert eq.prices == (rat(1),)
    assert eq.budgets == (rat(99, 100), rat(1, 100))
    assert eq.alpha == (rat(1),)
    report = verify_equilibrium(inst, y, eq.prices, eq.budgets)
    assert report.supported and report.items_fully_allocated and report.budgets_exhausted
    assert best < 0.001, f"toy pipeline took {best * 1000:.3f} ms"
    print(f"criterion 1: toy golden exact in {best * 1000:.3f} ms -> PASS")


def test_criterion_2_cycle_elimination_suite():
    start = time.perf_counter()
    for inst, alloc in corpus():
        before = [utility(inst, alloc, i) for i in range(inst.agent_count)]
        current = alloc
        edges = current.graph.edge_count
        while True:
            cycle = find_cycle(current.graph)
            if cycle is None:
                break
            current, _ = _eliminate_cycle(inst, current, *cycle)
            now = current.graph.edge_count
            assert now < edges, "edge count must strictly decrease"
            edges = now
        assert make_cycle_free(inst, alloc).x == current.x
        for i in range(inst.agent_count):
            assert utility(inst, current, i) == before[i]
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"cycle suite took {elapsed:.1f} s"
    print(f"criterion 2: {CORPUS_SIZE}/{CORPUS_SIZE} forests, utilities exact, {elapsed:.1f} s -> PASS")


def test_criterion_3_end_to_end_support():
    results, elapsed = pipeline_details()
    for (inst, y), details in zip(corpus(), results):
        eq = details.equilibrium
        n, m = inst.agent_count, inst.item_count
        for alloc in (eq.allocation, y):
            for i in range(n):
                report = is_in_demand_set(inst, eq.prices, eq.budgets[i], i, alloc.x[i])
                assert report.optimal_utility == report.achieved_utility
                assert report.spend == eq.budgets[i]
            for j in range(m):
                assert alloc.column_sum(j) == 1
    assert elapsed < 120, f"support pipeline took {elapsed:.1f} s"
    print(f"criterion 3: {CORPUS_SIZE}/{CORPUS_SIZE} supported exactly, {elapsed:.1f} s -> PASS")


def test_criterion_4_fixed_point_consistency():
    results, _ = pipeline_details()
    for (inst, _), details in zip(corpus(), results):
        assert details.lam > 0
        alpha = details.equilibrium.alpha
        assert sum(alpha, ZERO) == 1
        state = Priced(inst, details.equilibrium.decomposition, details.pricing)
        assert build_gain_table(*state, alpha).all_zero
        assert fixed_point_map(*state, alpha) == alpha
    print(f"criterion 4: lambda > 0, simplex alpha, zero gains, exact fixed points "
          f"in {len(results)}/{len(results)} runs -> PASS")


def test_criterion_5_maxmin_correctness():
    rng = random.Random(50_000)
    for _ in range(200):
        cfg = GenConfig(
            seed=rng.randrange(2**32), agents=rng.randrange(1, 6), items=rng.randrange(1, 6)
        )
        inst = gen_instance(cfg)
        result = maxmin_lp(inst)
        for i in range(inst.agent_count):
            assert utility(inst, result.allocation, i) == result.lam
        assert verify_pareto_optimal(inst, result.allocation).ok

    for _ in range(200):
        cfg = GenConfig(seed=rng.randrange(2**32), agents=2, items=rng.randrange(1, 9))
        inst = gen_instance(cfg)
        fast = maxmin_two_agents(inst)
        assert fast.lam == maxmin_lp(inst).lam
        report = verify_equilibrium(inst, fast.allocation, fast.prices, fast.budgets)
        assert report.supported and report.items_fully_allocated and report.budgets_exhausted

    for _ in range(200):
        n = rng.randrange(1, 9)
        cfg = GenConfig(seed=rng.randrange(2**32), agents=n, items=2)
        inst = gen_instance(cfg)
        fast = maxmin_two_items(inst)
        assert fast.lam == maxmin_lp(inst).lam
        assert fast.probes <= (n - 1).bit_length() + 1
    print("criterion 5: 200 LP + 200 two-agent + 200 two-item max-min runs exact -> PASS")


def test_criterion_6_negative_path():
    detected = 0
    seed = 0
    while detected < 100:
        seed += 1
        assert seed < 4000, "degradation pool exhausted"
        cfg = GenConfig(seed=seed, agents=2 + seed % 5, items=2 + (seed // 5) % 5)
        inst = gen_instance(cfg)
        alloc = gen_pareto_allocation(inst, seed, mode="a" if seed % 2 else "b")
        worse = degrade_allocation(inst, alloc, seed)
        if worse is None:
            continue
        with pytest.raises(NotParetoOptimal):
            support_pipeline(inst, worse)
        detected += 1
    print(f"criterion 6: {detected}/100 degraded allocations rejected -> PASS")


def test_criterion_7_lp_oracle():
    # The reference simplex on general rows, and the package's simplex on
    # "<=" rows with rhs >= 0, each against vertex enumeration.
    rng = random.Random(7_000)
    for relations, rhs_low, solve in (
        ((LESS, EQUAL, GREATER), -4, fraction_solve_lp),
        ((LESS,), 0, core_solve_lp),
    ):
        for _ in range(200):
            nvars = rng.randrange(1, 5)
            rows = []
            for _ in range(rng.randrange(0, 5)):
                coeffs = tuple(rat(rng.randrange(-3, 4)) for _ in range(nvars))
                rows.append((coeffs, rng.choice(relations), rat(rng.randrange(rhs_low, 9))))
            problem = make_problem(
                tuple(rat(rng.randrange(-3, 4)) for _ in range(nvars)),
                rows,
                upper=tuple(rat(rng.randrange(1, 6)) for _ in range(nvars)),
            )
            solution = solve(problem)
            status, value = brute_force_lp(problem)
            assert solution.status == status
            if status == OPTIMAL:
                assert solution.objective_value == value
    print("criterion 7: 400/400 simplex optima match vertex enumeration -> PASS")


def test_criterion_8_cli_closure(tmp_path):
    instance = str(tmp_path / "c.instance.json")
    allocation = str(tmp_path / "c.allocation.json")
    eq = str(tmp_path / "c.eq.json")
    for seed in range(CORPUS_SIZE):
        args = [
            "gen",
            "--seed", str(seed),
            "--agents", str(2 + seed % 5),
            "--items", str(2 + (seed // 5) % 5),
            "--mode", "a" if seed % 2 else "b",
            "-o", str(tmp_path / "c"),
        ]
        assert main(args) == 0
        assert main(["price", instance, allocation, "-o", eq]) == 0
        assert main(["verify", instance, allocation, eq]) == 0

        for path, load, dump in (
            (instance, load_instance, dump_instance),
            (allocation, load_allocation, dump_allocation),
            (eq, load_equilibrium, dump_equilibrium),
        ):
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            assert dump(load(text)) == text, f"round trip changed {path}"
    print(f"criterion 8: {CORPUS_SIZE}/{CORPUS_SIZE} gen->price->verify closures exit 0 -> PASS")
