"""Competitive equilibria with unequal budgets for divisible goods.

Any Pareto-optimal fractional allocation of divisible items among
agents with additive positive valuations can be supported as a
competitive equilibrium: anonymous item prices plus one token budget
per agent such that every agent's bundle is exactly affordable and
utility-maximal among affordable bundles. This package computes such
prices and budgets exactly (all arithmetic is rational, never
floating-point), verifies them independently, and ships the max-min
solvers and generators used to exercise the construction.

The pipeline: remove sharing-graph cycles without touching utilities
(graphs), price each resulting tree from an anchor agent (pricing),
scale the trees by an exact multiplicative Bellman-Ford (scaling), and
check the input once with the integer demand certificate (market), which
certifies Pareto optimality; the greedy knapsack and the exchange-graph
verifier only explain failures.
Entry point: support_pipeline.
"""

from .errors import (
    CeubError,
    DimensionMismatch,
    EmptyMatrix,
    InfeasibleLP,
    InternalVerificationFailed,
    NonPositiveValuation,
    NotAForest,
    NotParetoOptimal,
    OrphanItem,
    SchemaError,
    WrongAgentCount,
    WrongItemCount,
    ZeroPrice,
)
from .formats import (
    EquilibriumDoc,
    MaxminDoc,
    dump_allocation,
    dump_equilibrium,
    dump_instance,
    dump_maxmin,
    load_allocation,
    load_equilibrium,
    load_instance,
    load_maxmin,
)
from .generators import (
    DEFAULT_GRID,
    GenConfig,
    SplitMix64,
    gen_instance,
    gen_pareto_allocation,
    gen_structured_instance,
)
from .graphs import AllocationGraph, find_cycle, make_cycle_free
from .market import (
    Allocation,
    DemandReport,
    EquilibriumReport,
    Instance,
    ParetoVerdict,
    TradingCycleCertificate,
    is_in_demand_set,
    make_allocation,
    max_affordable_utility,
    utility,
    validate_instance,
    verify_equilibrium,
    verify_pareto_optimal,
)
from .maxmin import (
    MaxMinResult,
    check_maxmin_characterization,
    maxmin_lp,
    maxmin_two_agents,
    maxmin_two_items,
)
from .pricing import ForestDecomposition, TreePricing, price_forest
from .rationals import BACKEND, format_rational, parse_rational, rat
from .scaling import (
    Equilibrium,
    PipelineDetails,
    solve_multiplier_lp,
    support_pipeline,
    support_with_details,
)

__version__ = "0.1.0"
