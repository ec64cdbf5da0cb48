"""Command-line frontend: price, maxmin, verify, and gen subcommands.

Exit codes are part of the contract and stable:

  0  success
  1  input, usage, or schema problems (including CEUB_LOG misuse)
  2  the given allocation is not Pareto optimal
  3  an equilibrium file failed verification against its inputs

CEUB_LOG selects diagnostic volume on stderr: quiet (default), info,
or trace.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

from .errors import DimensionMismatch, NotParetoOptimal, SchemaError, ZeroPrice
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
)
from .generators import GenConfig, gen_instance, gen_pareto_allocation, gen_structured_instance
from .market import verify_equilibrium, verify_pareto_optimal
from .maxmin import maxmin_lp, maxmin_two_agents, maxmin_two_items
from .rationals import format_rational
from .scaling import support_with_details

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}
# The root logger's one handler, made once per process; each call to
# main sets the level and points it at the current stderr.
_HANDLER = logging.StreamHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which this CLI reserves
    # for non-Pareto-optimal inputs; route usage problems to exit 1.
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_price(args) -> int:
    inst = load_instance(_read(args.instance))
    y = load_allocation(_read(args.allocation))
    details = support_with_details(inst, y)
    eq = details.equilibrium
    report = details.report
    doc = EquilibriumDoc(
        prices=eq.prices,
        budgets=eq.budgets,
        alpha=eq.alpha,
        tree_of_agent=eq.decomposition.tree_of_agent,
        tree_of_item=eq.decomposition.tree_of_item,
        cycle_free=eq.allocation.x,
        reports=report.reports,
        items_fully_allocated=report.items_fully_allocated,
        budgets_exhausted=report.budgets_exhausted,
    )
    _write(args.out, dump_equilibrium(doc))
    print(
        f"supported: {eq.decomposition.tree_count} trees,"
        f" prices {[format_rational(p) for p in eq.prices]};"
        f" wrote {args.out}"
    )
    return 0


def cmd_maxmin(args) -> int:
    inst = load_instance(_read(args.instance))
    if args.fast:
        if inst.agent_count == 2:
            result = maxmin_two_agents(inst)
        elif inst.item_count == 2:
            result = maxmin_two_items(inst)
        else:
            raise ValueError("fast path requires n=2 or m=2")
    else:
        result = maxmin_lp(inst)
    doc = MaxminDoc(
        lam=result.lam,
        shares=result.allocation.x,
        prices=result.prices,
        budgets=result.budgets,
    )
    _write(args.out, dump_maxmin(doc))
    print(f"lambda = {format_rational(result.lam)}; wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    inst = load_instance(_read(args.instance))
    alloc = load_allocation(_read(args.allocation))
    doc = load_equilibrium(_read(args.equilibrium))
    report = verify_equilibrium(inst, alloc, doc.prices, doc.budgets)
    for r in report.reports:
        status = "ok" if r.in_demand_set else "NOT IN DEMAND SET"
        print(
            f"agent {r.agent}: spend {format_rational(r.spend)}"
            f" of budget {format_rational(doc.budgets[r.agent])},"
            f" utility {format_rational(r.achieved_utility)},"
            f" optimum {format_rational(r.optimal_utility)} -> {status}"
        )
    if report.is_equilibrium:
        print("equilibrium verified: all agents at demand-set optima, market cleared")
        return 0
    # A passing report certifies Pareto optimality; on a failing one the
    # exchange graph tells a dominated allocation (2) from a bad file (3).
    verdict = verify_pareto_optimal(inst, alloc)
    if not verdict.ok:
        print(f"not Pareto optimal: {verdict.reason}")
        return 2
    # The verifier passed, so every item is fully allocated.
    if not report.supported:
        failing = next(r.agent for r in report.reports if not r.in_demand_set)
        print(f"verification failed: agent {failing} is not at a demand-set optimum")
        return 3
    failing = next(r.agent for r in report.reports if r.spend != doc.budgets[r.agent])
    print(f"verification failed: agent {failing} does not spend its exact budget")
    return 3


def cmd_gen(args) -> int:
    cfg = GenConfig(seed=args.seed, agents=args.agents, items=args.items)
    if args.mode == "a":
        inst = gen_instance(cfg)
    else:
        inst = gen_structured_instance(cfg)
    alloc = gen_pareto_allocation(inst, cfg.seed, args.mode)
    instance_path = f"{args.out}.instance.json"
    allocation_path = f"{args.out}.allocation.json"
    _write(instance_path, dump_instance(inst))
    _write(allocation_path, dump_allocation(alloc))
    print(f"wrote {instance_path} and {allocation_path}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="ceub", description="Competitive equilibria with unequal budgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="compute supporting prices and budgets for an allocation")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("-o", "--out", required=True, help="equilibrium output path")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("maxmin", help="compute a max-min (egalitarian) allocation")
    p.add_argument("instance")
    p.add_argument("-o", "--out", required=True, help="result output path")
    p.add_argument(
        "--fast",
        action="store_true",
        help="use the two-agent / two-item fast algorithm (requires n=2 or m=2)",
    )
    p.set_defaults(func=cmd_maxmin)

    p = sub.add_parser("verify", help="check an equilibrium file against instance and allocation")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("equilibrium")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance with a Pareto-optimal allocation")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--mode", choices=("a", "b"), default="a",
                   help="a: welfare-vertex allocation; b: max-min with neutral trades")
    p.add_argument("-o", "--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen)

    return parser


def _configure_logging(level: int) -> None:
    """Log at level to the current sys.stderr through _HANDLER alone, as
    logging.basicConfig(force=True) would, without rebuilding it. The
    stream is assigned rather than set with setStream, which would flush
    the previous stream, and that one may be closed by now."""
    root = logging.getLogger()
    root.setLevel(level)
    _HANDLER.stream = sys.stderr
    if root.handlers != [_HANDLER]:
        for handler in root.handlers[:]:
            root.removeHandler(handler)
            if handler is not _HANDLER:
                handler.close()
        root.addHandler(_HANDLER)


def main(argv=None) -> int:
    level_name = os.environ.get("CEUB_LOG", "quiet")
    if level_name not in _LOG_LEVELS:
        print(
            f"error: CEUB_LOG must be one of quiet, info, trace; got {level_name!r}",
            file=sys.stderr,
        )
        return 1
    _configure_logging(_LOG_LEVELS[level_name])
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # -h has printed the help
        return e.code
    try:
        return args.func(args)
    except (SchemaError, OSError, ValueError, DimensionMismatch, ZeroPrice) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NotParetoOptimal as e:
        print(f"not Pareto optimal: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
