"""Bit-exact JSON document formats for instances, allocations, and results.

Every rational is written as a lowest-terms string "num/den" (plain "k"
for integers), so a value survives any number of read/write cycles
unchanged. Readers take any well-formed literal, an optional minus sign
and decimal digits with an optional "/" and positive denominator, and
normalize it: "6/8" reads as 3/4, "007" as 7 and "-0" as 0, which the
writers then emit as "3/4", "7" and "0". Anything else (a zero or
negative denominator, a "+" sign, a decimal point, whitespace) is a
SchemaError. Writers emit a
fixed field order with two-space indentation and a trailing newline,
byte for byte what ``json.dumps(doc, indent=2)`` writes, through a
small direct emitter (json.dumps takes its pure-Python encoder whenever
it indents); parse-then-print is the identity on canonical documents.

Readers parse each distinct literal of a document once: a per-document
table maps literal text to its Rational, and most cells of a real
allocation repeat a handful of literals (0, 1, a few shares). A field
path for an error message is built only when an entry fails.

Schema names are versioned ("ceub.instance/1" and friends). Readers
raise SchemaError naming the offending field path for any structural
or value problem, including domain validation of the payload, so
callers can treat SchemaError as "the file is bad" wholesale: every
share matrix is a valid allocation (make_allocation), alpha and lam are
nonnegative, and a max-min file's prices are positive and its budgets
nonnegative. An equilibrium file's own prices and budgets are left to
verify_equilibrium, which ceub verify runs on them and whose messages
name the price or budget out of range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import CeubError, SchemaError
from .market import Allocation, DemandReport, Instance, make_allocation, validate_instance
from .rationals import format_rational, parse_rational

INSTANCE_SCHEMA = "ceub.instance/1"
ALLOCATION_SCHEMA = "ceub.allocation/1"
EQUILIBRIUM_SCHEMA = "ceub.equilibrium/1"
MAXMIN_SCHEMA = "ceub.maxmin/1"


@dataclass(frozen=True)
class EquilibriumDoc:
    """Everything an equilibrium file carries.

    Prices and budgets are the scaled (final) vectors; alpha and the
    tree maps record how scaling partitioned the market; cycle_free is
    the transformed allocation the prices were derived from; reports
    re-check the allocation the user asked about, so consumers can
    audit the file without recomputing.
    """

    prices: tuple
    budgets: tuple
    alpha: tuple
    tree_of_agent: tuple
    tree_of_item: tuple
    cycle_free: tuple  # rows of Rational shares
    reports: tuple  # per-agent DemandReport
    items_fully_allocated: bool
    budgets_exhausted: bool


@dataclass(frozen=True)
class MaxminDoc:
    lam: object
    shares: tuple  # rows of Rational shares
    prices: tuple | None
    budgets: tuple | None


class _Literals(dict):
    """One document's literal text -> Rational, filled on first sight.

    A lookup of anything that is not a well-formed literal raises
    (TypeError when unhashable, ValueError otherwise) and stores nothing.
    """

    def __missing__(self, text):
        value = self[text] = parse_rational(text)
        return value


def _parse(node, path: str, literals: _Literals):
    if not isinstance(node, str):
        raise SchemaError(f"expected a rational string, got {type(node).__name__}", path)
    try:
        return literals[node]
    except ValueError as e:
        raise SchemaError(str(e), path) from None


def _parse_vector(node, path: str, length: int, literals: _Literals) -> tuple:
    if not isinstance(node, list) or len(node) != length:
        raise SchemaError(f"expected a list of {length} rationals", path)
    try:
        return tuple(map(literals.__getitem__, node))
    except (TypeError, ValueError):
        # Find the first bad entry again, with its path, for the message.
        for k, v in enumerate(node):
            _parse(v, f"{path}[{k}]", literals)
        raise


def _parse_matrix(node, path: str, rows: int, cols: int, literals: _Literals) -> tuple:
    if not isinstance(node, list) or len(node) != rows:
        raise SchemaError(f"expected {rows} rows", path)
    return tuple([_parse_vector(r, f"{path}[{i}]", cols, literals) for i, r in enumerate(node)])


def _allocation(rows, path: str) -> Allocation:
    try:
        return make_allocation(rows)
    except CeubError as e:
        raise SchemaError(str(e), path) from None


def _check_sign(value, path: str, positive: bool = False):
    """value, once checked >= 0, or > 0 when positive is set."""
    if value.numerator < 0 or (positive and value.numerator == 0):
        sign = "positive" if positive else "nonnegative"
        raise SchemaError(f"expected a {sign} rational, got {format_rational(value)}", path)
    return value


def _decode(text: str, schema: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an int longer than Python converts
        raise SchemaError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    if doc.get("schema") != schema:
        raise SchemaError(f"expected {schema}, got {doc.get('schema')!r}", "schema")
    return doc


def _counts(doc: dict) -> tuple:
    # JSON true/false load as bool, a subclass of int: count and index
    # fields test the exact type so that neither passes for 1 or 0.
    for key in ("agents", "items"):
        if type(doc.get(key)) is not int or doc[key] < 1:
            raise SchemaError("expected a positive integer", key)
    return doc["agents"], doc["items"]


def _encode(node, newline: str) -> str:
    """node as json.dumps(node, indent=2) writes it on a line that starts
    with newline (a line break and the current indentation)."""
    if type(node) is str:
        return encode_basestring_ascii(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if type(node) is int:
        return str(node)
    inner = newline + "  "
    if type(node) is list:
        if not node:
            return "[]"
        items = [encode_basestring_ascii(v) if type(v) is str else _encode(v, inner) for v in node]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if type(node) is dict:
        if not node:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _encode(v, inner) for k, v in node.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"cannot write {type(node).__name__} to a document")


def _emit(doc: dict) -> str:
    return _encode(doc, "\n") + "\n"


def dump_instance(inst: Instance) -> str:
    return _emit(
        {
            "schema": INSTANCE_SCHEMA,
            "agents": inst.agent_count,
            "items": inst.item_count,
            "values": [[format_rational(v) for v in row] for row in inst.values],
        }
    )


def load_instance(text: str) -> Instance:
    doc = _decode(text, INSTANCE_SCHEMA)
    n, m = _counts(doc)
    values = _parse_matrix(doc.get("values"), "values", n, m, _Literals())
    try:
        return validate_instance(values)
    except CeubError as e:
        raise SchemaError(str(e), "values") from None


def dump_allocation(alloc: Allocation) -> str:
    return _emit(
        {
            "schema": ALLOCATION_SCHEMA,
            "agents": alloc.agent_count,
            "items": alloc.item_count,
            "shares": [[format_rational(z) for z in row] for row in alloc.x],
        }
    )


def load_allocation(text: str) -> Allocation:
    doc = _decode(text, ALLOCATION_SCHEMA)
    n, m = _counts(doc)
    return _allocation(_parse_matrix(doc.get("shares"), "shares", n, m, _Literals()), "shares")


def dump_equilibrium(doc: EquilibriumDoc) -> str:
    return _emit(
        {
            "schema": EQUILIBRIUM_SCHEMA,
            "agents": len(doc.budgets),
            "items": len(doc.prices),
            "prices": [format_rational(p) for p in doc.prices],
            "budgets": [format_rational(b) for b in doc.budgets],
            "alpha": [format_rational(a) for a in doc.alpha],
            "trees": {
                "of_agent": list(doc.tree_of_agent),
                "of_item": list(doc.tree_of_item),
            },
            "cycle_free_allocation": [[format_rational(z) for z in row] for row in doc.cycle_free],
            "verification": {
                "agents": [
                    {
                        "agent": r.agent,
                        "spend": format_rational(r.spend),
                        "achieved_utility": format_rational(r.achieved_utility),
                        "optimal_utility": format_rational(r.optimal_utility),
                        "in_demand_set": r.in_demand_set,
                    }
                    for r in doc.reports
                ],
                "items_fully_allocated": doc.items_fully_allocated,
                "budgets_exhausted": doc.budgets_exhausted,
            },
        }
    )


def _parse_tree_map(node, path: str, length: int, tree_count: int) -> tuple:
    if not isinstance(node, list) or len(node) != length:
        raise SchemaError(f"expected a list of {length} tree ids", path)
    for k, t in enumerate(node):
        if type(t) is not int:  # true and false load as bool
            raise SchemaError("expected an integer tree id", f"{path}[{k}]")
        if not 0 <= t < tree_count:
            raise SchemaError(f"tree id out of range 0..{tree_count - 1}", f"{path}[{k}]")
    return tuple(node)


def load_equilibrium(text: str) -> EquilibriumDoc:
    doc = _decode(text, EQUILIBRIUM_SCHEMA)
    n, m = _counts(doc)
    literals = _Literals()
    prices = _parse_vector(doc.get("prices"), "prices", m, literals)
    budgets = _parse_vector(doc.get("budgets"), "budgets", n, literals)
    alpha_node = doc.get("alpha")
    if not isinstance(alpha_node, list) or not alpha_node:
        raise SchemaError("expected a nonempty list of rationals", "alpha")
    alpha = _parse_vector(alpha_node, "alpha", len(alpha_node), literals)
    for k, a in enumerate(alpha):
        _check_sign(a, f"alpha[{k}]")
    trees = doc.get("trees")
    if not isinstance(trees, dict):
        raise SchemaError("expected an object with of_agent/of_item", "trees")
    of_agent = _parse_tree_map(trees.get("of_agent"), "trees.of_agent", n, len(alpha))
    of_item = _parse_tree_map(trees.get("of_item"), "trees.of_item", m, len(alpha))
    path = "cycle_free_allocation"
    cycle_free = _allocation(_parse_matrix(doc.get(path), path, n, m, literals), path).x
    ver = doc.get("verification")
    if not isinstance(ver, dict) or not isinstance(ver.get("agents"), list):
        raise SchemaError("expected an object with an agents list", "verification")
    if len(ver["agents"]) != n:
        raise SchemaError(f"expected {n} agent reports", "verification.agents")
    reports = []
    for k, row in enumerate(ver["agents"]):
        path = f"verification.agents[{k}]"
        agent = row.get("agent") if isinstance(row, dict) else None
        if type(agent) is not int or agent != k:
            raise SchemaError(f"expected report for agent {k}", path)
        if not isinstance(row.get("in_demand_set"), bool):
            raise SchemaError("expected a boolean", f"{path}.in_demand_set")
        achieved, optimal, spend = (
            _parse(row.get(key), f"{path}.{key}", literals)
            for key in ("achieved_utility", "optimal_utility", "spend")
        )
        reports.append(DemandReport(k, achieved, optimal, spend, row["in_demand_set"]))
    for key in ("items_fully_allocated", "budgets_exhausted"):
        if not isinstance(ver.get(key), bool):
            raise SchemaError("expected a boolean", f"verification.{key}")
    return EquilibriumDoc(
        prices=prices,
        budgets=budgets,
        alpha=alpha,
        tree_of_agent=of_agent,
        tree_of_item=of_item,
        cycle_free=cycle_free,
        reports=tuple(reports),
        items_fully_allocated=ver["items_fully_allocated"],
        budgets_exhausted=ver["budgets_exhausted"],
    )


def dump_maxmin(doc: MaxminDoc) -> str:
    return _emit(
        {
            "schema": MAXMIN_SCHEMA,
            "agents": len(doc.shares),
            "items": len(doc.shares[0]),
            "lam": format_rational(doc.lam),
            "shares": [[format_rational(z) for z in row] for row in doc.shares],
            "prices": None if doc.prices is None else [format_rational(p) for p in doc.prices],
            "budgets": None if doc.budgets is None else [format_rational(b) for b in doc.budgets],
        }
    )


def load_maxmin(text: str) -> MaxminDoc:
    doc = _decode(text, MAXMIN_SCHEMA)
    n, m = _counts(doc)
    literals = _Literals()
    lam = _check_sign(_parse(doc.get("lam"), "lam", literals), "lam")
    shares = _allocation(_parse_matrix(doc.get("shares"), "shares", n, m, literals), "shares").x
    prices, budgets = (
        None if doc.get(key) is None else _parse_vector(doc[key], key, size, literals)
        for key, size in (("prices", m), ("budgets", n))
    )
    if (prices is None) != (budgets is None):
        raise SchemaError("prices and budgets must be present together", "budgets")
    if prices is not None:
        for key, vector, positive in (("prices", prices, True), ("budgets", budgets, False)):
            for k, value in enumerate(vector):
                _check_sign(value, f"{key}[{k}]", positive)
    return MaxminDoc(lam=lam, shares=shares, prices=prices, budgets=budgets)
