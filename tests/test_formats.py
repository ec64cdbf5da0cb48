"""Document serialization: canonical JSON, round-trips, schema errors."""

import json
import re

import pytest

from ceub.errors import SchemaError
from ceub.formats import (
    ALLOCATION_SCHEMA,
    INSTANCE_SCHEMA,
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
from ceub.market import make_allocation, validate_instance, verify_equilibrium
from ceub.maxmin import maxmin_two_agents
from ceub.rationals import format_rational, parse_rational, rat
from ceub.scaling import support_pipeline


def toy():
    inst = validate_instance([[1], [99]])
    alloc = make_allocation([[rat(99, 100)], [rat(1, 100)]])
    return inst, alloc


def toy_equilibrium_doc():
    inst, y = toy()
    eq = support_pipeline(inst, y)
    report = verify_equilibrium(inst, y, eq.prices, eq.budgets)
    return EquilibriumDoc(
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


# ------------------------------------------------------------- round trips


def test_instance_round_trip_is_byte_identical():
    inst, _ = toy()
    text = dump_instance(inst)
    assert load_instance(text).values == inst.values
    assert dump_instance(load_instance(text)) == text
    assert text.endswith("\n")


def test_allocation_round_trip_is_byte_identical():
    _, alloc = toy()
    text = dump_allocation(alloc)
    assert load_allocation(text).x == alloc.x
    assert dump_allocation(load_allocation(text)) == text


def test_equilibrium_round_trip_is_byte_identical():
    doc = toy_equilibrium_doc()
    text = dump_equilibrium(doc)
    assert load_equilibrium(text) == doc
    assert dump_equilibrium(load_equilibrium(text)) == text


def test_maxmin_round_trip_with_and_without_prices():
    inst, _ = toy()
    fast = maxmin_two_agents(inst)
    with_prices = MaxminDoc(
        lam=fast.lam, shares=fast.allocation.x, prices=fast.prices, budgets=fast.budgets
    )
    bare = MaxminDoc(lam=fast.lam, shares=fast.allocation.x, prices=None, budgets=None)
    for doc in (with_prices, bare):
        text = dump_maxmin(doc)
        assert load_maxmin(text) == doc
        assert dump_maxmin(load_maxmin(text)) == text


# ----------------------------------------------------------- dump contents


def test_instance_dump_shape():
    inst, _ = toy()
    doc = json.loads(dump_instance(inst))
    assert doc == {
        "schema": INSTANCE_SCHEMA,
        "agents": 2,
        "items": 1,
        "values": [["1"], ["99"]],
    }


def test_allocation_dump_shape():
    _, alloc = toy()
    doc = json.loads(dump_allocation(alloc))
    assert doc["schema"] == ALLOCATION_SCHEMA
    assert doc["shares"] == [["99/100"], ["1/100"]]


def test_equilibrium_dump_shape():
    doc = json.loads(dump_equilibrium(toy_equilibrium_doc()))
    assert doc["prices"] == ["1"]
    assert doc["budgets"] == ["99/100", "1/100"]
    assert doc["alpha"] == ["1"]
    assert doc["trees"] == {"of_agent": [0, 0], "of_item": [0]}
    assert doc["verification"]["items_fully_allocated"] is True
    assert doc["verification"]["budgets_exhausted"] is True
    rows = doc["verification"]["agents"]
    assert [r["agent"] for r in rows] == [0, 1]
    assert all(r["in_demand_set"] for r in rows)
    assert rows[0]["spend"] == "99/100"


def test_rationals_are_strings_everywhere():
    inst, _ = toy()
    doc = json.loads(dump_instance(inst))
    assert all(isinstance(v, str) for row in doc["values"] for v in row)


# ------------------------------------------------------------ schema errors


def replace_in_toy_instance(field, value):
    doc = json.loads(dump_instance(toy()[0]))
    doc[field] = value
    return json.dumps(doc)


def test_load_rejects_wrong_schema():
    with pytest.raises(SchemaError):
        load_instance(replace_in_toy_instance("schema", "ceub.allocation/1"))
    with pytest.raises(SchemaError):
        load_allocation(dump_instance(toy()[0]))


def test_load_rejects_non_json():
    with pytest.raises(SchemaError):
        load_instance("not json at all")
    with pytest.raises(SchemaError):
        load_instance('["top level is not an object"]')


def test_load_rejects_bad_counts():
    with pytest.raises(SchemaError):
        load_instance(replace_in_toy_instance("agents", 0))
    with pytest.raises(SchemaError):
        load_instance(replace_in_toy_instance("agents", "2"))
    with pytest.raises(SchemaError):
        load_instance(replace_in_toy_instance("items", 5))  # matrix is 2x1


def test_parse_error_names_the_field():
    with pytest.raises(SchemaError) as info:
        load_instance(replace_in_toy_instance("values", [["1/0"], ["99"]]))
    assert "values[0][0]" in str(info.value)

    with pytest.raises(SchemaError) as info:
        load_instance(replace_in_toy_instance("values", [["1"], [1.5]]))
    assert "values[1]" in str(info.value)


def test_load_rejects_a_literal_with_a_trailing_newline():
    with pytest.raises(SchemaError) as info:
        load_instance(replace_in_toy_instance("values", [["1"], ["3\n"]]))
    assert "values[1][0]" in str(info.value)


def test_readers_normalize_well_formed_literals():
    # Readers accept any well-formed literal, not only the lowest-terms
    # ones the writers emit; the next write is canonical.
    inst = load_instance(replace_in_toy_instance("values", [["6/8"], ["007"]]))
    assert inst.values == ((rat(3, 4),), (rat(7),))
    assert json.loads(dump_instance(inst))["values"] == [["3/4"], ["7"]]
    doc = thirds_allocation_doc()
    doc["shares"] = [["-0", "2/6"], ["007/21", "2/6"], ["6/9", "1/3"]]
    alloc = load_allocation(json.dumps(doc))
    assert alloc.x == ((0, rat(1, 3)), (rat(1, 3), rat(1, 3)), (rat(2, 3), rat(1, 3)))
    assert json.loads(dump_allocation(alloc))["shares"] == [
        ["0", "1/3"], ["1/3", "1/3"], ["2/3", "1/3"]
    ]


def thirds_allocation_doc():
    # Every cell of the 3x2 allocation repeats one literal, "1/3".
    return json.loads(dump_allocation(make_allocation([[rat(1, 3)] * 2] * 3)))


def test_bad_literal_after_repeated_good_ones_names_its_own_path():
    for bad in ("1/x", "1/0", "-1/3 ", "1/3/"):
        doc = thirds_allocation_doc()
        doc["shares"][2][1] = bad
        with pytest.raises(SchemaError) as info:
            load_allocation(json.dumps(doc))
        assert info.value.path == "shares[2][1]"


@pytest.mark.parametrize("entry", [1, True, None, 0.5, ["1/3"], {"1/3": "1/3"}])
def test_non_string_entry_is_rejected_after_repeated_good_ones(entry):
    doc = thirds_allocation_doc()
    doc["shares"][1][0] = entry
    with pytest.raises(SchemaError) as info:
        load_allocation(json.dumps(doc))
    assert info.value.path == "shares[1][0]"
    assert f"expected a rational string, got {type(entry).__name__}" in str(info.value)


def test_load_rejects_semantic_violations():
    # schema-valid numbers that violate model constraints still fail parse
    with pytest.raises(SchemaError):
        load_instance(replace_in_toy_instance("values", [["0"], ["99"]]))
    alloc_doc = json.loads(dump_allocation(toy()[1]))
    alloc_doc["shares"] = [["2/3"], ["2/3"]]
    with pytest.raises(SchemaError):
        load_allocation(json.dumps(alloc_doc))


def test_equilibrium_validates_tree_ids_and_agent_order():
    text = dump_equilibrium(toy_equilibrium_doc())
    doc = json.loads(text)
    bad = json.loads(text)
    bad["trees"]["of_item"] = [7]
    with pytest.raises(SchemaError):
        load_equilibrium(json.dumps(bad))
    bad = json.loads(text)
    bad["verification"]["agents"][0]["agent"] = 1
    with pytest.raises(SchemaError):
        load_equilibrium(json.dumps(bad))
    bad = json.loads(text)
    del bad["verification"]["agents"][1]
    with pytest.raises(SchemaError):
        load_equilibrium(json.dumps(bad))
    assert load_equilibrium(json.dumps(doc)) == toy_equilibrium_doc()


@pytest.mark.parametrize(
    "tree, message",
    [
        (False, "expected an integer tree id"),
        ("0", "expected an integer tree id"),
        (1.0, "expected an integer tree id"),
        (2, r"tree id out of range 0\.\.0"),
    ],
    ids=["false", "string", "float", "out of range"],
)
def test_tree_id_must_be_an_int_in_range(tree, message):
    doc = json.loads(dump_equilibrium(toy_equilibrium_doc()))
    doc["trees"]["of_item"] = [tree]
    with pytest.raises(SchemaError, match=rf"^trees\.of_item\[0\]: {message}$"):
        load_equilibrium(json.dumps(doc))


def _set(*keys, value):
    """An edit of an equilibrium document: the field at keys becomes value."""

    def edit(doc):
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, path",
    [
        (_set("trees", "of_agent", value="0"), "trees.of_agent"),
        (_set("alpha", value=[]), "alpha"),
        (_set("trees", value=[[0, 0], [0]]), "trees"),
        (_set("verification", value=[]), "verification"),
        (
            _set("verification", "agents", 0, "in_demand_set", value="true"),
            "verification.agents[0].in_demand_set",
        ),
        (_set("verification", "budgets_exhausted", value=1), "verification.budgets_exhausted"),
        (_set("cycle_free_allocation", value=[["99/100"]]), "cycle_free_allocation"),
    ],
    ids=[
        "tree map not a list",
        "empty alpha",
        "trees not an object",
        "verification not an object",
        "in_demand_set not a boolean",
        "market flag not a boolean",
        "matrix missing a row",
    ],
)
def test_equilibrium_rejects_malformed_fields(edit, path):
    doc = json.loads(dump_equilibrium(toy_equilibrium_doc()))
    edit(doc)
    with pytest.raises(SchemaError) as info:
        load_equilibrium(json.dumps(doc))
    assert info.value.path == path


@pytest.mark.parametrize(
    "edit, path, message",
    [
        (_set("cycle_free_allocation", 0, 0, value="5"), "cycle_free_allocation", "outside [0, 1]"),
        (
            _set("cycle_free_allocation", value=[["1"], ["1/100"]]),
            "cycle_free_allocation",
            "over-allocated",
        ),
        (_set("alpha", 0, value="-3"), "alpha[0]", "expected a nonnegative rational, got -3"),
    ],
    ids=["share above 1", "item over-allocated", "negative alpha"],
)
def test_equilibrium_rejects_values_out_of_range(edit, path, message):
    doc = json.loads(dump_equilibrium(toy_equilibrium_doc()))
    edit(doc)
    with pytest.raises(SchemaError, match=r"^" + re.escape(f"{path}: ") + ".*" + re.escape(message)):
        load_equilibrium(json.dumps(doc))


def toy_maxmin_text():
    fast = maxmin_two_agents(toy()[0])
    return dump_maxmin(MaxminDoc(fast.lam, fast.allocation.x, fast.prices, fast.budgets))


@pytest.mark.parametrize(
    "edit, path, message",
    [
        (_set("shares", 0, 0, value="9"), "shares", "outside [0, 1]"),
        (_set("shares", value=[["1"], ["1/100"]]), "shares", "over-allocated"),
        (_set("lam", value="-2"), "lam", "expected a nonnegative rational, got -2"),
        (_set("prices", 0, value="-1"), "prices[0]", "expected a positive rational, got -1"),
        (_set("prices", 0, value="0"), "prices[0]", "expected a positive rational, got 0"),
        (_set("budgets", 1, value="-1"), "budgets[1]", "expected a nonnegative rational, got -1"),
    ],
    ids=["share above 1", "item over-allocated", "negative lam", "negative price", "zero price",
         "negative budget"],
)
def test_maxmin_rejects_values_out_of_range(edit, path, message):
    doc = json.loads(toy_maxmin_text())
    edit(doc)
    with pytest.raises(SchemaError, match=r"^" + re.escape(f"{path}: ") + ".*" + re.escape(message)):
        load_maxmin(json.dumps(doc))


def test_range_checks_accept_zero_alpha_lam_and_budget():
    doc = json.loads(dump_equilibrium(toy_equilibrium_doc()))
    doc["alpha"] = ["0"]
    assert load_equilibrium(json.dumps(doc)).alpha == (0,)
    doc = json.loads(toy_maxmin_text())
    doc["lam"], doc["budgets"] = "0", ["0", "0"]
    loaded = load_maxmin(json.dumps(doc))
    assert loaded.lam == 0 and loaded.budgets == (0, 0)


def test_maxmin_doc_requires_prices_and_budgets_together():
    inst, _ = toy()
    fast = maxmin_two_agents(inst)
    text = dump_maxmin(
        MaxminDoc(lam=fast.lam, shares=fast.allocation.x, prices=fast.prices, budgets=fast.budgets)
    )
    doc = json.loads(text)
    doc["budgets"] = None
    with pytest.raises(SchemaError):
        load_maxmin(json.dumps(doc))


# ------------------------------------------------- beyond Python's str limit

# Python converts ints of at most 4300 digits to and from str by default.
BIG = "9" * 5000


def toy_documents():
    inst, alloc = toy()
    fast = maxmin_two_agents(inst)
    maxmin_doc = MaxminDoc(fast.lam, fast.allocation.x, fast.prices, fast.budgets)
    return {
        "instance": (load_instance, dump_instance(inst)),
        "allocation": (load_allocation, dump_allocation(alloc)),
        "equilibrium": (load_equilibrium, dump_equilibrium(toy_equilibrium_doc())),
        "maxmin": (load_maxmin, dump_maxmin(maxmin_doc)),
    }


@pytest.mark.parametrize("kind", ["instance", "allocation", "equilibrium", "maxmin"])
def test_a_5000_digit_int_in_any_field_is_a_schema_error(kind):
    load, text = toy_documents()[kind]
    load(text)
    with pytest.raises(SchemaError, match="not valid JSON"):
        load(text.replace("{", '{\n  "x": ' + BIG + ",", 1))


def test_shares_and_values_beyond_the_str_limit_fail_as_schema_errors():
    with pytest.raises(SchemaError, match=f"got -{BIG}"):
        load_instance(replace_in_toy_instance("values", [["-" + BIG], ["99"]]))
    below = BIG[:-1] + "8"
    total = format_rational(2 * parse_rational(f"{below}/{BIG}"))
    alloc_doc = json.loads(dump_allocation(toy()[1]))
    for shares, message in (
        ([[f"{BIG}/{below}"], ["0"]], rf"x\[0\]\[0\] = {BIG}/{below} outside"),
        ([[f"{below}/{BIG}"]] * 2, f"column sum {total} > 1"),
    ):
        alloc_doc["shares"] = shares
        with pytest.raises(SchemaError, match=message):
            load_allocation(json.dumps(alloc_doc))
