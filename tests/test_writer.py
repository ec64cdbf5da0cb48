"""The direct document writer against json.dumps, the writer it replaced.

formats._emit writes documents without the json module's encoder;
tests/oracles.py keeps json.dumps(doc, indent=2) plus a newline as
json_reference. Both must give the same text on nested dicts and lists
of strings, ints, booleans and None, with empty containers, non-ASCII
strings and strings that need escapes. Every dump_* must then write the
same bytes with either writer, on documents from generated markets.
"""

from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceub import formats
from ceub.formats import (
    EquilibriumDoc,
    MaxminDoc,
    dump_allocation,
    dump_equilibrium,
    dump_instance,
    dump_maxmin,
)
from ceub.generators import GenConfig, gen_instance, gen_pareto_allocation, gen_structured_instance
from ceub.maxmin import maxmin_lp, maxmin_two_agents
from ceub.scaling import support_with_details

from oracles import json_reference

# Derandomized and without an example database: the same draws on every run.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Characters json escapes: quote, backslash, controls, a lone surrogate,
# and non-ASCII ones it writes as \uXXXX (astral ones as a pair).
SPECIAL = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "☃", "😀", "\ud800"]
)
STRINGS = st.one_of(st.text(max_size=6), st.lists(SPECIAL, max_size=4).map("".join))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), STRINGS)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(STRINGS, inner, max_size=4)
    ),
    max_leaves=30,
)


@PROPERTY
@given(DOCUMENTS)
@example({})
@example([])
@example({"": [], "a": {}, "b": [[], {}, [[]]], "c": {"d": {}}})
@example(["é\n\"\\", "😀", "\ud800", "\x00", True, False, None, 0, -(10**40)])
def test_emitter_matches_json_dumps(doc):
    assert formats._emit(doc) == json_reference(doc)


def test_emitter_rejects_what_no_document_holds():
    for node in (1.5, (1,), {1: "1"}, {"a": object()}):
        with pytest.raises(TypeError):
            formats._emit(node)


@st.composite
def markets(draw):
    """(instance, Pareto-optimal allocation) from a seeded generator."""
    seed = draw(st.integers(0, 2**32 - 1))
    cfg = GenConfig(seed=seed, agents=draw(st.integers(1, 5)), items=draw(st.integers(1, 5)))
    inst = draw(st.sampled_from((gen_instance, gen_structured_instance)))(cfg)
    return inst, gen_pareto_allocation(inst, seed, draw(st.sampled_from("ab")))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(markets())
def test_every_dump_writes_what_json_dumps_wrote(market):
    inst, y = market
    details = support_with_details(inst, y)
    eq, report = details.equilibrium, details.report
    result = maxmin_two_agents(inst) if inst.agent_count == 2 else maxmin_lp(inst)
    documents = [
        (dump_instance, inst),
        (dump_allocation, y),
        (
            dump_equilibrium,
            EquilibriumDoc(
                prices=eq.prices,
                budgets=eq.budgets,
                alpha=eq.alpha,
                tree_of_agent=eq.decomposition.tree_of_agent,
                tree_of_item=eq.decomposition.tree_of_item,
                cycle_free=eq.allocation.x,
                reports=report.reports,
                items_fully_allocated=report.items_fully_allocated,
                budgets_exhausted=report.budgets_exhausted,
            ),
        ),
        (dump_maxmin, MaxminDoc(result.lam, result.allocation.x, result.prices, result.budgets)),
        (dump_maxmin, MaxminDoc(result.lam, result.allocation.x, None, None)),
    ]
    for dump, doc in documents:
        text = dump(doc)
        with patch.object(formats, "_emit", json_reference):
            assert dump(doc) == text
