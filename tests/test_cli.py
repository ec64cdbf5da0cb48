"""Command-line surface: grammar, exit codes, file outputs, closure.

Everything runs in-process through main(argv) except one subprocess
smoke test of the declared console script: the `ceub` target from
pyproject.toml's [project.scripts], launched from the source tree through
the same wrapper an installer writes, so no install is needed.
"""

import json
import logging
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ceub import cli, market, scaling, simplex
from ceub.cli import main
from ceub.formats import dump_allocation, dump_instance, load_equilibrium, load_maxmin
from ceub.market import make_allocation, validate_instance
from ceub.rationals import format_rational, rat


def write_toy(tmp_path):
    inst = validate_instance([[1], [99]])
    alloc = make_allocation([[rat(99, 100)], [rat(1, 100)]])
    instance = tmp_path / "toy.instance.json"
    allocation = tmp_path / "toy.allocation.json"
    instance.write_text(dump_instance(inst), encoding="utf-8")
    allocation.write_text(dump_allocation(alloc), encoding="utf-8")
    return str(instance), str(allocation)


@pytest.fixture(autouse=True)
def quiet_env(monkeypatch):
    monkeypatch.delenv("CEUB_LOG", raising=False)


# ------------------------------------------------------------------ price


def test_price_toy(tmp_path, capsys):
    instance, allocation = write_toy(tmp_path)
    out = str(tmp_path / "eq.json")
    assert main(["price", instance, allocation, "-o", out]) == 0
    assert "supported" in capsys.readouterr().out
    doc = json.loads((tmp_path / "eq.json").read_text(encoding="utf-8"))
    assert doc["prices"] == ["1"]
    assert doc["budgets"] == ["99/100", "1/100"]
    assert doc["alpha"] == ["1"]
    assert doc["verification"]["budgets_exhausted"] is True
    load_equilibrium((tmp_path / "eq.json").read_text(encoding="utf-8"))


def test_price_rejects_dominated_allocation(tmp_path, capsys):
    inst = validate_instance([[2, 1], [1, 2]])
    half = rat(1, 2)
    alloc = make_allocation([[half, half], [half, half]])
    instance = tmp_path / "i.json"
    allocation = tmp_path / "a.json"
    instance.write_text(dump_instance(inst), encoding="utf-8")
    allocation.write_text(dump_allocation(alloc), encoding="utf-8")
    out = str(tmp_path / "eq.json")
    assert main(["price", str(instance), str(allocation), "-o", out]) == 2
    err = capsys.readouterr().err
    assert "not Pareto optimal" in err
    assert "cycle" in err and "ratio" in err
    assert not (tmp_path / "eq.json").exists()


def test_price_names_malformed_field(tmp_path, capsys):
    instance, allocation = write_toy(tmp_path)
    doc = json.loads((tmp_path / "toy.instance.json").read_text(encoding="utf-8"))
    doc["values"][0][0] = "1/0"
    (tmp_path / "toy.instance.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["price", instance, allocation, "-o", str(tmp_path / "eq.json")]) == 1
    err = capsys.readouterr().err
    assert "values[0][0]" in err


# ----------------------------------------------------------------- maxmin


def test_maxmin_toy(tmp_path, capsys):
    instance, _ = write_toy(tmp_path)
    out = tmp_path / "mm.json"
    assert main(["maxmin", instance, "-o", str(out)]) == 0
    assert "lambda = 99/100" in capsys.readouterr().out
    doc = load_maxmin(out.read_text(encoding="utf-8"))
    assert doc.lam == rat(99, 100)
    assert doc.prices is None


def fast_and_lp(tmp_path, inst):
    """The documents `ceub maxmin --fast` and `ceub maxmin` write for inst."""
    instance = tmp_path / "i.json"
    instance.write_text(dump_instance(inst), encoding="utf-8")
    docs = []
    for out, flags in ((tmp_path / "fast.json", ["--fast"]), (tmp_path / "slow.json", [])):
        assert main(["maxmin", str(instance), "-o", str(out), *flags]) == 0
        docs.append(load_maxmin(out.read_text(encoding="utf-8")))
    return docs


def test_maxmin_fast_matches_lp_on_two_agents(tmp_path):
    inst = validate_instance(
        [[1, 2, 3, rat(1, 2), 5], [2, 2, 1, 4, rat(7, 2)]]
    )
    fast, slow = fast_and_lp(tmp_path, inst)
    assert fast.lam == slow.lam
    assert fast.prices is not None and fast.budgets is not None
    assert slow.prices is None


def test_maxmin_fast_matches_lp_on_two_items(tmp_path):
    fast, slow = fast_and_lp(tmp_path, validate_instance([[1, 3], [2, 1], [rat(5, 2), 4]]))
    assert fast.lam == slow.lam
    assert fast.prices is not None and fast.budgets is not None


def test_maxmin_fast_requires_a_small_side(tmp_path, capsys):
    inst = validate_instance([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    instance = tmp_path / "i.json"
    instance.write_text(dump_instance(inst), encoding="utf-8")
    assert main(["maxmin", str(instance), "-o", str(tmp_path / "o.json"), "--fast"]) == 1
    assert capsys.readouterr().err == "error: fast path requires n=2 or m=2\n"


# ----------------------------------------------------------------- verify


def test_verify_accepts_price_output(tmp_path, capsys, monkeypatch):
    # A passing equilibrium certifies Pareto optimality: on success neither
    # command consults the exchange-graph verifier.
    def unexpected(inst, alloc):
        raise AssertionError("verify_pareto_optimal ran on the success path")

    monkeypatch.setattr(cli, "verify_pareto_optimal", unexpected)
    monkeypatch.setattr(scaling, "verify_pareto_optimal", unexpected)
    instance, allocation = write_toy(tmp_path)
    eq = str(tmp_path / "eq.json")
    assert main(["price", instance, allocation, "-o", eq]) == 0
    capsys.readouterr()
    assert main(["verify", instance, allocation, eq]) == 0
    out = capsys.readouterr().out
    assert "agent 0" in out and "agent 1" in out
    assert "equilibrium verified" in out


def test_price_then_verify_rationals_beyond_the_str_limit(tmp_path, capsys, monkeypatch):
    # 3000-digit numerators and denominators: loading is within Python's
    # default limit of 4300 digits for int <-> str, but the prices and
    # budgets, and the max-min lambda, are longer than that limit.
    rng = random.Random(3000)

    def big():
        return rng.randrange(10**2999, 10**3000)

    values = [[rat(big(), big()) for _ in range(2)] for _ in range(2)]
    if values[1][0] * values[0][1] < values[0][0] * values[1][1]:
        values.reverse()  # agent 1, who holds only item 0, values it relatively more
    instance = tmp_path / "big.instance.json"
    allocation = tmp_path / "big.allocation.json"
    eq = tmp_path / "eq.json"
    instance.write_text(dump_instance(validate_instance(values)), encoding="utf-8")
    y = make_allocation([[rat(1, 2), 1], [rat(1, 2), 0]])
    allocation.write_text(dump_allocation(y), encoding="utf-8")
    assert main(["price", str(instance), str(allocation), "-o", str(eq)]) == 0
    assert max(map(len, re.findall("[0-9]+", eq.read_text(encoding="utf-8")))) > 4300
    capsys.readouterr()
    assert main(["verify", str(instance), str(allocation), str(eq)]) == 0
    assert "equilibrium verified" in capsys.readouterr().out
    monkeypatch.setenv("CEUB_LOG", "info")
    assert main(["maxmin", str(instance), "-o", str(tmp_path / "mm.json")]) == 0
    err = capsys.readouterr().err
    assert err.startswith("INFO ceub.maxmin: max-min LP 2x2") and "Traceback" not in err


def write_instance(tmp_path, values):
    instance = tmp_path / "i.json"
    instance.write_text(dump_instance(validate_instance(values)), encoding="utf-8")
    return str(instance)


def write_market(tmp_path, values, shares):
    allocation = tmp_path / "a.json"
    allocation.write_text(dump_allocation(make_allocation(shares)), encoding="utf-8")
    return write_instance(tmp_path, values), str(allocation)


@pytest.mark.parametrize("level", ["quiet", "trace"])
def test_price_names_a_ratio_beyond_the_str_limit(tmp_path, capsys, monkeypatch, level):
    # Each agent holds the item it values at 1, not the one it values at
    # A: swapping them improves both, by a ratio of A**2, 6001 digits.
    A = 10**3000 + 1
    instance, allocation = write_market(tmp_path, [[A, 1], [1, A]], [[0, 1], [1, 0]])
    monkeypatch.setenv("CEUB_LOG", level)
    assert main(["price", instance, allocation, "-o", str(tmp_path / "eq.json")]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f", ratio {format_rational(A * A)}\n")
    assert "Logging error" not in err and "Traceback" not in err


@pytest.mark.parametrize("level", ["info", "trace"])
def test_price_logs_a_lambda_beyond_the_str_limit(tmp_path, capsys, monkeypatch, level):
    # Agent 0 values agent 1's item above agent 1's price for it, by a
    # ratio r of two 6000-digit ints: lambda is 1 / (1 + r).
    rng = random.Random(4300)
    a, b, c, d = sorted(rng.randrange(10**2999, 10**3000) for _ in range(4))
    values = [[1, rat(d, a)], [rat(1, 10**3001), rat(c, b)]]
    instance, allocation = write_market(tmp_path, values, [[1, 0], [0, 1]])
    monkeypatch.setenv("CEUB_LOG", level)
    assert main(["price", instance, allocation, "-o", str(tmp_path / "eq.json")]) == 0
    err = capsys.readouterr().err
    lam = format_rational(1 / (1 + rat(d * b, a * c)))
    assert len(lam) > 4300
    assert f"INFO ceub.scaling: multipliers: 2 trees, 2 pair constraints, lambda={lam}\n" in err
    assert "Logging error" not in err and "Traceback" not in err


def test_verify_names_agent_with_edited_budget(tmp_path, capsys):
    instance, allocation = write_toy(tmp_path)
    eq_path = tmp_path / "eq.json"
    assert main(["price", instance, allocation, "-o", str(eq_path)]) == 0
    doc = json.loads(eq_path.read_text(encoding="utf-8"))
    assert doc["budgets"][0] == "99/100"
    doc["budgets"][0] = "1"
    eq_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", instance, allocation, str(eq_path)]) == 3
    out = capsys.readouterr().out
    assert "agent 0" in out
    assert "verification failed" in out


def test_verify_names_agent_below_its_budget(tmp_path, capsys):
    # One agent holds both items at prices 1 and 2. With its budget raised
    # from 3 to 4 the bundle is still its best buy, so only the spend fails.
    inst = validate_instance([[1, 2]])
    instance = tmp_path / "i.json"
    allocation = tmp_path / "a.json"
    instance.write_text(dump_instance(inst), encoding="utf-8")
    allocation.write_text(dump_allocation(make_allocation([[1, 1]])), encoding="utf-8")
    eq_path = tmp_path / "eq.json"
    assert main(["price", str(instance), str(allocation), "-o", str(eq_path)]) == 0
    doc = json.loads(eq_path.read_text(encoding="utf-8"))
    assert doc["budgets"] == ["3"]
    doc["budgets"] = ["4"]
    eq_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(instance), str(allocation), str(eq_path)]) == 3
    out = capsys.readouterr().out
    assert "-> ok" in out
    assert out.splitlines()[-1] == "verification failed: agent 0 does not spend its exact budget"


def test_verify_flags_non_pareto_allocation(tmp_path, capsys):
    instance, allocation = write_toy(tmp_path)
    eq = str(tmp_path / "eq.json")
    assert main(["price", instance, allocation, "-o", eq]) == 0
    partial = make_allocation([[rat(1, 2)], [rat(1, 4)]])
    (tmp_path / "toy.allocation.json").write_text(dump_allocation(partial), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", instance, allocation, eq]) == 2
    assert "not fully allocated" in capsys.readouterr().out


def test_verify_flags_dominated_full_allocation(tmp_path, capsys):
    # The equilibrium file is valid for the welfare vertex; checked against
    # a dominated, fully allocated matrix, the demand oracle fails and the
    # exchange graph turns that into exit 2 with the improving cycle.
    inst = validate_instance([[2, 1], [1, 2]])
    instance = tmp_path / "i.json"
    allocation = tmp_path / "a.json"
    instance.write_text(dump_instance(inst), encoding="utf-8")
    allocation.write_text(dump_allocation(make_allocation([[1, 0], [0, 1]])), encoding="utf-8")
    eq = str(tmp_path / "eq.json")
    assert main(["price", str(instance), str(allocation), "-o", eq]) == 0
    half = rat(1, 2)
    dominated = make_allocation([[half, half], [half, half]])
    allocation.write_text(dump_allocation(dominated), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(instance), str(allocation), eq]) == 2
    out = capsys.readouterr().out
    assert "NOT IN DEMAND SET" in out
    assert out.splitlines()[-1] == (
        "not Pareto optimal: improving cycle through agents [0, 1] and items [0, 1], ratio 4"
    )


def test_verify_names_agent_with_edited_price(tmp_path, capsys):
    instance, allocation = write_toy(tmp_path)
    eq_path = tmp_path / "eq.json"
    assert main(["price", instance, allocation, "-o", str(eq_path)]) == 0
    doc = json.loads(eq_path.read_text(encoding="utf-8"))
    assert doc["prices"] == ["1"]
    doc["prices"][0] = "2"
    eq_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", instance, allocation, str(eq_path)]) == 3
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == (
        "verification failed: agent 0 is not at a demand-set optimum"
    )


def test_verify_prints_the_optimum_a_dominated_allocation_misses(tmp_path, capsys):
    # Prices 1 and 1 with budgets 1 support the swap [[0, 1], [1, 0]];
    # at them each agent of [[1, 0], [0, 1]] holds its worse item, so the
    # greedy reports the optimum 2 against the utility 1.
    inst = validate_instance([[1, 2], [2, 1]])
    instance, allocation = tmp_path / "i.json", tmp_path / "a.json"
    instance.write_text(dump_instance(inst), encoding="utf-8")
    allocation.write_text(dump_allocation(make_allocation([[0, 1], [1, 0]])), encoding="utf-8")
    eq = str(tmp_path / "eq.json")
    assert main(["price", str(instance), str(allocation), "-o", eq]) == 0
    allocation.write_text(dump_allocation(make_allocation([[1, 0], [0, 1]])), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(instance), str(allocation), eq]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "agent 0: spend 1 of budget 1, utility 1, optimum 2 -> NOT IN DEMAND SET",
        "agent 1: spend 1 of budget 1, utility 1, optimum 2 -> NOT IN DEMAND SET",
        "not Pareto optimal: improving cycle through agents [0, 1] and items [1, 0], ratio 4",
    ]


@pytest.mark.parametrize(
    "values, pareto, failing, reason",
    [
        (
            [[2, 1], [1, 2]],
            [[1, 0], [0, 1]],
            [[rat(1, 2)] * 2] * 2,
            "improving cycle through agents [0, 1] and items [0, 1], ratio 4",
        ),
        (
            [[1], [99]],
            [[rat(99, 100)], [rat(1, 100)]],
            [[rat(1, 2)], [rat(1, 4)]],
            "item 0 is not fully allocated",
        ),
    ],
    ids=("dominated", "partly allocated"),
)
def test_price_and_verify_give_one_reason(tmp_path, capsys, values, pareto, failing, reason):
    instance, allocation = tmp_path / "i.json", tmp_path / "a.json"
    instance.write_text(dump_instance(validate_instance(values)), encoding="utf-8")
    allocation.write_text(dump_allocation(make_allocation(pareto)), encoding="utf-8")
    eq = str(tmp_path / "eq.json")
    assert main(["price", str(instance), str(allocation), "-o", eq]) == 0
    allocation.write_text(dump_allocation(make_allocation(failing)), encoding="utf-8")
    capsys.readouterr()
    assert main(["price", str(instance), str(allocation), "-o", str(tmp_path / "no.json")]) == 2
    assert main(["verify", str(instance), str(allocation), eq]) == 2
    out, err = capsys.readouterr()
    assert err == f"not Pareto optimal: {reason}\n"
    assert out.splitlines()[-1] == f"not Pareto optimal: {reason}"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("prices", "0", "price of item 0 must be > 0 for the demand oracle"),
        ("prices", "-1", "price of item 0 must be > 0 for the demand oracle"),
        ("budgets", "-1", "budget must be nonnegative, got -1"),
    ],
    ids=["zero price", "negative price", "negative budget"],
)
def test_verify_rejects_a_price_or_budget_out_of_range(tmp_path, capsys, field, value, message):
    instance, allocation = write_toy(tmp_path)
    eq_path = tmp_path / "eq.json"
    assert main(["price", instance, allocation, "-o", str(eq_path)]) == 0
    doc = json.loads(eq_path.read_text(encoding="utf-8"))
    doc[field][0] = value
    eq_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", instance, allocation, str(eq_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_missing_file(tmp_path, capsys):
    instance, allocation = write_toy(tmp_path)
    assert main(["verify", instance, allocation, str(tmp_path / "absent.json")]) == 1
    assert "error" in capsys.readouterr().err


# -------------------------------------------------------------------- gen


def test_gen_writes_deterministic_files(tmp_path, capsys):
    first = tmp_path / "one"
    second = tmp_path / "two"
    first.mkdir()
    second.mkdir()
    args = ["gen", "--seed", "7", "--agents", "3", "--items", "4"]
    assert main(args + ["-o", str(first / "run")]) == 0
    assert main(args + ["-o", str(second / "run")]) == 0
    for name in ("run.instance.json", "run.allocation.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("mode", ["a", "b"])
def test_gen_output_survives_the_full_pipeline(tmp_path, capsys, mode):
    prefix = str(tmp_path / "g")
    assert (
        main(
            ["gen", "--seed", "11", "--agents", "4", "--items", "3", "--mode", mode, "-o", prefix]
        )
        == 0
    )
    instance = prefix + ".instance.json"
    allocation = prefix + ".allocation.json"
    eq = str(tmp_path / "eq.json")
    assert main(["price", instance, allocation, "-o", eq]) == 0
    assert main(["verify", instance, allocation, eq]) == 0


@pytest.mark.parametrize("mode", ["a", "b"])
def test_price_and_verify_never_run_the_greedy(tmp_path, capsys, monkeypatch, mode):
    # The greedy only explains a bundle the certificate rejects, and a
    # rejected bundle fails the command.
    def greedy(*args):
        raise AssertionError("the greedy ran on a demanded bundle")

    monkeypatch.setattr(market, "max_affordable_utility", greedy)
    for seed in range(20):
        n, m = 1 + seed % 5, 1 + seed // 5 % 4
        prefix = str(tmp_path / f"g{seed}")
        gen = ["gen", "--seed", str(seed), "--agents", str(n), "--items", str(m)]
        assert main(gen + ["--mode", mode, "-o", prefix]) == 0
        instance, allocation = prefix + ".instance.json", prefix + ".allocation.json"
        eq = prefix + ".eq.json"
        assert main(["price", instance, allocation, "-o", eq]) == 0
        assert main(["verify", instance, allocation, eq]) == 0


def test_gen_rejects_empty_markets(tmp_path, capsys):
    args = ["gen", "--seed", "1", "--agents", "0", "--items", "2", "-o", str(tmp_path / "x")]
    assert main(args) == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------- environment


def test_invalid_log_level_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CEUB_LOG", "loud")
    instance, _ = write_toy(tmp_path)
    assert main(["maxmin", instance, "-o", str(tmp_path / "o.json")]) == 1
    assert "CEUB_LOG" in capsys.readouterr().err


def test_trace_logging_goes_to_stderr(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CEUB_LOG", "trace")
    instance, allocation = write_toy(tmp_path)
    assert main(["price", instance, allocation, "-o", str(tmp_path / "eq.json")]) == 0
    assert capsys.readouterr().err != ""


def test_info_logging_reports_the_maxmin_lp(tmp_path, capsys, monkeypatch):
    instance, _ = write_toy(tmp_path)
    assert main(["maxmin", instance, "-o", str(tmp_path / "o.json")]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("CEUB_LOG", "info")
    assert main(["maxmin", instance, "-o", str(tmp_path / "o.json")]) == 0
    err = capsys.readouterr().err
    assert err == (
        "INFO ceub.maxmin: max-min LP 2x1: 3 rows, 3 columns,"
        " pivots 3 hybrid + 0 Bland, 7 bits, lambda=99/100\n"
    )


@pytest.mark.parametrize(
    "values, line",
    [
        ([[1], [99]], "max-min two agents 2x1: split item 0, lambda=99/100"),
        (
            [[5, 6], [1, 8], [4, 1], [3, 2], [6, 8], [4, 7]],
            "max-min two items 6x2: split agent 3, probes 3, lambda=420/241",
        ),
    ],
    ids=["two agents", "two items"],
)
def test_info_logging_reports_the_fast_paths(tmp_path, capsys, monkeypatch, values, line):
    instance = write_instance(tmp_path, values)
    out = str(tmp_path / "o.json")
    assert main(["maxmin", instance, "--fast", "-o", out]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setenv("CEUB_LOG", "info")
    assert main(["maxmin", instance, "--fast", "-o", out]) == 0
    assert capsys.readouterr().err == f"INFO ceub.maxmin: {line}\n"


def test_fast_path_logs_a_lambda_beyond_the_str_limit(tmp_path, capsys, monkeypatch):
    # Each agent takes the item it values at 10**4400 + 1, a lambda of
    # 4401 digits.
    big = 10**4400 + 1
    instance = write_instance(tmp_path, [[big, 1], [1, big]])
    monkeypatch.setenv("CEUB_LOG", "info")
    assert main(["maxmin", instance, "--fast", "-o", str(tmp_path / "o.json")]) == 0
    lam = format_rational(rat(big))
    err = capsys.readouterr().err
    assert err == f"INFO ceub.maxmin: max-min two agents 2x2: split item 0, lambda={lam}\n"


def test_logging_is_set_per_call_on_one_handler(tmp_path, capsys, monkeypatch):
    # One process, three calls: the level follows CEUB_LOG on each, and
    # the root logger keeps exactly one handler, on the current stderr.
    instance, _ = write_toy(tmp_path)
    out = str(tmp_path / "o.json")
    line = (
        "INFO ceub.maxmin: max-min LP 2x1: 3 rows, 3 columns,"
        " pivots 3 hybrid + 0 Bland, 7 bits, lambda=99/100\n"
    )
    handlers = []
    for level, expected in (("info", line), ("quiet", ""), ("info", line)):
        monkeypatch.setenv("CEUB_LOG", level)
        assert main(["maxmin", instance, "-o", out]) == 0
        assert capsys.readouterr().err == expected
        assert len(logging.getLogger().handlers) == 1
        handlers.append(logging.getLogger().handlers[0])
    assert handlers[0] is handlers[1] is handlers[2]


def test_quiet_maxmin_skips_the_all_fields_decode(tmp_path, capsys, monkeypatch):
    # The info line's bit count decodes every field of [E | rhs]; with
    # logging off, maxmin_lp must not pay for it.
    def refuse(*args):
        raise AssertionError("all-fields decode with logging off")

    monkeypatch.setattr(simplex, "_read_off", refuse)
    instance, _ = write_toy(tmp_path)
    assert main(["maxmin", instance, "-o", str(tmp_path / "o.json")]) == 0
    assert capsys.readouterr().err == ""


def test_info_logging_reports_the_multipliers(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CEUB_LOG", "info")
    instance, allocation = write_toy(tmp_path)
    assert main(["price", instance, allocation, "-o", str(tmp_path / "eq.json")]) == 0
    err = capsys.readouterr().err
    assert err == "INFO ceub.scaling: multipliers: 1 trees, 0 pair constraints, lambda=1\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, usage",
    ((["-h"], "usage: ceub [-h]"), (["price", "-h"], "usage: ceub price [-h]")),
    ids=("ceub", "price"),
)
def test_help_returns_zero_with_the_help_on_stdout(argv, usage, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage)
    assert err == ""


def console_script(pyproject: str) -> str:
    """The `ceub = "module:attr"` target of [project.scripts], read with
    one regex so that Python 3.10, which has no tomllib, reads it too.
    Where tomllib exists, both readings must agree."""
    target = re.search(
        r'^\[project\.scripts\]\n(?:.*\n)*?ceub = "([\w.]+:\w+)"$', pyproject, re.M
    ).group(1)
    try:
        import tomllib
    except ModuleNotFoundError:
        return target
    assert tomllib.loads(pyproject)["project"]["scripts"]["ceub"] == target
    return target


def run_entry_point(tmp_path, *argv, **environ):
    """Run the declared `ceub` console script in a subprocess, from the
    source tree, with extra environment variables."""
    root = Path(__file__).resolve().parent.parent
    target = console_script((root / "pyproject.toml").read_text(encoding="utf-8"))
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )


def test_installed_entry_point_smoke(tmp_path):
    instance, allocation = write_toy(tmp_path)
    out = tmp_path / "eq.json"
    done = run_entry_point(tmp_path, "price", instance, allocation, "-o", str(out))
    assert done.returncode == 0, done.stderr
    assert "supported" in done.stdout
    load_equilibrium(out.read_text(encoding="utf-8"))


def test_backend_is_not_read_from_the_environment(tmp_path):
    # The backend is always fractions; no environment variable can make
    # the import of ceub fail.
    instance, allocation = write_toy(tmp_path)
    out = tmp_path / "eq.json"
    done = run_entry_point(
        tmp_path, "price", instance, allocation, "-o", str(out), CEUB_RATIONAL_BACKEND="bogus"
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    load_equilibrium(out.read_text(encoding="utf-8"))


# ------------------------------------------------------------ malformed input

BIG = "9" * 5000
RATIONAL = r'"(-?[0-9]+)(/[0-9]+)?"'

# Each rewrites the canonical text of a valid document. Python's limit on
# the digits of an int (4300 by default) makes a 5000-digit count an
# error; a rational literal of any length is read, so the 5000-digit one
# is malformed by its zero denominator.
MALFORMED = {
    "deep nesting": lambda text: "[" * 100_000,
    "deep nesting in a field": lambda text: re.sub(r"[0-9]+,.*", "[" * 100_000, text, flags=re.S),
    "invalid UTF-8": lambda text: text.encode().replace(b"ceub", b"\xffceub"),
    "5000-digit count": lambda text: re.sub(r'"agents": [0-9]+', '"agents": ' + BIG, text),
    "5000-digit extra field": lambda text: text.replace("{", '{"x": ' + BIG + ",", 1),
    "5000-digit rational": lambda text: re.sub(RATIONAL, f'"{BIG}/0"', text, count=1),
    "root is a list": lambda text: f"[{text}]",
    "count is a string": lambda text: re.sub(r'"agents": ([0-9]+)', r'"agents": "\1"', text),
    "count is a boolean": lambda text: re.sub(r'"agents": [0-9]+', '"agents": true', text),
    "rationals are numbers": lambda text: re.sub(RATIONAL, r"\1", text),
    "rows are null": lambda text: re.sub(r'"(values|shares|cycle_free_allocation)": \[\s*\[[^]]*\]',
                                         r'"\1": [null', text),
    "tree id is a boolean": lambda text: re.sub(r'("of_item": \[\s*)0', r"\1false", text),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_exit_1_without_traceback(tmp_path, capsys, name):
    instance, allocation = write_toy(tmp_path)
    equilibrium = str(tmp_path / "eq.json")
    assert main(["price", instance, allocation, "-o", equilibrium]) == 0
    out = str(tmp_path / "out.json")
    commands = [
        ["maxmin", instance, "-o", out],
        ["price", instance, allocation, "-o", out],
        ["verify", instance, allocation, equilibrium],
    ]
    bad = tmp_path / "bad.json"
    tried = 0
    for command in commands:
        for slot, path in enumerate(command[1:], start=1):
            if path in ("-o", out):
                continue
            text = Path(path).read_text(encoding="utf-8")
            broken = MALFORMED[name](text)
            if broken == text:
                continue  # nothing to break in this kind of document
            if isinstance(broken, bytes):
                bad.write_bytes(broken)
            else:
                bad.write_text(broken, encoding="utf-8")
            capsys.readouterr()
            code = main(command[:slot] + [str(bad)] + command[slot + 1:])
            err = capsys.readouterr().err
            assert code == 1, (command[0], slot, err)
            assert err.startswith("error: ") and "Traceback" not in err, err
            tried += 1
    assert tried > 0
