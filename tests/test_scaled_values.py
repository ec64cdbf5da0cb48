"""The instance's own integer values.

Instance.scaled holds each agent's values as ints over the lcm of their
denominators, built on first use and kept on the object like
Allocation.graph. The demand certificate, the multipliers' ratio table
and the max-min LP all read it, so a `ceub price` converts each row of
its instance once.
"""

import sys

from ceub import cli
from ceub.cli import main
from ceub.formats import dump_allocation, dump_instance
from ceub.generators import GenConfig, gen_instance, gen_pareto_allocation, gen_structured_instance
from ceub.market import Instance, _over_common_denominator, validate_instance
from ceub.rationals import rat
from ceub.scaling import support_with_details


def test_scaled_matches_each_row_over_its_common_denominator():
    for generator in (gen_instance, gen_structured_instance):
        for seed in range(20):
            inst = generator(GenConfig(seed=seed, agents=1 + seed % 5, items=1 + seed % 7))
            rows, scales = inst.scaled
            assert len(rows) == len(scales) == inst.agent_count
            for row, ints, scale in zip(inst.values, rows, scales):
                assert (list(ints), scale) == _over_common_denominator(row)


def test_scaled_is_built_once_and_kept_outside_the_fields():
    values = ((rat(1, 2), rat(2, 3)), (rat(5), rat(1, 4)))
    inst = validate_instance(values)
    assert inst.scaled is inst.scaled
    assert inst.scaled == (((3, 4), (20, 1)), (6, 4))
    fresh = Instance(values)
    assert "scaled" not in vars(fresh)
    assert fresh == inst and hash(fresh) == hash(inst) and repr(fresh) == repr(inst)
    assert "scaled" not in repr(inst)


def test_a_price_op_converts_each_instance_row_once(tmp_path, monkeypatch, capsys):
    loaded = []
    converted = []
    real_load, real_convert = cli.load_instance, _over_common_denominator

    def recorded_load(text):
        loaded.append(real_load(text))
        return loaded[-1]

    def recorded_convert(numbers):
        converted.append(numbers)
        return real_convert(numbers)

    monkeypatch.setattr(cli, "load_instance", recorded_load)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("ceub") and hasattr(module, "_over_common_denominator"):
            monkeypatch.setattr(module, "_over_common_denominator", recorded_convert)
    instance, allocation, out = (tmp_path / name for name in ("i.json", "a.json", "eq.json"))
    funded = 0
    for seed in range(12):
        cfg = GenConfig(seed=seed, agents=4, items=5)
        mode = "ab"[seed % 2]
        inst = (gen_instance if mode == "a" else gen_structured_instance)(cfg)
        y = gen_pareto_allocation(inst, seed, mode)
        decomp = support_with_details(inst, y).equilibrium.decomposition
        funded += sum(not decomp.is_degenerate(t) for t in range(decomp.tree_count)) > 1
        instance.write_text(dump_instance(inst), encoding="utf-8")
        allocation.write_text(dump_allocation(y), encoding="utf-8")
        loaded.clear()
        converted.clear()
        assert main(["price", str(instance), str(allocation), "-o", str(out)]) == 0
        [op_inst] = loaded
        for row in op_inst.values:
            assert sum(numbers is row for numbers in converted) == 1
    capsys.readouterr()
    assert funded > 0  # some op built a ratio table
