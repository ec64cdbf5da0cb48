"""The examples in README.md and docs/formats.md, held to the code.

The README's Library block is run statement by statement, and each
expression in it with a trailing comment must evaluate to the value the
comment writes, types included. Each JSON block of docs/formats.md must
load and dump back byte for byte; the equilibrium block must be what
`ceub price` writes for the instance and allocation blocks, and the
max-min block what `ceub maxmin --fast` writes for the instance block.
"""

import ast
import io
import json
import re
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

from ceub.cli import main
from ceub.formats import (
    dump_allocation,
    dump_equilibrium,
    dump_instance,
    dump_maxmin,
    load_allocation,
    load_equilibrium,
    load_instance,
    load_maxmin,
)

ROOT = Path(__file__).resolve().parent.parent

CODECS = {
    "ceub.instance/1": (load_instance, dump_instance),
    "ceub.allocation/1": (load_allocation, dump_allocation),
    "ceub.equilibrium/1": (load_equilibrium, dump_equilibrium),
    "ceub.maxmin/1": (load_maxmin, dump_maxmin),
}


def library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def json_blocks() -> dict:
    """The JSON blocks of docs/formats.md, by their schema tag."""
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    blocks = {}
    for block in re.findall(r"```json\n(.*?)```", text, re.S):
        blocks[json.loads(block)["schema"]] = block
    return blocks


def test_readme_library_block_prints_what_its_comments_say():
    source = library_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        comment = comments.get(node.end_lineno)
        if isinstance(node, ast.Expr) and comment is not None:
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            expected = eval(f"({comment})", {"Fraction": Fraction})
            assert repr(value) == repr(expected), ast.unparse(node)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 3


def test_formats_doc_has_one_block_per_schema():
    assert sorted(json_blocks()) == sorted(CODECS)


@pytest.mark.parametrize("schema", sorted(CODECS))
def test_formats_doc_block_round_trips_byte_for_byte(schema):
    load, dump = CODECS[schema]
    block = json_blocks()[schema]
    assert dump(load(block)) == block


def write_blocks(tmp_path, blocks):
    instance, allocation = tmp_path / "i.json", tmp_path / "a.json"
    instance.write_bytes(blocks["ceub.instance/1"].encode("utf-8"))
    allocation.write_bytes(blocks["ceub.allocation/1"].encode("utf-8"))
    return str(instance), str(allocation)


def test_formats_doc_equilibrium_is_what_price_writes(tmp_path):
    blocks = json_blocks()
    instance, allocation = write_blocks(tmp_path, blocks)
    out = tmp_path / "eq.json"
    assert main(["price", instance, allocation, "-o", str(out)]) == 0
    assert out.read_bytes() == blocks["ceub.equilibrium/1"].encode("utf-8")


def test_formats_doc_maxmin_is_what_maxmin_fast_writes(tmp_path):
    blocks = json_blocks()
    instance, _ = write_blocks(tmp_path, blocks)
    out = tmp_path / "mm.json"
    assert main(["maxmin", instance, "-o", str(out), "--fast"]) == 0
    assert out.read_bytes() == blocks["ceub.maxmin/1"].encode("utf-8")
