"""The names that perfbench reads from ceub still resolve.

perfbench runs the ceub of its own checkout, so a name pruned from ceub
breaks the benchmark. Each perfbench module is parsed with ast, not
imported. Every ``from ceub... import name`` must resolve, and so must
every attribute read off a module bound by ``from ceub import <module>``
(``generators.GenConfig`` in workloads.py). tracing.TARGETS is left out:
the tracer reports a missing target as absent on purpose.
"""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module_name: str, name: str):
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def benchmark_names(tree):
    """(line, dotted name, value or None) for every name tree reads from ceub."""
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module != "ceub" and not node.module.startswith("ceub."):
                continue
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                found.append((node.lineno, f"{node.module}.{alias.name}", value))
                if node.module == "ceub" and isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            module = modules[node.value.id]
            value = getattr(module, node.attr, None)
            found.append((node.lineno, f"{module.__name__}.{node.attr}", value))
    return found


def test_every_name_the_benchmark_reads_from_ceub_resolves():
    missing, checked = [], set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for line, name, value in benchmark_names(ast.parse(path.read_text(encoding="utf-8"))):
            checked.add(name)
            if value is None:
                missing.append(f"{path.name}:{line}: {name}")
    assert not missing
    assert {"ceub.rationals.BACKEND", "ceub.generators.GenConfig"} <= checked
