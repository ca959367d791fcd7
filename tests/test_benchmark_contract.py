"""The names the benchmark looks up in the program still exist.

``perfbench/tracing.py`` wraps each ``(owner, attribute)`` of its
``TRACED`` list, and ``perfbench/workloads.py`` patches and calls program
names from its units. A rename or a deletion there would break only
``perfbench/run.py``, so this test reads both modules (without changing
them) and checks every such name.
"""

import ast
import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, PERFBENCH)
    try:
        yield (importlib.import_module("tracing"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_names_exist(perfbench_modules):
    tracing, _ = perfbench_modules
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.TRACED
               if not hasattr(owner, attr)]
    assert not missing


def test_names_the_workloads_patch_and_read_exist(perfbench_modules):
    _, workloads = perfbench_modules
    with open(workloads.__file__) as f:
        tree = ast.parse(f.read())
    namespace = vars(workloads)

    def program_root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and \
            getattr(namespace.get(node.id), "__name__", "").startswith("jointattn")

    checked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and program_root(node):
            # every program attribute the workloads read, e.g. cli.main
            checked.append(ast.unparse(node))
            eval(compile(ast.Expression(node), "workloads", "eval"), namespace)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "patched":
            # every (owner, "attribute", replacement) the workloads patch
            for entry in node.args[0].elts:
                owner, attr = entry.elts[:2]
                target = eval(compile(ast.Expression(owner), "workloads", "eval"),
                              namespace)
                checked.append(f"{ast.unparse(owner)}.{attr.value}")
                assert hasattr(target, attr.value), checked[-1]
    for name in ("training.reset", "training.step", "training.evaluate",
                 "training.EnvSet.step", "nm.adam_update",
                 "cli.generalization_eval"):
        assert name in checked
