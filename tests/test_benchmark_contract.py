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


def test_train_unit_runs_and_repeats(perfbench_modules, tmp_path):
    # a tiny training workload through the benchmark's own unit: a lane the
    # unit reads that is renamed or reshaped fails here, not only in
    # perfbench/run.py
    _, workloads = perfbench_modules
    workload = workloads.TrainWorkload(
        "meetup", 2, {"interior": 4, "episode_cap": 8},
        dict(segment_length=8, n_envs=2, chunk_length=4, batch_size=8,
             epochs=1))
    units = [workload.run_unit(workload.make_subject(11, str(tmp_path)),
                               probing=False) for _ in range(2)]
    for unit in units:
        assert unit.problems == []
        assert unit.failed == 0
        assert unit.env_steps == 8 * 2      # segment_length * n_envs
    assert units[0].digest == units[1].digest


def test_eval_unit_runs_and_repeats(perfbench_modules, tmp_path):
    # one `jointattn eval --generalize all` through the benchmark's unit: the
    # unit counts one `training.reset` per episode, so a change to how the
    # greedy episodes reset or step fails here first; the unit counts its env
    # steps off what ``cli.generalization_eval`` returned, so an eval that
    # stopped calling that name would read 0 here
    _, workloads = perfbench_modules
    workload = workloads.EvalWorkload(
        "meetup", 3, {"interior": 4, "episode_cap": 6}, episodes=1)
    subject = workload.make_subject(11, str(tmp_path))
    units = [workload.run_unit(subject, probing=False) for _ in range(2)]
    for unit in units:
        assert unit.problems == []
        assert unit.failed == 0
        assert unit.env_steps > 0
    assert units[0].digest == units[1].digest


def test_tracer_sees_the_replay_and_every_act_pass(perfbench_modules,
                                                   tmp_path):
    # the tracer names an ``agent_step`` span by whether a PPO update is
    # open around it; the replay must be an ``agent_step`` for its span to
    # read anything, and the collect makes one act pass per agent and step,
    # plus the bootstrap pass
    tracing, workloads = perfbench_modules
    segment_length, agents = 8, 2
    workload = workloads.TrainWorkload(
        "meetup", agents, {"interior": 4, "episode_cap": 8},
        dict(segment_length=segment_length, n_envs=2, chunk_length=4,
             batch_size=8, epochs=1))
    subject = workload.make_subject(11, str(tmp_path))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        unit = workload.run_unit(subject, probing=False)
    assert unit.problems == []
    assert tracer.names.count("attention_net.agent_step.replay") >= 1
    assert tracer.names.count("attention_net.agent_step.act") == \
        (segment_length + 1) * agents
