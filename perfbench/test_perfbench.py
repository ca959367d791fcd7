"""Tests of the benchmark itself, on inputs small enough to run in seconds:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jointattn import training  # noqa: E402

EXACT_COUNTERS = (
    "attention_net.agent_step.act.calls",
    "attention_net.agent_step.replay.calls",
    "numerics.tape_nodes_per_minibatch",
    "numerics.backward.calls",
    "ja_reward.joint_attention_reward.calls",
    "gridworlds.step.calls",
)

SMALL = {
    "train": workloads.TrainWorkload(
        "meetup", 2, {"interior": 4, "episode_cap": 10},
        dict(workloads.RUN_PPO, segment_length=16, n_envs=2, epochs=1,
             batch_size=16)),
    "eval": workloads.EvalWorkload(
        "meetup", 3, {"interior": 4, "episode_cap": 6}, episodes=1),
}


def traced_unit(workload, tmp_path):
    tracer = tracing.Tracer()
    subject = workload.make_subject(5, str(tmp_path))
    with tracing.instrument(tracer):
        unit = workload.run_unit(subject)
    return unit, tracing.layer_metrics(tracer, units=1)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_units_repeat_counters_and_match_untraced(kind, tmp_path):
    workload = SMALL[kind]
    plain = workload.run_unit(workload.make_subject(5, str(tmp_path)))
    first, counts1 = traced_unit(workload, tmp_path)
    second, counts2 = traced_unit(workload, tmp_path)
    assert plain.problems == first.problems == second.problems == []
    assert plain.digest == first.digest == second.digest
    for name in EXACT_COUNTERS:
        assert counts1[name] == counts2[name], name
    if kind == "train":
        assert counts1["attention_net.agent_step.replay.calls"] > 0
        assert counts1["numerics.backward.calls"] > 0
    else:
        assert counts1["attention_net.agent_step.act.calls"] > 0
        assert counts1["numerics.backward.calls"] == 0


def test_instrument_restores_the_program(tmp_path):
    before = [getattr(owner, attr) for owner, attr, _ in tracing.TRACED]
    traced_unit(SMALL["train"], tmp_path)
    assert [getattr(owner, attr) for owner, attr, _ in tracing.TRACED] == before


def test_probe_runs_off_the_program_clock():
    c = clock.Clock()
    start, wall = c.now(), time.perf_counter()
    c.measure()
    assert len(c.probes) == 1
    assert c.now() - start < time.perf_counter() - wall - 0.9 * c.probes[0]
    c.probes = [t * clock.REFERENCE_PROBE_S for t in (0.5, 2.0, 5.0)]
    assert c.slowdown() == pytest.approx(2.5)


def test_probe_runs_between_calls_at_most_once_a_period():
    c = clock.Clock()
    step = c.probing_after(lambda x: x + 1)
    assert [step(i) for i in range(3)] == [1, 2, 3]
    assert len(c.probes) == 1          # the calls took less than a period
    quiet = clock.Clock(probing=False)
    quiet.probing_after(lambda: None)()
    quiet.measure()
    assert quiet.probes == [] and quiet.paused == 0.0


def test_digest_mismatch_is_a_problem():
    same = workloads.Unit(1.0, 1, 1, 0, "a")
    other = workloads.Unit(1.0, 1, 1, 0, "b")
    assert run.digest_problems([same, same, same, other], 3) == []
    assert len(run.digest_problems([same, other, same], 3)) == 1


def test_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "eval_meetup_generalize",
                        SMALL["eval"])
    monkeypatch.setattr(training, "jsd", lambda p, q: 1.0)   # above ln 2
    code = run.main(["--workload", "eval_meetup_generalize", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_benchmark_json_names_the_printed_metrics(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    _, layers = traced_unit(SMALL["train"], tmp_path)
    layers["trace.overhead_ratio"] = 1.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in layers}
    assert [w["name"] for w in spec["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_meetup_ref",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
