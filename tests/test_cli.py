"""CLI tests: config round-trips, command exit codes, output artifacts."""

import contextlib
import io
import json
import os
import shutil

import numpy as np
import pytest

from jointattn.cli import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    Manifest,
    _checkpoint_steps,
    _save_run_checkpoint,
    _write_json,
    apply_overrides,
    config_hash,
    main,
    mutual_cells,
    parse_config_text,
    read_checkpoint_config,
    resolve_checkpoint_dir,
    serialize_config,
)
from jointattn.ja_reward import IncentiveConfig
from jointattn import training
from jointattn.training import AgentSpec, PopulationSpec, PPOConfig, Trainer

TINY_MEETUP = """\
env.kind = meetup
env.interior = 5
env.episode_cap = 6
population.variants = joint_attention, joint_attention
ppo.segment_length = 8
ppo.chunk_length = 4
ppo.batch_size = 8
ppo.n_envs = 2
ppo.epochs = 1
run.eval_interval = 16
run.eval_episodes = 2
run.max_env_steps = 32
"""

TINY_TASKLIST = """\
env.kind = tasklist
env.interior = 4
env.episode_cap = 6
env.tasklist_subtasks = 3
population.variants = attention_only
ppo.segment_length = 8
ppo.chunk_length = 4
ppo.batch_size = 8
ppo.n_envs = 2
ppo.epochs = 1
run.eval_interval = 16
run.eval_episodes = 2
run.max_env_steps = 16
"""


@pytest.fixture(scope="module")
def mixed_expert(tmp_path_factory):
    """A tiny tasklist checkpoint whose agent 0 has attention and whose
    agent 1 is independent_ppo."""
    root = tmp_path_factory.mktemp("mixed_expert")
    cfg_path = root / "mixed.cfg"
    cfg_path.write_text(TINY_TASKLIST.replace(
        "population.variants = attention_only",
        "population.variants = attention_only, independent_ppo"))
    outdir = root / "run"
    assert main(["train", "--config", str(cfg_path), "--seed", "2",
                 "--output-dir", str(outdir)]) == 0
    return outdir


# the text schema, in text order: 32 keys with the types a config accepts
SCHEMA = [
    ("env.kind", "str"), ("env.variant", "str"),
    ("env.interior", "opt_int"), ("env.episode_cap", "opt_int"),
    ("env.landmarks", "opt_int"), ("env.coin_colors", "opt_int"),
    ("env.coins_per_color", "opt_int"), ("env.berries", "opt_int"),
    ("env.stags", "opt_int"), ("env.tasklist_subtasks", "opt_int"),
    ("population.variants", "variants"),
    ("incentive.metric", "str"), ("incentive.clip_threshold", "float"),
    ("incentive.beta_max", "float"), ("incentive.beta_rampup_steps", "int"),
    ("ppo.learning_rate", "float"), ("ppo.batch_size", "int"),
    ("ppo.epochs", "int"), ("ppo.clip_ratio", "float"),
    ("ppo.gamma", "float"), ("ppo.gae_lambda", "float"),
    ("ppo.entropy_coef", "float"), ("ppo.value_coef", "float"),
    ("ppo.chunk_length", "int"), ("ppo.segment_length", "int"),
    ("ppo.n_envs", "int"),
    ("run.seed", "int"), ("run.eval_interval", "int"),
    ("run.eval_episodes", "int"), ("run.max_env_steps", "opt_int"),
    ("run.total_episodes", "opt_int"), ("run.output_dir", "opt_str"),
]


class TestConfigSchema:
    def test_key_table_read_off_the_dataclasses(self):
        assert list(CONFIG_KEYS.items()) == SCHEMA

    def test_hashes_of_saved_configs_are_stable(self):
        # checkpoints record these hashes; a schema change that moved them
        # would orphan every saved run. A saved config.cfg names every key,
        # so a new default moves only the hash of a text that omits the key.
        assert config_hash(parse_config_text("run.eval_interval = 3000")) == (
            "48d33652dd65432127f5c47cb502e686449ee44e5007ca924a3327fca042a449")
        cfg = ExperimentConfig(env_kind="meetup",
                               population=("joint_attention",) * 3,
                               env_overrides={"interior": 8},
                               eval_interval=3000)
        assert config_hash(cfg) == (
            "60afd508cfdba9428098188c526faaa6d0b8115129a6807cc27a7cfdc3aa0732")
        assert config_hash(parse_config_text("")) == (
            "0a578316a12d8200cdec663c2fff726f29225b06d6ab416640bf4845b93d8bed")

    def test_set_keeps_an_unset_budget(self):
        cfg = parse_config_text("run.max_env_steps = none\n"
                                "run.total_episodes = 6\n")
        again = apply_overrides(cfg, ["run.seed=4"])
        assert again.seed == 4
        assert again.max_env_steps is None
        assert apply_overrides(cfg, []) == cfg

    def test_set_none_unsets_an_optional_key(self):
        cfg = parse_config_text("run.total_episodes = 6\nenv.interior = 7\n")
        again = apply_overrides(cfg, ["run.max_env_steps=none",
                                      "env.interior=none"])
        assert again.max_env_steps is None
        assert again.env_overrides == {}
        assert "run.max_env_steps = none" in serialize_config(again)


class TestConfigFormat:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(
            env_kind="staghunt", env_variant="all_stags",
            population=("joint_attention", "independent_ppo"),
            incentive=IncentiveConfig(metric="kl", beta_max=0.25,
                                      beta_rampup_steps=17),
            ppo=PPOConfig(learning_rate=3.5e-4, gamma=0.97),
            env_overrides={"interior": 7, "stags": 1},
            seed=42, eval_interval=500, eval_episodes=4,
            max_env_steps=None, total_episodes=123,
            output_dir="/tmp/somewhere")
        text = serialize_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert serialize_config(again) == text
        assert config_hash(again) == config_hash(cfg)

    def test_parse_ignores_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\nenv.kind = meetup\n")
        assert cfg.env_kind == "meetup"

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*nonsense"):
            parse_config_text("env.kind = meetup\nnonsense.key = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            parse_config_text("run.seed = 1\nrun.seed = 2\n")

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("run.seed = abc\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    def test_unknown_agent_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config_text("population.variants = quantum_agent\n")

    def test_frozen_expert_rejected_in_train_config(self):
        with pytest.raises(ConfigError, match="social"):
            parse_config_text(
                "population.variants = joint_attention, frozen_expert\n")

    def test_inapplicable_variant_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("env.kind = staghunt\n"
                              "env.variant = single_target\n")

    def test_budget_required(self):
        with pytest.raises(ConfigError, match="max_env_steps"):
            parse_config_text("run.max_env_steps = none\n")

    def test_none_budget_with_episodes_ok(self):
        cfg = parse_config_text("run.max_env_steps = none\n"
                                "run.total_episodes = 9\n")
        assert cfg.max_env_steps is None
        assert cfg.total_episodes == 9

    def test_incentive_validation_propagates(self):
        with pytest.raises(ConfigError, match="metric"):
            parse_config_text("incentive.metric = cosine\n")

    def test_set_override_changes_hash(self):
        cfg = parse_config_text(TINY_MEETUP)
        tweaked = apply_overrides(cfg, ["incentive.metric=kl"])
        assert tweaked.incentive.metric == "kl"
        assert config_hash(tweaked) != config_hash(cfg)
        # unrelated fields survive the override
        assert tweaked.ppo.segment_length == cfg.ppo.segment_length

    def test_set_unknown_key_rejected(self):
        cfg = parse_config_text(TINY_MEETUP)
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(cfg, ["typo.key=3"])

    def test_set_malformed_rejected(self):
        cfg = parse_config_text(TINY_MEETUP)
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(cfg, ["no-equals-sign"])


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    """One tiny completed training run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_MEETUP)
    outdir = root / "run"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["train", "--config", str(cfg_path), "--seed", "3",
                     "--output-dir", str(outdir)])
    assert code == 0
    return {"root": root, "cfg_path": cfg_path, "outdir": outdir,
            "printed": json.loads(stdout.getvalue())}


class TestTrainCommand:
    def test_manifest_reaches_every_artifact(self, train_run):
        outdir = train_run["outdir"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        reachable = {"manifest.json", manifest["config_file"]}
        reachable.update(manifest["metrics"])
        reachable.update(manifest["files"])
        top_level_ckpts = set()
        for ck in manifest["checkpoints"]:
            top_level_ckpts.add(ck.split(os.sep)[0])
        reachable.update(top_level_ckpts)
        on_disk = set(os.listdir(outdir))
        assert on_disk <= reachable
        for ck in manifest["checkpoints"]:
            assert (outdir / ck / "checkpoint.json").is_file()
        assert manifest["final_checkpoint"] in manifest["checkpoints"]
        assert manifest["seeds"] == [3]

    def test_metrics_stream_layout(self, train_run):
        lines = (train_run["outdir"] / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "start"
        assert records[0]["beta"] == 0.0
        assert records[0]["global_step"] == 0
        assert records[0]["metric"] == "jsd"
        assert records[-1]["event"] == "final_eval"
        update = next(r for r in records if r["event"] == "update")
        assert set(update) >= {"global_step", "episodes",
                               "mean_collective_reward", "mean_pairwise_jsd",
                               "beta", "policy_loss", "value_loss", "entropy"}

    def test_printed_episodes_are_training_episodes(self, train_run):
        lines = (train_run["outdir"] / "metrics.jsonl").read_text().splitlines()
        last = json.loads(lines[-1])
        printed = train_run["printed"]
        assert printed["episodes"] == last["episodes"]
        assert printed["global_step"] == last["global_step"]
        final = json.loads(
            (train_run["outdir"] / "final_summary.json").read_text())
        assert printed["final_eval"] == final

    def test_unset_budget_lands_in_saved_config(self, tmp_path):
        cfg_path = tmp_path / "episodes.cfg"
        cfg_path.write_text(TINY_MEETUP.replace(
            "run.max_env_steps = 32",
            "run.max_env_steps = none\nrun.total_episodes = 4"))
        outdir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--seed", "3",
                     "--output-dir", str(outdir)]) == 0
        text = (outdir / "config.cfg").read_text()
        assert "run.max_env_steps = none\n" in text
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(
            parse_config_text(cfg_path.read_text() + "run.seed = 3\n"))

    def test_saved_config_round_trips(self, train_run):
        text = (train_run["outdir"] / "config.cfg").read_text()
        cfg = parse_config_text(text)
        assert serialize_config(cfg) == text
        manifest = json.loads(
            (train_run["outdir"] / "manifest.json").read_text())
        assert config_hash(cfg) == manifest["config_hash"]

    def test_missing_config_exits_2_without_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JA_OUTPUT_DIR", str(tmp_path / "fresh"))
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert not (tmp_path / "fresh").exists()

    @pytest.mark.parametrize("override", ["env.landmarks=0",
                                          "env.coin_colors=9",
                                          "env.episode_cap=0"])
    def test_impossible_env_count_exits_2_without_output(self, tmp_path,
                                                         override):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_MEETUP)
        code = main(["train", "--config", str(cfg_path), "--output-dir",
                     str(tmp_path / "run"), "--set", override])
        assert code == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("overrides", [
        ["run.max_env_steps=0"],
        ["run.max_env_steps=none", "run.total_episodes=-3"]])
    def test_budget_below_one_exits_2_without_output(self, tmp_path, capsys,
                                                     overrides):
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(TINY_MEETUP)
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        code = main(["train", "--config", str(cfg_path), "--output-dir",
                     str(tmp_path / "run"), *sets])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "must be at least 1" in err
        assert not (tmp_path / "run").exists()

    def test_layout_too_big_for_the_grid_exits_2_without_output(
            self, tmp_path, capsys):
        # 9 coins and 2 agents cannot fit the 4 cells of a 2x2 interior;
        # the config is valid, the first reset is not
        cfg_path = tmp_path / "cramped.cfg"
        cfg_path.write_text(TINY_MEETUP.replace("env.kind = meetup",
                                                "env.kind = colorgather")
                            .replace("env.interior = 5", "env.interior = 2"))
        code = main(["train", "--config", str(cfg_path), "--output-dir",
                     str(tmp_path / "run")])
        assert code == 2
        assert not (tmp_path / "run").exists()
        assert "grid too small" in capsys.readouterr().err

    def test_rerun_without_resume_fails(self, train_run):
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "3", "--output-dir",
                     str(train_run["outdir"])])
        assert code == 1

    def test_locked_directory_fails(self, train_run, tmp_path):
        outdir = tmp_path / "locked"
        outdir.mkdir()
        (outdir / ".lock").write_text("someone\n")
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "3", "--output-dir", str(outdir)])
        assert code == 1

    def test_resume_appends_metrics(self, train_run, tmp_path):
        outdir = tmp_path / "resumable"
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "5", "--output-dir", str(outdir)])
        assert code == 0
        n_before = len((outdir / "metrics.jsonl").read_text().splitlines())
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "5", "--output-dir", str(outdir), "--resume"])
        assert code == 0
        lines = (outdir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) > n_before
        events = [json.loads(line)["event"] for line in lines]
        assert "resume" in events
        assert events[0] == "start"

    @staticmethod
    def _snapshot(root):
        return {os.path.relpath(os.path.join(d, name), root):
                open(os.path.join(d, name), "rb").read()
                for d, _, names in os.walk(root) for name in names}

    def test_resume_without_checkpoint_writes_nothing(self, train_run,
                                                      tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        for outdir in (empty, tmp_path / "absent"):
            code = main(["train", "--config", str(train_run["cfg_path"]),
                         "--seed", "5", "--output-dir", str(outdir),
                         "--resume"])
            assert code == 1
        assert os.listdir(empty) == []
        assert not (tmp_path / "absent").exists()
        # so a fresh run into the empty directory still starts
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "5", "--output-dir", str(empty)])
        assert code == 0

    def test_resume_with_other_config_writes_nothing(self, train_run,
                                                     tmp_path):
        outdir = tmp_path / "run"
        shutil.copytree(train_run["outdir"], outdir)
        before = self._snapshot(outdir)
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--output-dir", str(outdir), "--resume",
                     "--set", "run.seed=9"])
        assert code == 2
        assert self._snapshot(outdir) == before

    def test_one_eval_per_segment_below_the_interval(self, train_run,
                                                      tmp_path):
        outdir = tmp_path / "run"
        assert main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "3", "--set", "run.eval_interval=2",
                     "--set", "run.max_env_steps=64",
                     "--output-dir", str(outdir)]) == 0
        records = [json.loads(line) for line in
                   (outdir / "metrics.jsonl").read_text().splitlines()]
        evals = [r["global_step"] for r in records if r["event"] == "eval"]
        assert evals == [16, 32, 48, 64]
        assert _checkpoint_steps(str(outdir / "checkpoints")) == [
            f"step{step:09d}" for step in evals]

    def test_resume_keeps_one_record_per_step_and_every_checkpoint(
            self, train_run, tmp_path, monkeypatch):
        seeds, evaluate = [], training.evaluate

        def spy(agents, kind, variant, config, episodes, seed, *args, **kw):
            seeds.append(seed)
            return evaluate(agents, kind, variant, config, episodes, seed,
                            *args, **kw)

        monkeypatch.setattr(training, "evaluate", spy)
        cfg_path = tmp_path / "long.cfg"
        cfg_path.write_text(TINY_MEETUP.replace("run.max_env_steps = 32",
                                                "run.max_env_steps = 256"))
        outdir = tmp_path / "run"
        argv = ["train", "--config", str(cfg_path), "--seed", "3",
                "--output-dir", str(outdir)]
        assert main(argv) == 0
        first_seeds, seeds[:] = list(seeds), []
        ckroot = outdir / "checkpoints"
        names = _checkpoint_steps(str(ckroot))
        for name in names[-3:]:
            shutil.rmtree(ckroot / name)
        resumed_at = int(names[-4][len("step"):])
        assert resumed_at < 256
        assert main(argv + ["--resume"]) == 0

        records = [json.loads(line) for line in
                   (outdir / "metrics.jsonl").read_text().splitlines()]
        events = [r["event"] for r in records]
        assert events[0] == "start" and events.count("resume") == 1
        at = events.index("resume")
        resume = records[at]
        assert resume["global_step"] == resumed_at
        assert all(r["global_step"] <= resumed_at for r in records[:at])
        assert set(resume) >= set(records[0]) - {"config_hash", "seed",
                                                 "metric"}
        updates = [r["global_step"] for r in records if r["event"] == "update"]
        assert updates == list(range(16, 257, 16))
        # the resumed run evaluates and checkpoints where the removed
        # checkpoints were, with the uninterrupted run's seeds: those of
        # the last three evaluations and of the final one
        assert [f"step{r['global_step']:09d}" for r in records[at:]
                if r["event"] == "eval"] == names[-3:]
        assert seeds == first_seeds[-4:]
        on_disk = _checkpoint_steps(str(ckroot))
        assert on_disk == names
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["checkpoints"] == [
            os.path.join("checkpoints", name) for name in on_disk]

    def test_resume_of_a_finished_run_keeps_one_final_eval_per_step(
            self, train_run, tmp_path):
        outdir = tmp_path / "run"
        shutil.copytree(train_run["outdir"], outdir)
        assert main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "3", "--output-dir", str(outdir),
                     "--resume"]) == 0
        records = [json.loads(line) for line in
                   (outdir / "metrics.jsonl").read_text().splitlines()]
        events = [r["event"] for r in records]
        assert events.count("resume") == 1
        finals = [r["global_step"] for r in records
                  if r["event"] == "final_eval"]
        assert finals == [32]
        # the finished run's own final_eval went; the resumed one is last
        assert events[-2:] == ["resume", "final_eval"]

    def test_rerun_fresh_directory_is_bit_identical(self, train_run, tmp_path):
        outdir = tmp_path / "twin"
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "3", "--output-dir", str(outdir)])
        assert code == 0
        for rel in ("metrics.jsonl", "config.cfg", "final_summary.json",
                    "manifest.json"):
            ours = (outdir / rel).read_bytes()
            theirs = (train_run["outdir"] / rel).read_bytes()
            assert ours.replace(str(outdir).encode(),
                                str(train_run["outdir"]).encode()) == \
                theirs or ours == theirs, rel

    def test_set_override_lands_in_saved_config(self, train_run, tmp_path):
        outdir = tmp_path / "kl_run"
        code = main(["train", "--config", str(train_run["cfg_path"]),
                     "--seed", "3", "--set", "incentive.metric=kl",
                     "--output-dir", str(outdir)])
        assert code == 0
        assert "incentive.metric = kl" in (outdir / "config.cfg").read_text()
        ours = json.loads((outdir / "manifest.json").read_text())
        base = json.loads(
            (train_run["outdir"] / "manifest.json").read_text())
        assert ours["config_hash"] != base["config_hash"]
        start = json.loads(
            (outdir / "metrics.jsonl").read_text().splitlines()[0])
        assert start["metric"] == "kl"


class TestRunCheckpoint:
    def test_save_that_dies_leaves_no_step_directory(self, tmp_path,
                                                     monkeypatch):
        cfg = parse_config_text(TINY_MEETUP)
        pop = PopulationSpec([AgentSpec(v) for v in cfg.population],
                             cfg.incentive)
        trainer = Trainer(cfg.env_kind, cfg.env_variant, pop, cfg.ppo,
                          seed=cfg.seed, env_overrides=cfg.env_overrides)
        manifest = Manifest(str(tmp_path), "train", config_hash(cfg),
                            [cfg.seed])
        ckroot = tmp_path / "checkpoints"
        save = np.save

        def dies_on_second_agent(file, arr):
            if os.path.basename(file) == "agent1.npy":
                raise OSError("disk gone")
            save(file, arr)

        monkeypatch.setattr(np, "save", dies_on_second_agent)
        with pytest.raises(OSError):
            _save_run_checkpoint(trainer, str(tmp_path), cfg, manifest)
        assert not [n for n in os.listdir(ckroot) if n.startswith("step")]
        assert _checkpoint_steps(str(ckroot)) == []
        assert manifest.data["checkpoints"] == []

        monkeypatch.setattr(np, "save", save)
        rel = _save_run_checkpoint(trainer, str(tmp_path), cfg, manifest)
        name = os.path.basename(rel)
        assert os.listdir(ckroot) == [name]
        assert _checkpoint_steps(str(ckroot)) == [name]
        assert set(os.listdir(ckroot / name)) == {
            "checkpoint.json", "config.cfg", "agent0.npy", "agent0_adam.npy",
            "agent1.npy", "agent1_adam.npy"}
        assert read_checkpoint_config(str(ckroot / name)) == cfg
        assert manifest.data["checkpoints"] == [rel]


class TestEvalCommand:
    def test_eval_prints_summary(self, train_run, capsys):
        code = main(["eval", "--checkpoint", str(train_run["outdir"]),
                     "--episodes", "2"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["episodes"] == 2
        assert 0.0 <= summary["success_rate"] <= 1.0

    def test_eval_reads_no_adam_file(self, train_run, tmp_path, capsys):
        ckdir = tmp_path / "ck"
        shutil.copytree(resolve_checkpoint_dir(str(train_run["outdir"])),
                        ckdir)
        argv = ["eval", "--checkpoint", str(ckdir), "--episodes", "2"]
        assert main(argv) == 0
        before = capsys.readouterr().out
        adam_files = sorted(ckdir.glob("agent*_adam.npy"))
        assert len(adam_files) == 2
        for path in adam_files:
            path.unlink()
        assert main(argv) == 0
        assert capsys.readouterr().out == before

    def test_eval_defaults_to_ten_episodes(self, train_run, capsys):
        code = main(["eval", "--checkpoint", str(train_run["outdir"])])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["episodes"] == 10

    def test_eval_writes_summary_into_output_dir(self, train_run, tmp_path):
        outdir = tmp_path / "evaldir"
        code = main(["eval", "--checkpoint", str(train_run["outdir"]),
                     "--episodes", "2", "--output-dir", str(outdir)])
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["episodes"] == 2
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert "summary.json" in manifest["files"]

    def test_eval_does_not_mutate_checkpoint(self, train_run, tmp_path):
        ck = train_run["outdir"] / "checkpoints"
        step = sorted(os.listdir(ck))[-1]
        before = {name: (ck / step / name).read_bytes()
                  for name in os.listdir(ck / step)}
        code = main(["eval", "--checkpoint", str(ck / step),
                     "--episodes", "2"])
        assert code == 0
        after = {name: (ck / step / name).read_bytes()
                 for name in os.listdir(ck / step)}
        assert before == after

    def test_generalize_all_table(self, train_run, capsys):
        code = main(["eval", "--checkpoint", str(train_run["outdir"]),
                     "--generalize", "all", "--episodes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        for variant in ("default", "cluttered", "single_target",
                        "multi_target"):
            assert variant in out

    def test_generalize_inapplicable_exits_2(self, train_run):
        code = main(["eval", "--checkpoint", str(train_run["outdir"]),
                     "--generalize", "no_stag"])
        assert code == 2

    @pytest.mark.parametrize("extra", [["--episodes", "0"],
                                       ["--episodes", "-3",
                                        "--generalize", "all"]])
    def test_episode_count_below_one_exits_2(self, train_run, capsys, extra):
        code = main(["eval", "--checkpoint", str(train_run["outdir"])]
                    + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --episodes must be at least 1")
        assert len(err.strip().splitlines()) == 1

    def test_tampered_config_hash_detected(self, train_run, tmp_path):
        ck = train_run["outdir"] / "checkpoints"
        step = sorted(os.listdir(ck))[-1]
        copy = tmp_path / "tampered"
        shutil.copytree(ck / step, copy)
        text = (copy / "config.cfg").read_text()
        (copy / "config.cfg").write_text(
            text.replace("run.seed = 3", "run.seed = 4"))
        code = main(["eval", "--checkpoint", str(copy), "--episodes", "1"])
        assert code == 2

    def test_checkpointless_directory_exits_2(self, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path)])
        assert code == 2


@pytest.fixture(scope="module")
def render_dir(train_run, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("render") / "maps"
    code = main(["render-attention", "--checkpoint",
                 str(train_run["outdir"]), "--seed", "1",
                 "--mutual-threshold", "0.02",
                 "--output-dir", str(outdir)])
    assert code == 0
    return outdir


class TestRenderCommand:
    @staticmethod
    def _dump(outdir):
        grids, maps, mutual = {}, {}, {}
        for line in (outdir / "maps.jsonl").read_text().splitlines():
            rec = json.loads(line)
            if "grid" in rec:
                grids[rec["t"]] = np.asarray(rec["grid"])
            elif "map" in rec:
                maps[(rec["t"], rec["agent"])] = np.asarray(rec["map"])
            else:
                mutual[rec["t"]] = rec["mutual"]
        return grids, maps, mutual

    def test_every_step_has_grid_maps_and_flags(self, render_dir):
        grids, maps, mutual = self._dump(render_dir)
        steps = sorted(grids)
        assert steps == sorted(mutual)
        for t in steps:
            assert (t, 0) in maps and (t, 1) in maps

    def test_dumped_maps_are_normalized(self, render_dir):
        _, maps, _ = self._dump(render_dir)
        for field in maps.values():
            assert abs(field.sum() - 1.0) < 1e-6
            assert (field > 0).all()

    def test_pgm_files_match_maps_exactly(self, render_dir):
        _, maps, _ = self._dump(render_dir)
        for (t, k), field in maps.items():
            path = render_dir / "heatmaps" / f"t{t:04d}_agent{k}.pgm"
            tokens = path.read_text().split()
            assert tokens[0] == "P2"
            w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
            assert (h, w) == field.shape
            assert maxval == 65535
            pixels = np.asarray([int(v) for v in tokens[4:]]).reshape(h, w)
            expected = np.rint(field * (65535.0 / field.max())).astype(int)
            assert np.array_equal(pixels, expected)
            assert np.array_equal(pixels.sum(axis=1), expected.sum(axis=1))

    def test_mutual_flags_match_threshold_scan(self, render_dir):
        _, maps, mutual = self._dump(render_dir)
        for t, flagged in mutual.items():
            both = [maps[(t, 0)], maps[(t, 1)]]
            expect = [[x, y]
                      for y in range(both[0].shape[0])
                      for x in range(both[0].shape[1])
                      if all(m[y, x] > 0.02 for m in both)]
            assert sorted(map(tuple, flagged)) == sorted(map(tuple, expect))

    def test_mutual_cells_helper_against_loop(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 6))
        b = rng.random((5, 6))
        got = mutual_cells({0: a, 1: b}, 0.7)
        expect = [[x, y] for y in range(5) for x in range(6)
                  if a[y, x] > 0.7 and b[y, x] > 0.7]
        assert sorted(map(tuple, got)) == sorted(map(tuple, expect))

    def test_render_rejects_attention_free_checkpoint(self, tmp_path):
        cfg_path = tmp_path / "ippo.cfg"
        cfg_path.write_text(TINY_MEETUP.replace(
            "joint_attention, joint_attention",
            "independent_ppo, independent_ppo"))
        outdir = tmp_path / "ippo_run"
        assert main(["train", "--config", str(cfg_path), "--seed", "1",
                     "--output-dir", str(outdir)]) == 0
        code = main(["render-attention", "--checkpoint", str(outdir),
                     "--output-dir", str(tmp_path / "render")])
        assert code == 2


class TestSocialCommand:
    def test_paired_arms_and_warning(self, tmp_path, capsys):
        cfg_path = tmp_path / "tasklist.cfg"
        cfg_path.write_text(TINY_TASKLIST)
        expert_dir = tmp_path / "expert"
        assert main(["train", "--config", str(cfg_path), "--seed", "2",
                     "--output-dir", str(expert_dir)]) == 0
        outdir = tmp_path / "social"
        code = main(["social", "--expert", str(expert_dir), "--novices", "2",
                     "--seed", "4", "--max-env-steps", "16",
                     "--output-dir", str(outdir)])
        captured = capsys.readouterr()
        assert code == 0
        # a 16-step expert cannot be competent: warned, flagged, proceeded
        assert "below" in captured.err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["expert_below_threshold"] is True
        for tag in ("with_expert", "alone"):
            lines = (outdir / f"metrics_{tag}.jsonl").read_text().splitlines()
            records = [json.loads(line) for line in lines]
            assert all(r["arm"] == tag for r in records)
            assert records[0]["event"] == "start"
            assert records[0]["metric"] == "jsd"
            assert records[-1]["event"] == "final_eval"
            assert (outdir / "checkpoints" / f"{tag}_final" /
                    "checkpoint.json").is_file()
            # training episodes, not the final evaluation's count
            assert manifest["results"][tag]["episodes"] == \
                records[-1]["episodes"]
            assert "success_rate" in manifest["results"][tag]["final_eval"]
        assert manifest["results"]["with_expert"]["global_step"] == 16
        assert manifest["results"]["alone"]["global_step"] == 16

    @pytest.mark.parametrize("argv", [
        ["--expert-index", "5"], ["--expert-index", "-1"],
        ["--expert-index", "1"], ["--novices", "0"], ["--novices", "-2"],
        ["--max-env-steps", "-8"]])
    def test_usage_error_exits_2_before_any_output(self, mixed_expert,
                                                    tmp_path, capsys, argv):
        outdir = tmp_path / "social"
        code = main(["social", "--expert", str(mixed_expert), "--seed", "4",
                     "--max-env-steps", "8", "--output-dir", str(outdir),
                     *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not outdir.exists()

    def test_final_checkpoint_that_dies_leaves_nothing_in_place(
            self, mixed_expert, tmp_path, monkeypatch):
        save = np.save

        def dies_on_adam(file, arr):
            save(file, arr)
            if os.path.basename(file) == "agent0_adam.npy":
                raise OSError("disk gone")

        monkeypatch.setattr(np, "save", dies_on_adam)
        outdir = tmp_path / "social"
        code = main(["social", "--expert", str(mixed_expert), "--seed", "4",
                     "--max-env-steps", "8", "--output-dir", str(outdir)])
        assert code == 1
        ckroot = outdir / "checkpoints"
        assert os.listdir(ckroot) == ["partial-with_expert_final"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["checkpoints"] == []


def _with_entry(key, value):
    """The meta with agent 0's ``key`` set to ``value``."""
    def damage(meta):
        meta["agents"][0][key] = value
        return meta
    return damage


class TestDamagedCheckpoint:
    """A checkpoint with a cut-short vector, of another encoding version, or
    whose ``checkpoint.json`` parses but does not hold what a checkpoint
    records, is one ``error:`` line and exit 1 in every command that reads
    one, and nothing is written."""

    # name -> the damaged checkpoint.json, from the intact one
    META_DAMAGES = {
        "other_encoding": lambda meta: {**meta, "encoding_version": "enc-0"},
        "not_an_object": lambda meta: [1],
        "no_agents": lambda meta: {k: v for k, v in meta.items()
                                   if k != "agents"},
        "agents_not_objects": lambda meta: {**meta, "agents": [1, 2]},
        "step_not_int": lambda meta: {**meta, "global_step": "x"},
        "episodes_not_int": lambda meta: {**meta, "episodes": 1.5},
        "adam_step_not_int": _with_entry("adam_step", "x"),
        "layout_not_a_list": _with_entry("layout", 5),
    }

    @pytest.fixture(params=["truncated", *META_DAMAGES])
    def damaged(self, request, mixed_expert, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(mixed_expert, run)
        ckdir = run / "checkpoints" / _checkpoint_steps(
            str(run / "checkpoints"))[-1]
        if request.param == "truncated":
            vec = ckdir / "agent1.npy"
            vec.write_bytes(vec.read_bytes()[:-8])
        else:
            meta = json.loads((ckdir / "checkpoint.json").read_text())
            meta = self.META_DAMAGES[request.param](meta)
            (ckdir / "checkpoint.json").write_text(json.dumps(meta))
        return run

    @pytest.mark.parametrize("command", ["eval", "render-attention", "social",
                                         "train"])
    def test_one_error_line_and_nothing_written(self, damaged, mixed_expert,
                                                tmp_path, capsys, command):
        outdir = tmp_path / "out"
        argv = {
            "eval": ["eval", "--checkpoint", str(damaged), "--episodes", "1",
                     "--output-dir", str(outdir)],
            "render-attention": ["render-attention", "--checkpoint",
                                 str(damaged), "--output-dir", str(outdir)],
            "social": ["social", "--expert", str(damaged),
                       "--max-env-steps", "8", "--output-dir", str(outdir)],
            "train": ["train", "--config",
                      str(mixed_expert.parent / "mixed.cfg"), "--seed", "2",
                      "--output-dir", str(damaged), "--resume"],
        }[command]
        before = TestTrainCommand._snapshot(damaged)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not outdir.exists()
        assert TestTrainCommand._snapshot(damaged) == before


@pytest.mark.parametrize("command", ["eval", "render-attention", "social",
                                     "train"])
def test_negative_seed_exits_2_before_any_output(mixed_expert, tmp_path,
                                                 capsys, command):
    # SeedSequence takes no negative entropy; every command that takes a
    # --seed rejects one before it reads a checkpoint or writes a file
    outdir = tmp_path / "out"
    argv = {
        "eval": ["eval", "--checkpoint", str(mixed_expert), "--episodes",
                 "1"],
        "render-attention": ["render-attention", "--checkpoint",
                             str(mixed_expert)],
        "social": ["social", "--expert", str(mixed_expert),
                   "--max-env-steps", "8"],
        "train": ["train", "--config", str(mixed_expert.parent / "mixed.cfg")],
    }[command]
    code = main(argv + ["--seed", "-1", "--output-dir", str(outdir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: --seed must be at least 0, got -1\n"
    assert not outdir.exists()


class TestWriteJson:
    def test_write_that_raises_leaves_nothing_under_the_name(self, tmp_path):
        path = tmp_path / "summary.json"
        tmp = tmp_path / "summary.json.tmp"
        # json.dump writes the first keys before it meets the bad value
        with pytest.raises(TypeError):
            _write_json(str(path), {"a": 1, "b": object()})
        assert not path.exists()
        assert not tmp.exists()
        _write_json(str(path), {"a": 1})
        with pytest.raises(TypeError):
            _write_json(str(path), {"a": 2, "b": object()})
        assert path.read_text() == '{\n  "a": 1\n}\n'
        assert not tmp.exists()


class TestListEnvs:
    def test_lists_kinds_and_variants(self, capsys):
        assert main(["list-envs"]) == 0
        out = capsys.readouterr().out
        for kind in ("meetup", "colorgather", "staghunt", "tasklist"):
            assert kind in out
        assert "cluttered" in out
