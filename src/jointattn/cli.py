"""Command-line entry point: train, eval, social runs, map rendering.

Commands
    train             run a training experiment from a config file
    eval              evaluate a checkpoint (optionally across variants)
    render-attention  roll out one greedy episode and export attention maps
    social            paired novice runs with and without a frozen expert
    list-envs         show environment kinds, variants, and defaults

Configs are plain text, one ``key = value`` per line with dotted key
sections; the keys (CONFIG_KEYS) are read off the fields of ExperimentConfig
and of its section dataclasses, and unknown keys are rejected with the
offending line number. A run's output directory receives the effective
config, a manifest that indexes every artifact, line-delimited JSON
metrics, and immutable step-numbered checkpoints. Exit codes: 0 success,
1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .gridworlds import (
    ENCODING_VERSION,
    ENV_KINDS,
    EnvConfig,
    LayoutError,
    VARIANTS,
    make_config,
)
from .ja_reward import IncentiveConfig, beta_schedule
from .training import (
    AgentSpec,
    PPOConfig,
    PopulationSpec,
    Trainer,
    VARIANTS as AGENT_VARIANTS,
    build_population,
    checkpoint_meta,
    evaluate,
    generalization_eval,
    load_checkpoint,
    lockstep_episodes,
    metrics_record,
    save_checkpoint,
    social_learning_run,
)


class CliError(Exception):
    exit_code = 1


class ConfigError(CliError):
    """Usage or configuration problem (exit code 2)."""
    exit_code = 2


class RunFailure(CliError):
    """Runtime problem in an otherwise valid invocation (exit code 1)."""
    exit_code = 1


# ---------------------------------------------------------------------------
# experiment config: parse / serialize / hash

@dataclass
class ExperimentConfig:
    """Everything a run needs; round-trips losslessly through text. The
    text keys (CONFIG_KEYS) are read off these fields and the sections'."""

    env_kind: str = "meetup"
    env_variant: str = "default"
    population: tuple = ("joint_attention", "joint_attention")
    incentive: IncentiveConfig = field(default_factory=IncentiveConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    env_overrides: dict = field(default_factory=dict)
    seed: int = 0
    eval_interval: int = 16_384
    eval_episodes: int = 10
    max_env_steps: int | None = 200_000
    total_episodes: int | None = None
    output_dir: str | None = None

    def __post_init__(self):
        self.population = tuple(self.population)
        self.env_overrides = dict(self.env_overrides)

    def validate(self) -> None:
        if self.env_kind not in ENV_KINDS:
            raise ConfigError(f"env.kind must be one of {ENV_KINDS}, "
                              f"got {self.env_kind!r}")
        if self.env_variant not in VARIANTS \
                or self.env_kind not in VARIANTS[self.env_variant]:
            raise ConfigError(f"env.variant {self.env_variant!r} does not "
                              f"apply to {self.env_kind!r}")
        if not self.population:
            raise ConfigError("population.variants must name at least one agent")
        for v in self.population:
            if v == "frozen_expert":
                raise ConfigError("frozen_expert cannot appear in a train "
                                  "config; use the social command")
            if v not in AGENT_VARIANTS:
                raise ConfigError(f"unknown agent variant {v!r}; pick from "
                                  f"{tuple(AGENT_VARIANTS)}")
        if self.max_env_steps is None and self.total_episodes is None:
            raise ConfigError("set run.max_env_steps or run.total_episodes")
        for name in ("seed", "eval_interval", "eval_episodes",
                     "max_env_steps", "total_episodes"):
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if value is not None and value < least:
                raise ConfigError(f"run.{name} must be at least {least}, "
                                  f"got {value}")
        try:
            make_config(self.env_kind, self.env_variant, **self.env_overrides)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"environment overrides rejected: {e}")


def _key_type(f) -> str:
    """A field's key type: its annotation, ``X | None`` read as ``opt_X``."""
    if f.type.endswith(" | None"):
        return "opt_" + f.type.removesuffix(" | None")
    return f.type


_RUN_FIELDS = fields(ExperimentConfig)[6:]    # the run.* keys: seed onwards

# full key schema in text order: dotted key -> value type ("int", "float",
# "str", "opt_int", "opt_str", "variants"); the program sets an
# environment's agent_count and non_learning
CONFIG_KEYS = {
    "env.kind": "str", "env.variant": "str",
    **{f"env.{f.name}": "opt_int" for f in fields(EnvConfig)
       if f.name not in ("agent_count", "non_learning")},
    "population.variants": "variants",
    **{f"incentive.{f.name}": _key_type(f) for f in fields(IncentiveConfig)},
    **{f"ppo.{f.name}": _key_type(f) for f in fields(PPOConfig)},
    **{f"run.{f.name}": _key_type(f) for f in _RUN_FIELDS},
}


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_items(cfg: ExperimentConfig) -> list:
    """The canonical (key, value) sequence behind serialization and hashing:
    each key of CONFIG_KEYS that ``cfg`` holds, in table order."""
    sections = {
        "env": {**cfg.env_overrides, "kind": cfg.env_kind,
                "variant": cfg.env_variant},
        "population": {"variants": ", ".join(cfg.population)},
        "incentive": vars(cfg.incentive), "ppo": vars(cfg.ppo),
        "run": {f.name: getattr(cfg, f.name) for f in _RUN_FIELDS}}
    return [(key, sections[s][name]) for key in CONFIG_KEYS
            for s, name in [key.split(".")] if name in sections[s]]


def serialize_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in config_items(cfg))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


def _parse_value(key: str, raw: str, where: str):
    kind = CONFIG_KEYS[key]
    raw = raw.strip()
    try:
        if kind.startswith("opt_") and raw == "none":
            return None
        if kind in ("int", "opt_int"):
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "variants":
            return tuple(v.strip() for v in raw.split(",") if v.strip())
        return raw
    except ValueError:
        raise ConfigError(f"{where}: bad value {raw!r} for {key}")


def parse_config_text(text: str, source: str = "config") -> ExperimentConfig:
    """Strict parse: unknown or duplicate keys fail with their line number."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = "
                              f"value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}, line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}, line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, f"{source}, line {lineno}")
    return build_config(values)


def build_config(values: dict,
                 base: ExperimentConfig | None = None) -> ExperimentConfig:
    """``base`` (the defaults if omitted) with a flat dotted-key dict written
    over it, validated. An ``env.*`` value of None drops that override."""
    base = base or ExperimentConfig()
    sections = {key.split(".")[0]: {} for key in CONFIG_KEYS}
    for key, value in values.items():
        section, name = key.split(".")
        sections[section][name] = value
    env = {**base.env_overrides, **sections["env"]}
    try:
        cfg = replace(
            base, env_kind=env.pop("kind", base.env_kind),
            env_variant=env.pop("variant", base.env_variant),
            env_overrides={k: v for k, v in env.items() if v is not None},
            population=sections["population"].get("variants",
                                                  base.population),
            incentive=replace(base.incentive, **sections["incentive"]),
            ppo=replace(base.ppo, **sections["ppo"]), **sections["run"])
    except ValueError as e:
        raise ConfigError(str(e))
    cfg.validate()
    return cfg


def load_config_file(path: str) -> ExperimentConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as f:
        return parse_config_text(f.read(), source=path)


def apply_overrides(cfg: ExperimentConfig, pairs: list) -> ExperimentConfig:
    """Apply --set key=value pairs on top of a parsed config: the keys they
    name change, every other value stays, and ``none`` unsets an optional
    key."""
    values = {}
    for n, pair in enumerate(pairs, start=1):
        if "=" not in pair:
            raise ConfigError(f"--set #{n}: expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"--set #{n}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, f"--set #{n}")
    return build_config(values, cfg)


# ---------------------------------------------------------------------------
# output directories, locks, manifests, metrics

def resolve_output_dir(explicit, cfg_value, fallback_name: str) -> str:
    if explicit:
        return explicit
    if cfg_value:
        return cfg_value
    root = os.environ.get("JA_OUTPUT_DIR")
    if root:
        return os.path.join(root, fallback_name)
    raise ConfigError("no output directory: pass --output-dir, set "
                      "run.output_dir, or export JA_OUTPUT_DIR")


class OutputLock:
    """Exclusive ownership of an output directory for one process."""

    def __init__(self, outdir: str):
        self.path = os.path.join(outdir, ".lock")
        self.fd = None

    def __enter__(self):
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RunFailure(
                f"output directory is locked by another command ({self.path}); "
                "remove the file if that process is gone")
        os.write(self.fd, f"{os.getpid()}\n".encode())
        return self

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            os.remove(self.path)
        return False


def _replace_file(path: str, write) -> None:
    """Call ``write(f)`` on a file under a temporary name, then rename it
    into place, so ``path`` never holds a partial file. A write or rename
    that fails removes the temporary file and re-raises."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_json(path: str, obj) -> None:
    """Write ``obj`` as indented JSON through ``_replace_file``."""
    def write(f):
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    _replace_file(path, write)


class Manifest:
    """Index of every artifact a command leaves in its output directory."""

    def __init__(self, outdir: str, command: str, cfg_hash: str, seeds: list):
        self.outdir = outdir
        self.data = {
            "command": command,
            "config_hash": cfg_hash,
            "code_version": __version__,
            "encoding_version": ENCODING_VERSION,
            "seeds": list(seeds),
            "config_file": None,
            "metrics": [],
            "checkpoints": [],
            "files": [],
        }

    def add(self, kind: str, relpath: str) -> None:
        if kind == "config":
            self.data["config_file"] = relpath
        elif kind in ("metrics", "checkpoints"):
            if relpath not in self.data[kind]:
                self.data[kind].append(relpath)
        else:
            if relpath not in self.data["files"]:
                self.data["files"].append(relpath)
        self.write()

    def set(self, key: str, value) -> None:
        self.data[key] = value
        self.write()

    def write(self) -> None:
        _write_json(os.path.join(self.outdir, "manifest.json"), self.data)


class MetricsWriter:
    """Appends one JSON record per line; every line is flushed whole."""

    def __init__(self, path: str):
        self.f = open(path, "a")

    def write(self, record: dict) -> None:
        self.f.write(json.dumps(record) + "\n")
        self.f.flush()

    def close(self) -> None:
        self.f.close()


def _prepare_outdir(outdir: str, resume: bool, marker: str) -> None:
    if resume:
        if not os.path.isdir(outdir):
            raise RunFailure(f"--resume: no run in {outdir}")
        return
    os.makedirs(outdir, exist_ok=True)
    if os.path.exists(os.path.join(outdir, marker)):
        raise RunFailure(
            f"output directory {outdir} already holds a run ({marker} "
            "exists); use a fresh directory or --resume")


# ---------------------------------------------------------------------------
# checkpoint helpers

def _checkpoint_steps(ckroot: str) -> list:
    if not os.path.isdir(ckroot):
        return []
    out = []
    for name in os.listdir(ckroot):
        if name.startswith("step") and name[4:].isdigit() \
                and os.path.isfile(os.path.join(ckroot, name,
                                                "checkpoint.json")):
            out.append(name)
    return sorted(out)


def resolve_checkpoint_dir(path: str) -> str:
    """Accept either a checkpoint directory or a run directory."""
    if os.path.isfile(os.path.join(path, "checkpoint.json")):
        return path
    steps = _checkpoint_steps(os.path.join(path, "checkpoints"))
    if steps:
        return os.path.join(path, "checkpoints", steps[-1])
    raise ConfigError(f"no checkpoint found under {path}")


def _read_checked(ckdir: str, read, *args):
    """``read(*args)``; a damaged checkpoint, or one of another encoding
    version, is a ``RunFailure``."""
    try:
        return read(*args)
    except ValueError as e:
        raise RunFailure(f"checkpoint {ckdir}: {e}") from None


def read_checkpoint_config(ckdir: str) -> ExperimentConfig:
    cfg_path = os.path.join(ckdir, "config.cfg")
    if not os.path.isfile(cfg_path):
        raise ConfigError(f"checkpoint {ckdir} has no config.cfg")
    cfg = load_config_file(cfg_path)
    meta = _read_checked(ckdir, checkpoint_meta, ckdir)
    recorded = meta.get("config_hash", "")
    if recorded and recorded != config_hash(cfg):
        raise ConfigError(
            f"checkpoint {ckdir}: config.cfg does not match the recorded "
            f"config hash ({recorded[:12]}...); the checkpoint or its config "
            "was altered")
    return cfg


def experiment_env_config(cfg: ExperimentConfig):
    """The environment an experiment trains on: population size wins."""
    return make_config(cfg.env_kind, cfg.env_variant,
                       agent_count=len(cfg.population), **cfg.env_overrides)


def build_agents_from_checkpoint(ckdir: str, cfg: ExperimentConfig) -> list:
    """The checkpoint's agents for greedy play, which never steps an
    optimizer: they get none, so ``load_checkpoint`` reads no Adam file."""
    size = experiment_env_config(cfg).interior + 2
    pop = PopulationSpec([AgentSpec(v) for v in cfg.population], cfg.incentive)
    agents = build_population(pop, size, size, cfg.ppo, cfg.seed)
    for agent in agents:
        agent.adam = None
    _read_checked(ckdir, load_checkpoint, ckdir, agents)
    return agents


def _save_checkpoint_dir(trainer: Trainer, outdir: str, name: str,
                         cfg: ExperimentConfig, config_file: bool) -> str:
    """Write ``checkpoints/<name>``, with config.cfg if ``config_file``;
    returns its path relative to ``outdir``.

    The directory is written under the name ``partial-<name>``, which
    ``_checkpoint_steps`` ignores, and then renamed into place, so a save
    that dies part-way leaves nothing under ``name`` to be taken for a
    whole checkpoint; the next save of that name removes the leftover.
    """
    rel = os.path.join("checkpoints", name)
    partial = os.path.join(outdir, "checkpoints", f"partial-{name}")
    shutil.rmtree(partial, ignore_errors=True)
    save_checkpoint(partial, trainer.agents, trainer.global_step,
                    trainer.episodes, config_hash(cfg))
    if config_file:
        with open(os.path.join(partial, "config.cfg"), "w") as f:
            f.write(serialize_config(cfg))
    os.replace(partial, os.path.join(outdir, rel))
    return rel


def _save_run_checkpoint(trainer: Trainer, outdir: str, cfg: ExperimentConfig,
                         manifest: Manifest) -> str:
    """Save the current step's checkpoint, config.cfg included, unless it
    exists (``_save_checkpoint_dir``); returns its path relative to
    ``outdir``."""
    name = f"step{trainer.global_step:09d}"
    rel = os.path.join("checkpoints", name)
    if not os.path.isdir(os.path.join(outdir, rel)):
        _save_checkpoint_dir(trainer, outdir, name, cfg, config_file=True)
        manifest.add("checkpoints", rel)
    return rel


# ---------------------------------------------------------------------------
# commands

def _start_record(cfg: ExperimentConfig, seed: int, **extra) -> dict:
    # ``mean_pairwise_jsd`` holds the divergence ``metric`` names (KL too)
    return metrics_record("start", 0, 0, beta_schedule(0, cfg.incentive),
                          config_hash=config_hash(cfg), seed=seed,
                          metric=cfg.incentive.metric, **extra)


def _resume_checkpoint(outdir: str, cfg: ExperimentConfig) -> str:
    """The newest checkpoint of the run in ``outdir``, which must have been
    trained with ``cfg``."""
    steps = _checkpoint_steps(os.path.join(outdir, "checkpoints"))
    if not steps:
        raise RunFailure(f"--resume: no checkpoint in {outdir}")
    ckdir = os.path.join(outdir, "checkpoints", steps[-1])
    if read_checkpoint_config(ckdir) != cfg:
        raise ConfigError("--resume: the directory's checkpoint was trained "
                          "with a different config")
    return ckdir


def _keep_metrics_through(path: str, global_step: int) -> None:
    """Drop the records of ``path`` past ``global_step``, and a finished
    run's ``final_eval`` at it: the resumed run writes its own."""
    with open(path) as f:
        records = [(line, json.loads(line)) for line in f]
    kept = [line for line, r in records if r["global_step"] < global_step
            or r["global_step"] == global_step and r["event"] != "final_eval"]
    _replace_file(path, lambda f: f.writelines(kept))


def cmd_train(args) -> int:
    seed = [] if args.seed is None else [f"run.seed={args.seed}"]
    cfg = apply_overrides(load_config_file(args.config),
                          (args.set or []) + seed)
    stem = os.path.splitext(os.path.basename(args.config))[0]
    outdir = resolve_output_dir(args.output_dir, cfg.output_dir,
                                f"{stem}_s{cfg.seed}")
    # built before the directory: a layout that does not fit the grid
    # fails in the first reset, and then nothing is written
    pop = PopulationSpec([AgentSpec(v) for v in cfg.population],
                         cfg.incentive)
    try:
        trainer = Trainer(cfg.env_kind, cfg.env_variant, pop, cfg.ppo,
                          seed=cfg.seed, env_overrides=cfg.env_overrides)
    except LayoutError as e:
        raise ConfigError(f"env: the layout does not fit the grid: {e}")
    _prepare_outdir(outdir, args.resume, "metrics.jsonl")
    with OutputLock(outdir):
        manifest = Manifest(outdir, "train", config_hash(cfg), [cfg.seed])
        metrics_path = os.path.join(outdir, "metrics.jsonl")
        # a resume reads and checks the checkpoint before it writes anything
        if args.resume:
            ckdir = _resume_checkpoint(outdir, cfg)
            meta = _read_checked(ckdir, load_checkpoint, ckdir,
                                 trainer.agents)
            trainer.global_step = meta["global_step"]
            trainer.envset.completed_episodes = meta["episodes"]
            _keep_metrics_through(metrics_path, trainer.global_step)
            manifest.data["checkpoints"] = [
                os.path.join("checkpoints", name) for name in
                _checkpoint_steps(os.path.join(outdir, "checkpoints"))]

        with open(os.path.join(outdir, "config.cfg"), "w") as f:
            f.write(serialize_config(cfg))
        manifest.add("config", "config.cfg")
        metrics = MetricsWriter(metrics_path)
        manifest.add("metrics", "metrics.jsonl")
        try:
            metrics.write(metrics_record(
                "resume", trainer.global_step, trainer.episodes,
                beta_schedule(trainer.global_step, cfg.incentive))
                if args.resume else _start_record(cfg, cfg.seed))
            summary = trainer.run(
                max_env_steps=cfg.max_env_steps,
                total_episodes=cfg.total_episodes,
                eval_interval=cfg.eval_interval,
                eval_episodes=cfg.eval_episodes,
                on_record=metrics.write,
                on_checkpoint=lambda tr: _save_run_checkpoint(
                    tr, outdir, cfg, manifest))
        finally:
            metrics.close()
        final_rel = _save_run_checkpoint(trainer, outdir, cfg, manifest)
        manifest.set("final_checkpoint", final_rel)
        _write_json(os.path.join(outdir, "final_summary.json"),
                    summary["final_eval"])
        manifest.add("files", "final_summary.json")
    print(json.dumps({"output_dir": outdir,
                      "global_step": summary["global_step"],
                      "episodes": summary["episodes"],
                      "final_eval": summary["final_eval"]}))
    return 0


def cmd_eval(args) -> int:
    ckdir = resolve_checkpoint_dir(args.checkpoint)
    cfg = read_checkpoint_config(ckdir)
    agents = build_agents_from_checkpoint(ckdir, cfg)
    env_config = experiment_env_config(cfg)
    episodes = args.episodes
    if episodes is None:
        episodes = 30 if args.generalize else 10
    if episodes < 1:
        raise ConfigError(f"--episodes must be at least 1, got {episodes}")

    if args.generalize:
        applicable = [v for v, kinds in VARIANTS.items()
                      if cfg.env_kind in kinds]
        if args.generalize == "all":
            chosen = applicable
        elif args.generalize in applicable:
            chosen = [args.generalize]
        else:
            raise ConfigError(f"variant {args.generalize!r} does not apply "
                              f"to {cfg.env_kind!r} (choose from "
                              f"{applicable} or 'all')")
        summary = generalization_eval(agents, cfg.env_kind, chosen,
                                      env_config, episodes=episodes,
                                      seed=args.seed)
        for variant, ev in summary.items():
            print(f"{variant:>14}  success={ev['success_rate']:.3f}  "
                  f"collective={ev['mean_collective_reward']:.3f}  "
                  f"length={ev['mean_episode_length']:.1f}  "
                  f"jsd={ev['mean_pairwise_jsd']}")
    else:
        summary = evaluate(agents, cfg.env_kind, cfg.env_variant, env_config,
                           episodes, args.seed, cfg.incentive)
        print(json.dumps(summary))

    if args.output_dir or os.environ.get("JA_OUTPUT_DIR"):
        name = f"eval_{os.path.basename(os.path.normpath(ckdir))}_s{args.seed}"
        outdir = resolve_output_dir(args.output_dir, None, name)
        os.makedirs(outdir, exist_ok=True)
        with OutputLock(outdir):
            manifest = Manifest(outdir, "eval", config_hash(cfg), [args.seed])
            _write_json(os.path.join(outdir, "summary.json"), summary)
            manifest.add("files", "summary.json")
            manifest.set("checkpoint_evaluated", os.path.abspath(ckdir))
            manifest.set("episodes", episodes)
    return 0


def _write_pgm(path: str, field: np.ndarray) -> None:
    """Text PGM (P2) heatmap: pixels scale the map by 65535 / max cell."""
    h, w = field.shape
    top = float(field.max())
    pixels = np.rint(field * (65535.0 / top)).astype(np.int64)
    lines = [f"P2\n{w} {h}\n65535\n"]
    for row in pixels:
        lines.append(" ".join(str(int(v)) for v in row) + "\n")
    with open(path, "w") as f:
        f.write("".join(lines))


def mutual_cells(maps: dict, threshold: float) -> list:
    """[x, y] cells where every agent's mean map exceeds the threshold."""
    stacked = np.stack([maps[k] for k in sorted(maps)])
    mask = (stacked > threshold).all(axis=0)
    ys, xs = np.nonzero(mask)
    return [[int(x), int(y)] for x, y in zip(xs, ys)]


def cmd_render_attention(args) -> int:
    ckdir = resolve_checkpoint_dir(args.checkpoint)
    cfg = read_checkpoint_config(ckdir)
    agents = build_agents_from_checkpoint(ckdir, cfg)
    if not any(a.uses_attention for a in agents):
        raise ConfigError("this checkpoint's agents produce no attention "
                          "maps; nothing to render")
    env_config = experiment_env_config(cfg)
    name = f"render_{os.path.basename(os.path.normpath(ckdir))}_s{args.seed}"
    outdir = resolve_output_dir(args.output_dir, None, name)
    os.makedirs(outdir, exist_ok=True)

    with OutputLock(outdir):
        manifest = Manifest(outdir, "render-attention", config_hash(cfg),
                            [args.seed])
        manifest.set("mutual_threshold", args.mutual_threshold)
        heat_dir = os.path.join(outdir, "heatmaps")
        os.makedirs(heat_dir, exist_ok=True)
        dump_path = os.path.join(outdir, "maps.jsonl")
        n_files = 0
        with open(dump_path, "w") as dump:
            t = 0
            # one greedy episode, the first that `eval` plays at this seed
            for st in lockstep_episodes(agents, cfg.env_kind,
                                        cfg.env_variant, env_config, 1,
                                        args.seed):
                step_maps = {k: m.mean_map[0] for k, m in st.maps.items()}
                dump.write(json.dumps(
                    {"t": t, "grid": st.grids[0].tolist()}) + "\n")
                for k, field in step_maps.items():
                    dump.write(json.dumps(
                        {"t": t, "agent": k, "map": field.tolist()}) + "\n")
                    _write_pgm(os.path.join(
                        heat_dir, f"t{t:04d}_agent{k}.pgm"), field)
                    n_files += 1
                dump.write(json.dumps(
                    {"t": t,
                     "mutual": mutual_cells(step_maps,
                                            args.mutual_threshold)}) + "\n")
                t += 1
        manifest.add("files", "maps.jsonl")
        manifest.add("files", "heatmaps")
        manifest.set("timesteps", t)
        manifest.set("heatmap_files", n_files)
    print(json.dumps({"output_dir": outdir, "timesteps": t,
                      "heatmaps": n_files}))
    return 0


def cmd_social(args) -> int:
    ckdir = resolve_checkpoint_dir(args.expert)
    expert_cfg = read_checkpoint_config(ckdir)
    n_agents = len(expert_cfg.population)
    if not 0 <= args.expert_index < n_agents:
        raise ConfigError(f"--expert-index must be in 0..{n_agents - 1} for "
                          f"this checkpoint, got {args.expert_index}")
    if expert_cfg.population[args.expert_index] == "independent_ppo":
        raise ConfigError(f"agent {args.expert_index} of the checkpoint is "
                          f"independent_ppo; a frozen expert needs attention")
    for flag, value in (("--novices", args.novices),
                        ("--max-env-steps", args.max_env_steps)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    # the one read of the checkpoint's vectors, before anything is written
    expert_agents = build_agents_from_checkpoint(ckdir, expert_cfg)
    expert_params = expert_agents[args.expert_index].core.flat
    outdir = resolve_output_dir(
        args.output_dir, None,
        f"social_{os.path.basename(os.path.normpath(ckdir))}_s{args.seed}")
    _prepare_outdir(outdir, False, "metrics_with_expert.jsonl")
    max_steps = args.max_env_steps or expert_cfg.max_env_steps or 150_000

    with OutputLock(outdir):
        manifest = Manifest(outdir, "social", config_hash(expert_cfg),
                            [args.seed])
        manifest.set("expert_checkpoint", os.path.abspath(ckdir))
        manifest.set("novices", args.novices)

        # gate: a weak expert makes the comparison meaningless
        env_config = experiment_env_config(expert_cfg)
        expert_eval = evaluate(expert_agents, expert_cfg.env_kind,
                               expert_cfg.env_variant, env_config,
                               episodes=10, seed=args.seed,
                               incentive=expert_cfg.incentive)
        below = expert_eval["success_rate"] < args.expert_threshold
        manifest.set("expert_success_rate", expert_eval["success_rate"])
        manifest.set("expert_below_threshold", bool(below))
        if below:
            print(f"warning: expert success rate "
                  f"{expert_eval['success_rate']:.2f} is below "
                  f"{args.expert_threshold:.2f}; proceeding anyway",
                  file=sys.stderr)

        results = {}
        for tag, params in (("with_expert", expert_params), ("alone", None)):
            trainer = social_learning_run(
                kind=expert_cfg.env_kind, n_novices=args.novices,
                expert_params=params, incentive=expert_cfg.incentive,
                ppo=expert_cfg.ppo, seed=args.seed,
                env_overrides=expert_cfg.env_overrides)
            rel = f"metrics_{tag}.jsonl"
            metrics = MetricsWriter(os.path.join(outdir, rel))
            manifest.add("metrics", rel)
            metrics.write(_start_record(expert_cfg, args.seed, arm=tag))
            try:
                summary = trainer.run(
                    max_env_steps=max_steps,
                    eval_interval=expert_cfg.eval_interval,
                    eval_episodes=expert_cfg.eval_episodes,
                    on_record=lambda r, _tag=tag, _m=metrics:
                        _m.write({**r, "arm": _tag}))
            finally:
                metrics.close()
            rel_ck = _save_checkpoint_dir(trainer, outdir, f"{tag}_final",
                                          expert_cfg, config_file=False)
            manifest.add("checkpoints", rel_ck)
            results[tag] = {"global_step": summary["global_step"],
                            "episodes": summary["episodes"],
                            "final_eval": summary["final_eval"]}
        manifest.set("results", results)
    print(json.dumps({"output_dir": outdir, **results}))
    return 0


def cmd_list_envs(args) -> int:
    for kind in ENV_KINDS:
        variants = [v for v, kinds in VARIANTS.items() if kind in kinds]
        cfg = make_config(kind)
        knobs = {"interior": cfg.interior, "agents": cfg.agent_count,
                 "episode_cap": cfg.episode_cap}
        if kind == "meetup":
            knobs["landmarks"] = cfg.landmarks
        elif kind == "colorgather":
            knobs["coin_colors"] = cfg.coin_colors
            knobs["coins_per_color"] = cfg.coins_per_color
        elif kind == "staghunt":
            knobs["berries"] = cfg.berries
            knobs["stags"] = cfg.stags
        elif kind == "tasklist":
            knobs["subtasks"] = cfg.tasklist_subtasks
        knob_txt = " ".join(f"{k}={v}" for k, v in knobs.items())
        print(f"{kind:>12}  variants: {', '.join(variants)}")
        print(f"{'':>12}  defaults: {knob_txt}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointattn",
        description="Train and inspect joint-attention gridworld agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training experiment")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--output-dir")
    p.add_argument("--resume", action="store_true",
                   help="continue from the directory's newest checkpoint")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint directory (or a run directory)")
    p.add_argument("--episodes", type=int,
                   help="episode count (default 10, or 30 with --generalize)")
    p.add_argument("--generalize", metavar="VARIANT",
                   help="evaluate across variants ('all' or one name)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render-attention",
                       help="export one episode's attention maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mutual-threshold", type=float, default=0.05)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_render_attention)

    p = sub.add_parser("social",
                       help="paired novice runs with/without a frozen expert")
    p.add_argument("--expert", required=True, help="expert checkpoint")
    p.add_argument("--expert-index", type=int, default=0,
                   help="which agent in the expert checkpoint to freeze")
    p.add_argument("--novices", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-env-steps", type=int)
    p.add_argument("--expert-threshold", type=float, default=0.9)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_social)

    p = sub.add_parser("list-envs", help="list kinds, variants, defaults")
    p.set_defaults(func=cmd_list_envs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
