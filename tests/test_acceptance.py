"""Acceptance suite: one test per numbered criterion, pass/fail per line.

Every expected value is produced by an independent oracle computed inline:
central finite differences (1), closed-form scalars (3, 4), exhaustive
enumeration of small grids (5), paired re-runs (6), instrumented counters
plus lane-zeroing (7), and byte-level re-derivation of exported files (10).
Criteria 8 and 9 are directional learning checks that take hours; they read
the run directories that ``python3 tests/acceptance_runs.py all`` writes
under .acceptance_cache/, and only run when ``JA_RUN_LONG_ACCEPTANCE=1`` is
set.
"""

import copy
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

import jointattn.numerics as nm
from jointattn.attention_net import AgentCore, pose_vector
from jointattn.cli import main as cli_main
from hand_laid import lay_out
from jointattn.gridworlds import (
    NOOP,
    OBJECT_IDS,
    PICKUP,
    DIR_VECTORS,
    consensus_landmark,
    make_config,
    reset,
    step,
)
from jointattn.ja_reward import (
    IncentiveConfig,
    beta_schedule,
    clipped_jsd,
    jsd,
    kl_divergence,
)
from jointattn.numerics import Tape, Tensor
from jointattn.training import (
    AgentSpec,
    EnvSet,
    PPOConfig,
    PopulationSpec,
    Trainer,
    build_population,
    collect_rollouts,
    compute_advantages,
    ppo_update,
)

OBJ = OBJECT_IDS
SEEDS_LONG = (11, 22, 33)
SUCCESS_THRESHOLD = 0.5          # "solved" bar for the reduced task course
LONG_TIER_HINT = ("long-running tier: produce the runs with "
                  "`python3 tests/acceptance_runs.py all` (hours), then run "
                  "pytest with JA_RUN_LONG_ACCEPTANCE=1")


# ---------------------------------------------------------------------------
# 1. gradients


def test_criterion_01_gradients_match_central_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(100):
        h = int(rng.integers(4, 7))
        w = int(rng.integers(4, 7))
        core = AgentCore(h, w,
                         conv_filters=int(rng.integers(3, 6)),
                         basis_depth=4,
                         num_heads=int(rng.integers(2, 4)),
                         head_depth=int(rng.integers(2, 4)),
                         cell_size=int(rng.integers(5, 9)),
                         seed=int(rng.integers(1 << 31)))
        obs = [rng.normal(size=(1, h, w, 3)) for _ in range(2)]
        poses = [pose_vector(int(rng.integers(1, w - 1)),
                             int(rng.integers(1, h - 1)),
                             int(rng.integers(4)))[None] for _ in range(2)]
        t_logits = [rng.normal(size=(1, 7)) for _ in range(2)]
        t_values = [rng.normal(size=(1,)) for _ in range(2)]

        def loss_scalar():
            # two chained steps so the recurrent path carries gradient
            state = core.initial_state(1)
            total = 0.0
            for i in range(2):
                lo, va, _, state = core.agent_step(
                    core.encode_features(obs[i]), poses[i], state)
                total += float(((lo.data - t_logits[i]) ** 2).mean())
                total += float(((va.data - t_values[i]) ** 2).mean())
            return total

        with Tape():
            state = core.initial_state(1)
            loss = None
            for i in range(2):
                lo, va, _, state = core.agent_step(
                    core.encode_features(obs[i]), poses[i], state)
                dl = nm.sub(lo, Tensor(t_logits[i]))
                dv = nm.sub(va, Tensor(t_values[i]))
                term = nm.scale(nm.sum_all(nm.mul(dl, dl)), 1.0 / 7) \
                    + nm.sum_all(nm.mul(dv, dv))
                loss = term if loss is None else loss + term
            nm.backward(loss)

        names = sorted(core.params)
        h_fd = 1e-5
        for _ in range(16):
            name = names[int(rng.integers(len(names)))]
            p = core.params[name]
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            i = int(rng.integers(flat.size))
            orig = flat[i]

            def central(step):
                flat[i] = orig + step
                fp = loss_scalar()
                flat[i] = orig - step
                fm = loss_scalar()
                flat[i] = orig
                return (fp - fm) / (2 * step)

            fd_wide = central(h_fd)
            fd = central(h_fd / 2)
            if abs(fd_wide - fd) > max(1e-4 * max(abs(fd_wide), abs(fd)),
                                       1e-7):
                # the two step sizes disagree: the perturbation straddles a
                # relu kink, where a difference quotient is not the slope
                continue
            g = gflat[i]
            scale = max(abs(fd), abs(g))
            if scale < 1e-5:
                # below the finite-difference noise floor: absolute check
                assert abs(fd - g) < 1e-6, f"{name}[{i}]: {g} vs fd {fd}"
                continue
            rel = abs(fd - g) / scale
            assert rel < 1e-4, f"{name}[{i}]: {g} vs fd {fd} (rel {rel:.2e})"
            checked += 1
        for p in core.params.values():
            p.zero_grad()
    assert checked >= 1000         # the relative check did real work
    assert time.monotonic() - t0 < 300


# ---------------------------------------------------------------------------
# 2. attention normalization


def test_criterion_02_attention_maps_normalized():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    calls = 0
    for n in range(10):
        h = int(rng.integers(4, 8))
        w = int(rng.integers(4, 8))
        core = AgentCore(h, w, conv_filters=4, basis_depth=4,
                         num_heads=int(rng.integers(2, 5)), head_depth=3,
                         cell_size=8, seed=300 + n)
        state = core.initial_state(1)
        for i in range(1000):
            if i % 100 == 0:
                state = core.initial_state(1)
            obs = rng.normal(size=(1, h, w, 3)) * 2.0
            pose = pose_vector(int(rng.integers(w)), int(rng.integers(h)),
                               int(rng.integers(4)))[None]
            _, _, maps, state = core.agent_step(
                core.encode_features(obs), pose, state)
            calls += 1
            per_head = maps.per_head          # (1, heads, h, w)
            head_sums = per_head.reshape(per_head.shape[1], -1).sum(axis=1)
            assert np.abs(head_sums - 1.0).max() < 1e-6
            assert per_head.min() > 0.0
            mean_sum = maps.mean_map.sum()
            assert abs(mean_sum - 1.0) < 1e-6
            assert maps.mean_map.min() > 0.0
    assert calls == 10_000
    assert time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# 3. divergences


def test_criterion_03_divergence_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    ln2 = math.log(2.0)

    def rand_field(shape, peak=False):
        x = rng.random(shape) + 1e-4
        if peak:
            x.reshape(-1)[int(rng.integers(x.size))] += 1e4
        return x / x.sum()

    for k in range(200):
        shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        p = rand_field(shape, peak=k % 3 == 0)
        q = rand_field(shape, peak=k % 3 == 1)
        assert abs(jsd(p, q) - jsd(q, p)) < 1e-12
        v = jsd(p, q)
        assert 0.0 <= v <= ln2 + 1e-12

    for _ in range(20):
        p = rand_field((int(rng.integers(2, 40)),))
        assert kl_divergence(p, p) == 0.0
        assert jsd(p, p) == 0.0

    # clipping with a threshold at or below the smallest logit changes nothing
    for _ in range(50):
        a = rng.normal(size=(4, 5)) * 2.0
        b = rng.normal(size=(4, 5)) * 2.0
        thr = min(a.min(), b.min()) - float(rng.random())

        def softmax(z):
            z = z - z.max()
            e = np.exp(z)
            return e / e.sum()

        assert abs(clipped_jsd(a, b, thr) - jsd(softmax(a), softmax(b))) < 1e-12

    # worked values, each against a closed-form scalar oracle; the quoted
    # five-decimal figures are matched to half an ulp of the rounding
    kl_oracle = 0.75 * math.log(0.75 / 0.5) + 0.25 * math.log(0.25 / 0.5)
    kl_got = kl_divergence([0.75, 0.25], [0.5, 0.5])
    assert abs(kl_got - kl_oracle) < 1e-6
    assert abs(kl_got - 0.13081) < 5e-6

    jsd_oracle = 0.5 * (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)) \
        + 0.5 * (0.1 * math.log(0.1 / 0.5) + 0.9 * math.log(0.9 / 0.5))
    jsd_got = jsd([0.9, 0.1], [0.1, 0.9])
    assert abs(jsd_got - jsd_oracle) < 1e-6
    assert abs(jsd_got - 0.36806) < 5e-6
    assert time.monotonic() - t0 < 60


# ---------------------------------------------------------------------------
# 4. bonus-weight curriculum


def test_criterion_04_beta_curriculum():
    cfg = IncentiveConfig()          # beta_max 1e-2 over 200_000 steps
    assert beta_schedule(0, cfg) == 0.0
    assert beta_schedule(200_000, cfg) == 1e-2

    rng = np.random.default_rng(404)
    # linear on the ramp: equals the line through the two endpoints
    for s in [int(v) for v in rng.integers(0, 200_001, size=500)]:
        expected = 1e-2 * (s / 200_000)
        assert abs(beta_schedule(s, cfg) - expected) < 1e-15
    # vanishing second difference on a uniform grid
    vals = np.array([beta_schedule(s, cfg) for s in range(0, 200_001, 1000)])
    assert np.abs(np.diff(vals, 2)).max() < 1e-12

    # nondecreasing over one million sampled steps
    samples = np.sort(rng.integers(0, 1_500_000, size=1_000_000)).tolist()
    curve = np.fromiter((beta_schedule(s, cfg) for s in samples),
                        dtype=np.float64, count=len(samples))
    assert (np.diff(curve) >= 0.0).all()
    assert curve[-1] <= cfg.beta_max


# ---------------------------------------------------------------------------
# 5. environment oracles


def _manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def test_criterion_05_environment_oracles():
    t0 = time.monotonic()

    # (a) consensus landmark and termination, every 5x5 state with 2 agents
    # and one or two landmarks, against exhaustive enumeration
    cells5 = [(x, y) for y in (1, 2, 3) for x in (1, 2, 3)]
    states_checked = 0
    for n_land in (1, 2):
        for lands in itertools.combinations(cells5, n_land):
            open_cells = [c for c in cells5 if c not in lands]
            for a0, a1 in itertools.permutations(open_cells, 2):
                s = lay_out("meetup", 3, [a0, a1],
                            [(lx, ly, "landmark", "red") for lx, ly in lands],
                            episode_cap=10, landmarks=n_land)

                best, best_d = None, None
                for lm in sorted(lands, key=lambda c: (c[1], c[0])):
                    d = _manhattan(a0, lm) + _manhattan(a1, lm)
                    if best_d is None or d < best_d:
                        best, best_d = lm, d
                assert consensus_landmark(s) == best

                expect_done = any(_manhattan(a0, lm) == 1
                                  and _manhattan(a1, lm) == 1
                                  for lm in lands)
                rewards, done = step(s, [(NOOP, NOOP)])
                assert done[0] == expect_done
                expect_r = 1.0 if expect_done else 0.0
                assert rewards[0].tolist() == [expect_r, expect_r]
                states_checked += 1
    assert states_checked == 2016

    # (b) stag capture: exactly +5 to both, and only with a second adjacent
    # agent, over every 4x4 configuration
    cells4 = [(x, y) for y in (1, 2) for x in (1, 2)]
    configs_checked = 0
    for stag in cells4:
        rest = [c for c in cells4 if c != stag]
        for a0, a1 in itertools.permutations(rest, 2):
            for d0, d1 in itertools.product(range(4), range(4)):
                for acts in ((PICKUP, NOOP), (NOOP, PICKUP),
                             (PICKUP, PICKUP), (NOOP, NOOP)):
                    s = lay_out("staghunt", 2, [(*a0, d0), (*a1, d1)],
                                [(*stag, "stag", "grey")], episode_cap=10,
                                berries=0, stags=1)

                    positions = (a0, a1)
                    directions = (d0, d1)
                    expect_capture = any(
                        acts[i] == PICKUP
                        and (positions[i][0] + DIR_VECTORS[directions[i]][0],
                             positions[i][1] + DIR_VECTORS[directions[i]][1])
                        == stag
                        and _manhattan(positions[1 - i], stag) == 1
                        for i in range(2))

                    rewards, _ = step(s, [acts])
                    if expect_capture:
                        assert rewards[0].tolist() == [5.0, 5.0]
                    else:
                        assert rewards[0].tolist() == [0.0, 0.0]
                    stags_left = int((s.cells[0, :, :, 0] == OBJ["stag"])
                                     .sum())
                    assert stags_left == (0 if expect_capture else 1)
                    assert int(s.stag_mask.sum()) == stags_left
                    configs_checked += 1
    assert configs_checked == 1536

    # (c) coin conservation across 10^4 random steps
    def coin_counts(st):
        mask = st.cells[0, :, :, 0] == OBJ["coin"]
        return np.bincount(st.cells[0, :, :, 1][mask], minlength=8)

    rng = np.random.default_rng(505)
    ep_seed = 9000
    state = reset("colorgather", seed=ep_seed)
    baseline = coin_counts(state)
    for _ in range(10_000):
        if state.done[0]:
            ep_seed += 1
            state = reset("colorgather", seed=ep_seed)
            baseline = coin_counts(state)
        acts = tuple(int(a) for a in rng.integers(0, 7, size=3))
        step(state, [acts])
        assert np.array_equal(coin_counts(state), baseline)

    # (d) cluttered wall budget: 10% of the open floor, within one cell
    for kind in ("meetup", "colorgather", "staghunt"):
        for seed in range(20):
            st = reset(kind, "cluttered", seed=5000 + seed)
            interior = st.cells[0, 1:-1, 1:-1, 0]
            walls = int((interior == OBJ["wall"]).sum())
            empty = int((interior == OBJ["empty"]).sum())
            assert abs(walls - 0.10 * (walls + empty)) <= 1.0
    assert time.monotonic() - t0 < 600


# ---------------------------------------------------------------------------
# 6. run determinism


def _metric_stream(kind, overrides, seed):
    ppo = PPOConfig(learning_rate=3e-4, segment_length=64, chunk_length=16,
                    batch_size=32, n_envs=4, epochs=1)
    pop = PopulationSpec([AgentSpec("joint_attention"),
                          AgentSpec("joint_attention")], IncentiveConfig())
    trainer = Trainer(kind, "default", pop, ppo, seed=seed,
                      env_overrides=overrides)
    records = []
    trainer.run(total_episodes=500, eval_interval=8192, eval_episodes=4,
                on_record=records.append)
    return records


def test_criterion_06_identical_runs_identical_metrics():
    t0 = time.monotonic()
    cases = {
        "meetup": {"interior": 5, "episode_cap": 40, "landmarks": 2},
        "colorgather": {"interior": 5, "episode_cap": 40, "coin_colors": 2,
                        "coins_per_color": 2},
        "staghunt": {"interior": 5, "episode_cap": 40, "berries": 2,
                     "stags": 1},
        "tasklist": {"interior": 5, "episode_cap": 40,
                     "tasklist_subtasks": 3},
    }
    for kind, overrides in cases.items():
        first = _metric_stream(kind, overrides, seed=6)
        second = _metric_stream(kind, overrides, seed=6)
        stream_a = [json.dumps(r, sort_keys=True) for r in first]
        stream_b = [json.dumps(r, sort_keys=True) for r in second]
        assert stream_a == stream_b, f"{kind}: metric streams diverge"
        assert first[-1]["episodes"] >= 500
    assert time.monotonic() - t0 < 1800


# ---------------------------------------------------------------------------
# 7. decentralization and no-rerun


def test_criterion_07_decentralized_updates_without_reruns():
    t0 = time.monotonic()
    ppo = PPOConfig(segment_length=32, chunk_length=8, batch_size=16,
                    n_envs=4, epochs=2)
    pop = PopulationSpec([AgentSpec("joint_attention"),
                          AgentSpec("joint_attention")], IncentiveConfig())
    cfg = make_config("meetup", interior=5, agent_count=2, episode_cap=30,
                      landmarks=2)
    envset = EnvSet("meetup", "default", cfg, ppo.n_envs, seed=901)
    agents = build_population(pop, 7, 7, ppo, seed=902)
    for a in agents:
        assert a.core.forward_calls == 0
    rec = [a.core.initial_state(ppo.n_envs) for a in agents]
    buf = collect_rollouts(envset, agents, pop.incentive, ppo, rec,
                           np.random.default_rng(903), 0)

    # the bonus block ran without a single extra network pass
    assert buf.no_rerun_forward_calls == 0
    for a in agents:
        assert a.core.forward_calls == ppo.segment_length + 1

    # zero every private lane of the other agent; agent 0 must not notice
    # (the observation lane is shared by every agent, like the bonus)
    buf_zeroed = copy.deepcopy(buf)
    other = 1
    for lane in (buf_zeroed.pose, buf_zeroed.actions,
                 buf_zeroed.log_probs, buf_zeroed.values, buf_zeroed.r_env,
                 buf_zeroed.h0, buf_zeroed.c0, buf_zeroed.bootstrap):
        lane[other][...] = 0
    buf_zeroed.fields[buf.map_agents.index(other)][...] = 0.0

    twins = build_population(pop, 7, 7, ppo, seed=902)
    for name, p in agents[0].core.params.items():
        assert np.array_equal(p.data, twins[0].core.params[name].data)

    compute_advantages(buf, agents, pop.incentive, ppo)
    compute_advantages(buf_zeroed, twins, pop.incentive, ppo)
    assert np.array_equal(buf.advantages[0], buf_zeroed.advantages[0])
    assert np.array_equal(buf.returns[0], buf_zeroed.returns[0])

    stats_a = ppo_update(agents[0], buf, 0, ppo, np.random.default_rng(904))
    stats_b = ppo_update(twins[0], buf_zeroed, 0, ppo,
                         np.random.default_rng(904))
    assert not stats_a["aborted"] and not stats_b["aborted"]
    assert stats_a == stats_b
    for name, p in agents[0].core.params.items():
        assert np.array_equal(p.data, twins[0].core.params[name].data), name
    assert time.monotonic() - t0 < 300


# ---------------------------------------------------------------------------
# 8 and 9: directional learning results from the long-tier run directories


def _long_tier_result(name, metrics="metrics.jsonl"):
    """The long-tier run ``name`` of ``acceptance_runs.CACHE_DIR``: its
    ``metrics`` records, its last step and, for a ``train`` run, its
    final_summary.json as ``final_eval``."""
    if os.environ.get("JA_RUN_LONG_ACCEPTANCE") != "1":
        pytest.skip(LONG_TIER_HINT)
    import acceptance_runs
    outdir = os.path.join(acceptance_runs.CACHE_DIR, name)
    if not acceptance_runs.run_complete(outdir):
        pytest.skip(f"no complete run {name!r}; " + LONG_TIER_HINT)
    with open(os.path.join(outdir, metrics)) as f:
        records = [json.loads(line) for line in f]
    result = {"records": records, "global_step": records[-1]["global_step"]}
    summary = os.path.join(outdir, "final_summary.json")
    if os.path.isfile(summary):
        with open(summary) as f:
            result["final_eval"] = json.load(f)
    return result


def _best_success(result):
    evals = [r["success_rate"] for r in result["records"]
             if r["event"] in ("eval", "final_eval")
             and r.get("success_rate") is not None]
    return max(evals) if evals else 0.0


def test_criterion_08_meetup_learning_and_ordering():
    runs = {arm: [_long_tier_result(f"meetup_{arm}_s{s}") for s in SEEDS_LONG]
            for arm in ("joint_attention", "attention_only",
                        "independent_ppo")}
    for results in runs.values():
        for r in results:
            assert r["global_step"] <= 200_000

    # (a) the full incentive arm reaches strong evaluation success
    ja_success = float(np.mean([_best_success(r)
                                for r in runs["joint_attention"]]))
    assert ja_success >= 0.8

    # (b) final collective reward orders across arms on the seed mean
    final_reward = {
        arm: float(np.mean([r["final_eval"]["mean_collective_reward"]
                            for r in results]))
        for arm, results in runs.items()}
    assert final_reward["joint_attention"] >= \
        final_reward["attention_only"] - 1e-9
    assert final_reward["attention_only"] >= \
        final_reward["independent_ppo"] - 1e-9

    # (c) the incentive leaves the attention maps more aligned at the end
    def mean_jsd(arm):
        return float(np.mean([r["final_eval"]["mean_pairwise_jsd"]
                              for r in runs[arm]]))
    assert mean_jsd("joint_attention") < mean_jsd("attention_only")


def steps_to_threshold(result: dict, threshold: float) -> int:
    """First global_step whose evaluation success meets the threshold;
    censored at the arm's final step count if it never does."""
    for rec in result["records"]:
        if rec["event"] in ("eval", "final_eval") \
                and rec.get("success_rate") is not None \
                and rec["success_rate"] >= threshold:
            return rec["global_step"]
    return result["global_step"]


def test_criterion_09_social_learning_speedup():
    with_expert, alone = [], []
    for s in SEEDS_LONG:
        paired = _long_tier_result(f"social_s{s}", "metrics_with_expert.jsonl")
        solo = _long_tier_result(f"social_s{s}", "metrics_alone.jsonl")
        with_expert.append(steps_to_threshold(paired, SUCCESS_THRESHOLD))
        alone.append(steps_to_threshold(solo, SUCCESS_THRESHOLD))
    assert float(np.mean(with_expert)) < float(np.mean(alone)), \
        f"steps with expert {with_expert} vs alone {alone}"


# ---------------------------------------------------------------------------
# 10. renderer


RENDER_CFG = """\
env.kind = meetup
env.interior = 5
env.episode_cap = 8
population.variants = joint_attention, joint_attention
ppo.segment_length = 8
ppo.chunk_length = 4
ppo.batch_size = 8
ppo.n_envs = 2
ppo.epochs = 1
run.eval_interval = 50
run.eval_episodes = 2
run.max_env_steps = 16
"""


def test_criterion_10_renderer_reconstruction(tmp_path):
    t0 = time.monotonic()
    cfg_path = tmp_path / "render.cfg"
    cfg_path.write_text(RENDER_CFG)
    run_dir = tmp_path / "run"
    assert cli_main(["train", "--config", str(cfg_path), "--seed", "5",
                     "--output-dir", str(run_dir)]) == 0
    out = tmp_path / "maps"
    threshold = 0.02
    assert cli_main(["render-attention", "--checkpoint", str(run_dir),
                     "--seed", "2", "--mutual-threshold", str(threshold),
                     "--output-dir", str(out)]) == 0

    maps, mutual = {}, {}
    for line in (out / "maps.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if "map" in rec:
            maps[(rec["t"], rec["agent"])] = np.asarray(rec["map"])
        elif "mutual" in rec:
            mutual[rec["t"]] = rec["mutual"]
    assert maps and mutual

    # every exported heatmap reproduces bit-for-bit from the dumped field,
    # row sums included
    for (t, k), field in maps.items():
        pgm = out / "heatmaps" / f"t{t:04d}_agent{k}.pgm"
        tokens = pgm.read_text().split()
        assert tokens[0] == "P2"
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        assert (h, w) == field.shape and maxval == 65535
        pixels = np.asarray([int(v) for v in tokens[4:]]).reshape(h, w)
        expected = np.rint(field * (65535.0 / field.max())).astype(int)
        assert np.array_equal(pixels, expected)
        assert np.array_equal(pixels.sum(axis=1), expected.sum(axis=1))

    # mutual-attention flags equal a brute-force scan of the dumped maps
    agent_ids = sorted({k for (_, k) in maps})
    for t, flagged in mutual.items():
        fields = [maps[(t, k)] for k in agent_ids]
        expect = [(x, y)
                  for y in range(fields[0].shape[0])
                  for x in range(fields[0].shape[1])
                  if all(f[y, x] > threshold for f in fields)]
        assert sorted(map(tuple, flagged)) == sorted(expect)
    assert time.monotonic() - t0 < 60
