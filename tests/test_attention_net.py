"""Attention-agent tests: basis values, map normalization, head separation,
and gradient flow, each against direct scalar oracles where a value is
asserted."""

import copy
import math

import numpy as np
import pytest

import jointattn.numerics as nm
from jointattn.attention_net import (
    AgentCore,
    RecurrentState,
    act,
    build_spatial_basis,
    pose_vector,
)
from jointattn.numerics import Tape, Tensor, backward


class TestSpatialBasis:
    def test_x_zero_columns(self):
        basis = build_spatial_basis(5, 6, 8)
        # column 0: every x-sin channel 0, every x-cos channel 1
        assert np.array_equal(basis[:, 0, 0], np.zeros(5))
        assert np.array_equal(basis[:, 0, 2], np.zeros(5))
        assert np.array_equal(basis[:, 0, 1], np.ones(5))
        assert np.array_equal(basis[:, 0, 3], np.ones(5))

    def test_y_zero_rows(self):
        basis = build_spatial_basis(5, 6, 8)
        assert np.array_equal(basis[0, :, 4], np.zeros(6))
        assert np.array_equal(basis[0, :, 6], np.zeros(6))
        assert np.array_equal(basis[0, :, 5], np.ones(6))
        assert np.array_equal(basis[0, :, 7], np.ones(6))

    def test_first_frequency_at_x_ten(self):
        # i = 1: divisor 100**(4/8) = 10, so x = 10 -> sin(1)
        basis = build_spatial_basis(3, 12, 8)
        assert abs(basis[0, 10, 0] - math.sin(1.0)) < 1e-12
        assert abs(basis[0, 10, 0] - 0.84147) < 1e-5

    def test_second_frequency_at_y_fifty(self):
        # i = 2: divisor 100**1 = 100, so y = 50 -> sin(0.5)
        basis = build_spatial_basis(60, 3, 8)
        assert abs(basis[50, 0, 4 + 2] - math.sin(0.5)) < 1e-12
        assert abs(basis[50, 0, 6] - 0.47943) < 1e-5

    def test_matches_scalar_formula_everywhere(self):
        h, w, c_s = 7, 9, 8
        basis = build_spatial_basis(h, w, c_s)
        for r in range(h):
            for c in range(w):
                for i in range(1, c_s // 4 + 1):
                    div = 100.0 ** (4.0 * i / c_s)
                    off = 2 * (i - 1)
                    assert abs(basis[r, c, off] - math.sin(c / div)) < 1e-12
                    assert abs(basis[r, c, off + 1] - math.cos(c / div)) < 1e-12
                    half = c_s // 2
                    assert abs(basis[r, c, half + off] - math.sin(r / div)) < 1e-12
                    assert abs(basis[r, c, half + off + 1] - math.cos(r / div)) < 1e-12

    def test_bounded_and_deterministic(self):
        a = build_spatial_basis(11, 13, 8)
        b = build_spatial_basis(11, 13, 8)
        assert np.array_equal(a, b)
        assert a.min() >= -1.0 and a.max() <= 1.0

    def test_depth_not_divisible_by_four_raises(self):
        with pytest.raises(ValueError):
            build_spatial_basis(4, 4, 6)


class TestEncodeFeatures:
    def test_zero_obs_zero_bias_leaves_basis(self):
        core = AgentCore(4, 5, seed=0)
        core.params["conv/b"].data[:] = 0.0
        out = core.encode_features(np.zeros((2, 4, 5, 3))).data
        assert out.shape == (2, 4, 5, 73)
        assert np.array_equal(out[..., :64], np.zeros((2, 4, 5, 64)))
        assert np.array_equal(out[0, ..., 64:], core.basis)
        assert np.array_equal(out[1, ..., 64:], core.basis)
        # the spatial basis, then the ones channel of the affine keys and
        # values
        assert np.array_equal(core.basis[..., :8], build_spatial_basis(4, 5, 8))
        assert np.array_equal(core.basis[..., 8], np.ones((4, 5)))

    def test_channel_count_with_defaults(self):
        core = AgentCore(6, 6, seed=1)
        out = core.encode_features(np.zeros((1, 6, 6, 3))).data
        assert out.shape[-1] == 64 + 8 + 1

    def test_basis_channels_constant_across_inputs(self):
        core = AgentCore(5, 5, seed=2)
        rng = np.random.default_rng(3)
        slabs = [core.encode_features(rng.normal(size=(2, 5, 5, 3))).data[..., 64:]
                 for _ in range(4)]
        for s in slabs[1:]:
            assert np.array_equal(s, slabs[0])
        assert np.array_equal(slabs[0][0], slabs[0][1])

    def test_wrong_spatial_size_raises(self):
        core = AgentCore(5, 5, seed=0)
        with pytest.raises(nm.ShapeError):
            core.encode_features(np.zeros((1, 4, 5, 3)))
        with pytest.raises(nm.ShapeError):
            core.encode_features(np.zeros((5, 5, 3)))       # unbatched


def with_ones(features):
    """Features as ``encode_features`` gives them: a last channel of ones."""
    return np.concatenate([features, np.ones(features.shape[:-1] + (1,))],
                          axis=-1)


class TestComputeAttention:
    def _tiny_core(self):
        # one head of depth 1 over a 1x2 grid; basis disabled so the
        # key/value layers see exactly the 2 feature channels we control
        # (and the ones channel)
        core = AgentCore(1, 2, conv_filters=2, basis_depth=0, num_heads=1,
                         head_depth=1, cell_size=4, seed=0)
        return core

    def test_worked_two_cell_example(self):
        core = self._tiny_core()
        core.params["keys/w"].data[:] = [[math.log(1.0)], [math.log(3.0)]]
        core.params["keys/b"].data[:] = 0.0
        core.params["values/w"].data[:] = [[2.0], [4.0]]
        core.params["values/b"].data[:] = 0.0
        features = with_ones(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))  # one-hot
        maps, out = core.compute_attention(features, np.array([[[1.0]]]))
        assert np.allclose(maps.per_head[0, 0].reshape(-1), [0.25, 0.75], atol=1e-12)
        assert abs(out.data[0, 0, 0] - 3.5) < 1e-12

    def test_zero_query_uniform_and_mean_value(self):
        core = AgentCore(3, 4, seed=5)
        rng = np.random.default_rng(6)
        features = rng.normal(size=(1, 3, 4, 72))
        maps, out = core.compute_attention(with_ones(features),
                                           np.zeros((1, 4, 16)))
        assert np.allclose(maps.per_head, 1.0 / 12.0, atol=1e-12)
        # oracle: values via direct affine evaluation, then their spatial mean
        vw = core.params["values/w"].data
        vb = core.params["values/b"].data
        values = (features.reshape(12, 72) @ vw + vb).reshape(12, 4, 16)
        assert np.allclose(out.data[0], values.mean(axis=0), atol=1e-10)

    def test_single_cell_grid(self):
        core = AgentCore(1, 1, seed=7)
        rng = np.random.default_rng(8)
        features = rng.normal(size=(1, 1, 1, 72))
        maps, out = core.compute_attention(with_ones(features),
                                           rng.normal(size=(1, 4, 16)))
        assert np.allclose(maps.per_head, 1.0, atol=1e-12)
        vw = core.params["values/w"].data
        vb = core.params["values/b"].data
        values = (features.reshape(1, 72) @ vw + vb).reshape(1, 4, 16)
        assert np.allclose(out.data, values, atol=1e-10)

    def test_map_normalization_random(self):
        core = AgentCore(4, 5, seed=9)
        rng = np.random.default_rng(10)
        features = with_ones(rng.normal(size=(6, 4, 5, 72)))
        maps, _ = core.compute_attention(features, rng.normal(size=(6, 4, 16)))
        sums = maps.per_head.reshape(6, 4, -1).sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6
        assert maps.per_head.min() > 0.0
        mean_sums = maps.mean_map.reshape(6, -1).sum(axis=-1)
        assert np.max(np.abs(mean_sums - 1.0)) < 1e-6

    def test_unbatched_inputs_raise(self):
        core = AgentCore(3, 3, seed=9)
        rng = np.random.default_rng(11)
        with pytest.raises(nm.ShapeError):
            core.compute_attention(rng.normal(size=(3, 3, 73)),
                                   rng.normal(size=(4, 16)))
        with pytest.raises(nm.ShapeError):
            core.query_from_state(np.zeros(64))


class TestQueryFromState:
    def test_zero_parameters_give_uniform_attention(self):
        core = AgentCore(3, 3, seed=11)
        core.params["query/w"].data[:] = 0.0
        core.params["query/b"].data[:] = 0.0
        q = core.query_from_state(np.zeros((1, 64)))
        assert np.array_equal(q.data, np.zeros((1, 4, 16)))
        rng = np.random.default_rng(12)
        maps, _ = core.compute_attention(
            with_ones(rng.normal(size=(1, 3, 3, 72))), q)
        assert np.allclose(maps.per_head, 1.0 / 9.0, atol=1e-12)

    def test_repeated_calls_identical(self):
        core = AgentCore(3, 3, seed=13)
        h = np.random.default_rng(14).normal(size=(1, 64))
        a = core.query_from_state(h).data
        b = core.query_from_state(h).data
        assert np.array_equal(a, b)

    def test_matches_affine_oracle(self):
        core = AgentCore(3, 3, seed=15)
        h = np.random.default_rng(16).normal(size=(1, 64))
        q = core.query_from_state(h).data
        ref = (h @ core.params["query/w"].data + core.params["query/b"].data)
        assert np.allclose(q, ref.reshape(1, 4, 16), atol=1e-12)


class TestAgentStep:
    def _batch_inputs(self, core, rng, batch):
        obs = rng.normal(size=(batch, core.height, core.width, 3))
        poses = np.stack([pose_vector(rng.integers(core.width),
                                      rng.integers(core.height),
                                      rng.integers(4)) for _ in range(batch)])
        return obs, poses

    def test_maps_depend_on_previous_state(self):
        core = AgentCore(4, 4, seed=17)
        rng = np.random.default_rng(18)
        obs, poses = self._batch_inputs(core, rng, 1)
        s1 = core.initial_state(1)
        s2 = core.initial_state(1)
        s2.h = rng.normal(size=(1, 64))
        _, _, m1, _ = core.agent_step(obs, poses, s1)
        _, _, m2, _ = core.agent_step(obs, poses, s2)
        assert not np.allclose(m1.per_head, m2.per_head)

    def test_head_sums_on_random_inputs(self):
        core = AgentCore(5, 5, seed=19)
        rng = np.random.default_rng(20)
        obs, poses = self._batch_inputs(core, rng, 1000)
        _, _, maps, _ = core.agent_step(obs, poses, core.initial_state(1000))
        sums = maps.per_head.reshape(1000, 4, -1).sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-6
        assert maps.per_head.min() > 0.0

    def test_attention_off_pools_and_returns_no_maps(self):
        core = AgentCore(4, 4, use_attention=False, seed=21)
        assert "keys/w" not in core.params
        assert "query/w" not in core.params
        rng = np.random.default_rng(22)
        obs, poses = self._batch_inputs(core, rng, 3)
        logits, value, maps, state = core.agent_step(obs, poses, core.initial_state(3))
        assert maps is None
        assert logits.shape == (3, 7)
        assert value.shape == (3,)
        assert state.h.shape == (3, 64)

    def test_forward_counter_increments(self):
        core = AgentCore(3, 3, seed=23)
        rng = np.random.default_rng(24)
        obs, poses = self._batch_inputs(core, rng, 2)
        start = core.forward_calls
        core.agent_step(obs, poses, core.initial_state(2))
        core.agent_step(obs, poses, core.initial_state(2))
        assert core.forward_calls == start + 2

    def test_replay_with_recorded_states_reproduces_maps(self):
        core = AgentCore(4, 4, seed=25)
        rng = np.random.default_rng(26)
        state = core.initial_state(2)
        recorded = []
        for _ in range(5):
            obs, poses = self._batch_inputs(core, rng, 2)
            snap = state.detach()
            _, _, maps, state = core.agent_step(obs, poses, state)
            state = state.detach()
            recorded.append((obs, poses, snap, maps.per_head.copy()))
        for obs, poses, snap, expected in recorded:
            _, _, maps, _ = core.agent_step(obs, poses, snap)
            assert np.array_equal(maps.per_head, expected)


class TestUnroll:
    """One T-step ``agent_step``, the replay's unroll of a stored chunk,
    against T chained T = 1 calls."""

    T, B = 5, 3

    def _inputs(self, core, seed):
        rng = np.random.default_rng(seed)
        obs = rng.normal(size=(self.T, self.B, core.height, core.width, 3))
        poses = np.stack([np.stack([pose_vector(rng.integers(core.width),
                                                rng.integers(core.height),
                                                rng.integers(4))
                                    for _ in range(self.B)])
                          for _ in range(self.T)])
        resets = np.zeros((self.T, self.B), dtype=bool)
        resets[2, 1] = True                       # an episode starts mid-chunk
        resets[0, 0] = True                       # ignored at t = 0
        h0 = rng.normal(size=(self.B, core.cell_size)) * 0.5
        c0 = rng.normal(size=(self.B, core.cell_size)) * 0.5
        w_logits = rng.normal(size=(self.T * self.B, core.num_actions))
        w_values = rng.normal(size=self.T * self.B)
        return obs, poses, resets, h0, c0, w_logits, w_values

    def _flat(self, obs, poses):
        """The (T*B, ...) time-major frames and poses of one T-step call."""
        return obs.reshape((-1,) + obs.shape[2:]), poses.reshape(-1, 6)

    def _loss(self, logits, values, w_logits, w_values):
        return nm.add(nm.sum_all(nm.mul(logits, Tensor(w_logits))),
                      nm.sum_all(nm.mul(values, Tensor(w_values))))

    def _grads(self, core):
        grads = {n: p.grad.copy() for n, p in core.params.items()}
        for p in core.params.values():
            p.zero_grad()
        return grads

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_matches_chained_agent_steps(self, use_attention):
        core = AgentCore(4, 5, conv_filters=6, basis_depth=4, num_heads=2,
                         head_depth=3, cell_size=8,
                         use_attention=use_attention, seed=41)
        obs, poses, resets, h0, c0, w_l, w_v = self._inputs(core, 42)

        with Tape():
            state = RecurrentState(Tensor(h0), Tensor(c0))
            logits, values, loss = [], [], None
            for t in range(self.T):
                if t > 0 and resets[t].any():
                    keep = Tensor(np.repeat((1.0 - resets[t])[:, None],
                                            core.cell_size, axis=1))
                    state = RecurrentState(nm.mul(state.h, keep),
                                           nm.mul(state.c, keep))
                lo, va, _, state = core.agent_step(obs[t], poses[t], state)
                rows = slice(t * self.B, (t + 1) * self.B)
                term = self._loss(lo, va, w_l[rows], w_v[rows])
                loss = term if loss is None else nm.add(loss, term)
                logits.append(lo.data)
                values.append(va.data)
        backward(loss)
        ref_logits = np.concatenate(logits)
        ref_values = np.concatenate(values)
        ref_state = (state.h.data, state.c.data)
        ref_grads = self._grads(core)

        calls = core.forward_calls
        with Tape():
            got_logits, got_values, _, got_state = core.agent_step(
                *self._flat(obs, poses), RecurrentState(h0, c0), resets)
            loss = self._loss(got_logits, got_values, w_l, w_v)
        backward(loss)
        got_grads = self._grads(core)

        assert core.forward_calls == calls + 1    # one pass for the chunk
        assert np.max(np.abs(got_logits.data - ref_logits)) <= 1e-12
        assert np.max(np.abs(got_values.data - ref_values)) <= 1e-12
        for got, ref in zip((got_state.h, got_state.c), ref_state):
            assert np.max(np.abs(got - ref)) <= 1e-12
        assert got_grads.keys() == ref_grads.keys() == core.params.keys()
        overall = max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, ref in ref_grads.items():
            if name == "keys/b":
                # bk_m . q_m shifts all of head m's logits alike, which the
                # softmax ignores: the exact gradient is zero, both are noise
                assert np.max(np.abs(ref)) <= 1e-14 * overall
                assert np.max(np.abs(got_grads[name])) <= 1e-14 * overall
                continue
            scale = np.max(np.abs(ref))
            assert scale > 0.0, name
            assert np.max(np.abs(got_grads[name] - ref)) <= 1e-10 * scale, name

    def test_reset_cuts_the_state(self):
        core = AgentCore(4, 4, conv_filters=4, basis_depth=4, num_heads=2,
                         head_depth=2, cell_size=6, seed=43)
        obs, poses, resets, h0, c0, _, _ = self._inputs(core, 44)
        frames = self._flat(obs, poses)
        a_logits, _, _, _ = core.agent_step(*frames, RecurrentState(h0, c0),
                                            resets)
        b_logits, _, _, _ = core.agent_step(
            *frames, RecurrentState(-h0, c0 * 3.0), resets)
        a = a_logits.data.reshape(self.T, self.B, -1)
        b = b_logits.data.reshape(self.T, self.B, -1)
        # after the reset at t = 2, sequence 1 no longer sees its start state
        assert np.array_equal(a[2:, 1], b[2:, 1])
        assert not np.allclose(a[:2, 1], b[:2, 1])
        assert not np.allclose(a[:, 0], b[:, 0])

    def test_bad_shapes_raise(self):
        core = AgentCore(4, 4, conv_filters=4, basis_depth=4, num_heads=2,
                         head_depth=2, cell_size=6, seed=43)
        obs, poses, resets, h0, c0, _, _ = self._inputs(core, 44)
        obs, poses = self._flat(obs, poses)
        state = RecurrentState(h0, c0)
        bad = [(obs[:-1], poses[:-1], None),      # frames not a multiple of B
               (obs, poses[:-1], resets),         # not one pose per frame
               (obs, poses, resets[:-1]),         # resets not (T, B)
               (obs, poses, resets.T)]
        for o, p, r in bad:
            with pytest.raises(nm.ShapeError):
                core.agent_step(o, p, state, r)

    def test_colorgather_minibatch_lends_no_feature_gradient(self):
        # train_colorgather_wide's minibatch: 16 chunks of 8 steps on 10x10
        # grids with the default network; the feature gradient goes over
        # the feature map, so the pool lends no array for it
        from jointattn.numerics import tensor
        core = AgentCore(10, 10, seed=45)
        T, B = 8, 16
        rng = np.random.default_rng(46)
        obs = rng.uniform(size=(T * B, 10, 10, 3))
        poses = rng.normal(size=(T * B, 6))
        with Tape():
            logits, values, _, _ = core.agent_step(
                obs, poses, core.initial_state(B),
                np.zeros((T, B), dtype=bool))
            loss = self._loss(logits, values,
                              rng.normal(size=(T * B, core.num_actions)),
                              rng.normal(size=T * B))
        backward(loss)
        # keys/b adds the same logit at every position of a head, which the
        # softmax cancels: its gradient is zero in exact arithmetic
        for name, p in core.params.items():
            assert name == "keys/b" or np.abs(p.grad).max() > 0.0, name
        assert tensor._POOL["frame_features.out"][0].shape == \
            (T * B, 10, 10, 64 + 8 + 1)
        assert "attention_lstm.feature_grad" not in tensor._POOL


class TestHeadSeparation:
    def test_value_perturbation_leaves_logits(self):
        core = AgentCore(4, 4, seed=27)
        rng = np.random.default_rng(28)
        obs = rng.normal(size=(2, 4, 4, 3))
        poses = np.stack([pose_vector(1, 2, 0), pose_vector(3, 0, 2)])
        logits0, value0, _, _ = core.agent_step(obs, poses, core.initial_state(2))
        for name in ("value/w1", "value/b2", "value/out_w", "value/out_b"):
            core.params[name].data += 0.37
        logits1, value1, _, _ = core.agent_step(obs, poses, core.initial_state(2))
        assert np.array_equal(logits0.data, logits1.data)
        assert not np.array_equal(value0.data, value1.data)

    def test_policy_perturbation_leaves_value(self):
        core = AgentCore(4, 4, seed=29)
        rng = np.random.default_rng(30)
        obs = rng.normal(size=(1, 4, 4, 3))
        poses = pose_vector(0, 0, 1)[None]
        logits0, value0, _, _ = core.agent_step(obs, poses, core.initial_state(1))
        core.params["policy/out_w"].data += 1.0
        logits1, value1, _, _ = core.agent_step(obs, poses, core.initial_state(1))
        assert np.array_equal(value0.data, value1.data)
        assert not np.array_equal(logits0.data, logits1.data)

    def test_no_shared_parameters_between_heads(self):
        core = AgentCore(3, 3, seed=31)
        policy = {k for k in core.params if k.startswith("policy/")}
        value = {k for k in core.params if k.startswith("value/")}
        assert policy and value and not (policy & value)


class TestAffineViews:
    """Each affine layer's [W; b] matrix is one view into the flat vectors,
    the weight's rows and then the bias row."""

    LAYERS = {"conv": ("conv/k", "conv/b"), "keys": ("keys/w", "keys/b"),
              "values": ("values/w", "values/b"),
              "query": ("query/w", "query/b"), "lstm": ("lstm/w", "lstm/b")}

    def _assert_aliased(self, core):
        expected = set(self.LAYERS) if core.use_attention else {"conv", "lstm"}
        assert set(core.affine) == expected
        for layer, t in core.affine.items():
            w_name, b_name = self.LAYERS[layer]
            for vec, attr in ((core.flat, "data"), (core.grad, "grad")):
                wb = getattr(t, attr)
                w = getattr(core.params[w_name], attr)
                b = getattr(core.params[b_name], attr)
                assert wb.shape == (w.size // b.size + 1, b.size), layer
                assert wb.base is vec, (layer, attr)
                assert wb.__array_interface__["data"][0] == \
                    w.__array_interface__["data"][0], (layer, attr)
                assert np.array_equal(wb[:-1], w.reshape(-1, b.size))
                assert np.array_equal(wb[-1], b)
                # a write through the view lands in the parameter's cells
                wb[-1, 0] += 1.5
                assert b[0] == wb[-1, 0]
                wb[-1, 0] -= 1.5

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_views_alias_flat_and_grad(self, use_attention):
        core = AgentCore(4, 5, use_attention=use_attention, seed=47)
        self._assert_aliased(core)

    def test_copy_binds_its_own_views(self):
        core = AgentCore(4, 5, seed=48)
        twin = copy.deepcopy(core)
        self._assert_aliased(twin)
        for layer, t in twin.affine.items():
            assert not np.shares_memory(t.data, core.flat), layer
            assert not np.shares_memory(t.grad, core.grad), layer
        # and the copy's gradients reach the copy's vector only
        rng = np.random.default_rng(49)
        obs = rng.normal(size=(2, 4, 5, 3))
        poses = rng.normal(size=(2, 6))
        with Tape():
            logits, _, _, _ = twin.agent_step(obs, poses, twin.initial_state(2))
            loss = nm.sum_all(nm.mul(logits, logits))
        backward(loss)
        assert twin.grad.any() and not core.grad.any()

    def test_non_attention_arm_has_no_ones_channel(self):
        core = AgentCore(4, 5, use_attention=False, seed=50)
        assert core.basis.shape == (4, 5, 0)
        assert core.params["lstm/w"].shape == (64 + 5 + 64, 256)
        rng = np.random.default_rng(51)
        obs = rng.normal(size=(3, 4, 5, 3))
        poses = rng.normal(size=(3, 6))
        features, frame_in = core.encode(Tensor(obs), Tensor(poses))
        assert features is None
        # the pooled conv features, then the embedded pose, as the
        # composed ops give them
        conv = nm.relu(nm.conv2d(Tensor(obs), core.params["conv/k"],
                                 core.params["conv/b"]))
        assert core.encode_features(obs).shape == (3, 4, 5, 64)
        assert np.array_equal(frame_in.data[:, :64],
                              nm.spatial_mean(conv).data)
        assert np.array_equal(frame_in.data[:, 64:], nm.dense(
            Tensor(poses), core.params["embed/w"], core.params["embed/b"]).data)

    def test_key_bias_gradient_is_roundoff(self):
        # keys/b adds bk_m . q_m to every logit of head m, and the softmax
        # over positions is shift-invariant: the exact gradient is zero,
        # what the bias row of the key gradient holds is roundoff
        core = AgentCore(5, 5, seed=52)
        rng = np.random.default_rng(53)
        T, B = 4, 3
        with Tape():
            logits, values, _, _ = core.agent_step(
                rng.uniform(size=(T * B, 5, 5, 3)),
                rng.normal(size=(T * B, 6)),
                RecurrentState(rng.normal(size=(B, 64)),
                               rng.normal(size=(B, 64))),
                np.zeros((T, B), dtype=bool))
            loss = nm.add(nm.sum_all(nm.mul(logits, logits)),
                          nm.sum_all(nm.mul(values, values)))
        backward(loss)
        key_grad = core.affine["keys"].grad
        assert np.array_equal(key_grad[-1], core.params["keys/b"].grad)
        overall = np.abs(core.grad).max()
        assert np.abs(key_grad[:-1]).max() > 1e-6 * overall
        assert np.abs(key_grad[-1]).max() <= 1e-14 * overall


class TestGradientFlow:
    def test_logit_loss_reaches_attention_parameters(self):
        core = AgentCore(3, 3, conv_filters=6, basis_depth=4, num_heads=2,
                         head_depth=3, cell_size=8, seed=33)
        rng = np.random.default_rng(34)
        obs = rng.normal(size=(2, 3, 3, 3))
        poses = np.stack([pose_vector(0, 1, 2), pose_vector(2, 2, 3)])
        state = core.initial_state(2)
        state.h = rng.normal(size=(2, 8)) * 0.1
        with Tape():
            logits, _, _, _ = core.agent_step(obs, poses, state)
            loss = nm.scale(nm.sum_all(nm.mul(logits, logits)), 1.0 / 14)
        backward(loss)
        for name in ("conv/k", "keys/w", "values/w", "query/w", "lstm/w",
                     "policy/w1"):
            g = core.params[name].grad
            assert g is not None
            assert np.abs(g).max() > 0.0, f"zero gradient for {name}"

    def test_logit_gradients_match_finite_differences(self):
        core = AgentCore(3, 3, conv_filters=4, basis_depth=4, num_heads=2,
                         head_depth=2, cell_size=6, seed=35)
        rng = np.random.default_rng(36)
        obs = rng.normal(size=(1, 3, 3, 3))
        poses = pose_vector(1, 1, 0)[None]
        h0 = rng.normal(size=(1, 6)) * 0.2
        c0 = rng.normal(size=(1, 6)) * 0.2
        target = rng.normal(size=(1, 7))

        def loss_value():
            state = AgentCore.initial_state(core, 1)
            state.h, state.c = h0.copy(), c0.copy()
            logits, _, _, _ = core.agent_step(obs, poses, state)
            diff = logits.data - target
            return float((diff * diff).mean())

        state = core.initial_state(1)
        state.h, state.c = h0.copy(), c0.copy()
        with Tape():
            logits, _, _, _ = core.agent_step(obs, poses, state)
            diff = nm.sub(logits, Tensor(target))
            loss = nm.scale(nm.sum_all(nm.mul(diff, diff)), 1.0 / 7)
        backward(loss)

        step = 1e-4
        for name in ("conv/k", "conv/b", "keys/w", "values/w", "values/b",
                     "query/w", "query/b", "embed/w", "lstm/w", "lstm/b",
                     "policy/out_w"):
            data = core.params[name].data
            grad = core.params[name].grad
            flat = data.reshape(-1)
            gflat = grad.reshape(-1)
            idx = np.random.default_rng(37).choice(flat.size,
                                                   size=min(12, flat.size),
                                                   replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + step
                fp = loss_value()
                flat[i] = orig - step
                fm = loss_value()
                flat[i] = orig
                numeric = (fp - fm) / (2 * step)
                if abs(numeric) < 1e-7 and abs(gflat[i]) < 1e-7:
                    continue
                rel = abs(numeric - gflat[i]) / (abs(numeric) + abs(gflat[i]))
                assert rel < 1e-4, f"{name}[{i}]: {gflat[i]} vs fd {numeric}"


class TestAct:
    def test_greedy_argmax(self):
        actions, _ = act(np.array([[5.0, 1.0, 1.0]]), "greedy")
        assert actions.tolist() == [0]

    def test_greedy_tie_lowest_index(self):
        actions, _ = act(np.array([[2.0, 7.0, 7.0]]), "greedy")
        assert actions.tolist() == [1]

    def test_greedy_shift_invariant(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            logits = rng.normal(size=(1, 7))
            a0, _ = act(logits, "greedy")
            a1, _ = act(logits + 55.5, "greedy")
            assert np.array_equal(a0, a1)

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_unbatched_logits_raise(self, mode):
        with pytest.raises(nm.ShapeError):
            act(np.array([5.0, 1.0, 1.0]), mode, np.random.default_rng(0))

    def test_uniform_sampling_frequencies(self):
        rng = np.random.default_rng(39)
        n, k = 100_000, 4
        logits = np.zeros((n, k))
        actions, _ = act(logits, "sample", rng)
        p = 1.0 / k
        sigma = math.sqrt(n * p * (1 - p))
        counts = np.bincount(actions, minlength=k)
        for c in counts:
            assert abs(c - n * p) < 3 * sigma

    def test_log_prob_matches_log_softmax(self):
        rng = np.random.default_rng(40)
        logits = rng.normal(size=(6, 5))
        actions, logp = act(logits, "sample", rng)
        z = logits - logits.max(axis=1, keepdims=True)
        ref = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        for i in range(6):
            assert abs(logp[i] - ref[i, actions[i]]) < 1e-12

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_matches_full_log_softmax_table_bit_for_bit(self, mode):
        # the expression act used before it stopped forming probs and the
        # whole log-prob table: its actions and picked log-probs, exactly
        def reference(logits, mode, rng):
            z = logits - logits.max(axis=-1, keepdims=True)
            e = np.exp(z)
            probs = e / e.sum(axis=-1, keepdims=True)
            table = z - np.log(e.sum(axis=-1, keepdims=True))
            if mode == "greedy":
                actions = np.argmax(logits, axis=-1)
            else:
                cum = np.cumsum(probs, axis=-1)
                u = rng.random(logits.shape[0])
                actions = np.minimum((cum < u[:, None]).sum(axis=-1),
                                     logits.shape[-1] - 1)
            return actions, table[np.arange(logits.shape[0]), actions]

        rng = np.random.default_rng(41)
        batches = [rng.normal(size=(64, 7)) * scale
                   for scale in (1e-3, 1.0, 30.0, 400.0)]
        batches.append(np.array([[2.0, 7.0, 7.0, -1e300, 0.0, 7.0, 1.0]]))
        for seed, logits in enumerate(batches):
            want_a, want_lp = reference(logits, mode,
                                        np.random.default_rng(seed))
            got_a, got_lp = act(logits, mode, np.random.default_rng(seed))
            assert np.array_equal(got_a, want_a)
            assert np.array_equal(got_lp, want_lp)
            a, lp = act(logits[:1], mode, np.random.default_rng(seed))
            assert np.array_equal(a, want_a[:1])
            assert np.array_equal(lp, want_lp[:1])
