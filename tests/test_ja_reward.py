"""Incentive tests; every asserted number is recomputed by scalar math in
the test body (or is an identity like KL(P,P)=0)."""

import math

import numpy as np
import pytest

from jointattn.ja_reward import (
    METRICS,
    IncentiveConfig,
    beta_schedule,
    clipped_jsd,
    joint_attention_reward,
    jsd,
    kl_divergence,
    pairwise_divergence,
)


def softmax(v):
    v = np.asarray(v, dtype=np.float64)
    z = v - v.max()
    e = np.exp(z)
    return e / e.sum()


def random_field(rng, shape=(4, 5)):
    return softmax(rng.normal(size=shape).reshape(-1)).reshape(shape)


class TestKl:
    def test_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_field(rng)
            assert kl_divergence(p, p) == 0.0

    def test_worked_value(self):
        p = np.array([[0.75, 0.25]])
        q = np.array([[0.5, 0.5]])
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert abs(kl_divergence(p, q) - expected) < 1e-12
        assert abs(kl_divergence(p, q) - 0.13081) < 1e-5

    def test_asymmetry_worked_value(self):
        p = np.array([0.75, 0.25])
        q = np.array([0.5, 0.5])
        expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        assert abs(kl_divergence(q, p) - expected) < 1e-12
        assert abs(kl_divergence(q, p) - 0.14384) < 1e-5
        assert kl_divergence(p, q) != kl_divergence(q, p)

    def test_zero_cells_and_negative_entry(self):
        # 0 * log 0 = 0: only the p = 1 cell counts, 1 * log(1 / 0.5)
        assert kl_divergence(np.array([1.0, 0.0]),
                             np.array([0.5, 0.5])) == math.log(2.0)
        # q = 0 where p > 0: no finite divergence
        assert kl_divergence(np.array([0.5, 0.5]),
                             np.array([1.0, 0.0])) == math.inf
        with pytest.raises(ValueError):
            kl_divergence(np.array([1.25, -0.25]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.5, 0.5]), np.array([1.25, -0.25]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(np.full((2, 2), 0.25), np.full(4, 0.25))


class TestJsd:
    def test_identity(self):
        rng = np.random.default_rng(1)
        p = random_field(rng)
        assert jsd(p, p) == 0.0

    def test_worked_value(self):
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
        assert abs(jsd(p, q) - expected) < 1e-12
        assert abs(jsd(p, q) - 0.36806) < 1e-5

    def test_zero_cells_allowed(self):
        # disjoint supports reach the bound: 0.5 ln 2 + 0.5 ln 2
        assert abs(jsd([1.0, 0.0], [0.0, 1.0]) - math.log(2.0)) < 1e-15
        # a cell that is 0 in both fields adds nothing
        assert jsd([0.9, 0.1, 0.0], [0.1, 0.9, 0.0]) == jsd([0.9, 0.1],
                                                            [0.1, 0.9])

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            p = random_field(rng, (2, 3))
            q = random_field(rng, (2, 3))
            assert abs(jsd(p, q) - jsd(q, p)) < 1e-12

    def test_bounded_by_ln_two(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_field(rng)
            q = random_field(rng)
            v = jsd(p, q)
            assert 0.0 <= v <= math.log(2.0) + 1e-12


class TestClippedJsd:
    def test_threshold_below_everything_is_plain_jsd(self):
        rng = np.random.default_rng(4)
        pl = rng.normal(size=(3, 3))
        ql = rng.normal(size=(3, 3))
        lo = min(pl.min(), ql.min()) - 1.0
        plain = jsd(softmax(pl.reshape(-1)), softmax(ql.reshape(-1)))
        assert abs(clipped_jsd(pl, ql, lo) - plain) < 1e-12

    def test_identical_survivors_give_zero(self):
        logits = np.array([5.0, 0.0, -10.0])
        assert abs(clipped_jsd(logits, logits.copy(), -5.0)) < 1e-15

    def test_matches_chained_softmax_oracle(self):
        pl = np.array([2.0, 1.0, -10.0])
        ql = np.array([1.0, 2.0, -10.0])
        got = clipped_jsd(pl, ql, 0.0)
        p_surv = softmax(np.array([2.0, 1.0]))
        q_surv = softmax(np.array([1.0, 2.0]))
        expected = jsd(p_surv, q_surv)
        assert abs(got - expected) < 1e-12

    def test_everything_clipped_raises(self):
        with pytest.raises(ValueError):
            clipped_jsd(np.array([-3.0, -4.0]), np.array([1.0, 2.0]), 0.0)

    def test_disjoint_survivors_still_finite(self):
        v = clipped_jsd(np.array([1.0, -9.0]), np.array([-9.0, 1.0]), 0.0)
        assert abs(v - math.log(2.0)) < 1e-12


class TestPairwiseDivergence:
    @staticmethod
    def double_loop(fields, metric, threshold=0.0):
        """The scalar divergences summed over ordered pairs, j-outer."""
        scalar = {"jsd": jsd, "kl": kl_divergence,
                  "clipped_jsd": lambda p, q: clipped_jsd(p, q, threshold)}
        k, rows, _ = fields.shape
        out = np.zeros(rows)
        for e in range(rows):
            total = 0.0
            for j in range(k):
                for i in range(k):
                    if i != j:
                        total += scalar[metric](fields[i, e], fields[j, e])
            out[e] = total
        return out

    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_scalar_double_loop(self, metric):
        rng = np.random.default_rng(12)
        for k, rows, cells in ((2, 1, 4), (3, 16, 100), (5, 7, 30)):
            logits = rng.normal(size=(k, rows, cells))
            if metric == "clipped_jsd":
                fields, threshold = logits, -0.5
                assert (fields.max(axis=-1) >= threshold).all()
            else:
                e = np.exp(logits - logits.max(axis=-1, keepdims=True))
                fields, threshold = e / e.sum(axis=-1, keepdims=True), 0.0
            got = pairwise_divergence(fields, metric, threshold)
            assert got.shape == (rows,)
            assert np.array_equal(got,
                                  self.double_loop(fields, metric, threshold))

    def test_zero_and_infinite_cells(self):
        f0 = [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]
        f1 = [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.0, 0.0, 1.0]]
        fields = np.array([f0, f1])
        kl = pairwise_divergence(fields, "kl")
        assert np.array_equal(kl, self.double_loop(fields, "kl"))
        assert kl[0] == 0.0 and kl[1] == kl[2] == math.inf
        js = pairwise_divergence(fields, "jsd")
        assert np.array_equal(js, self.double_loop(fields, "jsd"))
        assert js[0] == 0.0 and np.isfinite(js).all()
        assert abs(js[2] - 2.0 * math.log(2.0)) < 1e-15

    def test_single_field_and_negative_entry(self):
        field = np.full((1, 3, 4), 0.25)
        assert np.array_equal(pairwise_divergence(field, "jsd"), np.zeros(3))
        with pytest.raises(ValueError):
            pairwise_divergence(np.array([[[1.5, -0.5]], [[0.5, 0.5]]]), "kl")
        with pytest.raises(ValueError):
            pairwise_divergence(np.full((2, 4), 0.25), "jsd")

    def test_clipped_field_without_survivors_keeps_its_maximum(self):
        logits = np.array([[[-3.0, -4.0, -3.0], [-2.0, -1.0, -5.0]],
                           [[1.0, 2.0, -1.0], [-6.0, -1.0, -7.0]]])
        got = pairwise_divergence(logits, "clipped_jsd", 0.0)
        # row 0: field 0 keeps its two tied maxima, field 1 its logits >= 0
        e = np.exp(np.array([1.0, 2.0]) - 2.0)
        q = np.append(e / e.sum(), 0.0)
        assert abs(got[0] - 2.0 * jsd([0.5, 0.0, 0.5], q)) < 1e-15
        # row 1: both fields keep only their maximum, the same cell
        assert got[1] == 0.0


class TestJointAttentionReward:
    def test_single_agent_zero(self):
        cfg = IncentiveConfig()
        field = np.full((3, 3), 1.0 / 9.0)
        assert joint_attention_reward([field], cfg) == 0.0

    def test_identical_maps_zero(self):
        cfg = IncentiveConfig()
        rng = np.random.default_rng(5)
        f = random_field(rng)
        assert joint_attention_reward([f, f.copy(), f.copy()], cfg) == 0.0

    def test_two_agent_worked_value(self):
        cfg = IncentiveConfig()
        p = np.array([[0.9, 0.1]])
        q = np.array([[0.1, 0.9]])
        expected = -2.0 * (0.9 * math.log(1.8) + 0.1 * math.log(0.2))
        got = joint_attention_reward([p, q], cfg)
        assert abs(got - expected) < 1e-12
        assert abs(got + 0.73613) < 1e-5

    def test_nonpositive_and_zero_iff_identical(self):
        cfg = IncentiveConfig()
        rng = np.random.default_rng(6)
        for _ in range(100):
            maps = [random_field(rng, (3, 4)) for _ in range(3)]
            r = joint_attention_reward(maps, cfg)
            assert r <= 0.0
            spread = max(
                np.max(np.abs(maps[a] - maps[b]))
                for a in range(3) for b in range(3)
            )
            if spread < 1e-9:
                assert r == 0.0
            if r == 0.0:
                assert spread < 1e-9

    def test_permutation_invariance(self):
        cfg = IncentiveConfig()
        rng = np.random.default_rng(7)
        maps = [random_field(rng) for _ in range(4)]
        base = joint_attention_reward(maps, cfg)
        for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]):
            other = joint_attention_reward([maps[i] for i in perm], cfg)
            assert abs(base - other) < 1e-12

    def test_pair_count_bound(self):
        cfg = IncentiveConfig()
        rng = np.random.default_rng(8)
        for k in (2, 3, 5):
            maps = [random_field(rng) for _ in range(k)]
            r = joint_attention_reward(maps, cfg)
            assert abs(r) <= k * (k - 1) * math.log(2.0) + 1e-12

    def test_kl_metric_uses_same_double_sum(self):
        cfg = IncentiveConfig(metric="kl")
        rng = np.random.default_rng(9)
        maps = [random_field(rng) for _ in range(3)]
        expected = 0.0
        for j in range(3):
            for i in range(3):
                if i != j:
                    expected += kl_divergence(maps[i], maps[j])
        assert abs(joint_attention_reward(maps, cfg) + expected) < 1e-12

    def test_clipped_metric_needs_logits(self):
        cfg = IncentiveConfig(metric="clipped_jsd", clip_threshold=0.0)
        maps = [np.full((2, 2), 0.25)] * 2
        with pytest.raises(ValueError):
            joint_attention_reward(maps, cfg)
        logits = [np.array([[1.0, 2.0], [0.5, 3.0]]),
                  np.array([[2.0, 1.0], [0.5, 3.0]])]
        r = joint_attention_reward(maps, cfg, logit_maps=logits)
        expected = -2.0 * clipped_jsd(logits[0], logits[1], 0.0)
        assert abs(r - expected) < 1e-12

    def test_shape_mismatch_rejected(self):
        cfg = IncentiveConfig()
        with pytest.raises(ValueError):
            joint_attention_reward(
                [np.full((2, 2), 0.25), np.full((1, 4), 0.25)], cfg
            )


class TestBetaSchedule:
    def test_endpoints_and_midpoint(self):
        cfg = IncentiveConfig()
        assert beta_schedule(0, cfg) == 0.0
        assert abs(beta_schedule(200_000, cfg) - 1e-2) < 1e-15
        assert abs(beta_schedule(100_000, cfg) - 5e-3) < 1e-15

    def test_constant_after_ramp(self):
        cfg = IncentiveConfig()
        assert beta_schedule(200_001, cfg) == beta_schedule(10_000_000, cfg) == 1e-2

    def test_nondecreasing_and_continuous_at_ramp_end(self):
        cfg = IncentiveConfig(beta_max=0.5, beta_rampup_steps=1000)
        prev = -1.0
        for s in range(0, 2000, 7):
            b = beta_schedule(s, cfg)
            assert b >= prev
            prev = b
        assert abs(beta_schedule(999, cfg) - beta_schedule(1000, cfg)) < 1e-3
        assert beta_schedule(1000, cfg) == 0.5

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            beta_schedule(-1, IncentiveConfig())


class TestConfigValidation:
    def test_bad_metric(self):
        with pytest.raises(ValueError):
            IncentiveConfig(metric="l2")

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            IncentiveConfig(beta_max=-0.1)
        with pytest.raises(ValueError):
            IncentiveConfig(beta_rampup_steps=0)
