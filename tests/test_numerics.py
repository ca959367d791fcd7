"""Tensor-op tests against independent oracles.

Every expected value here is produced by a reimplementation that shares no
code with the tape: nested-loop convolution, scalar gate equations for the
LSTM, central finite differences for gradients, and a scalar Adam reference.
"""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import jointattn.numerics as nm
from jointattn.numerics import (
    AdamState,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    adam_update,
    backward,
)
from jointattn.numerics import tensor


# ---------------------------------------------------------------------------
# oracles


def conv_oracle(x, k, b):
    h, w, c_in = x.shape
    c_out = k.shape[3]
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((h, w, c_out))
    for i in range(h):
        for j in range(w):
            for co in range(c_out):
                acc = b[co]
                for kh in range(3):
                    for kw in range(3):
                        for ci in range(c_in):
                            acc += xp[i + kh, j + kw, ci] * k[kh, kw, ci, co]
                out[i, j, co] = acc
    return out


def lstm_oracle(x, h, c, w, b):
    """Scalar, gate-by-gate LSTM step."""
    H = len(h)
    z = np.concatenate([x, h]) @ w + b

    def sg(v):
        return 1.0 / (1.0 + math.exp(-v))

    h_new = np.zeros(H)
    c_new = np.zeros(H)
    for j in range(H):
        i_g = sg(z[j])
        f_g = sg(z[H + j])
        g_g = math.tanh(z[2 * H + j])
        o_g = sg(z[3 * H + j])
        c_new[j] = f_g * c[j] + i_g * g_g
        h_new[j] = o_g * math.tanh(c_new[j])
    return h_new, c_new


def with_bias_row(w, b):
    """[w; b]: w as a (rows, len(b)) matrix with b as its last row, the form
    the fused ops take an affine layer in."""
    return np.concatenate([w.reshape(-1, b.size), b[None]])


def with_ones_channel(f):
    """f with a last channel of ones, which makes the keys and values of
    the attention ops affine."""
    return np.concatenate([f, np.ones(f.shape[:-1] + (1,))], axis=-1)


def fd_grads(f, arrays, step=1e-4):
    """Central finite differences of a scalar function of named arrays."""
    grads = {}
    for name in arrays:
        a = arrays[name]
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f(arrays)
            flat[i] = orig - step
            fm = f(arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * step)
        grads[name] = g
    return grads


def assert_close_to_roundoff(got, ref, rel=1e-12):
    """got is ref summed in another order: equal to within rel of ref's
    largest magnitude."""
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


def assert_close_to_fd(analytic, numeric, tol=1e-4):
    a = analytic.reshape(-1)
    n = numeric.reshape(-1)
    for av, nv in zip(a, n):
        if abs(av) < 1e-7 and abs(nv) < 1e-7:
            continue
        rel = abs(av - nv) / (abs(av) + abs(nv))
        assert rel < tol, f"analytic {av} vs finite-diff {nv} (rel {rel})"


# ---------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_zero_input_gives_bias(self):
        x = np.zeros((1, 4, 5, 3))
        k = np.random.default_rng(0).normal(size=(3, 3, 3, 2))
        b = np.array([1.5, -2.0])
        out = nm.conv2d(Tensor(x), Tensor(k), Tensor(b)).data
        assert np.array_equal(out[..., 0], np.full((1, 4, 5), 1.5))
        assert np.array_equal(out[..., 1], np.full((1, 4, 5), -2.0))

    def test_identity_kernel(self):
        x = np.array([[[[3.7]]]])
        k = np.zeros((3, 3, 1, 1))
        k[1, 1, 0, 0] = 1.0
        out = nm.conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(1))).data
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 3.7

    def test_identity_kernel_is_identity_map(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 6, 7, 4))
        k = np.zeros((3, 3, 4, 4))
        for c in range(4):
            k[1, 1, c, c] = 1.0
        out = nm.conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(4))).data
        assert np.array_equal(out, x)

    def test_two_by_two_all_ones_kernel(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        k = np.ones((3, 3, 1, 1))
        out = nm.conv2d(Tensor(x[None]), Tensor(k), Tensor(np.zeros(1))).data[0]
        # every 3x3 window clipped by padding covers the whole 2x2 input
        assert out[0, 0, 0] == 10.0
        expected = conv_oracle(x, k, np.zeros(1))
        assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_nested_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 4, 3))
        k = rng.normal(size=(3, 3, 3, 2))
        b = rng.normal(size=2)
        out = nm.conv2d(Tensor(x[None]), Tensor(k), Tensor(b)).data[0]
        assert np.allclose(out, conv_oracle(x, k, b), atol=1e-10)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        b = rng.normal(size=3)
        batched = nm.conv2d(Tensor(xs), Tensor(k), Tensor(b)).data
        for i in range(4):
            single = nm.conv2d(Tensor(xs[i:i + 1]), Tensor(k), Tensor(b)).data
            assert np.max(np.abs(batched[i] - single[0])) < 1e-12

    def test_linearity_in_input(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 4, 4, 2))
        y = rng.normal(size=(1, 4, 4, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        zb = Tensor(np.zeros(3))
        a, bcoef = 0.7, -1.3
        lhs = nm.conv2d(Tensor(a * x + bcoef * y), Tensor(k), zb).data
        rhs = a * nm.conv2d(Tensor(x), Tensor(k), zb).data \
            + bcoef * nm.conv2d(Tensor(y), Tensor(k), zb).data
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nm.conv2d(Tensor(np.zeros((1, 3, 3, 2))), Tensor(np.zeros((3, 3, 5, 1))),
                      Tensor(np.zeros(1)))
        with pytest.raises(ShapeError):          # unbatched (h, w, c_in) frames
            nm.conv2d(Tensor(np.zeros((3, 3, 5))), Tensor(np.zeros((3, 3, 5, 1))),
                      Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# dense


class TestDense:
    def test_zero_weights_give_bias(self):
        out = nm.dense(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.zeros((3, 2))),
                       Tensor([5.0, -1.0])).data
        assert np.array_equal(out, [[5.0, -1.0]])

    def test_identity_weights(self):
        x = np.array([[0.5, -2.0, 7.0]])
        out = nm.dense(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3))).data
        assert np.array_equal(out, x)

    def test_direct_product_oracle(self):
        a, b, c, d = 1.5, -0.5, 2.0, 3.5
        out = nm.dense(Tensor([[1.0, 2.0]]), Tensor([[a, b], [c, d]]),
                       Tensor(np.zeros(2))).data
        assert np.allclose(out, [[a + 2 * c, b + 2 * d]], atol=1e-12)

    def test_no_bias_is_the_linear_map(self):
        rng = np.random.default_rng(5)
        x, w = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
        wt = Tensor(w, requires_grad=True)
        with Tape():
            out = nm.dense(Tensor(x), wt)
            loss = nm.sum_all(out)
        backward(loss)
        assert np.array_equal(out.data, x @ w)
        assert np.array_equal(wt.grad, x.T @ np.ones((4, 2)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nm.dense(Tensor([[1.0, 2.0]]), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))
        with pytest.raises(ShapeError):          # an unbatched (n,) input
            nm.dense(Tensor([1.0, 2.0, 3.0]), Tensor(np.zeros((3, 2))),
                     Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# lstm_step


class TestLstmStep:
    def test_zero_params_closed_form(self):
        v = np.array([0.3, -1.2, 0.0, 2.5])
        w = np.zeros((6 + 4, 16))
        b = np.zeros(16)
        h, c = nm.lstm_step(Tensor(np.zeros((1, 6))), Tensor(np.zeros((1, 4))),
                            Tensor(v[None]), Tensor(w), Tensor(b))
        assert np.allclose(c.data[0], 0.5 * v, atol=1e-12)
        assert np.allclose(h.data[0], 0.5 * np.tanh(0.5 * v), atol=1e-12)

    def test_all_zero(self):
        w = np.zeros((5, 8))
        h, c = nm.lstm_step(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))),
                            Tensor(np.zeros((1, 2))), Tensor(w), Tensor(np.zeros(8)))
        assert np.array_equal(h.data, np.zeros((1, 2)))
        assert np.array_equal(c.data, np.zeros((1, 2)))

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_matches_gate_equation_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=5)
        h0 = rng.normal(size=3)
        c0 = rng.normal(size=3)
        w = rng.normal(size=(8, 12), scale=0.5)
        b = rng.normal(size=12, scale=0.5)
        h, c = nm.lstm_step(Tensor(x[None]), Tensor(h0[None]), Tensor(c0[None]),
                            Tensor(w), Tensor(b))
        h_ref, c_ref = lstm_oracle(x, h0, c0, w, b)
        assert np.max(np.abs(h.data[0] - h_ref)) < 1e-10
        assert np.max(np.abs(c.data[0] - c_ref)) < 1e-10

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(3, 5))
        hs = rng.normal(size=(3, 4))
        cs = rng.normal(size=(3, 4))
        w = rng.normal(size=(9, 16))
        b = rng.normal(size=16)
        hb, cb = nm.lstm_step(Tensor(xs), Tensor(hs), Tensor(cs), Tensor(w), Tensor(b))
        for i in range(3):
            rows = slice(i, i + 1)
            hi, ci = nm.lstm_step(Tensor(xs[rows]), Tensor(hs[rows]),
                                  Tensor(cs[rows]), Tensor(w), Tensor(b))
            assert np.max(np.abs(hb.data[rows] - hi.data)) < 1e-12
            assert np.max(np.abs(cb.data[rows] - ci.data)) < 1e-12

    def test_bad_shapes_raise(self):
        w, b = Tensor(np.zeros((5, 8))), Tensor(np.zeros(8))
        with pytest.raises(ShapeError):          # ranks differ
            nm.lstm_step(Tensor(np.zeros((1, 3))), Tensor(np.zeros(2)),
                         Tensor(np.zeros((1, 2))), w, b)
        with pytest.raises(ShapeError):          # unbatched (n,) input and states
            nm.lstm_step(Tensor(np.zeros(3)), Tensor(np.zeros(2)),
                         Tensor(np.zeros(2)), w, b)


# ---------------------------------------------------------------------------
# the gate sigmoid


class TestSigmoid:
    """The gate sigmoid against a long-double reference."""

    @staticmethod
    def reference(x):
        x = np.asarray(x, dtype=np.longdouble)
        return 1.0 / (1.0 + np.exp(-x))

    def test_within_four_ulp_where_exp_does_not_overflow(self):
        x = np.concatenate([np.linspace(-709.0, 745.0, 20001),
                            np.linspace(-40.0, 40.0, 8001)])
        ref = self.reference(x)
        ulps = np.abs(tensor._sigmoid(x) - ref) / np.spacing(
            ref.astype(np.float64))
        assert ulps.max() <= 4.0

    def test_below_the_overflow_the_error_is_under_1e_308(self):
        x = np.linspace(-1000.0, -709.0, 3001)
        got = tensor._sigmoid(x)
        assert np.all(np.abs(got - self.reference(x)) < 1e-308)
        assert np.all(got[x < -709.79] == 0.0)

    def test_saturates_exactly_and_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tensor._sigmoid(np.array([-1000.0, 1000.0]))
        assert got[0] == 0.0 and got[1] == 1.0


# ---------------------------------------------------------------------------
# softmax family


class TestSoftmax:
    def test_uniform_logits(self):
        out = nm.softmax(Tensor([0.0, 0.0, 0.0, 0.0])).data
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_constant_logits_uniform(self):
        for c in (-100.0, 0.0, 3.14, 250.0):
            out = nm.softmax(Tensor([c] * 5)).data
            assert np.allclose(out, 0.2, atol=1e-12)

    def test_log_ratio_example(self):
        out = nm.softmax(Tensor([math.log(1.0), math.log(3.0)])).data
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_probability_vector(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            out = nm.softmax(Tensor(rng.normal(size=9, scale=10.0))).data
            assert out.min() > 0.0
            assert abs(out.sum() - 1.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=7)
        base = nm.softmax(Tensor(x)).data
        shifted = nm.softmax(Tensor(x + 123.456)).data
        assert np.max(np.abs(base - shifted)) < 1e-9

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            nm.softmax(Tensor(np.zeros(0)))

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 6))
        ls = nm.log_softmax(Tensor(x)).data
        ref = np.log(nm.softmax(Tensor(x)).data)
        assert np.max(np.abs(ls - ref)) < 1e-12


# ---------------------------------------------------------------------------
# backward


class TestBackward:
    def test_sum_of_params_grad_is_one(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            loss = nm.sum_all(p)
        backward(loss)
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_sum_of_squares_grad(self):
        v = np.array([1.0, -2.0, 0.5])
        p = Tensor(v, requires_grad=True)
        with Tape():
            loss = nm.sum_all(nm.mul(p, p))
        backward(loss)
        assert np.allclose(p.grad, 2.0 * v, atol=1e-12)

    def test_consumed_tape_raises(self):
        p = Tensor([1.0], requires_grad=True)
        with Tape():
            loss = nm.sum_all(p)
        backward(loss)
        with pytest.raises(TapeError):
            backward(loss)

    def test_backward_frees_saved_arrays_without_the_collector(self):
        p = Tensor(np.ones(3), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            with Tape() as tape:
                y = nm.exp(p)                   # exp saves its output array
                loss = nm.sum_all(y)
            saved = weakref.ref(y.data)
            del y
            backward(loss)
            assert saved() is None
            assert len(tape) == 0
        finally:
            gc.enable()
        assert np.allclose(p.grad, np.e, atol=1e-12)

    def test_cleared_tape_frees_and_counts_as_consumed(self):
        p = Tensor(np.ones(3), requires_grad=True)
        gc.collect()
        gc.disable()
        try:
            with Tape() as tape:
                y = nm.exp(p)
                loss = nm.sum_all(y)
            saved = weakref.ref(y.data)
            del y
            tape.clear()
            assert saved() is None
        finally:
            gc.enable()
        with pytest.raises(TapeError):
            backward(loss)

    def test_unrecorded_loss_raises(self):
        loss = nm.sum_all(Tensor([1.0, 2.0]))
        with pytest.raises(TapeError):
            backward(loss)

    def test_grads_accumulate_across_tapes(self):
        p = Tensor([2.0], requires_grad=True)
        for _ in range(3):
            with Tape():
                loss = nm.sum_all(nm.mul(p, p))
            backward(loss)
        assert np.allclose(p.grad, 3 * 2.0 * 2.0, atol=1e-12)

    def test_param_reused_in_graph(self):
        p = Tensor([3.0], requires_grad=True)
        with Tape():
            loss = nm.sum_all(nm.add(nm.mul(p, p), p))  # x^2 + x
        backward(loss)
        assert np.allclose(p.grad, 2 * 3.0 + 1.0, atol=1e-12)

    def test_composition_matches_finite_differences(self):
        # conv -> relu -> spatial mean -> dense -> lstm -> softmax -> scalar
        rng = np.random.default_rng(11)
        shapes = {
            "k": (3, 3, 2, 3),
            "kb": (3,),
            "w": (3, 4),
            "wb": (4,),
            "lw": (4 + 3, 12),
            "lb": (12,),
        }
        arrays = {n: rng.normal(size=s, scale=0.4) for n, s in shapes.items()}
        x = rng.normal(size=(2, 4, 5, 2))
        h0 = rng.normal(size=(2, 3))
        c0 = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 4))

        def forward(a, record=False):
            ts = {n: Tensor(v, requires_grad=record) for n, v in a.items()}
            f = nm.relu(nm.conv2d(Tensor(x), ts["k"], ts["kb"]))
            pooled = nm.spatial_mean(f)
            z = nm.dense(pooled, ts["w"], ts["wb"])
            h, _ = nm.lstm_step(z, Tensor(h0), Tensor(c0), ts["lw"], ts["lb"])
            probs = nm.softmax(h)
            diff = nm.sub(probs, Tensor(target[:, :3]))
            return nm.scale(nm.sum_all(nm.mul(diff, diff)), 1.0 / 6), ts

        with Tape():
            loss, ts = forward(arrays, record=True)
        backward(loss)

        numeric = fd_grads(lambda a: forward(a)[0].item(), arrays)
        for name in shapes:
            assert_close_to_fd(ts[name].grad, numeric[name])

    @pytest.mark.parametrize("seed", range(5))
    def test_attention_path_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, c, d = 2, 2, 3
        arrays = {
            # batch 2, 2x3 grid; the last channel is the ones of the
            # affine keys and values, the last rows of keys and values
            # their biases
            "feat": with_ones_channel(rng.normal(size=(2, 2, 3, d))),
            "q": rng.normal(size=(2, m, c), scale=0.5),
            "keys": rng.normal(size=(d + 1, m * c), scale=0.5),
            "values": rng.normal(size=(d + 1, m * c), scale=0.5),
            # unnormalized weights reach the read-out's ones channel with a
            # mass other than 1, which softmax weights never exercise
            "raw": rng.random(size=(2, m, 6)),
        }
        r_logits = rng.normal(size=(2, m, 6))
        r_raw = rng.normal(size=(2, m, c))

        def forward(a, record=False):
            ts = {n: Tensor(v, requires_grad=record) for n, v in a.items()}
            logits = nm.attention_scores(ts["feat"], ts["q"], ts["keys"])
            weights = nm.softmax(logits)
            mixed = nm.attention_apply(weights, ts["feat"], ts["values"])
            raw = nm.attention_apply(ts["raw"], ts["feat"], ts["values"])
            loss = nm.add(nm.sum_all(nm.mul(mixed, mixed)),
                          nm.sum_all(nm.mul(logits, Tensor(r_logits))))
            return nm.add(loss, nm.sum_all(nm.mul(raw, Tensor(r_raw)))), ts

        with Tape():
            loss, ts = forward(arrays, record=True)
        backward(loss)
        numeric = fd_grads(lambda a: forward(a)[0].item(), arrays)
        for name in arrays:
            assert_close_to_fd(ts[name].grad, numeric[name])

    @pytest.mark.parametrize("seed", range(3))
    def test_attention_ops_match_explicit_keys_and_values(self, seed):
        # oracle: form every position's keys and values, then contract
        rng = np.random.default_rng(200 + seed)
        b, h, w, d, m, c = 3, 2, 4, 5, 3, 2
        feat = rng.normal(size=(b, h, w, d))
        q = rng.normal(size=(b, m, c))
        kw, kb = rng.normal(size=(d, m * c)), rng.normal(size=m * c)
        vw, vb = rng.normal(size=(d, m * c)), rng.normal(size=m * c)
        a = rng.random(size=(b, m, h * w))
        flat = feat.reshape(b, h * w, d)
        logits_ref = np.zeros((b, m, h * w))
        out_ref = np.zeros((b, m, c))
        for i in range(b):
            for p in range(h * w):
                keys = (flat[i, p] @ kw + kb).reshape(m, c)
                values = (flat[i, p] @ vw + vb).reshape(m, c)
                for j in range(m):
                    logits_ref[i, j, p] = keys[j] @ q[i, j]
                    out_ref[i, j] += a[i, j, p] * values[j]
        feat = with_ones_channel(feat)
        logits = nm.attention_scores(feat, q, with_bias_row(kw, kb)).data
        out = nm.attention_apply(a, feat, with_bias_row(vw, vb)).data
        assert logits.shape == (b, m, h * w) and out.shape == (b, m, c)
        assert np.max(np.abs(logits - logits_ref)) < 1e-12
        assert np.max(np.abs(out - out_ref)) < 1e-12

    def test_elementwise_ops_match_finite_differences(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=8) * 0.9 + 0.05  # keep away from kinks

        def forward(a, record=False):
            t = Tensor(a["v"], requires_grad=record)
            y = nm.add(nm.exp(nm.scale(t, 0.3)), nm.mul(t, t))
            y = nm.mul(y, nm.exp(nm.scale(t, -0.7)))
            y = nm.minimum(y, nm.clip(t, -0.5, 0.5))
            return nm.sum_all(y), t

        arrays = {"v": v}
        with Tape():
            loss, t = forward(arrays, record=True)
        backward(loss)
        numeric = fd_grads(lambda a: forward(a)[0].item(), arrays)
        assert_close_to_fd(t.grad, numeric["v"])

    def test_gather_and_log_softmax_match_finite_differences(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(4, 5))
        idx = np.array([0, 3, 2, 4])

        def forward(a, record=False):
            t = Tensor(a["l"], requires_grad=record)
            lp = nm.gather_last(nm.log_softmax(t), idx)
            return nm.scale(nm.sum_all(lp), 0.25), t

        arrays = {"l": logits}
        with Tape():
            loss, t = forward(arrays, record=True)
        backward(loss)
        numeric = fd_grads(lambda a: forward(a)[0].item(), arrays)
        assert_close_to_fd(t.grad, numeric["l"])

    def test_untracked_inputs_get_no_grad(self):
        x = Tensor(np.ones(3))  # constant
        p = Tensor(np.ones(3), requires_grad=True)
        with Tape():
            loss = nm.sum_all(nm.mul(x, p))
        backward(loss)
        assert x.grad is None
        assert np.array_equal(p.grad, np.ones(3))


# ---------------------------------------------------------------------------
# attention_lstm


class TestAttentionLstm:
    """The one-node recurrence against a loop of the composed ops it fuses,
    and against central differences."""

    # d counts the features' last channel, the constant 1 of the affine
    # keys and values; every bias is the last row of its [W; b] matrix
    B, heads, depth, cell, n_frame, grid, d = 3, 2, 2, 4, 3, (2, 3), 3
    ATTENTION = ("features", "query", "keys", "values")

    def _arrays(self, T, attention, seed, resets=((0, 2), (-2, 1))):
        rng = np.random.default_rng(seed)
        B, cell, kv = self.B, self.cell, self.heads * self.depth
        n_x = self.n_frame + (kv if attention else 0)
        a = {
            "frame_in": rng.normal(size=(T * B, self.n_frame)),
            "h0": rng.normal(size=(B, cell), scale=0.5),
            "c0": rng.normal(size=(B, cell), scale=0.5),
            "lstm": rng.normal(size=(n_x + cell + 1, 4 * cell), scale=0.5),
        }
        if attention:
            a.update({
                "features": with_ones_channel(
                    rng.normal(size=(T * B,) + self.grid + (self.d - 1,))),
                "query": rng.normal(size=(cell + 1, kv), scale=0.5),
                "keys": rng.normal(size=(self.d, kv), scale=0.5),
                "values": rng.normal(size=(self.d, kv), scale=0.5),
            })
        keep = np.ones((T, B))
        for t, row in resets:       # by default one before step 0, one
            keep[t, row] = 0.0      # mid-chunk
        r_hs = rng.normal(size=(T, B, cell))
        r_c = rng.normal(size=(B, cell))
        return a, keep, r_hs, r_c

    def _loss(self, hs, c, r_hs, r_c):
        return nm.add(nm.sum_all(nm.mul(hs, Tensor(r_hs))),
                      nm.sum_all(nm.mul(c, Tensor(r_c))))

    def _fused(self, a, keep, record=False):
        ts = {n: Tensor(v, requires_grad=record) for n, v in a.items()}
        attention = tuple(ts[n] for n in self.ATTENTION) \
            if "features" in ts else None
        hs, c, weights, logits = nm.attention_lstm(
            ts["frame_in"], ts["h0"], ts["c0"], keep, ts["lstm"], attention,
            self.heads)
        return hs, c, weights, logits, ts

    def _composed(self, a, keep):
        """The composed ops step by step, each step's frame_in and features
        slice its own leaf, and the LSTM's weights and bias are leaves of
        their own; returns the outputs, the leaves and the maps."""
        T, B = keep.shape
        ts = {n: Tensor(v, requires_grad=True) for n, v in a.items()
              if n not in ("frame_in", "features", "lstm")}
        ts["lstm_w"] = Tensor(a["lstm"][:-1], requires_grad=True)
        ts["lstm_b"] = Tensor(a["lstm"][-1], requires_grad=True)
        frames = [Tensor(x, requires_grad=True)
                  for x in a["frame_in"].reshape(T, B, -1)]
        feats = [Tensor(x, requires_grad=True) for x in
                 a["features"].reshape((T, B) + a["features"].shape[1:])] \
            if "features" in a else None
        h, c = ts["h0"], ts["c0"]
        hs, weights, logits = [], [], []
        for t in range(T):
            k = Tensor(np.repeat(keep[t][:, None], self.cell, axis=1))
            h, c = nm.mul(h, k), nm.mul(c, k)
            x = frames[t]
            if feats is not None:
                hq = nm.concat_last(h, Tensor(np.ones((B, 1))))
                q = nm.reshape(nm.dense(hq, ts["query"]),
                               (B, self.heads, self.depth))
                lo = nm.attention_scores(feats[t], q, ts["keys"])
                w = nm.softmax(lo)
                out = nm.attention_apply(w, feats[t], ts["values"])
                x = nm.concat_last(nm.reshape(out, (B, -1)), x)
                weights.append(w.data)
                logits.append(lo.data)
            h, c = nm.lstm_step(x, h, c, ts["lstm_w"], ts["lstm_b"])
            hs.append(h)
        return hs, c, ts, frames, feats, weights, logits

    @pytest.mark.parametrize("attention", [True, False])
    def test_matches_composed_ops(self, attention):
        T = 5
        a, keep, r_hs, r_c = self._arrays(T, attention, 61)

        with Tape():
            hs, c, weights, logits, ts = self._fused(a, keep, record=True)
            loss = self._loss(hs, c, r_hs, r_c)
        backward(loss)

        with Tape():
            ref_hs, ref_c, ref_ts, frames, feats, ref_w, ref_lo = \
                self._composed(a, keep)
            terms = [nm.sum_all(nm.mul(h, Tensor(r_hs[t])))
                     for t, h in enumerate(ref_hs)]
            ref_loss = nm.sum_all(nm.mul(ref_c, Tensor(r_c)))
            for term in terms:
                ref_loss = nm.add(ref_loss, term)
        backward(ref_loss)

        assert hs.shape == (T, self.B, self.cell)
        assert np.array_equal(hs.data, np.stack([h.data for h in ref_hs]))
        assert np.array_equal(c.data, ref_c.data)
        if attention:
            shape = (T, self.B, self.heads, self.grid[0] * self.grid[1])
            assert weights.shape == logits.shape == shape
            assert np.array_equal(weights, np.stack(ref_w))
            assert np.array_equal(logits, np.stack(ref_lo))
        else:
            assert weights is None and logits is None

        ref_grads = {n: t.grad for n, t in ref_ts.items()}
        ref_grads["lstm"] = with_bias_row(ref_grads.pop("lstm_w"),
                                          ref_grads.pop("lstm_b"))
        ref_grads["frame_in"] = np.concatenate([f.grad for f in frames])
        if attention:
            ref_grads["features"] = np.concatenate([f.grad for f in feats])
        assert ref_grads.keys() == ts.keys()
        overall = max(np.max(np.abs(g)) for g in ref_grads.values())
        for name, ref in ref_grads.items():
            got = ts[name].grad
            assert got.shape == ref.shape, name
            if name == "keys":
                # the key bias row adds bk_m . q_m to all of head m's
                # logits alike, which the softmax ignores: its exact
                # gradient is zero, both are noise
                assert np.max(np.abs(ref[-1])) <= 1e-14 * overall
                assert np.max(np.abs(got[-1])) <= 1e-14 * overall
                ref, got = ref[:-1], got[:-1]
            scale = np.max(np.abs(ref))
            assert scale > 0.0, name
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale, name

    @pytest.mark.parametrize("attention", [True, False])
    def test_matches_finite_differences(self, attention):
        a, keep, r_hs, r_c = self._arrays(3, attention, 62)

        def loss_value(arrays):
            hs, c, _, _, _ = self._fused(arrays, keep)
            return float(np.sum(hs.data * r_hs) + np.sum(c.data * r_c))

        with Tape():
            hs, c, _, _, ts = self._fused(a, keep, record=True)
            loss = self._loss(hs, c, r_hs, r_c)
        backward(loss)
        numeric = fd_grads(loss_value, a)
        for name in a:
            assert_close_to_fd(ts[name].grad, numeric[name])

    # (T, [(step, row) of each 0 in keep])
    KEEP_PATTERNS = {
        "all_ones_T1": (1, ()),
        "all_ones": (4, ()),
        "reset_at_step_0_only": (4, ((0, 1),)),
        "reset_at_the_last_step": (4, ((3, 0),)),
        "resets_at_consecutive_steps": (4, ((1, 2), (2, 0), (2, 2))),
        "every_row_reset_at_one_step": (4, ((2, 0), (2, 1), (2, 2))),
    }

    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("pattern", sorted(KEEP_PATTERNS))
    def test_keep_patterns(self, pattern, attention):
        T, resets = self.KEEP_PATTERNS[pattern]
        a, keep, r_hs, r_c = self._arrays(T, attention, 67, resets)
        hs, c, weights, logits, _ = self._fused(a, keep)
        ref_hs, ref_c, _, _, _, ref_w, ref_lo = self._composed(a, keep)
        assert np.array_equal(hs.data, np.stack([h.data for h in ref_hs]))
        assert np.array_equal(c.data, ref_c.data)
        if attention:
            assert np.array_equal(weights, np.stack(ref_w))
            assert np.array_equal(logits, np.stack(ref_lo))

        def loss_value(arrays):
            hs, c, _, _, _ = self._fused(arrays, keep)
            return float(np.sum(hs.data * r_hs) + np.sum(c.data * r_c))

        with Tape():
            hs, c, _, _, ts = self._fused(a, keep, record=True)
            loss = self._loss(hs, c, r_hs, r_c)
        backward(loss)
        numeric = fd_grads(loss_value, a)
        for name in a:
            assert_close_to_fd(ts[name].grad, numeric[name])

    # the feature gradient over the features' own array

    def _encoded(self, second_consumer, producer="frame_features"):
        """features made by ``producer`` (frame_features, or exp of a leaf,
        whose backward reads its output) -> attention_lstm -> loss,
        recorded and run backward; returns the leaves, the features and a
        copy of their forward values."""
        T = 4
        a, keep, r_hs, r_c = self._arrays(T, True, 64)
        rng = np.random.default_rng(65)
        if producer == "frame_features":
            frames = rng.normal(size=(T * self.B,) + self.grid + (2,))
            basis = np.ones(self.grid + (1,))
            del a["features"]
            a["conv"] = rng.normal(size=(9 * 2 + 1, self.d - 1), scale=0.5)
        ts = {n: Tensor(v, requires_grad=True) for n, v in a.items()}
        with Tape():
            if producer == "frame_features":
                features = nm.frame_features(frames, ts["conv"], basis)
            else:
                features = nm.exp(ts["features"])
            forward = features.data.copy()
            attention = (features,) + tuple(ts[n] for n in self.ATTENTION[1:])
            hs, c, _, _ = nm.attention_lstm(
                ts["frame_in"], ts["h0"], ts["c0"], keep, ts["lstm"],
                attention, self.heads)
            loss = self._loss(hs, c, r_hs, r_c)
            if second_consumer:
                # a second reader whose gradient is exactly zero
                loss = nm.add(loss, nm.scale(nm.sum_all(features), 0.0))
        backward(loss)
        return ts, features, forward

    def test_single_consumer_features_take_their_gradient(self):
        # the encoder lends its output from tape to tape: check each
        # graph's features before recording the next one
        ts, features, forward = self._encoded(second_consumer=False)
        assert features.uses == 1
        assert not np.array_equal(features.data, forward)
        ref_ts, ref_features, ref_forward = self._encoded(second_consumer=True)
        assert ref_features.uses == 2
        assert np.array_equal(ref_features.data, ref_forward)
        assert ts.keys() == ref_ts.keys()
        for name, t in ts.items():
            assert np.abs(t.grad).max() > 0.0, name
            assert np.array_equal(t.grad, ref_ts[name].grad), name

    def test_features_their_producer_reads_keep_their_values(self):
        ts, features, forward = self._encoded(False, producer="exp")
        assert features.uses is None
        assert np.array_equal(features.data, forward)
        ref_ts, _, _ = self._encoded(True, producer="exp")
        for name, t in ts.items():
            assert np.array_equal(t.grad, ref_ts[name].grad), name

    @pytest.mark.parametrize("needs_grad", [True, False])
    def test_input_features_keep_their_values(self, needs_grad):
        a, keep, r_hs, r_c = self._arrays(3, True, 66)
        forward = a["features"].copy()
        ts = {n: Tensor(v, requires_grad=needs_grad or n != "features")
              for n, v in a.items()}
        with Tape() as tape:
            hs, c, _, _ = nm.attention_lstm(
                ts["frame_in"], ts["h0"], ts["c0"], keep, ts["lstm"],
                tuple(ts[n] for n in self.ATTENTION), self.heads)
            (node,) = tape._nodes
            loss = self._loss(hs, c, r_hs, r_c)
        # features needing no gradient get none formed
        gins = node.fn([np.ones(hs.shape), np.ones(c.shape)], node.need)
        assert (gins[4] is None) == (not needs_grad)
        backward(loss)
        assert np.array_equal(ts["features"].data, forward)
        assert (ts["features"].grad is None) == (not needs_grad)

    def test_bad_shapes_raise(self):
        a, keep, _, _ = self._arrays(2, True, 63)
        attention = tuple(a[n] for n in self.ATTENTION)
        with pytest.raises(ShapeError):
            nm.attention_lstm(a["frame_in"], a["h0"], a["c0"], keep[:1],
                              a["lstm"], attention, self.heads)
        with pytest.raises(ShapeError):         # no bias row
            nm.attention_lstm(a["frame_in"], a["h0"], a["c0"], keep,
                              a["lstm"][1:], attention, self.heads)
        with pytest.raises(ShapeError):         # a query with no bias row
            nm.attention_lstm(a["frame_in"], a["h0"], a["c0"], keep,
                              a["lstm"], (attention[0], attention[1][1:])
                              + attention[2:], self.heads)


# ---------------------------------------------------------------------------
# frame_features and the buffers it borrows


def split_kernel(kernel, c_in):
    """conv2d's leaves for a (9*c_in + 1, c_out) [kernels; bias] matrix:
    (3, 3, c_in, c_out) kernels and the (c_out,) bias, as new leaves."""
    return (Tensor(kernel[:-1].reshape(3, 3, c_in, -1), requires_grad=True),
            Tensor(kernel[-1], requires_grad=True))


def composed_features(x, k, b, basis):
    """``frame_features`` as the composed ops."""
    basis = np.broadcast_to(basis, x.shape[:3] + basis.shape[2:])
    return nm.concat_last(nm.relu(nm.conv2d(Tensor(x), k, b)), Tensor(basis))


class TestFrameFeatures:
    """The one-node encoder against the composed ops it fuses, and against
    central differences, with and without a basis. The 24-row inputs fit in
    one row block, so the output and the kernel gradient are the composed
    conv's one product, bit for bit."""

    assert_matches_composed = staticmethod(np.testing.assert_array_equal)

    def _arrays(self, depth, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 4, 2))
        a = {"kernel": rng.normal(size=(9 * 2 + 1, 3), scale=0.5)}
        basis = rng.normal(size=(3, 4, depth))
        weight = rng.normal(size=(2, 3, 4, 3 + depth))
        return x, a, basis, weight

    def _loss(self, out, weight):
        return nm.sum_all(nm.mul(out, Tensor(weight)))

    @pytest.mark.parametrize("depth", [8, 0])
    def test_matches_composed_ops(self, depth):
        x, a, basis, weight = self._arrays(depth, 71)
        kernel = Tensor(a["kernel"], requires_grad=True)
        with Tape():
            out = nm.frame_features(x, kernel, basis)
            got = out.data.copy()
            loss = self._loss(out, weight)
        backward(loss)
        rk, rb = split_kernel(a["kernel"], 2)
        with Tape():
            ref = composed_features(x, rk, rb, basis)
            ref_loss = self._loss(ref, weight)
        backward(ref_loss)
        assert (ref.data > 0.0).any() and (ref.data[..., :3] == 0.0).any()
        self.assert_matches_composed(got, ref.data)
        self.assert_matches_composed(kernel.grad,
                                     with_bias_row(rk.grad, rb.grad))

    @pytest.mark.parametrize("depth", [8, 0])
    def test_matches_finite_differences(self, depth):
        x, a, basis, weight = self._arrays(depth, 72)

        def forward(arrays, record=False):
            ts = {n: Tensor(v, requires_grad=record) for n, v in arrays.items()}
            return self._loss(nm.frame_features(x, ts["kernel"], basis),
                              weight), ts

        with Tape():
            loss, ts = forward(a, record=True)
        backward(loss)
        numeric = fd_grads(lambda arrays: forward(arrays)[0].item(), a)
        for name in a:
            assert_close_to_fd(ts[name].grad, numeric[name])

    def test_shared_gradient_is_not_masked_in_place(self):
        # add hands one gradient array to both inputs; the interior tensor
        # recorded before the encoder runs backward after it, so masking
        # that array in place would zero the interior's gradient cells
        x, a, basis, weight = self._arrays(8, 75)
        lead = np.random.default_rng(76).normal(size=weight.shape)

        def run(features, kernel):
            ts = {"lead": Tensor(lead, requires_grad=True), "kernel": kernel}
            with Tape():
                interior = nm.scale(ts["lead"], 2.0)
                out = features()
                loss = self._loss(nm.add(interior, out), weight)
            backward(loss)
            return ts

        kernel = Tensor(a["kernel"], requires_grad=True)
        got = run(lambda: nm.frame_features(x, kernel, basis), kernel)
        rk, rb = split_kernel(a["kernel"], 2)
        ref = run(lambda: composed_features(x, rk, rb, basis), None)
        assert np.array_equal(got["lead"].grad, 2.0 * weight)
        assert np.array_equal(got["lead"].grad, ref["lead"].grad)
        self.assert_matches_composed(kernel.grad,
                                     with_bias_row(rk.grad, rb.grad))

    def test_frames_needing_a_gradient_raise(self):
        x, a, basis, _ = self._arrays(8, 73)
        kernel = Tensor(a["kernel"], requires_grad=True)
        with pytest.raises(TapeError):
            nm.frame_features(Tensor(x, requires_grad=True), kernel, basis)
        with Tape():
            recorded = nm.scale(Tensor(x, requires_grad=True), 1.0)
            with pytest.raises(TapeError):
                nm.frame_features(recorded, kernel, basis)

    def test_bad_shapes_raise(self):
        x, a, basis, _ = self._arrays(8, 74)
        with pytest.raises(ShapeError):
            nm.frame_features(x[0], a["kernel"], basis)
        with pytest.raises(ShapeError):         # no bias row
            nm.frame_features(x, a["kernel"][:-1], basis)
        with pytest.raises(ShapeError):
            nm.frame_features(x, a["kernel"], basis[1:])


class TestFrameFeaturesInRowBlocks(TestFrameFeatures):
    """The same oracles with the row-block bound lowered so that the 24-row
    inputs run as blocks of 10, 10 and 4 rows: a partial last block, and a
    kernel gradient summed over the blocks in another order than the
    composed conv's one product. BLAS picks its kernel by shape, and with
    this 3-column kernel a 10- or 4-row block takes another path than 24
    rows, so the output too may differ in its last bits."""

    assert_matches_composed = staticmethod(assert_close_to_roundoff)

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        # 10 rows of the (19, 3) kernel per block
        monkeypatch.setattr(tensor, "_BLAS_SMALL", 10 * 19 * 3)


def test_frame_features_at_the_agents_shapes_runs_in_row_blocks():
    # 13 frames of 10x10x3 and the agents' (28, 64) kernel: 1,300 rows, two
    # blocks of 558 and one of 184. Each output row is the same 28-term dot
    # product in any of these blocks; the kernel gradient sums the blocks'
    # products in another order than one product does
    rng = np.random.default_rng(79)
    x = rng.normal(size=(13, 10, 10, 3))
    kd = rng.normal(size=(28, 64), scale=0.3)
    basis = with_ones_channel(rng.normal(size=(10, 10, 8)))
    weight = Tensor(rng.normal(size=(13, 10, 10, 73)))
    assert tensor._BLAS_SMALL // kd.size == 558
    kernel = Tensor(kd, requires_grad=True)
    untaped = nm.frame_features(x, kernel, basis).data
    with Tape():
        out = nm.frame_features(x, kernel, basis)
        got = out.data.copy()
        loss = nm.sum_all(nm.mul(out, weight))
    backward(loss)
    rk, rb = split_kernel(kd, 3)
    with Tape():
        ref = composed_features(x, rk, rb, basis)
        ref_loss = nm.sum_all(nm.mul(ref, weight))
    backward(ref_loss)
    assert np.array_equal(untaped, ref.data)
    assert np.array_equal(got, ref.data)
    assert_close_to_roundoff(kernel.grad, with_bias_row(rk.grad, rb.grad))


class TestLending:
    """The pool that lends ``frame_features``' arrays from tape to tape, and
    the scratch its untaped calls reuse."""

    def _record(self, x, kernel):
        """Record one node and its loss on a tape of its own."""
        with Tape() as tape:
            out = nm.frame_features(x, kernel, np.zeros(x.shape[1:3] + (1,)))
            loss = nm.sum_all(nm.mul(out, out))
        return tape, out, loss

    def _params(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=(2, 3, 4, 2)),
                Tensor(rng.normal(size=(9 * 2 + 1, 3)), requires_grad=True))

    def setup_method(self):
        gc.collect()            # drop tapes that earlier tests left unconsumed

    def test_next_tape_reuses_the_consumed_tapes_arrays(self):
        x, kernel = self._params(81)
        _, first, loss = self._record(x, kernel)
        backward(loss)
        _, second, _ = self._record(x, kernel)
        assert np.shares_memory(first.data, second.data)

    def test_unconsumed_tape_keeps_its_arrays(self):
        xa, ka = self._params(82)
        xb, kb = self._params(83)
        _, out_a, loss_a = self._record(xa, ka)
        _, out_b, loss_b = self._record(xb, kb)
        assert not np.shares_memory(out_a.data, out_b.data)
        backward(loss_b)
        backward(loss_a)
        for x, kernel in ((xa, ka), (xb, kb)):
            ref = Tensor(kernel.data, requires_grad=True)
            backward(self._record(x, ref)[2])
            assert np.array_equal(kernel.grad, ref.grad)

    def test_untaped_calls_leave_the_pool_alone(self):
        x, kernel = self._params(84)
        _, first, loss = self._record(x, kernel)
        backward(loss)
        basis = np.zeros((3, 4, 1))
        for frames in (x, x[:1]):
            out = nm.frame_features(frames, kernel, basis)
            assert not np.shares_memory(out.data, first.data)
        _, second, _ = self._record(x, kernel)
        assert np.shares_memory(first.data, second.data)

    def test_dropped_tape_does_not_pin_the_pool(self):
        x, kernel = self._params(85)
        tape, out, loss = self._record(x, kernel)
        lent = out.data
        holder = weakref.ref(tape)
        del tape, out, loss
        gc.collect()
        assert holder() is None
        _, again, _ = self._record(x, kernel)
        assert np.shares_memory(lent, again.data)

    def test_tape_keeps_columns_and_a_bool_mask(self, monkeypatch):
        # the minibatch shape of train_colorgather_wide: 128 frames of
        # 10x10x3, 64 filters, a basis of depth 8 and its ones channel; no
        # float (n, 64) pre-activation is kept, taped or not, and the mask
        # covers whole output rows
        monkeypatch.setattr(tensor, "_POOL", {})
        monkeypatch.setattr(tensor, "_SCRATCH", {})
        rng = np.random.default_rng(77)
        x = rng.normal(size=(128, 10, 10, 3))
        kernel = Tensor(rng.normal(size=(28, 64), scale=0.3),
                        requires_grad=True)
        basis = with_ones_channel(rng.normal(size=(10, 10, 8)))
        with Tape():
            loss = nm.sum_all(nm.frame_features(x, kernel, basis))
        backward(loss)
        kept = {key: entry[0] for key, entry in tensor._POOL.items()}
        assert {key: (arr.shape, arr.dtype) for key, arr in kept.items()} == {
            "frame_features.padded": ((128, 12, 12, 3), np.float64),
            "frame_features.cols": ((12800, 28), np.float64),
            "frame_features.out": ((128, 10, 10, 73), np.float64),
            "frame_features.mask": ((12800, 73), np.bool_),
        }
        nm.frame_features(x, kernel, basis)
        assert tensor._POOL.keys() == kept.keys()
        assert {key: arr.shape for key, arr in tensor._SCRATCH.items()} == {
            "frame_features.padded": (128, 12, 12, 3),
            "frame_features.cols": (12800, 28),
        }

    # untaped calls: scratch arrays inside the call, a fresh output

    @staticmethod
    def _composed(x, kernel, basis):
        """The composed ops, every array fresh."""
        return composed_features(x, *split_kernel(kernel.data, x.shape[3]),
                                 basis).data

    def test_untaped_outputs_are_fresh_and_kept(self):
        xa, kernel = self._params(86)
        xb = np.random.default_rng(87).normal(size=xa.shape)
        basis = np.random.default_rng(88).normal(size=(3, 4, 2))
        out_a = nm.frame_features(xa, kernel, basis)
        kept = out_a.data.copy()
        out_b = nm.frame_features(xb, kernel, basis)
        assert not np.shares_memory(out_a.data, out_b.data)
        assert np.array_equal(out_a.data, kept)
        assert np.array_equal(out_a.data, self._composed(xa, kernel, basis))
        assert np.array_equal(out_b.data, self._composed(xb, kernel, basis))

    def test_padded_border_stays_zero_across_shape_changes(self):
        x, kernel = self._params(89)
        rng = np.random.default_rng(90)
        # every frame cell far from zero, so a stale border would show
        small = np.abs(x) + 5.0
        large = rng.uniform(5.0, 9.0, size=(3, 5, 6, 2))
        for frames in (small, large, small, small[:1], large[:2], small):
            basis = np.zeros(frames.shape[1:3] + (1,))
            out = nm.frame_features(frames, kernel, basis)
            assert np.array_equal(out.data,
                                  self._composed(frames, kernel, basis))

    def test_untaped_calls_between_taped_ones_keep_lending_the_pool(self):
        x, kernel = self._params(91)
        _, first, loss = self._record(x, kernel)
        backward(loss)
        basis = np.zeros((3, 4, 1))
        outs = [nm.frame_features(x, kernel, basis) for _ in range(2)]
        _, second, _ = self._record(x, kernel)
        assert np.shares_memory(first.data, second.data)
        assert not any(np.shares_memory(o.data, second.data) for o in outs)

    def test_taped_call_does_not_alias_the_scratch(self):
        x, kernel = self._params(92)
        other = np.random.default_rng(93).normal(size=x.shape)
        basis = np.zeros((3, 4, 1))
        nm.frame_features(x, kernel, basis)     # the scratch holds x's arrays
        _, out, loss = self._record(x, kernel)
        kept = out.data.copy()
        # an untaped call between the taped forward and its backward writes
        # the scratch; the tape's columns and mask must not move
        nm.frame_features(other, kernel, basis)
        backward(loss)
        assert np.array_equal(out.data, kept)
        rk, rb = split_kernel(kernel.data, 2)
        with Tape():
            ref = composed_features(x, rk, rb, basis)
            ref_loss = nm.sum_all(nm.mul(ref, ref))
        backward(ref_loss)
        assert np.array_equal(kernel.grad, with_bias_row(rk.grad, rb.grad))


# ---------------------------------------------------------------------------
# adam


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        flat = np.array([1.0, -2.0])
        st = AdamState(2, lr=1e-3)
        adam_update(flat, np.zeros(2), st)
        assert np.array_equal(flat, [1.0, -2.0])

    def test_first_step_scalar_oracle(self):
        lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-8
        g = 0.37
        flat = np.array([2.0])
        st = AdamState(1, lr=lr, beta1=b1, beta2=b2, eps=eps)
        adam_update(flat, np.array([g]), st)
        m = (1 - b1) * g / (1 - b1)
        v = (1 - b2) * g * g / (1 - b2)
        expected = 2.0 - lr * m / (math.sqrt(v) + eps)
        assert abs(flat[0] - expected) < 1e-15

    def test_constant_gradient_monotone_decrease(self):
        flat = np.array([0.0])
        st = AdamState(1, lr=1e-4)
        prev = 0.0
        for _ in range(100):
            adam_update(flat, np.array([1.0]), st)
            assert flat[0] < prev
            prev = flat[0]

    def test_matches_scalar_reference_over_steps(self):
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
        rng = np.random.default_rng(17)
        flat = rng.normal(size=4)
        st = AdamState(4, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref = flat.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 21):
            g = rng.normal(size=4)
            adam_update(flat, g, st)
            for j in range(4):
                m[j] = b1 * m[j] + (1 - b1) * g[j]
                v[j] = b2 * v[j] + (1 - b2) * g[j] * g[j]
                mh = m[j] / (1 - b1 ** t)
                vh = v[j] / (1 - b2 ** t)
                ref[j] -= lr * mh / (math.sqrt(vh) + eps)
        assert np.max(np.abs(flat - ref)) < 1e-12

    def test_step_counter_increases(self):
        flat = np.zeros(1)
        st = AdamState(1)
        for expect in (1, 2, 3):
            adam_update(flat, np.zeros(1), st)
            assert st.step == expect

    @pytest.mark.parametrize("grad_size, state_size", [(3, 4), (4, 3)])
    def test_shape_mismatch_raises(self, grad_size, state_size):
        flat = np.ones(4)
        st = AdamState(state_size)
        with pytest.raises(ValueError, match="adam_update"):
            adam_update(flat, np.ones(grad_size), st)
        assert st.step == 0
        assert np.array_equal(flat, np.ones(4))


# ---------------------------------------------------------------------------
# determinism and serialization


class TestDeterminism:
    def test_repeated_forward_bit_identical(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 6, 6, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        outs = []
        for _ in range(3):
            f = nm.relu(nm.conv2d(Tensor(x), Tensor(k), Tensor(b)))
            outs.append(nm.softmax(nm.spatial_mean(f)).data)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    def test_backward_bit_identical(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(2, 4, 4, 2))
        kv = rng.normal(size=(3, 3, 2, 3))
        grads = []
        for _ in range(2):
            k = Tensor(kv, requires_grad=True)
            with Tape():
                loss = nm.sum_all(nm.conv2d(Tensor(x), k, Tensor(np.zeros(3))))
            backward(loss)
            grads.append(k.grad)
        assert np.array_equal(grads[0], grads[1])
