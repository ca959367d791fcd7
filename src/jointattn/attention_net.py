"""Recurrent visual-attention agent.

Pipeline per step: a 3x3 conv (ReLU) extracts features F from the 3-channel
grid observation; a fixed sinusoidal spatial basis is appended along
channels; queries q for m heads come from the previous LSTM state, so
attention at step t depends on (obs_t, h_{t-1}) only. Each head's keys and
values are affine maps of the features, K_m = F Wk_m + bk_m and
V_m = F Wv_m + bv_m, but they are never formed: the contractions fold the
projections into the query and the read-out instead,

    logits[p, m] = F[p] . (Wk_m q_m) + bk_m . q_m
    O_m          = (sum_p w[p, m] F[p]) Wv_m + bv_m sum_p w[p, m],

with w the per-head softmax over all positions (the attention maps). O
enters the LSTM together with an embedded pose vector. Policy and value
heads sit on top of the LSTM and share no parameters.

Every bias of the conv, keys, values, query and LSTM is the last row of
its weight's matrix: the bias follows the weight in ``AgentCore.flat``, so
[W; b] is one view (``AgentCore.affine``), and each layer's input carries
a trailing 1. The attention arms' features end in a constant-1 channel
after the basis, so bk_m and bv_m are the last rows of [Wk; bk] and
[Wv; bv] and the two contractions above are single products over F's
channels; the bias terms are the ones channel's share, and sum_p w[p, m]
is that channel of the read-out. keys/b's gradient is zero in exact
arithmetic: bk_m . q_m adds the same logit at every position of head m,
and the softmax over positions is shift-invariant, so what the last row
of the key gradient holds is roundoff.

Every entry point acts on a batch: frames are (batch, h, w, 3), features
(batch, h, w, d), recurrent states (batch, cell) and action logits
(batch, actions); an unbatched input raises ``ShapeError``.

``encode_features`` is the frame encoder: the conv, its ReLU and the
appended basis (and its ones channel) are the single tape op
``nm.frame_features``, for every arm (the basis has depth 0 without
attention). ``agent_step`` is the one network pass over those features,
for acting (T = 1) and for the PPO replay of a stored chunk (T steps)
alike. It runs ``encode`` (the pose embedding, and the pooling without
attention) over all T*B rows at once, then the T steps of query ->
attention -> LSTM, and then ``heads`` (policy and value from h) once over
the stacked states; the recurrence is the single tape op
``nm.attention_lstm``, whose backward runs through time by hand. A row's
features depend on its frame alone, so an acting loop, where no parameter
changes, encodes a frame only when it differs from the last one
(``training.KeptFeatures``); the replay encodes its minibatch under the
tape. ``query_from_state`` and ``compute_attention`` build the same query
and attention from the composed tape ops; they are the reference the fused
recurrence is tested against.

With ``use_attention=False`` the conv features are globally mean-pooled and
fed to the LSTM directly; no maps are produced, no attention parameters
exist, and the features have no ones channel.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import Tensor


def build_spatial_basis(h: int, w: int, c_s: int = 8) -> np.ndarray:
    """Fixed (h, w, c_s) sinusoidal position basis.

    The first c_s/2 channels encode x (the column index), the last c_s/2
    encode y (the row index). Within each half, frequency index i runs from
    1 to c_s/4 with divisor 100**(4*i/c_s); channel 2*(i-1) carries
    sin(coord/divisor) and channel 2*(i-1)+1 carries cos(coord/divisor).
    Coordinates are 0-based cell indices.
    """
    if c_s % 4 != 0:
        raise ValueError(f"basis depth must be divisible by 4, got {c_s}")
    basis = np.zeros((h, w, c_s))
    if c_s == 0:
        return basis
    half = c_s // 2
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    for i in range(1, c_s // 4 + 1):
        div = 100.0 ** (4.0 * i / c_s)
        off = 2 * (i - 1)
        basis[:, :, off] = np.sin(xs / div)[None, :]
        basis[:, :, off + 1] = np.cos(xs / div)[None, :]
        basis[:, :, half + off] = np.sin(ys / div)[:, None]
        basis[:, :, half + off + 1] = np.cos(ys / div)[:, None]
    return basis


_ONE_HOT_DIRECTIONS = np.eye(4)


def pose_vector(x, y, direction) -> np.ndarray:
    """Scalar inputs for one agent: (x, y, one-hot direction of 4); given
    equal-shape integer arrays, one such row per element, (..., 6)."""
    x = np.asarray(x)
    v = np.zeros(x.shape + (6,))
    v[..., 0] = x
    v[..., 1] = y
    v[..., 2:] = _ONE_HOT_DIRECTIONS[direction]
    return v


class RecurrentState:
    """Per-agent, per-episode LSTM state; zeros at episode start."""

    __slots__ = ("h", "c")

    def __init__(self, h, c):
        self.h = h
        self.c = c

    def detach(self) -> "RecurrentState":
        """Plain-array copy of the state (drops any tape linkage)."""
        h = self.h.data if isinstance(self.h, Tensor) else self.h
        c = self.c.data if isinstance(self.c, Tensor) else self.c
        return RecurrentState(h.copy(), c.copy())


class AttentionMaps:
    """Per-head attention fields and their head-mean, as plain arrays.

    ``per_head`` is (batch, m, h, w) and ``mean_map`` (batch, h, w), the
    head axis averaged out, formed each time it is read. ``head_logits``
    keeps the pre-softmax scores, shaped as ``per_head``, for the clipped
    incentive variant. These are plain arrays off the tape, to be read, not
    written: the differentiable path to the policy stays inside the forward
    pass.
    """

    __slots__ = ("per_head", "head_logits")

    def __init__(self, per_head: np.ndarray, head_logits: np.ndarray):
        self.per_head = per_head
        self.head_logits = head_logits

    @property
    def mean_map(self) -> np.ndarray:
        return self.per_head.mean(axis=1)


# the layers whose bias directly follows its weight in ``AgentCore.flat``
AFFINE = ("conv", "keys", "values", "query", "lstm")


class AgentCore:
    """Parameters and forward passes for one agent.

    All parameters live in ``self.params`` (name -> Tensor with
    requires_grad); their ``.data`` and ``.grad`` are views, in ``params``
    order, into two float64 vectors, ``self.flat`` and ``self.grad``.
    ``self.affine`` (layer -> Tensor) holds the [W; b] view of each layer
    of ``AFFINE`` the network has, the one the layer's op reads and whose
    gradient it writes. ``views`` alone knows the offsets; a copy binds its
    views again.
    ``forward_calls`` counts the network passes, the ``agent_step`` calls,
    the PPO replay's included, so training can prove the incentive adds no
    extra network passes to a collect.
    """

    def __init__(self, height: int, width: int, num_actions: int = 7,
                 obs_channels: int = 3, conv_filters: int = 64,
                 basis_depth: int = 8, num_heads: int = 4, head_depth: int = 16,
                 cell_size: int = 64, scalar_embed: int = 5,
                 use_attention: bool = True, seed: int = 0):
        self.height = height
        self.width = width
        self.num_actions = num_actions
        self.obs_channels = obs_channels
        self.conv_filters = conv_filters
        self.basis_depth = basis_depth
        self.num_heads = num_heads
        self.head_depth = head_depth
        self.cell_size = cell_size
        self.scalar_embed = scalar_embed
        self.use_attention = use_attention
        self.forward_calls = 0

        self.basis = build_spatial_basis(height, width, basis_depth if use_attention else 0)
        if use_attention:       # the constant 1 of the affine keys and values
            self.basis = np.concatenate([self.basis, np.ones((height, width, 1))],
                                        axis=2)
        feat_dim = conv_filters + (basis_depth if use_attention else 0)
        kv_dim = num_heads * head_depth
        lstm_in = (kv_dim if use_attention else conv_filters) + scalar_embed

        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}

        def glorot(shape, fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)

        def zeros(shape):
            return Tensor(np.zeros(shape), requires_grad=True)

        p["conv/k"] = glorot((3, 3, obs_channels, conv_filters),
                             9 * obs_channels, 9 * conv_filters)
        p["conv/b"] = zeros(conv_filters)
        if use_attention:
            p["keys/w"] = glorot((feat_dim, kv_dim), feat_dim, kv_dim)
            p["keys/b"] = zeros(kv_dim)
            p["values/w"] = glorot((feat_dim, kv_dim), feat_dim, kv_dim)
            p["values/b"] = zeros(kv_dim)
            p["query/w"] = glorot((cell_size, kv_dim), cell_size, kv_dim)
            p["query/b"] = zeros(kv_dim)
        p["embed/w"] = glorot((6, scalar_embed), 6, scalar_embed)
        p["embed/b"] = zeros(scalar_embed)
        p["lstm/w"] = glorot((lstm_in + cell_size, 4 * cell_size),
                             lstm_in + cell_size, 4 * cell_size)
        p["lstm/b"] = zeros(4 * cell_size)
        for head in ("policy", "value"):
            out_dim = num_actions if head == "policy" else 1
            p[f"{head}/w1"] = glorot((cell_size, 64), cell_size, 64)
            p[f"{head}/b1"] = zeros(64)
            p[f"{head}/w2"] = glorot((64, 64), 64, 64)
            p[f"{head}/b2"] = zeros(64)
            p[f"{head}/out_w"] = glorot((64, out_dim), 64, out_dim)
            p[f"{head}/out_b"] = zeros(out_dim)
        self.params = p
        self.affine = {layer: Tensor(0.0, requires_grad=True)
                       for layer in AFFINE if f"{layer}/b" in p}
        self.flat = np.concatenate([t.data.reshape(-1) for t in p.values()])
        self.grad = np.zeros(self.flat.shape)
        self._bind()

    def views(self, vec: np.ndarray, affine: bool = False) -> dict:
        """{name: view shaped as the parameter} of a vector laid out as
        ``flat``; with ``affine``, {layer: [W; b] view} for each layer of
        ``AFFINE`` instead: its weight, as a (rows, cols) matrix with cols
        the bias length, directly followed by its bias, one (rows + 1, cols)
        view."""
        out, start, offset = {}, 0, 0
        for name, t in self.params.items():
            end = offset + t.data.size
            layer, part = name.split("/")
            if not affine:
                out[name] = vec[offset:end].reshape(t.shape)
            elif part == "b" and layer in self.affine:
                # the weight starts where the previous parameter did
                out[layer] = vec[start:end].reshape(-1, t.data.size)
            start, offset = offset, end
        return out

    def _bind(self) -> None:
        for affine, tensors in ((False, self.params), (True, self.affine)):
            grads = self.views(self.grad, affine)
            for name, data in self.views(self.flat, affine).items():
                tensors[name].data, tensors[name].grad = data, grads[name]

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    # -- layers ---------------------------------------------------------------

    def initial_state(self, batch: int) -> RecurrentState:
        """Zero h and c for ``batch`` sequences, each (batch, cell)."""
        shape = (batch, self.cell_size)
        return RecurrentState(np.zeros(shape), np.zeros(shape))

    def query_from_state(self, h_prev) -> Tensor:
        """Queries (batch, m, c_m) for the next frames from the previous
        LSTM states h_prev (batch, cell): [h_prev, 1] @ [W; b]."""
        h = h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev)
        q = nm.dense(nm.concat_last(h, np.ones((h.shape[0], 1))),
                     self.affine["query"])
        return nm.reshape(q, (q.shape[0], self.num_heads, self.head_depth))

    def encode_features(self, obs) -> Tensor:
        """Conv + ReLU features of a batch of frames (n, h, w, channels),
        with the spatial basis (and, with attention, its ones channel)
        appended: one ``nm.frame_features`` node."""
        x = obs if isinstance(obs, Tensor) else Tensor(obs)
        if x.ndim != 4 or x.shape[1:3] != (self.height, self.width):
            raise nm.ShapeError(
                f"observations {x.shape} are not a batch of "
                f"({self.height}, {self.width}) frames"
            )
        return nm.frame_features(x, self.affine["conv"], self.basis)

    def compute_attention(self, features, queries) -> tuple:
        """Per-head maps and the filtered output O.

        features are (batch, h, w, d) as ``encode_features`` gives them,
        the last channel constant 1, and queries (batch, m, c_m). Returns
        (AttentionMaps, O tensor) with O of shape (batch, m, c_m).
        """
        f = features if isinstance(features, Tensor) else Tensor(features)
        if f.ndim != 4:
            raise nm.ShapeError(f"features {f.shape} are not (batch, h, w, d)")
        b, h, w, _ = f.shape
        grid = (b, self.num_heads, h, w)
        logits = nm.attention_scores(f, queries, self.affine["keys"])
        weights = nm.softmax(logits)                               # (b, m, pos)
        out = nm.attention_apply(weights, f, self.affine["values"])  # (b, m, c)
        return AttentionMaps(weights.data.reshape(grid).copy(),
                             logits.data.reshape(grid).copy()), out

    # -- the three pieces of a step -------------------------------------------

    def encode(self, features, p) -> tuple:
        """Frame-only work after the encoder: (features, frame_in).

        features are (n, h, w, d) as ``encode_features`` gives them and p
        the (n, 6) pose matrix. The first item is the features when
        attention reads them, None when attention is off; frame_in is the
        part of the LSTM input that depends on the frame alone: the
        embedded pose, after the pooled conv features when attention is off.
        """
        embedded = nm.dense(p, self.params["embed/w"], self.params["embed/b"])
        if self.use_attention:
            return features, embedded
        return None, nm.concat_last(nm.spatial_mean(features), embedded)

    def heads(self, h) -> tuple:
        """Policy logits (n, actions) and values (n,) from LSTM states (n, cell)."""

        def head(name: str) -> Tensor:
            z = nm.relu(nm.dense(h, self.params[f"{name}/w1"],
                                 self.params[f"{name}/b1"]))
            z = nm.relu(nm.dense(z, self.params[f"{name}/w2"],
                                 self.params[f"{name}/b2"]))
            return nm.dense(z, self.params[f"{name}/out_w"],
                            self.params[f"{name}/out_b"])

        return head("policy"), nm.reshape(head("value"), (h.shape[0],))

    # -- the network pass -----------------------------------------------------

    def agent_step(self, features, p, state: RecurrentState, resets=None):
        """The network pass, for acting and replay alike: (action_logits,
        values, maps, new_state).

        features are the (T*B, h, w, d) time-major ``encode_features`` of
        the frames, as a tensor or an array, and p their (T*B, 6) poses;
        anything else, frames included, raises ``ShapeError``. state holds
        the (B, cell) h and c before step 0 (arrays or tensors), and B is
        its row count. resets is None (no reset, as when acting at T = 1) or
        a (T, B) bool mask: where set at t > 0 the state is zeroed before
        step t, as the rollout did at an episode start. ``encode`` and the
        heads each run once over all T*B rows, and the T steps of query
        from h_{t-1} -> attention -> LSTM are one tape node,
        ``nm.attention_lstm``. action_logits are (T*B, actions) and values
        (T*B,); maps hold every step's fields, time-major, or are None when
        attention is off. new_state is the state after step T-1: at T = 1
        both are tape tensors, so chained calls under a tape stay
        differentiable; at T > 1 they are plain arrays.
        """
        self.forward_calls += 1
        x = features if isinstance(features, Tensor) else Tensor(features)
        pv = p if isinstance(p, Tensor) else Tensor(p)
        B = state.h.shape[0]
        row = (self.height, self.width,
               self.conv_filters + self.basis.shape[2])
        if x.ndim != 4 or x.shape[1:] != row or pv.ndim != 2 \
                or pv.shape[0] != x.shape[0] or x.shape[0] % B:
            raise nm.ShapeError(
                f"agent_step expects (T*B, ...) features of {row} and "
                f"poses for B = {B} sequences, got features {x.shape}, "
                f"p {pv.shape}")
        T = x.shape[0] // B
        if resets is None:
            keep = np.ones((T, B))
        else:
            keep = 1.0 - np.asarray(resets, dtype=np.float64)
            if keep.shape != (T, B):
                raise nm.ShapeError(f"agent_step: resets {keep.shape} are "
                                    f"not (T, B) = {(T, B)}")
            keep[0] = 1.0
        features, frame_in = self.encode(x, pv)
        a = self.affine
        attention = None
        if self.use_attention:
            attention = (features, a["query"], a["keys"], a["values"])
        hs, c, weights, logits = nm.attention_lstm(
            frame_in, state.h, state.c, keep, a["lstm"], attention,
            self.num_heads)
        h = nm.reshape(hs, (T * B, self.cell_size))
        maps = None
        if weights is not None:
            grid = (T * B, self.num_heads, self.height, self.width)
            maps = AttentionMaps(weights.reshape(grid), logits.reshape(grid))
        action_logits, values = self.heads(h)
        new_state = RecurrentState(h, c) if T == 1 \
            else RecurrentState(hs.data[-1], c.data)
        return action_logits, values, maps, new_state


def act(action_logits, mode: str, rng: np.random.Generator | None = None):
    """Pick actions from logits.

    action_logits is (batch, actions). greedy: argmax, ties to the lowest
    index. sample: categorical draw from softmax(logits) using ``rng``, one
    uniform per row. Returns (actions, log_probs), both (batch,) arrays.
    """
    logits = action_logits.data if isinstance(action_logits, Tensor) else np.asarray(action_logits, dtype=np.float64)
    if logits.ndim != 2:
        raise nm.ShapeError(f"act expects (batch, actions) logits, got {logits.shape}")
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    if mode == "greedy":
        actions = np.argmax(logits, axis=-1)
    elif mode == "sample":
        if rng is None:
            raise ValueError("sampling requires an rng")
        cum = np.cumsum(e / total, axis=-1)
        u = rng.random(logits.shape[0])
        actions = (cum < u[:, None]).sum(axis=-1)
        actions = np.minimum(actions, logits.shape[-1] - 1)
    else:
        raise ValueError(f"unknown action mode {mode!r}")
    # the picked entries of the log-softmax, without forming the full table
    picked = z[np.arange(logits.shape[0]), actions] - np.log(total[:, 0])
    return actions.astype(np.int64), picked
