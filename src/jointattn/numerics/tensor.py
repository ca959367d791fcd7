"""float64 tensors with a reverse-mode tape.

Everything is dense, row-major and 64-bit. The op set is exactly what the
agent networks and the PPO losses need. The affine, convolution and
recurrent ops take a batch only, as a required leading axis; an unbatched
input raises ``ShapeError``. ``lstm_step``, ``attention_scores`` and
``attention_apply`` are the composed form of the recurrence
``attention_lstm`` runs as one node, and ``conv2d`` (with ``relu`` and
``concat_last``) that of the encoder ``frame_features``; they are kept as
the fused ops' test reference.

Bias as the last row: ``frame_features`` and ``attention_lstm`` take each
affine layer as one [W; b] matrix, the bias as its last row, and give the
layer's input a trailing 1 (the im2col columns' last column, the
features' last channel, the 1 after h in the LSTM's input row). The bias
is then added inside the layer's matrix product, and its gradient is the
last row of the product that forms the matrix's gradient: no add pass and
no reduction of its own. The composed ops do the same arithmetic, so the
fused ops match them bit for bit: ``conv2d`` and ``lstm_step`` stack their
weight and bias into one matrix, and ``attention_scores`` and
``attention_apply`` are linear in features that carry the ones channel.
``dense``, for the pose embedding and the heads, adds its bias.

Recording happens only while a ``Tape`` is active, so rollout-time forward
passes pay nothing beyond a flag check per op.

Whole, in-place passes: the fused ops spend their time in elementwise
passes as much as in their products, so those passes run over contiguous
memory and into the arrays that keep their results. NumPy walks a view of
some columns of a row-major array one row at a time, at 2-3x the cost of
one contiguous pass, so ``frame_features`` computes and applies its ReLU
mask over whole output rows, the basis columns included, and reads the
first c_out columns only in the kernel-gradient product, whose BLAS call
takes the row stride. ``attention_lstm`` computes each step's gates with
``_sigmoid``'s own four passes (negative, exp, +1, reciprocal) in place,
so it still matches ``lstm_step`` bit for bit, and multiplies each h and
c by the next step's ``keep`` row as it writes them into that step's
input row and kept state.

Row blocks: NumPy's OpenBLAS runs a product of at most ``_BLAS_SMALL``
(10^6) multiply-adds on its small-matrix kernel and a larger one on its
packed path, which first copies its operands into panels; at the agents'
(28, 64) conv kernel that costs 1.5-2x the time per row, from 559 rows
on. So ``frame_features`` runs its conv product, taped or not, and the
product that forms its kernel's gradient in row blocks of at most that many
multiply-adds: 558 rows at (28, 64). Each block of the output is written
into its own rows. At the agents' shapes every output row is the same
28-term dot product in a block as in one product, so the output stays bit
for bit that of ``conv2d``, which stays one product; BLAS does not promise
this at every shape (a 3-column kernel in 10-row blocks differs in its last
bits). The kernel's gradient adds the blocks' products in order, a sum in
another order than one product's, so it differs in its last bits.

Buffers lent from tape to tape: under a tape, ``frame_features`` writes
its padded frames, columns, output and bool ReLU mask into arrays lent by
a pool that keeps one array per key, so that a PPO minibatch does not
allocate (and the allocator page in) them afresh. A key's array is held
by one tape at a time and passes to the next tape that asks only once its
holder has been consumed (``backward`` or ``Tape.clear``) or
garbage-collected; a live unconsumed holder keeps it, and a second request
within the same tape gets a fresh array. So the outputs of a consumed
tape may be overwritten by the next tape's ops: read what you need from a
recorded forward pass before recording the next one. A request of a new
shape replaces the key's array. Calls with no active tape leave the pool
alone.

A backward may also write over a buffer no other node reads.
``attention_lstm`` puts its feature gradient over the features' forward
values when its node is their only consumer on the tape and their
producer's backward never reads them (``Tensor.uses``; ``frame_features``'
output under a tape); leaf features, and features with a second consumer,
keep their values. ``frame_features`` then multiplies its mask into that
gradient in place, but only when the gradient it is handed is its own
output's array: any other gradient array may be shared (``add`` hands one
array to both inputs), so it masks a copy. So read the forward values you
need before ``backward``.

Scratch for untaped calls: with no active tape (acting, evaluation,
rendering), ``frame_features`` writes its padded frames and columns into
one scratch array per key, kept apart from the pool and reused by every
untaped call, because those arrays die inside the call. A request of a
new shape replaces the key's scratch array. The output is a fresh array
on every untaped call, so nothing a caller holds is ever overwritten, and
no taped call is handed a scratch array. Without it, a wide act-time
batch allocates (and the allocator pages in) these arrays afresh on every
step. Pool and scratch are process-wide and assume one thread.

Typical use::

    with Tape() as tape:
        out = dense(x, w, b)            # x is (batch, n)
        loss = sum_all(mul(out, out))
    backward(loss)          # populates w.grad, b.grad

A tape can be consumed by ``backward`` exactly once. A ``requires_grad``
leaf is born with a zero ``.grad``, into which gradients accumulate; callers
zero it in place between steps (``zero_grad``). Nothing rebinds an
``AgentCore`` parameter's ``.data`` or ``.grad``: they are views into its
flat vectors.
"""

from __future__ import annotations

import weakref

import numpy as np


class TapeError(RuntimeError):
    """Backward called on an unrecorded loss or an already-consumed tape, or
    a gradient asked of an input an op treats as a constant."""


class ShapeError(ValueError):
    """An operation was called with incompatible shapes."""


class Tensor:
    """Dense float64 array, optionally participating in gradient recording.

    ``requires_grad`` marks leaves (parameters). Outputs of ops never require
    grad themselves; they carry a reference to the tape that recorded them.
    ``uses`` counts the nodes recorded with this tensor as an input, kept
    only for an op output whose own backward never reads it (the op sets it
    to 0); it is None otherwise.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape", "uses")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros(arr.shape) if requires_grad else None
        self.tape: Tape | None = None
        self.uses: int | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class _Node:
    __slots__ = ("outputs", "inputs", "fn", "need")

    def __init__(self, outputs, inputs, fn, need):
        self.outputs = outputs
        self.inputs = inputs
        self.fn = fn
        self.need = need


class Tape:
    """Ordered record of executed ops; replayed in reverse by ``backward``."""

    __slots__ = ("_nodes", "consumed", "__weakref__")

    def __init__(self):
        self._nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = None
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def clear(self) -> None:
        """Drop every recorded node, and with them the arrays the ops saved
        for backward; the tape then counts as consumed.

        Each output tensor points back at its tape, so a tape that is never
        cleared keeps its whole graph alive until the cyclic garbage
        collector runs. ``backward`` clears the tape it consumes.
        """
        self._nodes = []
        self.consumed = True


_ACTIVE: Tape | None = None


def _record(outputs, inputs, fn) -> None:
    tape = _ACTIVE
    if tape is None:
        return
    need = tuple(
        isinstance(t, Tensor) and (t.requires_grad or t.tape is tape)
        for t in inputs
    )
    if not any(need):
        return
    for t, needed in zip(inputs, need):
        if needed and t.uses is not None:
            t.uses += 1
    for o in outputs:
        o.tape = tape
    tape._nodes.append(_Node(outputs, inputs, fn, need))


# key -> [array, weak reference to the tape that holds it]
_POOL: dict[str, list] = {}
# key -> the array every untaped call reuses for what dies inside it
_SCRATCH: dict[str, np.ndarray] = {}


def _lend(tape: Tape | None, key: str, shape: tuple, new=np.empty) -> np.ndarray:
    """An array of ``shape`` for ``tape`` to hold, by the lending rule of
    the module docstring, or with no tape the key's scratch array;
    ``new(shape)`` makes a fresh one. A lent or scratch array keeps what
    its previous user wrote into it."""
    if tape is None:
        arr = _SCRATCH.get(key)
        if arr is None or arr.shape != shape:
            arr = _SCRATCH[key] = new(shape)
        return arr
    entry = _POOL.get(key)
    if entry is not None:
        holder = entry[1]()
        if holder is tape or (holder is not None and not holder.consumed):
            return new(shape)
        if entry[0].shape == shape:
            entry[1] = weakref.ref(tape)
            return entry[0]
    arr = new(shape)
    _POOL[key] = [arr, weakref.ref(tape)]
    return arr


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every requires_grad leaf reachable from ``loss``.

    The loss must be a scalar recorded on a tape; the tape is consumed and a
    second call raises ``TapeError``. Adjoints of interior tensors live only
    for the duration of the sweep, and each node is dropped once it has run
    (``Tape.clear``); leaf grads accumulate additively.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    tape = loss.tape
    if tape is None:
        raise TapeError("loss was not recorded on an active tape")
    if tape.consumed:
        raise TapeError("backward called twice on a consumed tape")
    nodes = tape._nodes
    tape.clear()

    # adjoints are never updated in place (a sum makes a new array), so an
    # op's input gradient is stored as it comes, even when it is a view
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    while nodes:
        node = nodes.pop()
        gouts = [adjoint.pop(id(o), None) for o in node.outputs]
        if all(g is None for g in gouts):
            continue
        gouts = [
            np.zeros_like(o.data) if g is None else g
            for g, o in zip(gouts, node.outputs)
        ]
        gins = node.fn(gouts, node.need)
        for t, g, needed in zip(node.inputs, gins, node.need):
            if not needed or g is None:
                continue
            if t.tape is tape:
                key = id(t)
                acc = adjoint.get(key)
                adjoint[key] = g if acc is None else acc + g
            elif t.requires_grad:
                t.grad += g


def _astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise


def add(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    _same_shape(a, b, "add")
    out = Tensor(a.data + b.data)

    def fn(gouts, need):
        (g,) = gouts
        return (g, g)

    _record((out,), (a, b), fn)
    return out


def sub(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    _same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)

    def fn(gouts, need):
        (g,) = gouts
        return (g, -g)

    _record((out,), (a, b), fn)
    return out


def mul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    _same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    ad, bd = a.data, b.data

    def fn(gouts, need):
        (g,) = gouts
        return (g * bd if need[0] else None, g * ad if need[1] else None)

    _record((out,), (a, b), fn)
    return out


def scale(a, s: float) -> Tensor:
    a = _astensor(a)
    s = float(s)
    out = Tensor(a.data * s)

    def fn(gouts, need):
        (g,) = gouts
        return (g * s,)

    _record((out,), (a,), fn)
    return out


def exp(a) -> Tensor:
    a = _astensor(a)
    out = Tensor(np.exp(a.data))
    od = out.data

    def fn(gouts, need):
        (g,) = gouts
        return (g * od,)

    _record((out,), (a,), fn)
    return out


def relu(a) -> Tensor:
    a = _astensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    mask = a.data > 0.0

    def fn(gouts, need):
        (g,) = gouts
        return (g * mask,)

    _record((out,), (a,), fn)
    return out


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where the input was inside."""
    a = _astensor(a)
    out = Tensor(np.clip(a.data, lo, hi))
    mask = (a.data >= lo) & (a.data <= hi)

    def fn(gouts, need):
        (g,) = gouts
        return (g * mask,)

    _record((out,), (a,), fn)
    return out


def minimum(a, b) -> Tensor:
    """Elementwise min; gradient routes to the smaller input (ties to `a`)."""
    a, b = _astensor(a), _astensor(b)
    _same_shape(a, b, "minimum")
    out = Tensor(np.minimum(a.data, b.data))
    take_a = a.data <= b.data

    def fn(gouts, need):
        (g,) = gouts
        ga = g * take_a if need[0] else None
        gb = g * (~take_a) if need[1] else None
        return (ga, gb)

    _record((out,), (a, b), fn)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # below x = -709.78 exp(-x) overflows to inf and the result is exactly
    # 0, where the true value is a subnormal under 6e-309
    with np.errstate(over="ignore"):
        return np.reciprocal(1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# shape plumbing


def reshape(a, shape) -> Tensor:
    a = _astensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"reshape: {e}") from None
    src_shape = a.data.shape

    def fn(gouts, need):
        (g,) = gouts
        return (g.reshape(src_shape),)

    _record((out,), (a,), fn)
    return out


def concat_last(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    if a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(
            f"concat_last: leading shapes differ {a.data.shape} vs {b.data.shape}"
        )
    out = Tensor(np.concatenate([a.data, b.data], axis=-1))
    na = a.data.shape[-1]

    def fn(gouts, need):
        (g,) = gouts
        return (g[..., :na], g[..., na:])

    _record((out,), (a, b), fn)
    return out


def gather_last(a, index) -> Tensor:
    """Pick one entry along the last axis per leading row: out[b] = a[b, index[b]]."""
    a = _astensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_last expects a 2-d tensor, got {a.data.shape}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.shape != (a.data.shape[0],):
        raise ShapeError(f"gather_last: index shape {idx.shape} vs batch {a.data.shape[0]}")
    rows = np.arange(a.data.shape[0])
    out = Tensor(a.data[rows, idx])
    src_shape = a.data.shape

    def fn(gouts, need):
        (g,) = gouts
        ga = np.zeros(src_shape)
        ga[rows, idx] = g
        return (ga,)

    _record((out,), (a,), fn)
    return out


# ---------------------------------------------------------------------------
# reductions


def sum_all(a) -> Tensor:
    a = _astensor(a)
    out = Tensor(a.data.sum())
    src_shape = a.data.shape

    def fn(gouts, need):
        (g,) = gouts
        return (np.broadcast_to(g, src_shape).copy(),)

    _record((out,), (a,), fn)
    return out


def spatial_mean(a) -> Tensor:
    """Mean over the two spatial axes of a (batch, h, w, c) tensor."""
    a = _astensor(a)
    if a.data.ndim != 4:
        raise ShapeError(f"spatial_mean expects (batch, h, w, c), got {a.data.shape}")
    _, h, w, _ = a.data.shape
    out = Tensor(a.data.mean(axis=(1, 2)))

    def fn(gouts, need):
        (g,) = gouts
        ga = np.broadcast_to(g[:, None, None, :] / (h * w), a.data.shape).copy()
        return (ga,)

    _record((out,), (a,), fn)
    return out


# ---------------------------------------------------------------------------
# softmax family


def softmax(a) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability."""
    a = _astensor(a)
    if a.data.size == 0 or a.data.shape[-1] == 0:
        raise ShapeError("softmax on an empty input")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = Tensor(e / e.sum(axis=-1, keepdims=True))
    s = out.data

    def fn(gouts, need):
        (g,) = gouts
        dot = (g * s).sum(axis=-1, keepdims=True)
        return ((g - dot) * s,)

    _record((out,), (a,), fn)
    return out


def log_softmax(a) -> Tensor:
    a = _astensor(a)
    if a.data.size == 0 or a.data.shape[-1] == 0:
        raise ShapeError("log_softmax on an empty input")
    z = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(z - lse)
    p = np.exp(out.data)

    def fn(gouts, need):
        (g,) = gouts
        return (g - p * g.sum(axis=-1, keepdims=True),)

    _record((out,), (a,), fn)
    return out


# ---------------------------------------------------------------------------
# affine / conv / recurrent


def dense(x, weights, bias=None) -> Tensor:
    """Affine map ``x @ weights + bias``, or the linear ``x @ weights`` with
    no bias; x is (batch, n)."""
    x, weights = _astensor(x), _astensor(weights)
    if weights.data.ndim != 2:
        raise ShapeError(f"dense: weights must be 2-d, got {weights.data.shape}")
    n, m = weights.data.shape
    if bias is not None:
        bias = _astensor(bias)
        if bias.data.shape != (m,):
            raise ShapeError(f"dense: bias shape {bias.data.shape}, expected ({m},)")
    if x.data.ndim != 2 or x.data.shape[1] != n:
        raise ShapeError(f"dense: input shape {x.data.shape} vs weights {weights.data.shape}")
    xd, wd = x.data, weights.data
    out = Tensor(xd @ wd if bias is None else xd @ wd + bias.data)

    def fn(gouts, need):
        (g,) = gouts
        return (g @ wd.T if need[0] else None,
                xd.T @ g if need[1] else None,
                g.sum(axis=0) if need[2] else None)

    _record((out,), (x, weights, bias), fn)
    return out


def conv2d(x, kernels, bias) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1 (output keeps the spatial size).

    x is (batch, h, w, c_in); kernels (3, 3, c_in, c_out). The bias is the
    last row of the (9*c_in + 1, c_out) [kernels; bias] matrix, against the
    columns' trailing 1, as in ``frame_features``.
    """
    x, kernels, bias = _astensor(x), _astensor(kernels), _astensor(bias)
    kd = kernels.data
    if kd.ndim != 4 or kd.shape[:2] != (3, 3):
        raise ShapeError(f"conv2d: kernels must be (3, 3, c_in, c_out), got {kd.shape}")
    _, _, c_in, c_out = kd.shape
    if bias.data.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape}, expected ({c_out},)")
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"conv2d: input must be (batch, h, w, c_in), got {xd.shape}")
    if xd.shape[3] != c_in:
        raise ShapeError(f"conv2d: input channels {xd.shape[3]} vs kernel c_in {c_in}")
    if xd.shape[1] < 1 or xd.shape[2] < 1:
        raise ShapeError("conv2d: spatial extents must be >= 1")
    b, h, w, _ = xd.shape

    cols = _im2col(xd, np.zeros((b, h + 2, w + 2, c_in)),
                   np.empty((b * h * w, 9 * c_in + 1)))
    kflat = np.concatenate([kd.reshape(9 * c_in, c_out), bias.data[None]])
    out = Tensor((cols @ kflat).reshape(b, h, w, c_out))

    def fn(gouts, need):
        (g,) = gouts
        gf = g.reshape(b * h * w, c_out)
        gk = cols.T @ gf if (need[1] or need[2]) else None
        gx = None
        if need[0]:
            dcols = (gf @ kflat[:-1].T).reshape(b, h, w, 3, 3, c_in)
            gpad = np.zeros((b, h + 2, w + 2, c_in))
            for kh in range(3):
                for kw in range(3):
                    gpad[:, kh:kh + h, kw:kw + w, :] += dcols[:, :, :, kh, kw, :]
            gx = gpad[:, 1:h + 1, 1:w + 1, :]
        return (gx, gk[:-1].reshape(kd.shape) if need[1] else None,
                gk[-1] if need[2] else None)

    _record((out,), (x, kernels, bias), fn)
    return out


# OpenBLAS runs a product of at most this many multiply-adds on its
# small-matrix kernel and a larger one on its packed path, which pays for
# packing its operands: (rows x 28) @ (28 x 64) took 36 us at 558 rows and
# 56 us at 559, median of 300 calls (scipy-openblas 0.3.31 under NumPy
# 2.4.6, one thread, a 2-vCPU AVX-512 x86-64 machine); tools/blas_rows.py
# measures it again
_BLAS_SMALL = 10**6


def _im2col(xd, xp, cols):
    """Every 3x3 window of the frames xd (b, h, w, c), zero padded by one
    cell, as the rows of cols (b*h*w, 9*c + 1), ordered (kh, kw, c), and a
    last column of ones, the input of a kernel matrix's bias row.

    xp is a (b, h+2, w+2, c) array whose one-cell border is zero; its
    interior receives xd and the windows are a strided view of it.
    """
    b, h, w, c = xd.shape
    xp[:, 1:h + 1, 1:w + 1] = xd
    sb, sh, sw, sc = xp.strides
    win = np.ndarray((b, h, w, 3, 3, c), np.float64, xp, 0,
                     (sb, sh, sw, sh, sw, sc))
    np.copyto(cols[:, :-1].reshape(b, h, w, 3, 3, c), win)
    cols[:, -1] = 1.0
    return cols


def frame_features(x, kernel, basis) -> Tensor:
    """``concat_last(relu(conv2d(x, kernels, bias)), basis)`` as one node.

    x is a (b, h, w, c_in) batch of frames, kernel the (9*c_in + 1, c_out)
    [kernels; bias] matrix (the 3x3 kernels' rows in (kh, kw, c_in) order,
    then the bias) and basis a fixed (h, w, c_s) array appended to every
    frame's features (c_s may be 0). Returns (b, h, w, c_out + c_s), the
    same values as the composed ops. Frames and basis are constants: a
    gradient asked of either raises ``TapeError``. The conv is the product
    of the columns, whose last column is 1, with the kernel, run in row
    blocks under BLAS's small-matrix bound (module docstring) and written
    straight into the first c_out channels of the output's rows; at the
    agents' shapes it is bit for bit one product. The ReLU runs over
    whole rows, the basis written before it (so it reads only finite cells)
    and again after (so it stays unclipped). The kernel's gradient, bias row
    included, is the sum, block by block in order, of the columns' products
    with the masked gradient: one product's value up to rounding. Under
    a tape the padded frames, the columns, the output and a bool ReLU mask
    are lent by the tape-to-tape pool (module docstring). The mask covers
    the output's whole (n, c_out + c_s) rows, one contiguous pass where the
    first c_out columns alone would be a strided one; its basis part is
    never read. Backward reads only the columns and the mask, never the
    output, so the output's one consumer may write its gradient there
    (``uses``, as ``attention_lstm`` does). Backward multiplies the mask
    into that gradient's whole rows in place when it is the output's own
    array, and into a copy otherwise, since another node may still read
    it; the kernel's gradient reads the first c_out columns of the masked
    rows. With no tape the padded frames and columns are scratch arrays
    and the output is fresh.
    """
    x, kernel, basis = _astensor(x), _astensor(kernel), _astensor(basis)
    tape = _ACTIVE
    if x.requires_grad or basis.requires_grad or \
            (tape is not None and (x.tape is tape or basis.tape is tape)):
        raise TapeError("frame_features differentiates only the kernel")
    xd, kd = x.data, kernel.data
    if xd.ndim != 4 or kd.ndim != 2 or kd.shape[0] != 9 * xd.shape[-1] + 1:
        raise ShapeError(f"frame_features: frames {xd.shape}, kernel "
                         f"{kd.shape}")
    b, h, w, c_in = xd.shape
    c_out = kd.shape[1]
    sd = basis.data
    if sd.ndim != 3 or sd.shape[:2] != (h, w):
        raise ShapeError(f"frame_features: basis {sd.shape} vs frames {xd.shape}")
    n = b * h * w
    c_s = sd.shape[2]

    cols = _im2col(xd, _lend(tape, "frame_features.padded",
                             (b, h + 2, w + 2, c_in), np.zeros),
                   _lend(tape, "frame_features.cols", (n, 9 * c_in + 1)))
    out_shape = (b, h, w, c_out + c_s)
    od = np.empty(out_shape) if tape is None else \
        _lend(tape, "frame_features.out", out_shape)
    rows = od.reshape(n, c_out + c_s)
    od[..., c_out:] = sd        # so the ReLU below reads only finite cells
    block = max(1, _BLAS_SMALL // kd.size)      # rows per product
    for lo in range(0, n, block):
        np.matmul(cols[lo:lo + block], kd, out=rows[lo:lo + block, :c_out])
    if tape is not None:
        # over whole rows, one contiguous pass; the basis columns' part is
        # never read
        mask = np.greater(rows, 0.0, out=_lend(
            tape, "frame_features.mask", rows.shape,
            lambda shape: np.empty(shape, bool)))
    np.maximum(rows, 0.0, out=rows)
    od[..., c_out:] = sd        # the basis unclipped
    out = Tensor(od)
    out.uses = 0        # the backward below reads mask and cols, never od

    def fn(gouts, need):
        (g,) = gouts
        g2 = g.reshape(n, c_out + c_s)
        if g.ctypes.data == od.ctypes.data and g.strides == od.strides:
            # od itself, which no other node reads: mask it in place
            np.multiply(g2, mask, out=g2)
        else:
            g2 = np.multiply(g2, mask)
        gk = cols[:block].T @ g2[:block, :c_out]
        for lo in range(block, n, block):
            gk += cols[lo:lo + block].T @ g2[lo:lo + block, :c_out]
        return (None, gk)

    _record((out,), (x, kernel), fn)
    return out


def lstm_step(x, h_prev, c_prev, weights, bias) -> tuple:
    """One LSTM cell step over a batch; returns (h, c).

    Gate order along the weight columns is input, forget, candidate, output:
    c = f*c_prev + i*g and h = o*tanh(c), with sigmoid gates and tanh
    candidate. x is (batch, n_in), the states (batch, cell) and weights
    (n_in + cell, 4*cell). The bias is the last row of the [weights; bias]
    matrix, against a trailing 1 of the input row [x, h_prev, 1], as in
    ``attention_lstm``.
    """
    x, h_prev, c_prev = _astensor(x), _astensor(h_prev), _astensor(c_prev)
    weights, bias = _astensor(weights), _astensor(bias)
    xd, hd, cd = x.data, h_prev.data, c_prev.data
    if xd.ndim != 2 or hd.ndim != 2 or cd.shape != hd.shape \
            or xd.shape[0] != hd.shape[0]:
        raise ShapeError(
            f"lstm_step: expected (batch, n) inputs, got x{xd.shape} "
            f"h{hd.shape} c{cd.shape}"
        )
    n_in = xd.shape[1]
    cell = hd.shape[1]
    if weights.data.shape != (n_in + cell, 4 * cell):
        raise ShapeError(
            f"lstm_step: weights {weights.data.shape}, expected {(n_in + cell, 4 * cell)}"
        )
    if bias.data.shape != (4 * cell,):
        raise ShapeError(f"lstm_step: bias {bias.data.shape}, expected ({4 * cell},)")

    xh = np.concatenate([xd, hd, np.ones((xd.shape[0], 1))], axis=1)
    wd = weights.data
    z = xh @ np.concatenate([wd, bias.data[None]])
    gates = _sigmoid(z)                 # the candidate block is unused
    i = gates[:, :cell]
    f = gates[:, cell:2 * cell]
    g = np.tanh(z[:, 2 * cell:3 * cell])
    o = gates[:, 3 * cell:]
    c_new = f * cd + i * g
    tc = np.tanh(c_new)
    h_out, c_out = Tensor(o * tc), Tensor(c_new)

    def fn(gouts, need):
        gh, gc = gouts
        dc = gc + gh * o * (1.0 - tc * tc)
        do = gh * tc
        di = dc * g
        df = dc * cd
        dg = dc * i
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dxh = dz @ wd.T if (need[0] or need[1]) else None
        gx = dxh[:, :n_in] if need[0] else None
        gh_prev = dxh[:, n_in:] if need[1] else None
        gc_prev = dc * f if need[2] else None
        gwb = xh.T @ dz if (need[3] or need[4]) else None
        return (gx, gh_prev, gc_prev, gwb[:-1] if need[3] else None,
                gwb[-1] if need[4] else None)

    _record((h_out, c_out), (x, h_prev, c_prev, weights, bias), fn)
    return h_out, c_out


# ---------------------------------------------------------------------------
# attention contractions
#
# Keys and values are linear in the features: K_m = F W_m, where W_m (d,
# depth) is head m's columns of the projection. An affine map is the same
# thing with a constant-1 last feature channel and the bias as W's last row.
# Both contractions fold the projection into the small side and never form
# the per-position keys or values:
#   logits[b,m,p] = F[b,p] . (W_m q[b,m])
#   out[b,m]      = (sum_p a[b,m,p] F[b,p]) W_m


def _attention_operands(features, proj, heads: int, op: str):
    """Flat (batch, pos, d) features and the projection per head (heads, d,
    depth); views, no copies."""
    fd, wd = features.data, proj.data
    if fd.ndim < 3:
        raise ShapeError(f"{op}: features must be (batch, ..., d), got {fd.shape}")
    d = fd.shape[-1]
    if wd.ndim != 2 or wd.shape[0] != d or wd.shape[1] % heads != 0:
        raise ShapeError(f"{op}: projection {wd.shape} vs features {fd.shape} "
                         f"and {heads} heads")
    depth = wd.shape[1] // heads
    return (fd.reshape(fd.shape[0], -1, d),
            wd.reshape(d, heads, depth).transpose(1, 0, 2))


def _per_head(x, w):
    """x (batch, heads, k) times w (heads, k, n) -> (batch, heads, n)."""
    return (x.transpose(1, 0, 2) @ w).transpose(1, 0, 2)


def _sum_batch_outer(x, y, shape):
    """sum_b x[b, m, k] y[b, m, n] as a (k, heads * n) projection gradient."""
    return (x.transpose(1, 2, 0) @ y.transpose(1, 0, 2)).transpose(1, 0, 2) \
        .reshape(shape)


def attention_scores(features, queries, keys) -> Tensor:
    """Per-head logits of the keys ``features @ keys`` against the queries,
    without forming the keys.

    features (batch, ..., d) with any spatial axes between; queries (batch,
    heads, depth); keys (d, heads*depth). Returns logits (batch, heads, pos)
    with the spatial axes flattened.
    """
    features, queries, keys = (_astensor(features), _astensor(queries),
                               _astensor(keys))
    qd = queries.data
    if qd.ndim != 3 or qd.shape[0] != features.data.shape[0]:
        raise ShapeError(f"attention_scores: queries {qd.shape} vs features "
                         f"{features.data.shape}")
    f, w = _attention_operands(features, keys, qd.shape[1], "attention_scores")
    if w.shape[2] != qd.shape[2]:
        raise ShapeError(f"attention_scores: key depth {w.shape[2]} vs "
                         f"queries {qd.shape}")
    wq = _per_head(qd, w.transpose(0, 2, 1))        # W_m q[b,m]: (b, m, d)
    out = Tensor(wq @ f.transpose(0, 2, 1))
    f_shape = features.data.shape

    def fn(gouts, need):
        (g,) = gouts
        gwq = g @ f if (need[1] or need[2]) else None
        gf = (g.transpose(0, 2, 1) @ wq).reshape(f_shape) if need[0] else None
        gq = _per_head(gwq, w) if need[1] else None
        gw = _sum_batch_outer(gwq, qd, keys.data.shape) if need[2] else None
        return (gf, gq, gw)

    _record((out,), (features, queries, keys), fn)
    return out


def attention_apply(weights, features, values) -> Tensor:
    """Contract attention weights against the values ``features @ values``,
    without forming the values.

    weights (batch, heads, pos); features (batch, ..., d) with pos spatial
    cells; values (d, heads*depth). Returns (batch, heads, depth).
    """
    weights, features, values = (_astensor(weights), _astensor(features),
                                 _astensor(values))
    ad = weights.data
    if ad.ndim != 3 or ad.shape[0] != features.data.shape[0]:
        raise ShapeError(f"attention_apply: weights {ad.shape} vs features "
                         f"{features.data.shape}")
    f, w = _attention_operands(features, values, ad.shape[1], "attention_apply")
    if ad.shape[2] != f.shape[1]:
        raise ShapeError(f"attention_apply: weights {ad.shape} vs features "
                         f"{features.data.shape}")
    read = ad @ f                                   # sum_p a[b,m,p] F[b,p]
    out = Tensor(_per_head(read, w))
    f_shape = features.data.shape

    def fn(gouts, need):
        (g,) = gouts
        gread = _per_head(g, w.transpose(0, 2, 1)) if (need[0] or need[1]) \
            else None
        ga = gread @ f.transpose(0, 2, 1) if need[0] else None
        gf = (ad.transpose(0, 2, 1) @ gread).reshape(f_shape) if need[1] \
            else None
        gw = _sum_batch_outer(read, g, values.data.shape) if need[2] else None
        return (ga, gf, gw)

    _record((out,), (weights, features, values), fn)
    return out


# ---------------------------------------------------------------------------
# the attention-LSTM recurrence as one node


def attention_lstm(frame_in, h0, c0, keep, lstm, attention,
                   heads: int) -> tuple:
    """T steps of query -> attention logits -> softmax -> read-out -> LSTM
    over B sequences, recorded as a single tape node.

    keep is a (T, B) 0/1 array: before step t the state is multiplied by
    keep[t], so a 0 starts a new episode. frame_in is (T*B, n) time-major;
    h0 and c0 are the (B, cell) states before step 0. The LSTM input row of
    step t is [read-out, frame_in, h, 1] and lstm the (n_x + cell + 1,
    4*cell) [weights; bias] matrix against it, gates as in ``lstm_step``.
    attention is None, when there is no read-out, or the tuple (features,
    query, keys, values): features (T*B, ..., d) time-major, whose last
    channel is the constant 1 of the affine keys and values, query the
    (cell + 1, heads*depth) [weights; bias] matrix against the row's [h, 1],
    split into ``heads`` heads, and keys and values (d, heads*depth) as in
    ``attention_scores`` and ``attention_apply``. So every bias is the last
    row of its matrix, and its gradient the last row of the product that
    forms the matrix's gradient.

    Returns (hs, c_T, weights, logits): hs the (T, B, cell) tensor of every
    step's h, c_T the (B, cell) final cell state, and the attention weights
    and logits as (T, B, heads, pos) plain arrays (None without attention).
    The forward repeats the expressions of the composed ops, so it matches
    them bit for bit; the backward runs the recurrent chain step by step
    and forms every parameter gradient once over all T*B rows. Each step
    writes its products straight into the arrays saved for backward
    (``out=``), computes its sigmoid gates in place (``_sigmoid``'s passes
    over the whole gate block, the candidate's tanh put back after), and
    multiplies its h and c by the next keep row straight into the next
    step's input row and kept state. The (T*B, ..., d) feature gradient is
    formed only when the
    features need one, and is written over the features' own array when
    this node is their only consumer on the tape and their producer allows
    it (``Tensor.uses``, set by ``frame_features``); otherwise it is a
    fresh array and the features keep their values.
    """
    frame_in, h0, c0, lstm = (_astensor(frame_in), _astensor(h0),
                              _astensor(c0), _astensor(lstm))
    keep = np.asarray(keep, dtype=np.float64)
    if keep.ndim != 2:
        raise ShapeError(f"attention_lstm: keep must be (T, B), got {keep.shape}")
    T, B = keep.shape
    hd, cd = h0.data, c0.data
    if hd.ndim != 2 or hd.shape[0] != B or cd.shape != hd.shape:
        raise ShapeError(f"attention_lstm: states h{hd.shape} c{cd.shape} "
                         f"vs keep {keep.shape}")
    cell = hd.shape[1]
    xd = frame_in.data
    if xd.ndim != 2 or xd.shape[0] != T * B:
        raise ShapeError(f"attention_lstm: frame_in {xd.shape} vs keep {keep.shape}")
    inputs = (frame_in, h0, c0, lstm)
    n_sum = 0
    if attention is not None:
        features, query, keys, values = (_astensor(a) for a in attention)
        inputs += (features, query, keys, values)
        f, wk = _attention_operands(features, keys, heads, "attention_lstm")
        _, wv = _attention_operands(features, values, heads, "attention_lstm")
        n_sum = keys.data.shape[1]
        qw = query.data
        if f.shape[0] != T * B or values.data.shape[1] != n_sum \
                or qw.shape != (cell + 1, n_sum):
            raise ShapeError(
                f"attention_lstm: features {features.data.shape}, query "
                f"{qw.shape}, keys {keys.data.shape}, values "
                f"{values.data.shape} vs keep {keep.shape}, cell {cell}")
        P, d = f.shape[1:]
        m, depth = heads, n_sum // heads
        fs = f.reshape(T, B, P, d)
        wk_t, wv_t = wk.transpose(0, 2, 1), wv.transpose(0, 2, 1)
        qw_t = qw[:cell].T
    n_x = n_sum + xd.shape[1]
    lw = lstm.data
    if lw.shape != (n_x + cell + 1, 4 * cell):
        raise ShapeError(f"attention_lstm: lstm {lw.shape}, expected "
                         f"{(n_x + cell + 1, 4 * cell)}")
    lw_t = lw[:n_x + cell].T

    # saved for backward; xh holds each step's whole LSTM input row, whose
    # last cell + 1 columns are the kept h_{t-1} and the 1
    xh = np.empty((T, B, n_x + cell + 1))
    xh[:, :, n_sum:n_x] = xd.reshape(T, B, -1)
    xh[:, :, -1] = 1.0
    c_kept = np.empty((T, B, cell))
    gates = np.empty((T, B, 4 * cell))      # i, f, tanh candidate, o
    tcs = np.empty((T, B, cell))
    hs = np.empty((T, B, cell))
    weights = logits = None
    if attention is not None:
        q = np.empty((T, B, m, depth))
        logits = np.empty((T, B, m, P))
        # per step, a2 holds [dlogits (backward); weights (forward)] and v2
        # [W_m q (forward); read-out gradient (backward)], so that the
        # feature gradient is one batched product over all T*B rows
        a2 = np.empty((T, B, 2 * m, P))
        v2 = np.empty((T, B, 2 * m, d))
        read = np.empty((T, B, m, d))
        weights = a2[:, :, m:]

    # the ops write into the saved arrays (out=) where the composed ops
    # made a fresh one; the values are the same. h and c are multiplied by
    # the next keep row straight into the next step's xh slot and c_kept
    np.multiply(hd, keep[0][:, None], out=xh[0, :, n_x:-1])
    np.multiply(cd, keep[0][:, None], out=c_kept[0])
    c = np.empty((B, cell))         # this step's c, unkept
    cand = np.empty((B, cell))
    for t in range(T):
        ck = c_kept[t]
        if attention is not None:
            qt = q[t]
            np.matmul(xh[t, :, n_x:], qw, out=qt.reshape(B, n_sum))
            wq = v2[t, :, :m]
            np.matmul(qt.transpose(1, 0, 2), wk_t, out=wq.transpose(1, 0, 2))
            lt = np.matmul(wq, fs[t].transpose(0, 2, 1), out=logits[t])
            e = np.exp(lt - lt.max(axis=-1, keepdims=True))
            s = np.divide(e, e.sum(axis=-1, keepdims=True), out=a2[t, :, m:])
            rd = np.matmul(s, fs[t], out=read[t])
            np.matmul(rd.transpose(1, 0, 2), wv, out=xh[t, :, :n_sum]
                      .reshape(B, m, depth).transpose(1, 0, 2))
        g_all = np.matmul(xh[t], lw, out=gates[t])
        # _sigmoid's four passes in place over all four blocks, the
        # candidate's tanh put back after
        np.tanh(g_all[:, 2 * cell:3 * cell], out=cand)
        np.negative(g_all, out=g_all)
        with np.errstate(over="ignore"):
            np.exp(g_all, out=g_all)
        np.add(g_all, 1.0, out=g_all)
        np.reciprocal(g_all, out=g_all)
        g_all[:, 2 * cell:3 * cell] = cand
        i, f_g = g_all[:, :cell], g_all[:, cell:2 * cell]
        g, o = g_all[:, 2 * cell:3 * cell], g_all[:, 3 * cell:]
        np.multiply(f_g, ck, out=c)
        c += i * g
        np.multiply(o, np.tanh(c, out=tcs[t]), out=hs[t])
        if t + 1 < T:
            kt = keep[t + 1][:, None]
            np.multiply(hs[t], kt, out=xh[t + 1, :, n_x:-1])
            np.multiply(c, kt, out=c_kept[t + 1])

    hs_out, c_out = Tensor(hs), Tensor(c)
    tape = _ACTIVE

    def fn(gouts, need):
        g_hs, g_c = gouts
        dz = np.empty((T, B, 4 * cell))
        dxh = np.empty((T, B, n_x + cell))
        if attention is not None:
            gq = np.empty((T, B, m, depth))
            gwq = np.empty((T, B, m, d))
        # the local derivatives of every step at once: dc/dh, dz/dc for
        # the input, forget and candidate gate columns, and dz/dh for the
        # output gate's
        i, f_g, g, o = (gates[:, :, k * cell:(k + 1) * cell] for k in range(4))
        dc_dh = o * (1.0 - tcs * tcs)
        dz_dc = np.stack([g * i * (1.0 - i), c_kept * f_g * (1.0 - f_g),
                          i * (1.0 - g * g)], axis=2)
        dz_dh = tcs * o * (1.0 - o)
        dh, dc = 0.0, g_c
        for t in reversed(range(T)):
            dh = g_hs[t] + dh
            dc = dc + dh * dc_dh[t]
            dzt = dz[t].reshape(B, 4, cell)
            np.multiply(dc[:, None, :], dz_dc[t], out=dzt[:, :3])
            np.multiply(dh, dz_dh[t], out=dzt[:, 3])
            dx = dxh[t]
            np.matmul(dz[t], lw_t, out=dx)
            dc = dc * f_g[t]
            dh = dx[:, n_x:]
            if attention is not None:
                gread = v2[t, :, m:]
                np.matmul(dx[:, :n_sum].reshape(B, m, depth)
                          .transpose(1, 0, 2), wv_t,
                          out=gread.transpose(1, 0, 2))
                s = a2[t, :, m:]
                ga = gread @ fs[t].transpose(0, 2, 1)
                dl = np.multiply(ga - (ga * s).sum(axis=-1, keepdims=True),
                                 s, out=a2[t, :, :m])
                gw = np.matmul(dl, fs[t], out=gwq[t])
                gqt = gq[t]
                np.matmul(gw.transpose(1, 0, 2), wk,
                          out=gqt.transpose(1, 0, 2))
                dh = dh + gqt.reshape(B, n_sum) @ qw_t
            kt = keep[t][:, None]
            dh *= kt
            dc *= kt

        n = T * B
        dz = dz.reshape(n, 4 * cell)
        grads = (dxh[:, :, n_sum:n_x].reshape(n, -1), dh, dc,
                 xh.reshape(n, -1).T @ dz)
        if attention is None:
            return grads
        gq = gq.reshape(n, n_sum)
        go = dxh[:, :, :n_sum].reshape(n, m, depth)
        gf = None
        if need[4]:
            # the loop above was the last read of the features; when this
            # node is their only consumer their array takes the gradient
            spent = features.tape is tape and features.uses == 1
            gf = np.matmul(a2.reshape(n, 2 * m, P).transpose(0, 2, 1),
                           v2.reshape(n, 2 * m, d),
                           out=f if spent else None) \
                .reshape(features.data.shape)
        return grads + (
            gf,
            xh[:, :, n_x:].reshape(n, cell + 1).T @ gq,
            _sum_batch_outer(gwq.reshape(n, m, d), q.reshape(n, m, depth),
                             keys.data.shape),
            _sum_batch_outer(read.reshape(n, m, d), go, values.data.shape),
        )

    _record((hs_out, c_out), inputs, fn)
    return hs_out, c_out, weights, logits
