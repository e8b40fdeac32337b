"""Dense-tensor engine with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 for training, switchable to float64 for
gradient checking). Every differentiable operation records itself on the
active ComputationTape, whose backward() replays it in exact reverse order.
Any forward op that produces a non-finite value raises NumericError at the
op boundary instead of letting NaN/Inf propagate.

Gradient ownership: the tape clears an output's gradient before it calls the
op's backward function with it, so that function owns its incoming `g` and
every array it has just computed, and may overwrite them in place. It may
pass `owned=True` to `Tensor.accumulate_grad` for such an array, and a
tensor whose gradient is still None then adopts the array instead of copying
it. An array may be handed off once: `g` to at most one input, and never an
array that the op keeps (its saved forward values) or that anything else can
still read.

Block ops: attention_block and ffn_block each record a whole post-norm
transformer sublayer as one taped op. They make the numpy calls of the chain
of single ops they replace, in its order, so values and gradients are
bitwise the chain's. They check each intermediate that finite inputs can
make non-finite under the name of the op that made it in the chain
('linear', 'attention', 'dropout', 'add', 'layer_norm'), so a NumericError
reads the same; gelu's values go unchecked, as |gelu(x)| <= |x|. They save
only what their backward reads: the input; its query rows, q, k, v and the
attention probabilities and output (attention_block) or the hidden layer, its
gelu and gelu's tanh (ffn_block); and the final layer_norm's normalized rows
and inverse deviations. attention_block may take queries on a subset of the
rows, keys and values on all of them; its output then has the query rows
only. The output projection, its dropped copy and the residual
sum are never read back: they share one buffer, which then holds those rows.
gnn_block records a relation-aware GNN layer and mint_block the interaction
perceptron as one taped op each, on the same terms, leaving unchecked the
segment softmax (in [0, 1]) and its products with finite rows or a 0/1 mask.
Each input's gradient takes its parts in the order the chain's tape added
them. segment_attention is the GNN's attention over each node's incoming
messages as one taped op; it and gnn_block share its private forward and
backward kernels. Every row scatter (gather_rows' backward, scatter_rows,
the segment softmax) goes through _rows_at, which is bitwise ufunc.at on 2-D
rows but several times faster.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from functools import partial
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NumericError(ArithmeticError):
    """A forward op produced NaN/Inf from finite inputs."""


class ContractError(RuntimeError):
    """An op was called outside its preconditions (non-shape)."""


_DEFAULT_DTYPE = np.float32

# Masked-softmax fill; exp() of it underflows to exactly 0 in both float modes.
NEG_FILL = -1e9


@contextmanager
def float64_mode():
    """Run enclosed code with float64 tensors (gradient-check fidelity)."""
    global _DEFAULT_DTYPE
    prev = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.float64
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


def stable_hash64(name: str) -> int:
    """Platform-independent 64-bit hash of a component name."""
    return int.from_bytes(hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little")


def split_rng(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Derive an independent, reproducible RNG stream from the root seed.

    Streams are keyed by (seed, hashed component name, indices), so components
    and per-example/per-step draws never collide or depend on call order.
    """
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, stable_hash64(name), *[i & 0xFFFFFFFFFFFFFFFF for i in indices]]))


class Tensor:
    """Dense array with optional gradient buffer.

    Produced tensors are treated as immutable; only the optimizer mutates
    parameter values in place between steps.
    """

    __slots__ = ("values", "grad", "requires_grad", "name")

    def __init__(self, values, requires_grad: bool = False, name: str = ""):
        self.values = np.asarray(values, dtype=_DEFAULT_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError("item() on non-scalar tensor of shape %s" % (self.shape,))
        return float(self.values.reshape(()))

    def accumulate_grad(self, delta: np.ndarray, owned: bool = False) -> None:
        """Add delta to grad. With owned=True the caller hands delta over
        (see the module docstring), and a first gradient of matching dtype
        and shape is adopted instead of copied."""
        if self.grad is None:
            if owned and delta.dtype == self.values.dtype and delta.shape == self.values.shape:
                self.grad = delta
            else:
                self.grad = np.array(delta, dtype=self.values.dtype)
        else:
            self.grad += delta

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s%s)" % (
            self.shape, self.requires_grad, ", name=%r" % self.name if self.name else "")


class _OpRecord:
    __slots__ = ("output", "backward_fn")

    def __init__(self, output, backward_fn):
        self.output = output
        self.backward_fn = backward_fn


class ComputationTape:
    """Ordered record of ops; inputs always precede their consumers."""

    def __init__(self):
        self.records: list[_OpRecord] = []

    def __enter__(self) -> "ComputationTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self

    def record(self, output, backward_fn) -> None:
        self.records.append(_OpRecord(output, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if loss.values.size != 1:
            raise ContractError("backward() requires a scalar loss, got shape %s" % (loss.shape,))
        loss.accumulate_grad(np.ones_like(loss.values))
        for rec in reversed(self.records):
            grad = rec.output.grad
            if grad is None:
                continue
            # every consumer of this output came later on the tape, so its
            # gradient is complete; release it and the op's saved arrays
            # once they have been passed on
            if rec.backward_fn is None:
                raise ContractError("backward() already ran on this tape")
            rec.output.grad = None
            rec.backward_fn(grad)
            rec.backward_fn = None


_TAPE_STACK: list[ComputationTape] = []


def active_tape() -> ComputationTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericError("non-finite values produced by op %r" % op)
    return arr


def _make(values: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable, op: str,
          checked: bool = False) -> Tensor:
    """Tensor of values, recorded with backward_fn when a tape is active and
    an input needs a gradient; checked says the values already passed the
    finite check under the name of the op that made them."""
    if not checked:
        _check_finite(values, op)
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=needs)
    if needs:
        tape.record(out, backward_fn)
    return out


def _unbroadcast_rows(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # Undoes the one broadcast this engine allows: a [d] row beside [n, d].
    if grad.shape == shape:
        return grad
    return grad.sum(axis=0)


def _binary(op: str, a: Tensor, b, vals: Callable, grad_a: Callable, grad_b: Callable) -> Tensor:
    """Elementwise op of a and b: a Tensor or array of a's shape, a [d] row
    beside [n, d] (either way round; _unbroadcast_rows undoes it), or a
    scalar constant. grad_x(g, other) is x's gradient before the broadcast
    rows are summed back to x's shape (g itself, or a new array)."""
    scalar = not isinstance(b, Tensor) and np.ndim(b) == 0
    b = b if isinstance(b, Tensor) else Tensor(b)
    sa, sb = a.values.shape, b.values.shape
    if not (sa == sb or scalar or len(sa) == 2 and sb == sa[1:] or len(sb) == 2 and sa == sb[1:]):
        raise ShapeError("%s: incompatible shapes %s and %s" % (op, sa, sb))

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast_rows(grad_a(g, b.values), a.values.shape), owned=True)
        if b.requires_grad:
            gb = _unbroadcast_rows(grad_b(g, a.values), b.values.shape)
            # g may have gone to a already
            b.accumulate_grad(gb, owned=gb is not g or not a.requires_grad)

    return _make(vals(a.values, b.values), (a, b), bk, op)


def _unary(op: str, a: Tensor, vals: np.ndarray, grad: Callable) -> Tensor:
    """Op of the one input a with forward values vals; grad(g) is a's
    gradient, which a copies or adds, so it may be a view of g."""
    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(grad(g))

    return _make(vals, (a,), bk, op)


def add(a: Tensor, b) -> Tensor:
    """a + b; b may be a Tensor, an array or a Python float."""
    return _binary("add", a, b, np.add, lambda g, _: g, lambda g, _: g)


def sub(a: Tensor, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, _: g, lambda g, _: -g)


def mul(a: Tensor, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, other: g * other, lambda g, other: g * other)


def neg(a: Tensor) -> Tensor:
    return _unary("neg", a, -a.values, lambda g: -g)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError("matmul requires 2-D operands, got %s and %s" % (a.shape, b.shape))
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError("matmul: inner dimensions disagree, %s vs %s" % (a.shape, b.shape))
    vals = a.values @ b.values

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.values.T, owned=True)
        if b.requires_grad:
            b.accumulate_grad(a.values.T @ g, owned=True)

    return _make(vals, (a, b), bk, "matmul")


def _linear_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError("linear requires 2-D x and w, got %s and %s" % (x.shape, w.shape))
    if x.shape[1] != w.shape[0]:
        raise ShapeError("linear: inner dimensions disagree, %s vs %s" % (x.shape, w.shape))
    if b.shape != (w.shape[1],):
        raise ShapeError("linear: bias %s does not match weights %s" % (b.shape, w.shape))
    vals = x @ w
    vals += b
    return vals


def _linear_bwd(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor, want_x: bool) -> np.ndarray | None:
    """Add the bias and weight gradients of x @ w + b for the output gradient
    g (read only) to b and w; return x's gradient, or None unless want_x."""
    # the order of the matmul-then-add pair that linear replaces
    if b.requires_grad:
        b.accumulate_grad(_unbroadcast_rows(g, b.values.shape), owned=True)
    gx = g @ w.values.T if want_x else None
    if w.requires_grad:
        w.accumulate_grad(x.T @ g, owned=True)
    return gx


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for [n, d_in] rows x, [d_in, d_out] weights w and a [d_out]
    bias b, as one taped op."""
    vals = _linear_fwd(x.values, w.values, b.values)

    def bk(g):
        gx = _linear_bwd(g, x.values, w, b, x.requires_grad)
        if gx is not None:
            x.accumulate_grad(gx, owned=True)

    return _make(vals, (x, w, b), bk, "linear")


def reshape(a: Tensor, shape) -> Tensor:
    old = a.values.shape
    return _unary("reshape", a, a.values.reshape(tuple(shape)).copy(), lambda g: g.reshape(old))


def _blocks(ndim: int, axis: int, sizes: Sequence[int]) -> list[tuple]:
    """Index tuples of consecutive blocks of the given sizes along axis."""
    lead = (slice(None),) * (axis % ndim)
    bounds = list(accumulate(sizes, initial=0))
    return [lead + (slice(lo, hi),) for lo, hi in zip(bounds, bounds[1:])]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    blocks = _blocks(vals.ndim, axis, [t.values.shape[axis] for t in tensors])

    def bk(g):
        for t, block in zip(tensors, blocks):
            if t.requires_grad:
                t.accumulate_grad(g[block])

    return _make(vals, tensors, bk, "concat")


def split(a: Tensor, sizes: Sequence[int], axis: int = 0) -> list[Tensor]:
    if sum(sizes) != a.values.shape[axis]:
        raise ShapeError("split sizes %s do not cover axis %d of %s" % (sizes, axis, a.shape))

    def grad(block, g):
        full = np.zeros_like(a.values)
        full[block] = g
        return full

    return [_unary("split", a, a.values[block].copy(), partial(grad, block))
            for block in _blocks(a.values.ndim, axis, sizes)]


def _rows_at(ufunc: np.ufunc, out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """ufunc.at(out, ids, rows) for [n, d] out, [m] ids and [m, d] rows.

    Row rows[i] meets row ids[i] of out in the order of ids, so every element
    takes the same operands in the same order as in the 2-D call, and the
    result is bitwise that call's. The call goes through flat element indices
    into out's buffer, which numpy's 1-D ufunc.at runs several times faster;
    an out that is not C-contiguous takes the 2-D call, so writes still land.
    """
    if not out.flags.c_contiguous:
        ufunc.at(out, ids, rows)
        return
    d = out.shape[1]
    ufunc.at(out.reshape(-1), (ids[:, None] * d + np.arange(d)).reshape(-1), rows.reshape(-1))


def _add_rows_to_grad(t: Tensor, ids: np.ndarray, rows: np.ndarray) -> None:
    """gather_rows' backward: add rows[i] to row ids[i] of t's gradient."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.values)
        _rows_at(np.add, t.grad, ids, rows)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row gather (embedding lookup); backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("gather_rows expects a 1-D index list")
    if table.values.ndim != 2:
        raise ShapeError("gather_rows expects a 2-D table, got %s" % (table.shape,))
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise ShapeError("gather_rows: index out of range for table with %d rows" % table.values.shape[0])
    return _make(table.values[ids], (table,), partial(_add_rows_to_grad, table, ids), "gather_rows")


def scatter_rows(a: Tensor, ids, n_rows: int) -> Tensor:
    """Adjoint of gather_rows: out[ids[i]] += a[i] into n_rows zero rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if a.values.ndim != 2 or ids.shape != a.values.shape[:1]:
        raise ShapeError("scatter_rows expects [m, d] rows and [m] indices, got %s and %s"
                         % (a.shape, ids.shape))
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise ShapeError("scatter_rows: index out of range for %d rows" % n_rows)
    vals = np.zeros((n_rows, a.values.shape[1]), dtype=a.values.dtype)
    _rows_at(np.add, vals, ids, a.values)
    return _unary("scatter_rows", a, vals, lambda g: g[ids])


def _spread(g: np.ndarray, a: Tensor, axis: int | None) -> np.ndarray:
    """g copied over the axis of a (every axis for None) that a reduction removed."""
    if axis is None:
        return np.full_like(a.values, g)
    return np.broadcast_to(np.expand_dims(g, axis), a.values.shape).copy()


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    return _unary("reduce_sum", a, a.values.sum(axis=axis), lambda g: _spread(g, a, axis))


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.values.size if axis is None else a.values.shape[axis]
    return _unary("reduce_mean", a, a.values.mean(axis=axis), lambda g: _spread(g / n, a, axis))


def _segment_softmax(x: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Softmax of [m, h] scores x over the rows that share a segment id, per
    column (edge softmax: each destination node normalizes its messages)."""
    top = np.full((n_segments, x.shape[1]), -np.inf, dtype=x.dtype)
    _rows_at(np.maximum, top, seg, x)
    e = np.exp(x - top[seg])
    total = np.zeros_like(top)
    _rows_at(np.add, total, seg, e)
    return e / total[seg]


def _segment_softmax_bwd(g: np.ndarray, vals: np.ndarray, seg: np.ndarray, n_segments: int) -> np.ndarray:
    """The scores' gradient for the output gradient g of _segment_softmax,
    whose values were vals."""
    dot = np.zeros((n_segments, vals.shape[1]), dtype=vals.dtype)
    _rows_at(np.add, dot, seg, g * vals)
    return vals * (g - dot[seg])


def _segment_attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, seg: np.ndarray,
                           heads: int) -> tuple[np.ndarray, tuple]:
    """segment_attention on arrays: the numpy calls of the single-op chain
    gather_rows, mul, matmul, segment softmax, matmul, mul, scatter_rows,
    each result checked under that op's name but the softmax and the two
    products it bounds. Returns the [n, d] output and
    the arrays the backward reads, the [m, heads] attention first."""
    n, d = q.shape
    if seg.ndim != 1 or k.shape != (len(seg), d) or v.shape != k.shape:
        raise ShapeError("segment_attention expects [n, d] queries, [m, d] keys and values and [m] "
                         "segment ids, got %s %s %s %s" % (q.shape, k.shape, v.shape, seg.shape))
    if d % heads:
        raise ShapeError("segment_attention: %d heads do not divide width %d" % (heads, d))
    if seg.size and (seg.min() < 0 or seg.max() >= n):
        raise ShapeError("segment_attention: segment id out of range for %d query rows" % n)
    dh = d // heads
    # cols[c, h] = 1 where column c belongs to head h, as the chain's constants
    cols = np.repeat(np.eye(heads), dh, axis=0)
    to_heads = np.asarray(cols / np.sqrt(dh), dtype=_DEFAULT_DTYPE)
    to_cols = np.asarray(cols.T, dtype=_DEFAULT_DTYPE)
    qd = _check_finite(q[seg], "gather_rows")
    logits = _check_finite(_check_finite(qd * k, "mul") @ to_heads, "matmul")
    alpha = _segment_softmax(logits, seg, n)
    spread = alpha @ to_cols
    weighted = spread * v
    out = np.zeros((n, d), dtype=weighted.dtype)
    _rows_at(np.add, out, seg, weighted)
    return _check_finite(out, "scatter_rows"), (alpha, qd, spread, to_heads, to_cols)


def _segment_attention_bwd(g: np.ndarray, k: np.ndarray, v: np.ndarray, seg: np.ndarray,
                           saved: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the output gradient g (read only), the gradients of v and k and
    of the gathered query rows q[seg], in the order the chain's tape made
    them: v, k, then the rows that gather_rows' backward adds into q."""
    alpha, qd, spread, to_heads, to_cols = saved
    gw = g[seg]
    gv = gw * spread
    galpha = (gw * v) @ to_cols.T
    gprod = _segment_softmax_bwd(galpha, alpha, seg, g.shape[0]) @ to_heads.T
    return gv, gprod * qd, gprod * k


def segment_attention(q: Tensor, k: Tensor, v: Tensor, segment_ids, heads: int) -> tuple[Tensor, np.ndarray]:
    """Multi-head attention of query row s of q over the rows i of keys k and
    values v with segment_ids[i] == s, as one taped op (head h owns the h-th
    column block).

    Returns the [n, d] weighted value sums (zero for a query row with no
    keys) and the [m, heads] weights, which sum to 1 per segment and head.
    """
    seg = np.asarray(segment_ids, dtype=np.int64)
    out, saved = _segment_attention_fwd(q.values, k.values, v.values, seg, heads)

    def backward(g):
        gv, gk, gqd = _segment_attention_bwd(g, k.values, v.values, seg, saved)
        if v.requires_grad:
            v.accumulate_grad(gv, owned=True)
        if k.requires_grad:
            k.accumulate_grad(gk, owned=True)
        _add_rows_to_grad(q, seg, gqd)

    return _make(out, (q, k, v), backward, "segment_attention", checked=True), saved[0]


def _split_heads(x: np.ndarray, b: int, heads: int) -> np.ndarray:
    """[B * L, d] rows -> [B, heads, L, d / heads] (a view)."""
    n, d = x.shape
    return x.reshape(b, n // b, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """[B, heads, L, dh] -> [B * L, heads * dh] rows (a copy)."""
    b, heads, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b * length, heads * dh)


def _attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, key_pad_mask: np.ndarray,
                   heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention over a padded batch.

    k, v are [B * L, d]: sequence b owns rows b * L .. b * L + L - 1 and head
    h owns columns h * d/heads .. (h + 1) * d/heads - 1. q is [B * W, d], W
    query rows per sequence laid out the same way (W = L for
    self-attention). key_pad_mask is [B, L] and True at padding positions,
    which no query attends to. Returns the [B * W, d] output and the [B,
    heads, W, L] softmax probabilities, the only array besides q, k, v that
    the backward reads.
    """
    d = k.shape[1]
    if v.shape != k.shape or q.ndim != 2 or q.shape[1] != d:
        raise ShapeError("attention: q, k, v shapes differ: %s %s %s" % (q.shape, k.shape, v.shape))
    if d % heads:
        raise ShapeError("attention: %d heads do not divide width %d" % (heads, d))
    b, length = key_pad_mask.shape
    if b * length != len(k) or len(q) % b:
        raise ShapeError("attention: padding mask %s does not cover %d key and %d query rows"
                         % ((b, length), len(k), len(q)))
    qh, kh, vh = (_split_heads(a, b, heads) for a in (q, k, v))
    logits = qh @ kh.transpose(0, 1, 3, 2)
    logits *= 1.0 / math.sqrt(d // heads)
    if key_pad_mask.any():
        logits += np.where(key_pad_mask, NEG_FILL, 0.0).astype(logits.dtype)[:, None, None, :]
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return _merge_heads(probs @ vh), probs


def _attention_bwd(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   probs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of q, k and v of _attention_fwd for the output gradient g
    (read only)."""
    b, heads = probs.shape[:2]
    inv = 1.0 / math.sqrt(q.shape[1] // heads)
    qh, kh, vh, gh = (_split_heads(a, b, heads) for a in (q, k, v, g))
    gv = _merge_heads(probs.transpose(0, 1, 3, 2) @ gh)
    # with dp = gh @ vh^T: ds = probs * (dp - (dp * probs).sum(axis=-1)) * inv
    ds = gh @ vh.transpose(0, 1, 3, 2)
    ds -= (ds * probs).sum(axis=-1, keepdims=True)
    ds *= probs
    ds *= inv
    return _merge_heads(ds @ kh), _merge_heads(ds.transpose(0, 1, 3, 2) @ qh), gv


def _layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values of layer_norm plus the normalized rows xhat and the inverse
    deviations inv that its backward reads; xhat is written into out when
    given (out may be x)."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=out)
    vals = np.multiply(xhat, xhat)
    var = vals.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain, out=vals)
    vals += bias
    return vals, xhat, inv


def _layer_norm_bwd(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: Tensor, bias: Tensor,
                    want_x: bool) -> np.ndarray | None:
    """Add the gain and bias gradients for the output gradient g to gain and
    bias; return the input's gradient, computed in g's buffer, or None unless
    want_x."""
    d = xhat.shape[-1]
    # the parameter gradients read g before it becomes the input's gradient
    if bias.requires_grad:
        bias.accumulate_grad(g.reshape(-1, d).sum(axis=0).reshape(bias.values.shape), owned=True)
    buf = np.multiply(g, xhat)
    if gain.requires_grad:
        gain.accumulate_grad(buf.reshape(-1, d).sum(axis=0).reshape(gain.values.shape), owned=True)
    if not want_x:
        return None
    # d/dx of (x - mu) * inv with mu, inv functions of x:
    # inv * (gx - s1 / d - xhat * s2 / d) with gx = g * gain
    gx = g
    gx *= gain.values
    s1 = gx.sum(axis=-1, keepdims=True)
    np.multiply(gx, xhat, out=buf)
    s2 = buf.sum(axis=-1, keepdims=True)
    gx -= s1 / d
    np.multiply(xhat, s2, out=buf)
    buf /= d
    gx -= buf
    gx *= inv
    return gx


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise affine."""
    if eps <= 0:
        raise ContractError("layer_norm: eps must be positive")
    vals, xhat, inv = _layer_norm_fwd(a.values, gain.values, bias.values, eps)

    def bk(g):
        ga = _layer_norm_bwd(g, xhat, inv, gain, bias, a.requires_grad)
        if ga is not None:
            a.accumulate_grad(ga, owned=True)

    return _make(vals, (a, gain, bias), bk, "layer_norm")


# Python floats, not numpy scalars: under NumPy 2 promotion a float64 scalar
# would turn every float32 gelu into float64 work
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gelu's values and the tanh t its backward reads."""
    # t = tanh(_GELU_C * (x + _GELU_K * x * x * x)); vals = 0.5 * x * (1.0 + t)
    t = np.multiply(x, _GELU_K)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    vals = np.multiply(x, 0.5)
    vals *= 1.0 + t
    return vals, t


def _gelu_bwd(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The input's gradient for the output gradient g (read only), in a new
    array; overwrites t."""
    # g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner), where
    # dinner = _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)
    da = np.multiply(x, 0.5)
    buf = np.multiply(t, t)
    np.subtract(1.0, buf, out=buf)
    da *= buf
    np.multiply(x, 3.0 * _GELU_K, out=buf)
    buf *= x
    buf += 1.0
    buf *= _GELU_C
    da *= buf
    np.add(t, 1.0, out=t)
    np.multiply(t, 0.5, out=t)
    da += t
    da *= g
    return da


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation (BERT/GPT-2 form)."""
    vals, t = _gelu_fwd(a.values)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(_gelu_bwd(g, a.values, t), owned=True)

    return _make(vals, (a,), bk, "gelu")


def log_sigmoid(a: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|))."""
    x = a.values
    e = np.exp(-np.abs(x))
    # d/dx log sigma(x) = sigma(-x) = e / (1 + e) for x >= 0, else 1 / (1 + e)
    return _unary("log_sigmoid", a, np.minimum(x, 0.0) - np.log1p(e),
                  lambda g: g * (np.where(x >= 0, e, 1.0) / (1.0 + e)))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.values < 0):
        raise ContractError("sqrt of negative value")
    vals = np.sqrt(a.values)
    # subgradient guard at 0; training inputs are never exactly 0
    return _unary("sqrt", a, vals, lambda g: g * 0.5 / np.maximum(vals, 1e-30))


def cos(a: Tensor) -> Tensor:
    return _unary("cos", a, np.cos(a.values), lambda g: -g * np.sin(a.values))


def sin(a: Tensor) -> Tensor:
    return _unary("sin", a, np.sin(a.values), lambda g: g * np.cos(a.values))


def _dropout_factor(rate: float, keep: np.ndarray, shape: tuple) -> float:
    if not 0.0 <= rate < 1.0:
        raise ContractError("dropout rate must be in [0, 1)")
    if keep.shape != shape:
        raise ShapeError("dropout: mask shape %s != tensor shape %s" % (keep.shape, shape))
    return 1.0 / (1.0 - rate)


def _dropout(x: np.ndarray, keep: np.ndarray, factor: float, out: np.ndarray | None = None) -> np.ndarray:
    """x * keep * factor, into out when given: dropout's values, and its
    gradient for an output gradient x."""
    out = np.multiply(x, keep, out=out)
    out *= factor
    return out


def dropout(a: Tensor, rate: float, keep: np.ndarray) -> Tensor:
    """Train-mode inverted dropout with a seeded boolean keep mask of a's
    shape (callers draw it as uniform draws >= rate). Callers skip it in eval."""
    if rate == 0.0:
        return a
    factor = _dropout_factor(rate, keep, a.values.shape)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(_dropout(g, keep, factor, out=g), owned=True)

    return _make(_dropout(a.values, keep, factor), (a,), bk, "dropout")


def _dropout_over(x: np.ndarray, rate: float, keep: np.ndarray | None) -> float:
    """Dropout written over x and finite-checked; returns the dropout factor
    (1.0, and x untouched, without a keep mask)."""
    if keep is None:
        return 1.0
    factor = _dropout_factor(rate, keep, x.shape)
    _check_finite(_dropout(x, keep, factor, out=x), "dropout")
    return factor


def _residual_norm(x: np.ndarray, y: np.ndarray, rate: float, keep: np.ndarray | None,
                   gain: Tensor, bias: Tensor) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """layer_norm(x + dropout(y)), the tail of a sublayer with input x and
    branch output y, with each step written over y and finite-checked under
    its op's name. Returns the values, layer_norm's saved xhat (y's buffer)
    and inv, and the dropout factor (1.0 without a keep mask)."""
    factor = _dropout_over(y, rate, keep)
    if y.shape != x.shape:
        raise ShapeError("add: incompatible shapes %s and %s" % (x.shape, y.shape))
    _check_finite(np.add(x, y, out=y), "add")
    vals, xhat, inv = _layer_norm_fwd(y, gain.values, bias.values, out=y)
    return _check_finite(vals, "layer_norm"), xhat, inv, factor


def _add_at_rows(t: Tensor, rows: np.ndarray | None, delta: np.ndarray) -> None:
    """Add delta, owned (see the module docstring), to t's gradient, or to
    its rows `rows` when given."""
    if rows is None:
        t.accumulate_grad(delta, owned=True)
    else:
        _add_rows_to_grad(t, rows, delta)


def attention_block(x: Tensor, weights: Sequence[Tensor], key_pad_mask: np.ndarray, heads: int,
                    rate: float, keep: np.ndarray | None, rows: np.ndarray | None = None) -> Tensor:
    """Post-norm self-attention sublayer as one taped op:
    layer_norm(xq + dropout(linear(attention(q, k, v), wo, bo))) with
    q = linear(xq, wq, bq), k = linear(x, wk, bk) and v = linear(x, wv, bv),
    for weights = (wq, bq, wk, bk, wv, bv, wo, bo, ln gain, ln bias).

    x is [B * L, d] rows laid out as key_pad_mask ([B, L], True at padding)
    says; head h owns the h-th block of d / heads columns. xq is x, or its
    rows `rows` when given: [B * W] indices, W query rows per sequence, each
    of its own sequence's rows. The output has xq's rows. keep is the
    dropout keep mask of the output's shape, or None for no dropout.
    """
    wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = weights
    xv = x.values
    xq = xv if rows is None else xv[rows]
    q, k, v = (_check_finite(_linear_fwd(a, w.values, b.values), "linear")
               for a, w, b in ((xq, wq, bq), (xv, wk, bk), (xv, wv, bv)))
    att, probs = _attention_fwd(q, k, v, key_pad_mask, heads)
    out = _check_finite(_linear_fwd(_check_finite(att, "attention"), wo.values, bo.values), "linear")
    vals, xhat, inv, factor = _residual_norm(xq, out, rate, keep, gain, bias)

    def backward(g):
        gs = _layer_norm_bwd(g, xhat, inv, gain, bias, True)
        gy = gs if keep is None else _dropout(gs, keep, factor)
        gq, gk, gv = _attention_bwd(_linear_bwd(gy, att, wo, bo, True), q, k, v, probs)
        # gy has been read, so x may adopt gs: its gradient takes the residual
        # part, then the v, k and q parts, as the tape of the single ops did
        if x.requires_grad:
            _add_at_rows(x, rows, gs)
        for a, w, b, gp, at in ((xv, wv, bv, gv, None), (xv, wk, bk, gk, None), (xq, wq, bq, gq, rows)):
            gx = _linear_bwd(gp, a, w, b, x.requires_grad)
            if gx is not None:
                _add_at_rows(x, at, gx)

    return _make(vals, (x, *weights), backward, "attention_block", checked=True)


def ffn_block(x: Tensor, weights: Sequence[Tensor], rate: float, keep: np.ndarray | None) -> Tensor:
    """Post-norm feed-forward sublayer as one taped op:
    layer_norm(x + dropout(linear(gelu(linear(x, w1, b1)), w2, b2))) for
    weights = (w1, b1, w2, b2, ln gain, ln bias); keep is the dropout keep
    mask of x's shape, or None for no dropout."""
    w1, b1, w2, b2, gain, bias = weights
    xv = x.values
    hidden = _check_finite(_linear_fwd(xv, w1.values, b1.values), "linear")
    act, t = _gelu_fwd(hidden)
    out = _check_finite(_linear_fwd(act, w2.values, b2.values), "linear")
    vals, xhat, inv, factor = _residual_norm(xv, out, rate, keep, gain, bias)

    def backward(g):
        gs = _layer_norm_bwd(g, xhat, inv, gain, bias, True)
        gy = gs if keep is None else _dropout(gs, keep, factor)
        gh = _gelu_bwd(_linear_bwd(gy, act, w2, b2, True), hidden, t)
        if x.requires_grad:   # after the last read of gy, as above
            x.accumulate_grad(gs, owned=True)
        gx = _linear_bwd(gh, xv, w1, b1, x.requires_grad)
        if gx is not None:
            x.accumulate_grad(gx, owned=True)

    return _make(vals, (x, *weights), backward, "ffn_block", checked=True)


def gnn_block(v: Tensor, rel_emb: Tensor, weights: Sequence[Tensor], src: np.ndarray, dst: np.ndarray,
              reldir: np.ndarray, heads: int, rate: float, keep: np.ndarray | None,
              live: np.ndarray | None) -> tuple[Tensor, np.ndarray]:
    """Relation-aware GNN layer as one taped op:
    layer_norm(v + gelu(dropout(linear(summed, wo, bo)))) times the live
    mask, where summed is segment attention of the queries linear(v, wq, bq)
    over the keys and values linear(msg, wk, bk) and linear(msg, wv, bv) of
    the messages msg = linear(concat(v[src], rel_emb[reldir]), w_msg, b_msg),
    each message m going to node dst[m], for weights = (w_msg, b_msg, wq, bq,
    wk, bk, wv, bv, wo, bo, ln gain, ln bias).

    v is [N, d] node rows; head h owns the h-th block of d / heads columns.
    keep is the dropout keep mask of v's shape, or None for no dropout; live
    is an [N] bool array, False on the rows that stay zero, or None when all
    rows are live. Returns the new node rows and the [M, heads] attention of
    every message.
    """
    w_msg, b_msg, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = weights
    vv, d = v.values, v.values.shape[1]
    # rows of finite rows: the chain's concat check cannot fail
    cat = np.concatenate([_check_finite(vv[src], "gather_rows"),
                          _check_finite(rel_emb.values[reldir], "gather_rows")], axis=1)
    msg = _check_finite(_linear_fwd(cat, w_msg.values, b_msg.values), "linear")
    q = _check_finite(_linear_fwd(vv, wq.values, bq.values), "linear")
    k = _check_finite(_linear_fwd(msg, wk.values, bk.values), "linear")
    val = _check_finite(_linear_fwd(msg, wv.values, bv.values), "linear")
    summed, saved = _segment_attention_fwd(q, k, val, dst, heads)
    agg = _check_finite(_linear_fwd(summed, wo.values, bo.values), "linear")
    factor = _dropout_over(agg, rate, keep)
    act, t = _gelu_fwd(agg)
    vals, xhat, inv, _ = _residual_norm(vv, act, rate, None, gain, bias)
    mask = None if live is None else np.asarray(live[:, None], dtype=_DEFAULT_DTYPE)
    if mask is not None:
        vals *= mask

    def backward(g):
        if mask is not None:
            g *= mask
        gs = _layer_norm_bwd(g, xhat, inv, gain, bias, True)
        gagg = _gelu_bwd(gs, agg, t)
        if keep is not None:
            _dropout(gagg, keep, factor, out=gagg)
        gval, gk, gqd = _segment_attention_bwd(_linear_bwd(gagg, summed, wo, bo, True), k, val, dst, saved)
        gq = np.zeros_like(q)
        _rows_at(np.add, gq, dst, gqd)
        gmsg = _linear_bwd(gval, msg, wv, bv, True)
        gmsg += _linear_bwd(gk, msg, wk, bk, True)
        # v's gradient takes the residual part, then the q part, then the
        # message sources' rows, as the tape of the single ops did
        if v.requires_grad:
            v.accumulate_grad(gs, owned=True)
        gx = _linear_bwd(gq, vv, wq, bq, v.requires_grad)
        if gx is not None:
            v.accumulate_grad(gx, owned=True)
        gcat = _linear_bwd(gmsg, cat, w_msg, b_msg, v.requires_grad or rel_emb.requires_grad)
        if gcat is not None:
            _add_rows_to_grad(rel_emb, reldir, gcat[:, d:])
            _add_rows_to_grad(v, src, gcat[:, :d])

    return _make(vals, (v, rel_emb, *weights), backward, "gnn_block", checked=True), saved[0]


def mint_block(x: Tensor, v: Tensor, weights: Sequence[Tensor], int_rows: np.ndarray, v_rows: np.ndarray,
               rate: float, keep: np.ndarray | None) -> Tensor:
    """Interaction perceptron as one taped op:
    linear(dropout(gelu(linear(concat(x[int_rows], v[v_rows]), w1, b1))), w2, b2)
    for weights = (w1, b1, w2, b2); keep is the dropout keep mask of the
    hidden layer, or None for no dropout."""
    w1, b1, w2, b2 = weights
    d = x.values.shape[1]
    # rows of finite rows: the chain's concat check cannot fail
    z = np.concatenate([_check_finite(x.values[int_rows], "gather_rows"),
                        _check_finite(v.values[v_rows], "gather_rows")], axis=1)
    hidden = _check_finite(_linear_fwd(z, w1.values, b1.values), "linear")
    act, t = _gelu_fwd(hidden)
    factor = _dropout_over(act, rate, keep)
    vals = _check_finite(_linear_fwd(act, w2.values, b2.values), "linear")

    def backward(g):
        gh = _linear_bwd(g, act, w2, b2, True)
        if keep is not None:
            _dropout(gh, keep, factor, out=gh)
        gz = _linear_bwd(_gelu_bwd(gh, hidden, t), z, w1, b1, x.requires_grad or v.requires_grad)
        if gz is not None:
            _add_rows_to_grad(v, v_rows, gz[:, d:])
            _add_rows_to_grad(x, int_rows, gz[:, :d])

    return _make(vals, (x, v, *weights), backward, "mint_block", checked=True)


def cross_entropy_with_logits(logits: Tensor, targets) -> Tensor:
    """Per-row -log softmax(logits)[target]; returns a [n] tensor of losses."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.values.ndim != 2 or targets.ndim != 1 or targets.shape[0] != logits.values.shape[0]:
        raise ShapeError("cross_entropy_with_logits expects [n, C] logits and [n] targets")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.values.shape[1]):
        raise ShapeError("cross_entropy_with_logits: target id out of range")
    x = logits.values
    m = x.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(x - m).sum(axis=1))
    picked = x[np.arange(x.shape[0]), targets]

    def grad(g):
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(x.shape[0]), targets] -= 1.0
        return p * g[:, None]

    return _unary("cross_entropy_with_logits", logits, lse - picked, grad)


def constant(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=_DEFAULT_DTYPE))


def check_gradients(fn: Callable[[list[Tensor]], Tensor], inputs: list[np.ndarray],
                    step: float = 1e-5, max_coords: int | None = None,
                    rng: np.random.Generator | None = None) -> float:
    """Central finite-difference check in float64.

    fn maps a list of Tensors to a scalar Tensor. Returns the worst relative
    error across checked coordinates. When max_coords is set, a random sample
    of coordinates per input is checked instead of every coordinate.
    """
    with float64_mode():
        tensors = [Tensor(np.asarray(x, dtype=np.float64), requires_grad=True) for x in inputs]
        with ComputationTape() as tape:
            loss = fn(tensors)
            tape.backward(loss)
        analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.values) for t in tensors]

        worst = 0.0
        for ti, t in enumerate(tensors):
            flat = t.values.reshape(-1)
            n = flat.size
            if max_coords is not None and n > max_coords:
                if rng is None:
                    rng = np.random.default_rng(0)
                coords = rng.choice(n, size=max_coords, replace=False)
            else:
                coords = range(n)
            for ci in coords:
                orig = flat[ci]
                flat[ci] = orig + step
                up = fn(tensors).item()
                flat[ci] = orig - step
                dn = fn(tensors).item()
                flat[ci] = orig
                fd = (up - dn) / (2 * step)
                an = analytic[ti].reshape(-1)[ci]
                denom = max(abs(fd), abs(an), 1.0)
                worst = max(worst, abs(fd - an) / denom)
        return worst
