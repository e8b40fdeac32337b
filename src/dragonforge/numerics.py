"""Dense-tensor engine with reverse-mode automatic differentiation.

Values live in numpy arrays (float32 for training, switchable to float64 for
gradient checking). Every differentiable operation records itself on the
active ComputationTape; backward() replays the tape in exact reverse order.
Any forward op that produces a non-finite value raises NumericError at the
op boundary instead of letting NaN/Inf propagate.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
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

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError("item() on non-scalar tensor of shape %s" % (self.shape,))
        return float(self.values.reshape(()))

    def accumulate_grad(self, delta: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(delta, dtype=self.values.dtype)
        else:
            self.grad += delta

    def __repr__(self):
        return "Tensor(shape=%s, requires_grad=%s%s)" % (
            self.shape, self.requires_grad, ", name=%r" % self.name if self.name else "")


class _OpRecord:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
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

    def record(self, inputs, output, backward_fn) -> None:
        self.records.append(_OpRecord(inputs, output, backward_fn))

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


def backward(loss: Tensor) -> None:
    tape = active_tape()
    if tape is None:
        raise ContractError("backward() called with no active tape")
    tape.backward(loss)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite values produced by op %r" % op)


def _make(values: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable, op: str) -> Tensor:
    _check_finite(values, op)
    tape = active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=needs)
    if needs:
        tape.record(tuple(inputs), out, backward_fn)
    return out


def _unbroadcast_rows(grad: np.ndarray, shape: tuple) -> np.ndarray:
    # Supports the one broadcast this engine allows: a 1-D [d] (or [1, d])
    # operand combined with a 2-D [n, d] operand.
    if grad.shape == shape:
        return grad
    summed = grad.sum(axis=0)
    return summed.reshape(shape)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.values.shape, b.values.shape
    if sa == sb:
        return
    # row-broadcast: [n, d] with [d] or [1, d]
    if len(sa) == 2 and sb in ((sa[1],), (1, sa[1])):
        return
    if len(sb) == 2 and sa in ((sb[1],), (1, sb[1])):
        return
    if a.values.size == 1 or b.values.size == 1:
        return
    raise ShapeError("%s: incompatible shapes %s and %s" % (op, sa, sb))


def _binary(op: str, a: Tensor, b, vals: Callable, grad_a: Callable, grad_b: Callable) -> Tensor:
    """Elementwise op with row broadcasting; grad_x(g, other) is x's gradient
    before the broadcast rows are summed back to x's shape."""
    b = b if isinstance(b, Tensor) else Tensor(b)
    _binary_shapes(a, b, op)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast_rows(grad_a(g, b.values), a.values.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast_rows(grad_b(g, a.values), b.values.shape))

    return _make(vals(a.values, b.values), (a, b), bk, op)


def add(a: Tensor, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, _: g, lambda g, _: g)


def sub(a: Tensor, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, _: g, lambda g, _: -g)


def mul(a: Tensor, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, other: g * other, lambda g, other: g * other)


def neg(a: Tensor) -> Tensor:
    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(-g)

    return _make(-a.values, (a,), bk, "neg")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _make(a.values * c, (a,), bk, "scale")


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g)

    return _make(a.values + c, (a,), bk, "add_scalar")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError("matmul requires 2-D operands, got %s and %s" % (a.shape, b.shape))
    if a.values.shape[1] != b.values.shape[0]:
        raise ShapeError("matmul: inner dimensions disagree, %s vs %s" % (a.shape, b.shape))
    vals = a.values @ b.values

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.values.T)
        if b.requires_grad:
            b.accumulate_grad(a.values.T @ g)

    return _make(vals, (a, b), bk, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.values.shape

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(old))

    return _make(a.values.reshape(shape).copy(), (a,), bk, "reshape")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bk(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return _make(vals, tensors, bk, "concat")


def split(a: Tensor, sizes: Sequence[int], axis: int = 0) -> list[Tensor]:
    if sum(sizes) != a.values.shape[axis]:
        raise ShapeError("split sizes %s do not cover axis %d of %s" % (sizes, axis, a.shape))
    outs = []
    lo = 0
    for sz in sizes:
        hi = lo + sz
        idx = [slice(None)] * a.values.ndim
        idx[axis] = slice(lo, hi)
        piece = a.values[tuple(idx)].copy()

        def bk(g, lo=lo, hi=hi):
            if a.requires_grad:
                full = np.zeros_like(a.values)
                idx2 = [slice(None)] * a.values.ndim
                idx2[axis] = slice(lo, hi)
                full[tuple(idx2)] = g
                a.accumulate_grad(full)

        outs.append(_make(piece, (a,), bk, "split"))
        lo = hi
    return outs


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row gather (embedding lookup); backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("gather_rows expects a 1-D index list")
    if table.values.ndim != 2:
        raise ShapeError("gather_rows expects a 2-D table, got %s" % (table.shape,))
    if ids.size and (ids.min() < 0 or ids.max() >= table.values.shape[0]):
        raise ShapeError("gather_rows: index out of range for table with %d rows" % table.values.shape[0])
    vals = table.values[ids]

    def bk(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.values)
            np.add.at(table.grad, ids, g)

    return _make(vals, (table,), bk, "gather_rows")


def scatter_rows(a: Tensor, ids, n_rows: int) -> Tensor:
    """Adjoint of gather_rows: out[ids[i]] += a[i] into n_rows zero rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if a.values.ndim != 2 or ids.shape != a.values.shape[:1]:
        raise ShapeError("scatter_rows expects [m, d] rows and [m] indices, got %s and %s"
                         % (a.shape, ids.shape))
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise ShapeError("scatter_rows: index out of range for %d rows" % n_rows)
    vals = np.zeros((n_rows, a.values.shape[1]), dtype=a.values.dtype)
    np.add.at(vals, ids, a.values)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g[ids])

    return _make(vals, (a,), bk, "scatter_rows")


def reduce_sum(a: Tensor, axis: int | None = None) -> Tensor:
    vals = a.values.sum(axis=axis)

    def bk(g):
        if a.requires_grad:
            if axis is None:
                a.accumulate_grad(np.full_like(a.values, g))
            else:
                a.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), a.values.shape).copy())

    return _make(vals, (a,), bk, "reduce_sum")


def reduce_mean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.values.size if axis is None else a.values.shape[axis]
    vals = a.values.mean(axis=axis)

    def bk(g):
        if a.requires_grad:
            if axis is None:
                a.accumulate_grad(np.full_like(a.values, g / n))
            else:
                a.accumulate_grad(np.broadcast_to(np.expand_dims(g / n, axis), a.values.shape).copy())

    return _make(vals, (a,), bk, "reduce_mean")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.values.ndim <= axis < a.values.ndim:
        raise ShapeError("softmax: axis %d invalid for shape %s" % (axis, a.shape))
    shifted = a.values - a.values.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    vals = e / e.sum(axis=axis, keepdims=True)

    def bk(g):
        if a.requires_grad:
            dot = (g * vals).sum(axis=axis, keepdims=True)
            a.accumulate_grad(vals * (g - dot))

    return _make(vals, (a,), bk, "softmax")


def segment_softmax(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Softmax of [m, h] scores over the rows that share a segment id, per
    column (edge softmax: each destination node normalizes its messages)."""
    seg = np.asarray(segment_ids, dtype=np.int64)
    if a.values.ndim != 2 or seg.shape != a.values.shape[:1]:
        raise ShapeError("segment_softmax expects [m, h] scores and [m] segment ids, got %s and %s"
                         % (a.shape, seg.shape))
    if seg.size and (seg.min() < 0 or seg.max() >= n_segments):
        raise ShapeError("segment_softmax: segment id out of range for %d segments" % n_segments)
    x = a.values
    top = np.full((n_segments, x.shape[1]), -np.inf, dtype=x.dtype)
    np.maximum.at(top, seg, x)
    e = np.exp(x - top[seg])
    total = np.zeros_like(top)
    np.add.at(total, seg, e)
    vals = e / total[seg]

    def bk(g):
        if a.requires_grad:
            dot = np.zeros_like(top)
            np.add.at(dot, seg, g * vals)
            a.accumulate_grad(vals * (g - dot[seg]))

    return _make(vals, (a,), bk, "segment_softmax")


def attention(q: Tensor, k: Tensor, v: Tensor, key_pad_mask: np.ndarray, heads: int) -> Tensor:
    """Multi-head scaled dot-product self-attention over a padded batch.

    q, k, v are [B * L, d]: sequence b owns rows b * L .. b * L + L - 1 and
    head h owns columns h * d/heads .. (h + 1) * d/heads - 1. key_pad_mask is
    [B, L] and True at padding positions, which no query attends to. Returns
    [B * L, d]. Only the softmax probabilities are kept for backward.
    """
    n, d = q.values.shape
    if k.values.shape != (n, d) or v.values.shape != (n, d):
        raise ShapeError("attention: q, k, v shapes differ: %s %s %s" % (q.shape, k.shape, v.shape))
    if d % heads:
        raise ShapeError("attention: %d heads do not divide width %d" % (heads, d))
    b, length = key_pad_mask.shape
    if b * length != n:
        raise ShapeError("attention: padding mask %s does not cover %d rows" % ((b, length), n))
    dh = d // heads
    inv = 1.0 / math.sqrt(dh)

    def split_heads(x):  # [B * L, d] -> [B, heads, L, dh]
        return x.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)

    def merge_heads(x):  # [B, heads, L, dh] -> [B * L, d]
        return x.transpose(0, 2, 1, 3).reshape(n, d)

    qh, kh, vh = split_heads(q.values), split_heads(k.values), split_heads(v.values)
    logits = (qh @ kh.transpose(0, 1, 3, 2)) * inv
    if key_pad_mask.any():
        logits += np.where(key_pad_mask, NEG_FILL, 0.0).astype(logits.dtype)[:, None, None, :]
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    vals = merge_heads(probs @ vh)

    def bk(g):
        gh = split_heads(g)
        if v.requires_grad:
            v.accumulate_grad(merge_heads(probs.transpose(0, 1, 3, 2) @ gh))
        if q.requires_grad or k.requires_grad:
            dp = gh @ vh.transpose(0, 1, 3, 2)
            ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
            ds *= inv
            if q.requires_grad:
                q.accumulate_grad(merge_heads(ds @ kh))
            if k.requires_grad:
                k.accumulate_grad(merge_heads(ds.transpose(0, 1, 3, 2) @ qh))

    return _make(vals, (q, k, v), bk, "attention")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply elementwise affine."""
    if eps <= 0:
        raise ContractError("layer_norm: eps must be positive")
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    vals = xhat * gain.values + bias.values
    d = x.shape[-1]

    def bk(g):
        gx = g * gain.values
        if a.requires_grad:
            # d/dx of (x - mu) * inv with mu, inv functions of x
            s1 = gx.sum(axis=-1, keepdims=True)
            s2 = (gx * xhat).sum(axis=-1, keepdims=True)
            a.accumulate_grad(inv * (gx - s1 / d - xhat * s2 / d))
        if gain.requires_grad:
            gain.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0).reshape(gain.values.shape))
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, d).sum(axis=0).reshape(bias.values.shape))

    return _make(vals, (a, gain, bias), bk, "layer_norm")


# Python floats, not numpy scalars: under NumPy 2 promotion a float64 scalar
# would turn every float32 gelu into float64 work
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation (BERT/GPT-2 form)."""
    x = a.values
    inner = _GELU_C * (x + _GELU_K * x * x * x)
    t = np.tanh(inner)
    vals = 0.5 * x * (1.0 + t)

    def bk(g):
        if a.requires_grad:
            dinner = _GELU_C * (1.0 + 3.0 * _GELU_K * x * x)
            da = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            a.accumulate_grad(g * da)

    return _make(vals, (a,), bk, "gelu")


def log_sigmoid(a: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x)) = min(x, 0) - log1p(exp(-|x|))."""
    x = a.values
    vals = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def bk(g):
        if a.requires_grad:
            # d/dx log sigma(x) = sigma(-x)
            s = np.where(x >= 0, np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))), 1.0 / (1.0 + np.exp(-np.abs(x))))
            a.accumulate_grad(g * s)

    return _make(vals, (a,), bk, "log_sigmoid")


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.values < 0):
        raise ContractError("sqrt of negative value")
    vals = np.sqrt(a.values)

    def bk(g):
        if a.requires_grad:
            # subgradient guard at 0; training inputs are never exactly 0
            a.accumulate_grad(g * 0.5 / np.maximum(vals, 1e-30))

    return _make(vals, (a,), bk, "sqrt")


def cos(a: Tensor) -> Tensor:
    vals = np.cos(a.values)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(-g * np.sin(a.values))

    return _make(vals, (a,), bk, "cos")


def sin(a: Tensor) -> Tensor:
    vals = np.sin(a.values)

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g * np.cos(a.values))

    return _make(vals, (a,), bk, "sin")


def dropout(a: Tensor, rate: float, keep: np.ndarray) -> Tensor:
    """Train-mode inverted dropout with a seeded boolean keep mask of a's
    shape (callers draw it as uniform draws >= rate). Callers skip it in eval."""
    if not 0.0 <= rate < 1.0:
        raise ContractError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return a
    if keep.shape != a.values.shape:
        raise ShapeError("dropout: mask shape %s != tensor shape %s" % (keep.shape, a.shape))
    keep = keep.astype(a.values.dtype)
    factor = 1.0 / (1.0 - rate)
    vals = a.values * keep * factor

    def bk(g):
        if a.requires_grad:
            a.accumulate_grad(g * keep * factor)

    return _make(vals, (a,), bk, "dropout")


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
    vals = lse - picked

    def bk(g):
        if logits.requires_grad:
            p = np.exp(x - m)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(x.shape[0]), targets] -= 1.0
            logits.accumulate_grad(p * g[:, None])

    return _make(vals, (logits,), bk, "cross_entropy_with_logits")


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


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
