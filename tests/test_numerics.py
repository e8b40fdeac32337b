"""Tensor-engine oracles: forward formulas, finite-difference gradients,
tape determinism, and numeric-guard behavior."""

import ast
import glob
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dragonforge import numerics as nm


def rng(seed=0):
    return np.random.default_rng(seed)


def run_tape(fn, arrays):
    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    with nm.ComputationTape() as tape:
        out = fn(tensors)
        tape.backward(out)
    return out, tensors


# ---------------------------------------------------------------------------
# forward oracles
# ---------------------------------------------------------------------------

def test_matmul_scalar_product():
    out = nm.matmul(nm.constant([[2.0]]), nm.constant([[3.0]]))
    assert out.values[0, 0] == pytest.approx(6.0)


def test_matmul_identity():
    x = rng(1).normal(size=(3, 5))
    out = nm.matmul(nm.constant(np.eye(3)), nm.constant(x))
    np.testing.assert_allclose(out.values, x.astype(np.float32), atol=0)


def test_matmul_against_triple_loop():
    a = rng(2).normal(size=(4, 5))
    b = rng(3).normal(size=(5, 3))
    expected = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for p in range(5):
                expected[i, j] += a[i, p] * b[p, j]
    out = nm.matmul(nm.constant(a), nm.constant(b))
    assert np.abs(out.values - expected).max() < 1e-6


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(nm.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        nm.matmul(nm.constant(np.ones((2, 3))), nm.constant(np.ones((2, 3))))


def test_a_broadcast_that_backward_cannot_undo_is_refused():
    # backward sums a broadcast [d] row's gradient over the rows; a size-1
    # tensor or a [1, d] row beside [n, d] would need other axes summed
    x = nm.constant(np.ones((3, 4)))
    with pytest.raises(nm.ShapeError, match=r"mul: incompatible shapes \(3, 4\) and \(\)$"):
        nm.mul(x, nm.Tensor(2.0, requires_grad=True))
    with pytest.raises(nm.ShapeError, match=r"mul: incompatible shapes \(3, 4\) and \(1, 4\)$"):
        nm.mul(x, nm.Tensor(np.ones((1, 4)), requires_grad=True))
    with pytest.raises(nm.ShapeError, match=r"add: incompatible shapes \(4,\) and \(3, 1\)"):
        nm.add(nm.constant(np.ones(4)), np.ones((3, 1)))
    # a scalar constant, and a [d] row (here before [n, d]), still broadcast
    out, (m, row) = run_tape(lambda ts: nm.reduce_sum(nm.mul(nm.add(ts[1], ts[0]), 2.0)),
                             [np.ones((3, 4)), np.ones(4)])
    assert out.item() == 48.0
    np.testing.assert_array_equal(m.grad, np.full((3, 4), 2.0))
    np.testing.assert_array_equal(row.grad, np.full(4, 6.0))


# the library's softmax is the segment-softmax kernel of segment attention: a
# softmax over the rows that share a segment id, column by column


def test_softmax_symmetry_and_stability():
    for score in (0.0, 1000.0):
        out = nm._segment_softmax(np.full((2, 1), score, dtype=np.float32), np.array([0, 0]), 1)
        np.testing.assert_allclose(out[:, 0], [0.5, 0.5], atol=1e-7)


def test_softmax_against_direct_formula():
    x = rng(4).normal(size=7)
    out = nm._segment_softmax(x[:, None], np.zeros(7, dtype=int), 1)
    expected = np.exp(x) / np.exp(x).sum()
    assert np.abs(out[:, 0] - expected).max() < 1e-7


def test_softmax_rows_sum_to_one():
    # segment i holds the nine scores of row i of x
    x = (rng(5).normal(size=(6, 9)) * 10).astype(np.float32)
    out = nm._segment_softmax(x.reshape(-1, 1), np.repeat(np.arange(6), 9), 6)
    np.testing.assert_allclose(out.reshape(6, 9).sum(axis=-1), 1.0, atol=1e-6)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
def test_gelu_and_segment_softmax_are_bounded_on_finite_input(data, dtype):
    # the graph and sublayer blocks leave gelu, the segment softmax and the
    # products of finite rows with the softmax unchecked on these bounds
    finfo = np.finfo(dtype)
    drawn = data.draw(hnp.arrays(dtype, st.integers(0, 60),
                                 elements=hnp.from_dtype(np.dtype(dtype), allow_nan=False,
                                                         allow_infinity=False)))
    extremes = np.array([finfo.max, -finfo.max, finfo.tiny, -finfo.tiny, finfo.smallest_subnormal,
                         -finfo.smallest_subnormal, 0.0], dtype=dtype)
    x = np.concatenate([extremes, drawn])
    with np.errstate(over="ignore"):
        vals, _ = nm._gelu_fwd(x)
        assert vals.dtype == dtype and np.isfinite(vals).all()
        assert (np.abs(vals) <= np.abs(x)).all()
        heads = data.draw(st.integers(1, 3))
        scores = x[:len(x) // heads * heads].reshape(-1, heads)
        seg = data.draw(hnp.arrays(np.int64, len(scores), elements=st.integers(0, 3)))
        alpha = nm._segment_softmax(scores, seg, 4)
    assert ((alpha >= 0) & (alpha <= 1)).all()


def test_layer_norm_constant_row_is_zero():
    gain, bias = nm.constant(np.ones(4)), nm.constant(np.zeros(4))
    out = nm.layer_norm(nm.constant([[3.0, 3.0, 3.0, 3.0]]), gain, bias)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-6)


def test_layer_norm_standardizes():
    with nm.float64_mode():
        gain, bias = nm.Tensor(np.ones(3)), nm.Tensor(np.zeros(3))
        out = nm.layer_norm(nm.Tensor([[1.0, 2.0, 3.0]]), gain, bias, eps=1e-12).values
        assert out.mean() == pytest.approx(0.0, abs=1e-9)
        assert out.var() == pytest.approx(1.0, abs=1e-6)


def test_layer_norm_against_mean_var_oracle():
    with nm.float64_mode():
        x = rng(6).normal(size=(3, 8))
        g = rng(7).normal(size=8)
        b = rng(8).normal(size=8)
        eps = 1e-5
        expected = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + eps) * g + b
        out = nm.layer_norm(nm.Tensor(x), nm.Tensor(g), nm.Tensor(b), eps=eps)
        assert np.abs(out.values - expected).max() < 1e-6


def test_cross_entropy_uniform_and_onehot():
    logits = nm.constant(np.zeros((1, 100)))
    assert nm.cross_entropy_with_logits(logits, [7]).values[0] == pytest.approx(np.log(100), abs=1e-5)
    peaked = np.zeros((1, 10))
    peaked[0, 3] = 1e4
    assert nm.cross_entropy_with_logits(nm.constant(peaked), [3]).values[0] == pytest.approx(0.0, abs=1e-6)


def test_log_sigmoid_stable_tails():
    out = nm.log_sigmoid(nm.constant([-1000.0, 0.0, 1000.0])).values
    assert out[0] == pytest.approx(-1000.0)
    assert out[1] == pytest.approx(np.log(0.5))
    assert out[2] == pytest.approx(0.0, abs=1e-6)


def test_gather_rows_and_bounds():
    table = nm.constant(rng(9).normal(size=(5, 3)))
    out = nm.gather_rows(table, [4, 0, 4])
    np.testing.assert_array_equal(out.values[0], table.values[4])
    with pytest.raises(nm.ShapeError):
        nm.gather_rows(table, [5])


def test_scatter_rows_adds_into_zero_rows():
    x = nm.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = nm.scatter_rows(x, [2, 0, 2], 4)
    np.testing.assert_allclose(out.values, [[3.0, 4.0], [0.0, 0.0], [6.0, 8.0], [0.0, 0.0]])
    with pytest.raises(nm.ShapeError):
        nm.scatter_rows(x, [0, 1, 4], 4)


def test_segment_softmax_against_dense_masked_softmax():
    with nm.float64_mode():
        x = rng(24).normal(size=(6, 2)) * 5
        seg = np.array([1, 0, 1, 3, 1, 0])
        out = nm._segment_softmax(x, seg, 4)
        for s in range(4):
            rows = seg == s
            if rows.any():
                np.testing.assert_allclose(out[rows], np.exp(x[rows]) / np.exp(x[rows]).sum(axis=0),
                                           atol=1e-12)


def test_attention_against_per_sequence_per_head_loop():
    with nm.float64_mode():
        b, length, d, heads = 3, 4, 6, 3
        q, k, v = (rng(25 + i).normal(size=(b * length, d)) for i in range(3))
        lengths = [4, 1, 2]
        pad = np.arange(length)[None, :] >= np.array(lengths)[:, None]
        out = nm._attention_fwd(q, k, v, pad, heads)[0]
        dh = d // heads
        for s, n in enumerate(lengths):
            rows = slice(s * length, s * length + n)
            for h in range(heads):
                cols = slice(h * dh, (h + 1) * dh)
                logits = q[rows, cols] @ k[rows, cols].T / np.sqrt(dh)
                p = np.exp(logits - logits.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                np.testing.assert_allclose(out[rows, cols], p @ v[rows, cols], atol=1e-12)
        single = nm._attention_fwd(q[:4], k[:4], v[:4], np.zeros((1, 4), bool), heads)[0]
        np.testing.assert_allclose(single, out[:4], atol=1e-12)


# ---------------------------------------------------------------------------
# backward oracles
# ---------------------------------------------------------------------------

def test_backward_square():
    x = nm.Tensor([3.0], requires_grad=True)
    with nm.ComputationTape() as tape:
        loss = nm.reduce_sum(nm.mul(x, x))
        tape.backward(loss)
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_disconnected_param_has_no_grad():
    x = nm.Tensor([3.0], requires_grad=True)
    p = nm.Tensor([5.0], requires_grad=True)
    with nm.ComputationTape() as tape:
        loss = nm.reduce_sum(nm.mul(x, x))
        tape.backward(loss)
    assert p.grad is None


def test_backward_accumulates_without_zeroing():
    x = nm.Tensor([2.0], requires_grad=True)
    for _ in range(2):
        with nm.ComputationTape() as tape:
            loss = nm.reduce_sum(nm.mul(x, x))
            tape.backward(loss)
    assert x.grad[0] == pytest.approx(8.0)


def test_backward_rejects_non_scalar():
    x = nm.Tensor([1.0, 2.0], requires_grad=True)
    with nm.ComputationTape() as tape:
        y = nm.mul(x, x)
        with pytest.raises(nm.ContractError):
            tape.backward(y)


def test_backward_twice_on_one_tape_raises():
    # backward releases each op's saved arrays once it has passed them on
    x = nm.Tensor([2.0], requires_grad=True)
    with nm.ComputationTape() as tape:
        loss = nm.reduce_sum(nm.mul(x, x))
        tape.backward(loss)
        with pytest.raises(nm.ContractError, match="already ran"):
            tape.backward(loss)
    assert x.grad[0] == pytest.approx(4.0)


def keep_mask(shape, rate, seed):
    return np.random.default_rng(seed).random(shape) >= rate


def segment_softmax(a, seg, n):
    """The segment-softmax kernels of segment attention as a taped op."""
    seg = np.asarray(seg)
    vals = nm._segment_softmax(a.values, seg, n)
    return nm._unary("segment_softmax", a, vals, lambda g: nm._segment_softmax_bwd(g, vals, seg, n))


# a GNN batch of six node rows: a real graph on rows 0-3, where row 3 gets no
# message, and a dummy graph on rows 4-5, which stay zero
GNN = dict(src=np.array([0, 1, 1, 2, 0, 2]), dst=np.array([1, 0, 2, 1, 2, 0]),
           reldir=np.array([0, 1, 2, 3, 0, 1]), heads=2, live=np.arange(6) < 4)
# v, rel_emb, then w_msg, b_msg, wq, bq, wk, bk, wv, bv, wo, bo, the layer_norm gain and bias
GNN_SHAPES = [(6, 4), (4, 4), (8, 4), (4,)] + [(4, 4), (4,)] * 4 + [(4,), (4,)]


def gnn_case(rate, keep):
    return lambda ts: nm.reduce_sum(nm.mul(
        nm.gnn_block(ts[0], ts[1], ts[2:14], rate=rate, keep=keep, **GNN)[0], ts[14]))


# two examples of three token rows and width 3 with graphs of width 2 at node
# rows 0 and 3; w1, b1, w2, b2
MINT = dict(int_rows=np.array([0, 3]), v_rows=np.array([0, 3]))
MINT_WEIGHTS = [(5, 4), (4,), (4, 5), (5,)]


def mint_case(rate, keep, nodes=None):
    """With nodes, v is that constant, as in verbalized mode, and ts holds x,
    the weights and the loss weights."""
    if nodes is not None:
        return lambda ts: nm.reduce_sum(nm.mul(
            nm.mint_block(ts[0], nm.constant(nodes), ts[1:5], rate=rate, keep=keep, **MINT), ts[5]))
    return lambda ts: nm.reduce_sum(nm.mul(
        nm.mint_block(ts[0], ts[1], ts[2:6], rate=rate, keep=keep, **MINT), ts[6]))


QUERY_PAD = np.array([[False, False, False, True], [False, False, False, False]])
QUERY_ROWS = np.array([2, 0, 0, 7, 5, 4])

OPS = [
    ("add", lambda ts: nm.reduce_sum(nm.add(ts[0], ts[1])), [(3, 4), (3, 4)]),
    ("add_row_broadcast", lambda ts: nm.reduce_sum(nm.add(ts[0], ts[1])), [(3, 4), (4,)]),
    ("sub", lambda ts: nm.reduce_sum(nm.sub(ts[0], ts[1])), [(3, 4), (3, 4)]),
    ("mul", lambda ts: nm.reduce_sum(nm.mul(ts[0], ts[1])), [(3, 4), (3, 4)]),
    ("neg", lambda ts: nm.reduce_sum(nm.neg(ts[0])), [(3, 4)]),
    ("add_scalar", lambda ts: nm.reduce_sum(nm.add(ts[0], 0.3)), [(5,)]),
    ("matmul", lambda ts: nm.reduce_sum(nm.matmul(ts[0], ts[1])), [(3, 4), (4, 2)]),
    ("linear", lambda ts: nm.reduce_sum(nm.mul(nm.linear(ts[0], ts[1], ts[2]), ts[3])),
     [(3, 4), (4, 2), (2,), (3, 2)]),
    ("reshape", lambda ts: nm.reduce_sum(nm.mul(nm.reshape(ts[0], (2, 6)), nm.reshape(ts[0], (2, 6)))), [(3, 4)]),
    ("concat", lambda ts: nm.reduce_sum(nm.mul(nm.concat(ts, axis=0), nm.concat(ts, axis=0))), [(2, 3), (4, 3)]),
    ("split", lambda ts: nm.reduce_sum(nm.mul(*nm.split(ts[0], [2, 2], axis=1))), [(3, 4)]),
    ("concat_split_last_axis", lambda ts: nm.reduce_sum(nm.mul(*nm.split(
        nm.concat([ts[0], ts[1]], axis=-1), [3, 3], axis=-1))), [(3, 2), (3, 4)]),
    ("gather_rows", lambda ts: nm.reduce_sum(nm.mul(nm.gather_rows(ts[0], [0, 2, 2, 1]),
                                                    nm.gather_rows(ts[0], [1, 1, 0, 2]))), [(3, 4)]),
    ("reduce_sum_axis", lambda ts: nm.reduce_sum(nm.mul(nm.reduce_sum(ts[0], axis=1),
                                                        nm.reduce_sum(ts[0], axis=1))), [(3, 4)]),
    ("reduce_mean", lambda ts: nm.reduce_mean(nm.mul(ts[0], ts[0])), [(3, 4)]),
    ("reduce_mean_axis", lambda ts: nm.reduce_sum(nm.mul(nm.reduce_mean(ts[0], axis=0),
                                                         nm.reduce_mean(ts[0], axis=0))), [(3, 4)]),
    ("layer_norm", lambda ts: nm.reduce_sum(nm.mul(nm.layer_norm(ts[0], ts[1], ts[2]), ts[0])), [(3, 4), (4,), (4,)]),
    ("gelu", lambda ts: nm.reduce_sum(nm.gelu(ts[0])), [(3, 4)]),
    ("log_sigmoid", lambda ts: nm.reduce_sum(nm.log_sigmoid(ts[0])), [(3, 4)]),
    ("sqrt", lambda ts: nm.reduce_sum(nm.sqrt(nm.add(nm.mul(ts[0], ts[0]), 0.5))), [(3, 4)]),
    ("cos", lambda ts: nm.reduce_sum(nm.cos(ts[0])), [(3, 4)]),
    ("sin", lambda ts: nm.reduce_sum(nm.sin(ts[0])), [(3, 4)]),
    ("dropout", lambda ts: nm.reduce_sum(nm.mul(nm.dropout(ts[0], 0.3, keep_mask((3, 4), 0.3, 5)), ts[0])),
     [(3, 4)]),
    ("scatter_rows", lambda ts: nm.reduce_sum(nm.mul(nm.scatter_rows(ts[0], [2, 0, 2], 4), ts[1])),
     [(3, 2), (4, 2)]),
    ("segment_softmax", lambda ts: nm.reduce_sum(nm.mul(
        segment_softmax(ts[0], [0, 2, 0, 2, 2], 4), ts[0])), [(5, 2)]),
    # q, k, v, then the loss weights; query row 1 has no keys
    ("segment_attention", lambda ts: nm.reduce_sum(nm.mul(
        nm.segment_attention(ts[0], ts[1], ts[2], [0, 2, 0, 2, 2], 2)[0], ts[3])),
     [(3, 4), (5, 4), (5, 4), (3, 4)]),
    ("gnn_block", gnn_case(0.0, None), GNN_SHAPES + [(6, 4)]),
    ("gnn_block_dropout", gnn_case(0.3, keep_mask((6, 4), 0.3, 7)), GNN_SHAPES + [(6, 4)]),
    ("mint_block", mint_case(0.0, None), [(6, 3), (5, 2)] + MINT_WEIGHTS + [(2, 5)]),
    ("mint_block_dropout", mint_case(0.3, keep_mask((2, 4), 0.3, 8)),
     [(6, 3), (5, 2)] + MINT_WEIGHTS + [(2, 5)]),
    ("mint_block_constant_nodes", mint_case(0.3, keep_mask((2, 4), 0.3, 8), rng(9).normal(size=(5, 2))),
     [(6, 3)] + MINT_WEIGHTS + [(2, 5)]),
    # x, then wq, bq, wk, bk, wv, bv, wo, bo, the layer_norm gain and bias, then the loss weights
    ("attention", lambda ts: nm.reduce_sum(nm.mul(
        nm.attention_block(ts[0], ts[1:11], np.zeros((1, 3), bool), 2, 0.0, None), ts[11])),
     [(3, 4)] + [(4, 4), (4,)] * 4 + [(4,), (4,), (3, 4)]),
    ("attention_padded", lambda ts: nm.reduce_sum(nm.mul(
        nm.attention_block(ts[0], ts[1:11], np.array([[False, False, True], [False, False, False]]), 2,
                           0.3, keep_mask((6, 4), 0.3, 5)), ts[11])),
     [(6, 4)] + [(4, 4), (4,)] * 4 + [(4,), (4,), (6, 4)]),
    # queries on a row subset of two sequences of 4 rows: position 2 of the
    # first, then two padded query slots that repeat its row 0; positions 3,
    # 1 and 0 of the second
    ("attention_query_rows", lambda ts: nm.reduce_sum(nm.mul(
        nm.attention_block(ts[0], ts[1:11], QUERY_PAD, 2, 0.3, keep_mask((6, 4), 0.3, 9), QUERY_ROWS),
        ts[11])),
     [(8, 4)] + [(4, 4), (4,)] * 4 + [(4,), (4,), (6, 4)]),
    # x, then w1, b1, w2, b2, the layer_norm gain and bias, then the loss weights
    ("ffn_block", lambda ts: nm.reduce_sum(nm.mul(nm.ffn_block(ts[0], ts[1:7], 0.0, None), ts[7])),
     [(3, 4), (4, 6), (6,), (6, 4), (4,), (4,), (4,), (3, 4)]),
    ("ffn_block_dropout", lambda ts: nm.reduce_sum(nm.mul(
        nm.ffn_block(ts[0], ts[1:7], 0.3, keep_mask((3, 4), 0.3, 6)), ts[7])),
     [(3, 4), (4, 6), (6,), (6, 4), (4,), (4,), (4,), (3, 4)]),
    ("cross_entropy", lambda ts: nm.reduce_mean(nm.cross_entropy_with_logits(ts[0], [1, 0, 3])), [(3, 5)]),
]


@pytest.mark.parametrize("name,fn,shapes", OPS, ids=[o[0] for o in OPS])
def test_finite_difference_gradients(name, fn, shapes):
    inputs = [rng(11 + i).normal(size=s) for i, s in enumerate(shapes)]
    err = nm.check_gradients(fn, inputs)
    assert err < 1e-4, "%s: fd mismatch %.3e" % (name, err)


def _taped_op_names() -> set[str]:
    """Op names that reach `_make` in numerics.py, following an op name that
    a helper forwards from its own parameter back to the helper's callers."""
    tree = ast.parse(inspect.getsource(nm))
    sites = [(f, c) for f in tree.body if isinstance(f, ast.FunctionDef)
             for c in ast.walk(f) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)]

    def names_passed(callee: str, index: int) -> set[str]:
        names = set()
        for f, c in sites:
            if c.func.id != callee:
                continue
            arg = c.args[index]
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            else:
                names |= names_passed(f.name, [a.arg for a in f.args.args].index(arg.id))
        return names

    return names_passed("_make", 3)


def test_every_taped_op_has_a_finite_difference_case(monkeypatch):
    exercised = set()
    make = nm._make

    def recording_make(values, inputs, backward_fn, op, **kw):
        exercised.add(op)
        return make(values, inputs, backward_fn, op, **kw)

    monkeypatch.setattr(nm, "_make", recording_make)
    with nm.float64_mode():
        for _, fn, shapes in OPS:
            fn([nm.Tensor(rng(i).normal(size=s), requires_grad=True) for i, s in enumerate(shapes)])
    ops = _taped_op_names()
    assert {"add", "sub", "mul", "matmul", "dropout"} <= ops
    assert ops <= exercised, "ops without a gradient case: %s" % sorted(ops - exercised)


def _numerics_functions_called_by_library() -> set[str]:
    """Names of numerics functions called from the other dragonforge modules,
    through `from . import numerics as nm` or `from .numerics import name`."""
    called = set()
    for path in glob.glob(os.path.join(os.path.dirname(nm.__file__), "*.py")):
        if os.path.basename(path) == "numerics.py":
            continue
        tree = ast.parse(open(path, encoding="utf-8").read())
        aliases, imported = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name == "numerics":
                        aliases.add(a.asname or a.name)
                    elif node.module == "numerics":
                        imported[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in aliases:
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in imported:
                called.add(imported[f.id])
    return called


def test_every_taped_op_has_a_library_caller():
    # an op that only the tests call is dead code that still needs its own
    # gradient case; op names are the names of the functions that record them
    ops = _taped_op_names()
    called = _numerics_functions_called_by_library()
    assert {"matmul", "segment_attention", "attention_block", "ffn_block", "gnn_block", "mint_block"} <= called
    assert ops <= called, "taped ops without a library caller: %s" % sorted(ops - called)


@pytest.mark.parametrize("name,fn,shapes", OPS, ids=[o[0] for o in OPS])
def test_float32_mode_computes_in_float32(name, fn, shapes, monkeypatch):
    # the raw arrays an op hands to the tape and to accumulate_grad, before
    # Tensor() would cast them back: a float64 one means hidden float64 work
    seen = []
    make, accumulate = nm._make, nm.Tensor.accumulate_grad

    def recording_make(values, inputs, backward_fn, op, **kw):
        seen.append((op, values.dtype))
        return make(values, inputs, backward_fn, op, **kw)

    def recording_accumulate(self, delta, owned=False):
        seen.append(("gradient", np.asarray(delta).dtype))
        accumulate(self, delta, owned)

    monkeypatch.setattr(nm, "_make", recording_make)
    monkeypatch.setattr(nm.Tensor, "accumulate_grad", recording_accumulate)
    tensors = [nm.Tensor(rng(i).normal(size=s), requires_grad=True) for i, s in enumerate(shapes)]
    with nm.ComputationTape() as tape:
        tape.backward(fn(tensors))
    assert seen and all(dtype == np.float32 for _, dtype in seen), \
        "%s: %s" % (name, sorted({op for op, dtype in seen if dtype != np.float32}))
    assert all(t.grad.dtype == np.float32 for t in tensors if t.grad is not None)


def test_dropout_gradient_matches_mask():
    x = nm.Tensor(rng(13).normal(size=(10, 10)), requires_grad=True)
    with nm.ComputationTape() as tape:
        y = nm.dropout(x, 0.4, keep_mask((10, 10), 0.4, 5))
        tape.backward(nm.reduce_sum(y))
    kept = y.values != 0
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6, rtol=1e-5)
    np.testing.assert_allclose(x.grad[~kept], 0.0)


def _forward_and_grads(op, arrays, weight):
    """op's output and every input's gradient of sum(op(inputs) * weight)."""
    tensors = [nm.Tensor(a, requires_grad=True) for a in arrays]
    with nm.ComputationTape() as tape:
        out = op(*tensors)
        tape.backward(nm.reduce_sum(nm.mul(out, nm.constant(weight))))
    return [out.values] + [t.grad for t in tensors]


def _gelu_reference(x, g):
    # reference: the kernels' formulas as allocating expressions, operation for operation
    c, k = nm._GELU_C, nm._GELU_K
    t = np.tanh(c * (x + k * x * x * x))
    dinner = c * (1.0 + 3.0 * k * x * x)
    return 0.5 * x * (1.0 + t), g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def _layer_norm_reference(x, gain, bias, g, eps=1e-5):
    d = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    gx = g * gain
    s1 = gx.sum(axis=-1, keepdims=True)
    s2 = (gx * xhat).sum(axis=-1, keepdims=True)
    return (xhat * gain + bias, inv * (gx - s1 / d - xhat * s2 / d),
            (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


def _attention_reference(q, k, v, pad, heads, g):
    n, d = q.shape
    b, length = pad.shape
    dh = d // heads
    inv = 1.0 / math.sqrt(dh)   # a Python float, as in nm._attention_fwd
    split = lambda x: x.reshape(b, length, heads, dh).transpose(0, 2, 1, 3)
    merge = lambda x: x.transpose(0, 2, 1, 3).reshape(n, d)
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    logits = (qh @ kh.transpose(0, 1, 3, 2)) * inv
    logits += np.where(pad, nm.NEG_FILL, 0.0).astype(logits.dtype)[:, None, None, :]
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    dp = gh @ vh.transpose(0, 1, 3, 2)
    ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
    ds *= inv
    return (merge(probs @ vh), merge(ds @ kh), merge(ds.transpose(0, 1, 3, 2) @ qh),
            merge(probs.transpose(0, 1, 3, 2) @ gh))


def _linear_reference(x, w, b, g):
    """x @ w + b and, for the output gradient g, the gradients of x, w and b."""
    return x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)


def _dropout_reference(x, keep, rate):
    return x * keep.astype(x.dtype) * (1.0 / (1.0 - rate)) if keep is not None else x


def _residual_norm_reference(x, y, gain, bias, keep, rate, g):
    """layer_norm(x + dropout(y)): values, the gradient of the residual input
    x and of the branch output y, and the gain and bias gradients."""
    out, gs, ggain, gbias = _layer_norm_reference(x + _dropout_reference(y, keep, rate), gain, bias, g)
    return out, gs, _dropout_reference(gs, keep, rate), ggain, gbias


def _attention_block_reference(x, weights, pad, heads, keep, rate, g):
    """Values and every gradient of attention_block, in its argument order,
    from the allocating formulas of the single ops it fuses."""
    wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = weights
    q, k, v = (x @ w + b for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    att = _attention_reference(q, k, v, pad, heads, np.zeros_like(q))[0]
    out, gs, gy, ggain, gbias = _residual_norm_reference(x, att @ wo + bo, gain, bias, keep, rate, g)
    _, gatt, gwo, gbo = _linear_reference(att, wo, bo, gy)
    _, gq, gk, gv = _attention_reference(q, k, v, pad, heads, gatt)
    grads = [_linear_reference(x, w, b, gp) for w, b, gp in ((wq, bq, gq), (wk, bk, gk), (wv, bv, gv))]
    # the residual part first, then the v, k and q parts, as the tape adds them
    gx = gs + grads[2][1] + grads[1][1] + grads[0][1]
    return [out, gx] + [a for _, _, gw, gb in grads for a in (gw, gb)] + [gwo, gbo, ggain, gbias]


def _ffn_block_reference(x, weights, keep, rate, g):
    w1, b1, w2, b2, gain, bias = weights
    hidden = x @ w1 + b1
    act = _gelu_reference(hidden, hidden)[0]
    out, gs, gy, ggain, gbias = _residual_norm_reference(x, act @ w2 + b2, gain, bias, keep, rate, g)
    _, gact, gw2, gb2 = _linear_reference(act, w2, b2, gy)
    gh = _gelu_reference(hidden, gact)[1]
    _, gx1, gw1, gb1 = _linear_reference(x, w1, b1, gh)
    return [out, gs + gx1, gw1, gb1, gw2, gb2, ggain, gbias]


def _gnn_chain(v, rel_emb, weights, src, dst, reldir, heads, rate, keep, live):
    """gnn_block as the chain of single ops it replaces: new node rows and attention."""
    w_msg, b_msg, wq, bq, wk, bk, wv, bv, wo, bo, gain, bias = weights
    msg = nm.linear(nm.concat([nm.gather_rows(v, src), nm.gather_rows(rel_emb, reldir)], axis=1), w_msg, b_msg)
    q, k, val = nm.linear(v, wq, bq), nm.linear(msg, wk, bk), nm.linear(msg, wv, bv)
    # segment attention of q over k and val, each message going to dst
    n, dh = v.shape[0], k.shape[1] // heads
    head_cols = np.repeat(np.eye(heads), dh, axis=0)
    logits = nm.matmul(nm.mul(nm.gather_rows(q, dst), k), nm.constant(head_cols / np.sqrt(dh)))
    alpha = segment_softmax(logits, dst, n)
    summed = nm.scatter_rows(nm.mul(nm.matmul(alpha, nm.constant(head_cols.T)), val), dst, n)
    agg = nm.linear(summed, wo, bo)
    if keep is not None:
        agg = nm.dropout(agg, rate, keep)
    out = nm.layer_norm(nm.add(v, nm.gelu(agg)), gain, bias)
    if live is not None:
        out = nm.mul(out, nm.constant(np.broadcast_to(live.astype(float)[:, None], out.shape)))
    return out, alpha.values


def _mint_chain(x, v, weights, int_rows, v_rows, rate, keep):
    """mint_block as the chain of single ops it replaces."""
    w1, b1, w2, b2 = weights
    z = nm.concat([nm.gather_rows(x, int_rows), nm.gather_rows(v, v_rows)], axis=1)
    hid = nm.gelu(nm.linear(z, w1, b1))
    if keep is not None:
        hid = nm.dropout(hid, rate, keep)
    return nm.linear(hid, w2, b2)


def test_linear_is_bitwise_the_matmul_add_pair():
    arrays = [rng(30).normal(size=(5, 4)).astype(np.float32), rng(31).normal(size=(4, 3)).astype(np.float32),
              rng(32).normal(size=3).astype(np.float32)]
    weight = rng(33).normal(size=(5, 3)).astype(np.float32)
    pair = _forward_and_grads(lambda x, w, b: nm.add(nm.matmul(x, w), b), arrays, weight)
    for got, want in zip(_forward_and_grads(nm.linear, arrays, weight), pair):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(nm.ShapeError, match="bias"):
        nm.linear(nm.constant(np.ones((2, 4))), nm.constant(np.ones((4, 3))), nm.constant(np.ones(4)))


def test_in_place_kernels_are_bitwise_the_allocating_formulas():
    x = (rng(34).normal(size=(6, 8)) * 3).astype(np.float32)
    gain, bias = rng(35).normal(size=8).astype(np.float32), rng(36).normal(size=8).astype(np.float32)
    g = rng(37).normal(size=(6, 8)).astype(np.float32)
    keep = keep_mask((6, 8), 0.3, 38)

    got = _forward_and_grads(nm.gelu, [x], g)
    for a, b in zip(got, _gelu_reference(x, g)):
        assert a.tobytes() == b.tobytes()
    got = _forward_and_grads(nm.layer_norm, [x, gain, bias], g)
    for a, b in zip(got, _layer_norm_reference(x, gain, bias, g)):
        assert a.tobytes() == b.tobytes()
    got = _forward_and_grads(lambda a: nm.dropout(a, 0.3, keep), [x], g)
    for a, b in zip(got, (_dropout_reference(x, keep, 0.3), _dropout_reference(g, keep, 0.3))):
        assert a.tobytes() == b.tobytes()

    pad = np.array([[False, False, True], [False, False, False]])
    attn = [rng(39 + i).normal(size=s).astype(np.float32) * 0.5
            for i, s in enumerate([(8, 8), (8,)] * 4 + [(8,), (8,)])]
    ffn = [rng(49 + i).normal(size=s).astype(np.float32) * 0.5
           for i, s in enumerate([(8, 12), (12,), (12, 8), (8,), (8,), (8,)])]
    for mask in (keep, None):
        got = _forward_and_grads(lambda *ts: nm.attention_block(ts[0], ts[1:], pad, 2, 0.3, mask), [x] + attn, g)
        want = _attention_block_reference(x, attn, pad, 2, mask, 0.3, g)
        assert len(got) == len(want) == 12
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), ("attention_block", mask is None, i)
        got = _forward_and_grads(lambda *ts: nm.ffn_block(ts[0], ts[1:], 0.3, mask), [x] + ffn, g)
        want = _ffn_block_reference(x, ffn, mask, 0.3, g)
        assert len(got) == len(want) == 8
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), ("ffn_block", mask is None, i)

    # the graph blocks against the single-op chains they replace: values,
    # attention, and the gradients of every input and weight
    gnn = [rng(55 + i).normal(size=s).astype(np.float32) * 0.5 for i, s in enumerate(GNN_SHAPES)]
    mint = [rng(69 + i).normal(size=s).astype(np.float32) * 0.5
            for i, s in enumerate([(6, 3), (5, 2)] + MINT_WEIGHTS)]
    g_nodes, g_mint = rng(73).normal(size=(6, 4)).astype(np.float32), rng(74).normal(size=(3, 5)).astype(np.float32)
    rows = dict(int_rows=np.array([0, 3, 3]), v_rows=np.array([0, 3, 0]))

    def mint_then_read(block, x, v, weights, mask):
        # x and v are read again after the block, as by the encoder's residual
        # adds, so the block adds into gradients they already hold; with rows
        # repeated, the order of those additions shows in the bits
        return nm.add(block(x, v, weights, rate=0.3, keep=mask, **rows),
                      nm.concat([nm.gather_rows(x, rows["int_rows"]), nm.gather_rows(v, rows["v_rows"])], axis=1))

    layout = {k: val for k, val in GNN.items() if k != "live"}
    for mask, live in ((keep_mask((6, 4), 0.3, 75), GNN["live"]), (None, GNN["live"]), (None, None)):
        runs = [_forward_and_grads(lambda *ts: block(ts[0], ts[1], ts[2:], rate=0.3, keep=mask, live=live,
                                                     **layout)[0], gnn, g_nodes)
                for block in (nm.gnn_block, _gnn_chain)]
        alphas = [block(*(nm.constant(a) for a in gnn[:2]), [nm.constant(a) for a in gnn[2:]], rate=0.3,
                        keep=mask, live=live, **layout)[1] for block in (nm.gnn_block, _gnn_chain)]
        assert len(runs[0]) == len(runs[1]) == 15
        for i, (a, b) in enumerate(zip(*runs, strict=True)):
            assert a.tobytes() == b.tobytes(), ("gnn_block", mask is None, live is None, i)
        assert alphas[0].tobytes() == alphas[1].tobytes()
    for mask in (keep_mask((3, 4), 0.3, 76), None):
        runs = [_forward_and_grads(lambda *ts: mint_then_read(block, ts[0], ts[1], ts[2:], mask), mint, g_mint)
                for block in (nm.mint_block, _mint_chain)]
        runs += [_forward_and_grads(lambda *ts: mint_then_read(block, ts[0], nm.constant(mint[1]), ts[1:], mask),
                                    mint[:1] + mint[2:], g_mint) for block in (nm.mint_block, _mint_chain)]
        assert [len(r) for r in runs] == [7, 7, 6, 6]
        for name, got, want in (("mint_block", *runs[:2]), ("mint_block_constant_nodes", *runs[2:])):
            for i, (a, b) in enumerate(zip(got, want)):
                assert a.tobytes() == b.tobytes(), (name, mask is None, i)


@pytest.mark.parametrize("dropout", [False, True])
def test_attention_on_query_rows_matches_those_rows_of_the_full_sublayer(dropout):
    # keys and values on every row, so the query rows' values and every
    # gradient agree with the full sublayer's up to float32 rounding
    x = rng(90).normal(size=(8, 8)).astype(np.float32)
    weights = [rng(91 + i).normal(size=s).astype(np.float32) * 0.5
               for i, s in enumerate([(8, 8), (8,)] * 4 + [(8,), (8,)])]
    keep = keep_mask((8, 8), 0.3, 99) if dropout else None
    g = rng(100).normal(size=(6, 8)).astype(np.float32)
    got = _forward_and_grads(lambda *ts: nm.attention_block(
        ts[0], ts[1:], QUERY_PAD, 2, 0.3, None if keep is None else keep[QUERY_ROWS], QUERY_ROWS),
        [x] + weights, g)
    want = _forward_and_grads(lambda *ts: nm.gather_rows(
        nm.attention_block(ts[0], ts[1:], QUERY_PAD, 2, 0.3, keep), QUERY_ROWS), [x] + weights, g)
    assert len(got) == len(want) == 12
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == np.float32 and a.shape == b.shape, i
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5, err_msg=str(i))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rows_at_is_bitwise_the_two_dimensional_at(dtype):
    # duplicate and unsorted ids make the order of the additions matter
    r = rng(80)
    rows = (r.normal(size=(40, 5)) * 10.0 ** r.integers(-3, 4, size=(40, 1))).astype(dtype)
    for ids in (r.integers(0, 6, size=40), np.sort(r.integers(0, 6, size=40)), np.zeros(0, dtype=np.int64)):
        m = len(ids)
        for ufunc, fill in ((np.add, 0.0), (np.maximum, -np.inf)):
            want = np.full((6, 5), fill, dtype=dtype)
            ufunc.at(want, ids, rows[:m])
            got = np.full((6, 5), fill, dtype=dtype)
            nm._rows_at(ufunc, got, ids, rows[:m])
            assert got.tobytes() == want.tobytes(), (ufunc.__name__, m)
            # a column slice is not C-contiguous: the result must still land in it
            wide = np.full((6, 8), fill, dtype=dtype)
            nm._rows_at(ufunc, wide[:, 2:7], ids, rows[:m])
            assert wide[:, 2:7].tobytes() == want.tobytes(), (ufunc.__name__, m, "strided")
            assert (wide[:, [0, 1, 7]] == fill).all()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_dropout_zeroes_expected_fraction():
    for p in (0.1, 0.15, 0.5):
        x = nm.constant(np.ones((200, 100)))
        out = nm.dropout(x, p, keep_mask((200, 100), p, 17))
        frac = float((out.values == 0).mean())
        assert abs(frac - p) < 0.02


def test_tape_determinism_bitwise():
    def run():
        x = nm.Tensor(np.random.default_rng(3).normal(size=(6, 6)).astype(np.float32),
                      requires_grad=True)
        with nm.ComputationTape() as tape:
            y = nm.reduce_sum(nm.gelu(nm.matmul(x, x)))
            tape.backward(y)
        return y.values.copy(), x.grad.copy()
    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflow_raises_numeric_error():
    big = nm.constant(np.full((2, 2), 1e38, dtype=np.float32))
    with pytest.raises(nm.NumericError):
        nm.mul(big, big)


def test_invariant_grad_shape_matches_values():
    x = nm.Tensor(rng(19).normal(size=(4, 3)), requires_grad=True)
    with nm.ComputationTape() as tape:
        tape.backward(nm.reduce_sum(nm.gelu(x)))
    assert x.grad.shape == x.values.shape


def test_split_rng_streams_are_independent_and_stable():
    a = nm.split_rng(7, "mask", 0, 1).random(4)
    b = nm.split_rng(7, "mask", 0, 1).random(4)
    c = nm.split_rng(7, "mask", 0, 2).random(4)
    d = nm.split_rng(7, "holdout", 0, 1).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
