"""Tensor-engine oracles: forward formulas, finite-difference gradients,
tape determinism, and numeric-guard behavior."""

import ast
import inspect

import numpy as np
import pytest

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


def test_softmax_symmetry_and_stability():
    np.testing.assert_allclose(nm.softmax(nm.constant([0.0, 0.0])).values, [0.5, 0.5], atol=1e-7)
    np.testing.assert_allclose(nm.softmax(nm.constant([1000.0, 1000.0])).values, [0.5, 0.5], atol=1e-7)


def test_softmax_against_direct_formula():
    with nm.float64_mode():
        x = rng(4).normal(size=7)
        out = nm.softmax(nm.Tensor(x))
        expected = np.exp(x) / np.exp(x).sum()
        assert np.abs(out.values - expected).max() < 1e-7


def test_softmax_rows_sum_to_one():
    x = rng(5).normal(size=(6, 9)) * 10
    sums = nm.softmax(nm.constant(x), axis=-1).values.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


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


def test_masked_fill():
    x = nm.constant([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [False, True]])
    out = nm.masked_fill(x, mask, -9.0)
    np.testing.assert_allclose(out.values, [[-9.0, 2.0], [3.0, -9.0]])


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


def test_backward_without_tape_raises():
    with pytest.raises(nm.ContractError):
        nm.backward(nm.constant([1.0]))


OPS = [
    ("add", lambda ts: nm.reduce_sum(nm.add(ts[0], ts[1])), [(3, 4), (3, 4)]),
    ("add_row_broadcast", lambda ts: nm.reduce_sum(nm.add(ts[0], ts[1])), [(3, 4), (4,)]),
    ("sub", lambda ts: nm.reduce_sum(nm.sub(ts[0], ts[1])), [(3, 4), (3, 4)]),
    ("mul", lambda ts: nm.reduce_sum(nm.mul(ts[0], ts[1])), [(3, 4), (3, 4)]),
    ("neg", lambda ts: nm.reduce_sum(nm.neg(ts[0])), [(3, 4)]),
    ("scale", lambda ts: nm.reduce_sum(nm.scale(ts[0], 1.7)), [(5,)]),
    ("add_scalar", lambda ts: nm.reduce_sum(nm.add_scalar(ts[0], 0.3)), [(5,)]),
    ("matmul", lambda ts: nm.reduce_sum(nm.matmul(ts[0], ts[1])), [(3, 4), (4, 2)]),
    ("transpose", lambda ts: nm.reduce_sum(nm.mul(nm.transpose(ts[0]), nm.transpose(ts[0]))), [(3, 4)]),
    ("reshape", lambda ts: nm.reduce_sum(nm.mul(nm.reshape(ts[0], (2, 6)), nm.reshape(ts[0], (2, 6)))), [(3, 4)]),
    ("concat", lambda ts: nm.reduce_sum(nm.mul(nm.concat(ts, axis=0), nm.concat(ts, axis=0))), [(2, 3), (4, 3)]),
    ("split", lambda ts: nm.reduce_sum(nm.mul(*nm.split(ts[0], [2, 2], axis=1))), [(3, 4)]),
    ("gather_rows", lambda ts: nm.reduce_sum(nm.mul(nm.gather_rows(ts[0], [0, 2, 2, 1]),
                                                    nm.gather_rows(ts[0], [1, 1, 0, 2]))), [(3, 4)]),
    ("reduce_sum_axis", lambda ts: nm.reduce_sum(nm.mul(nm.reduce_sum(ts[0], axis=1),
                                                        nm.reduce_sum(ts[0], axis=1))), [(3, 4)]),
    ("reduce_mean", lambda ts: nm.reduce_mean(nm.mul(ts[0], ts[0])), [(3, 4)]),
    ("reduce_mean_axis", lambda ts: nm.reduce_sum(nm.mul(nm.reduce_mean(ts[0], axis=0),
                                                         nm.reduce_mean(ts[0], axis=0))), [(3, 4)]),
    ("softmax", lambda ts: nm.reduce_sum(nm.mul(nm.softmax(ts[0], axis=-1), ts[0])), [(3, 5)]),
    ("layer_norm", lambda ts: nm.reduce_sum(nm.mul(nm.layer_norm(ts[0], ts[1], ts[2]), ts[0])), [(3, 4), (4,), (4,)]),
    ("gelu", lambda ts: nm.reduce_sum(nm.gelu(ts[0])), [(3, 4)]),
    ("log_sigmoid", lambda ts: nm.reduce_sum(nm.log_sigmoid(ts[0])), [(3, 4)]),
    ("sqrt", lambda ts: nm.reduce_sum(nm.sqrt(nm.add_scalar(nm.mul(ts[0], ts[0]), 0.5))), [(3, 4)]),
    ("cos", lambda ts: nm.reduce_sum(nm.cos(ts[0])), [(3, 4)]),
    ("sin", lambda ts: nm.reduce_sum(nm.sin(ts[0])), [(3, 4)]),
    ("dropout", lambda ts: nm.reduce_sum(nm.mul(nm.dropout(ts[0], 0.3, rng(5)), ts[0])), [(3, 4)]),
    ("masked_fill", lambda ts: nm.reduce_sum(nm.mul(
        nm.masked_fill(ts[0], np.arange(12).reshape(3, 4) % 3 == 0, 0.5), ts[0])), [(3, 4)]),
    ("cross_entropy", lambda ts: nm.reduce_mean(nm.cross_entropy_with_logits(ts[0], [1, 0, 3])), [(3, 5)]),
    ("stack_scalars", lambda ts: nm.reduce_mean(nm.stack_scalars(
        [nm.reduce_sum(ts[0]), nm.reduce_sum(nm.mul(ts[0], ts[0])), nm.reduce_mean(ts[0])])), [(3, 4)]),
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

    def recording_make(values, inputs, backward_fn, op):
        exercised.add(op)
        return make(values, inputs, backward_fn, op)

    monkeypatch.setattr(nm, "_make", recording_make)
    with nm.float64_mode():
        for _, fn, shapes in OPS:
            fn([nm.Tensor(rng(i).normal(size=s), requires_grad=True) for i, s in enumerate(shapes)])
    ops = _taped_op_names()
    assert {"add", "sub", "mul", "matmul", "dropout"} <= ops
    assert ops <= exercised, "ops without a gradient case: %s" % sorted(ops - exercised)


def test_dropout_gradient_matches_mask():
    x = nm.Tensor(rng(13).normal(size=(10, 10)), requires_grad=True)
    with nm.ComputationTape() as tape:
        y = nm.dropout(x, 0.4, np.random.default_rng(5))
        tape.backward(nm.reduce_sum(y))
    kept = y.values != 0
    np.testing.assert_allclose(x.grad[kept], 1.0 / 0.6, rtol=1e-5)
    np.testing.assert_allclose(x.grad[~kept], 0.0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_dropout_zeroes_expected_fraction():
    for p in (0.1, 0.15, 0.5):
        x = nm.constant(np.ones((200, 100)))
        out = nm.dropout(x, p, np.random.default_rng(17))
        frac = float((out.values == 0).mean())
        assert abs(frac - p) < 0.02


def test_tape_determinism_bitwise():
    def run():
        x = nm.Tensor(np.random.default_rng(3).normal(size=(6, 6)).astype(np.float32),
                      requires_grad=True)
        with nm.ComputationTape() as tape:
            y = nm.reduce_sum(nm.gelu(nm.matmul(x, nm.transpose(x))))
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
