"""Backward rules against central finite differences, plus tape semantics."""

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc.errors import ContractError

from util import assert_grads_close, check_op_gradients

rng = np.random.default_rng(42)


def _rand(*shape):
    return rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)


def test_matmul_backward():
    w = _rand(3, 2)
    check_op_gradients(lambda a, b: nm.reduce_sum(nm.mul(nm.matmul(a, b), w)),
                       [_rand(3, 4), _rand(4, 2)], what="matmul")


def test_softmax_backward():
    w = _rand(8)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.softmax(x), w)),
                       [_rand(8) * 3], what="softmax")


def test_masked_softmax_backward():
    mask = np.array([1, 0, 1, 1, 0, 1], np.float32)
    w = _rand(6)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.softmax(x, mask), w)),
                       [_rand(6) * 3], what="softmax with keep")


def test_layer_norm_backward():
    w = _rand(8)
    check_op_gradients(
        lambda x, g, b: nm.reduce_sum(nm.mul(nm.layer_norm(x, g, b), w)),
        [_rand(8) * 2, _rand(8), _rand(8)], what="layer_norm")


def test_layer_norm_backward_matrix_input():
    w = _rand(4, 6)
    check_op_gradients(
        lambda x, g, b: nm.reduce_sum(nm.mul(nm.layer_norm(x, g, b), w)),
        [_rand(4, 6) * 2, _rand(6), _rand(6)], what="layer_norm 2d")


def test_gelu_backward():
    w = _rand(10)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.gelu(x), w)),
                       [_rand(10) * 2], what="gelu")


def test_add_broadcast_backward():
    w = _rand(4, 6)
    check_op_gradients(lambda a, b: nm.reduce_sum(nm.mul(nm.add(a, b), w)),
                       [_rand(4, 6), _rand(6)], what="add broadcast")


def test_mul_broadcast_backward():
    w = _rand(4, 6)
    check_op_gradients(lambda a, b: nm.reduce_sum(nm.mul(nm.mul(a, b), w)),
                       [_rand(4, 6), _rand(6)], what="mul broadcast")


def test_scale_neg_backward():
    w = _rand(6)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.scale(x, -2.5), w)),
                       [_rand(6)], what="scale")


def test_reshape_backward():
    w = _rand(12)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.reshape(x, (12,)), w)),
                       [_rand(3, 4)], what="reshape")


def test_concat_backward():
    w = _rand(5, 3)
    check_op_gradients(lambda a, b: nm.reduce_sum(nm.mul(nm.concat([a, b], axis=0), w)),
                       [_rand(2, 3), _rand(3, 3)], what="concat")


def test_take_slice_backward():
    w = _rand(2, 2)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.take(x, np.s_[1:3, :2]), w)),
                       [_rand(4, 3)], what="take slice")
    w2 = _rand(2, 3)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.take(x, np.s_[:, 0]), w2)),
                       [_rand(2, 4, 3)], what="take slice and integer")


def test_reduce_sum_backward():
    check_op_gradients(lambda x: nm.reduce_sum(x), [_rand(4, 5)], what="reduce_sum all")
    w = _rand(4)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.reduce_sum(x, axis=(1, 2)), w)),
                       [_rand(4, 3, 2)], what="reduce_sum axes")


def test_log_clip_backward():
    w = _rand(5)
    positive = (_rand(5) * 0.4 + 1.0).astype(np.float32)
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.log(x), w)),
                       [positive], what="log")
    check_op_gradients(lambda x: nm.reduce_sum(nm.mul(nm.clip_min(x, 0.0), w)),
                       [(_rand(5) + 2.0).astype(np.float32)], what="clip_min")


def test_conv2d_backward():
    w = _rand(2, 4, 4)
    check_op_gradients(
        lambda x, k, b: nm.reduce_sum(nm.mul(nm.conv2d3x3(x, k, b), w)),
        [_rand(4, 4, 3), _rand(2, 3, 3, 3), _rand(2)], what="conv2d3x3")


def test_conv2d_batched_backward():
    w = _rand(2, 2, 3, 3)
    check_op_gradients(
        lambda x, k, b: nm.reduce_sum(nm.mul(nm.conv2d3x3(x, k, b), w)),
        [_rand(2, 3, 3, 2), _rand(2, 2, 3, 3), _rand(2)], what="batched conv2d3x3")


@pytest.mark.parametrize("masked", [False, True])
def test_attention_backward(masked):
    # a batch of two sequences of four tokens, two heads of width two
    mask = None
    if masked:
        mask = np.array([[[1, 0, 1, 0], [0, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1]],
                         [[1, 1, 0, 0], [1, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 1]]], np.float32)
    w_context = _rand(8, 4)

    def fold(q, k, v):  # the probabilities are plain: the context carries every gradient
        context, _ = nm.attention(q, k, v, 2, 4, mask)
        return nm.reduce_sum(nm.mul(context, w_context))

    check_op_gradients(fold, [_rand(8, 4) * 2, _rand(8, 4) * 2, _rand(8, 4)],
                       what=f"attention (masked={masked})")


def test_replayed_tape_holds_no_records():
    tape = nm.GradTape()
    leaf = tape.leaf(_rand(3))
    loss = nm.reduce_sum(nm.mul(nm.softmax(leaf), leaf))
    assert len(tape) == 3
    tape.backward(loss)
    assert len(tape) == 0
    assert leaf.grad is not None


def test_unused_leaf_has_no_gradient():
    tape = nm.GradTape()
    used = tape.leaf(_rand(3))
    unused = tape.leaf(_rand(4))
    tape.backward(nm.reduce_sum(nm.mul(used, used)))
    assert used.grad is not None
    assert unused.grad is None


def test_loss_scaling_scales_gradients():
    x = _rand(6)

    def run(factor):
        tape = nm.GradTape()
        leaf = tape.leaf(x)
        loss = nm.scale(nm.reduce_sum(nm.mul(nm.softmax(leaf), leaf)), factor)
        tape.backward(loss)
        return leaf.grad

    assert_grads_close(run(2.0), 2.0 * run(1.0), rel=1e-6, floor=1e-9,
                       what="loss scaling linearity")


def test_tape_reuse_is_rejected():
    tape = nm.GradTape()
    leaf = tape.leaf(_rand(3))
    loss = nm.reduce_sum(leaf)
    tape.backward(loss)
    with pytest.raises(ContractError):
        tape.backward(loss)


def test_mixing_tapes_is_rejected():
    t1, t2 = nm.GradTape(), nm.GradTape()
    with pytest.raises(ContractError):
        nm.add(t1.leaf(_rand(3)), t2.leaf(_rand(3)))


def test_non_scalar_loss_rejected():
    tape = nm.GradTape()
    leaf = tape.leaf(_rand(3))
    out = nm.mul(leaf, leaf)
    with pytest.raises(ContractError):
        tape.backward(out)


def test_fanout_accumulates():
    x = np.array([0.5, -1.0], np.float32)
    tape = nm.GradTape()
    leaf = tape.leaf(x)
    # y = sum(x) + sum(x * x): dy/dx = 1 + 2x
    loss = nm.add(nm.reduce_sum(leaf), nm.reduce_sum(nm.mul(leaf, leaf)))
    tape.backward(loss)
    assert np.allclose(leaf.grad, 1.0 + 2.0 * x.astype(np.float64), atol=1e-6)


def test_take_picks_rows_and_sums_gradients_of_repeated_rows():
    local = np.random.default_rng(43)
    x = local.uniform(-1.0, 1.0, size=(3, 4)).astype(np.float32)
    index = np.array([[2, 0], [2, 2], [1, 0]])
    assert np.array_equal(nm.take(x, index), x[index])
    w = local.uniform(-1.0, 1.0, size=(3, 2, 4)).astype(np.float32)
    check_op_gradients(lambda a: nm.reduce_sum(nm.mul(nm.take(a, index), w)), [x],
                       what="take rows")
    # the scatter form: a vector read back by a (B, N) index with one row repeated
    scatter = np.array([[0, 3, 1], [3, 2, 3]])
    w2 = local.uniform(-1.0, 1.0, size=(2, 3)).astype(np.float32)
    check_op_gradients(lambda a: nm.reduce_sum(nm.mul(nm.take(a, scatter), w2)),
                       [local.uniform(-1.0, 1.0, size=4).astype(np.float32)], what="take scatter")


def test_take_with_a_tuple_index_gathers_along_the_leading_axes():
    local = np.random.default_rng(44)
    x = local.uniform(-1.0, 1.0, size=(2, 4, 3)).astype(np.float32)
    index = (np.arange(2)[:, None], np.array([[3, 1, 3], [0, 2, 1]]))
    assert np.array_equal(nm.take(x, index), x[index])
    w = local.uniform(-1.0, 1.0, size=(2, 3, 3)).astype(np.float32)
    check_op_gradients(lambda a: nm.reduce_sum(nm.mul(nm.take(a, index), w)), [x],
                       what="take tuple")


def _recording_cases():
    """op -> (call, float32 inputs, records per call); every input is an
    argument the op differentiates, except for the one untaped op,
    bilinear_resize, which records nothing."""
    local = np.random.default_rng(45)

    def arrays(*shapes):
        return [local.uniform(-1.0, 1.0, size=shape).astype(np.float32) for shape in shapes]

    positive = [np.float32(0.5) + np.abs(a) for a in arrays((3, 4))]
    return {
        "matmul": (nm.matmul, arrays((3, 4), (4, 2)), 1),
        "softmax": (nm.softmax, arrays((2, 5)), 1),
        "attention": (lambda q, k, v: nm.attention(q, k, v, 2, 3), arrays(*[(3, 4)] * 3), 1),
        "layer_norm": (nm.layer_norm, arrays((3, 4), (4,), (4,)), 1),
        "gelu": (nm.gelu, arrays((3, 4)), 1),
        "bilinear_resize": (lambda m: nm.bilinear_resize(m, 5, 6), arrays((3, 4)), 0),
        "add": (nm.add, arrays((3, 4), (4,)), 1),
        "mul": (nm.mul, arrays((3, 4), (3, 1)), 1),
        "scale": (lambda x: nm.scale(x, -1.5), arrays((3, 4)), 1),
        "reshape": (lambda x: nm.reshape(x, (2, 6)), arrays((3, 4)), 1),
        "concat": (lambda a, b: nm.concat([a, b], axis=1), arrays((3, 4), (3, 2)), 1),
        "take": (lambda x: nm.take(x, np.array([2, 0, 2])), arrays((3, 4)), 1),
        "reduce_sum": (lambda x: nm.reduce_sum(x, axis=0), arrays((3, 4)), 1),
        "log": (nm.log, positive, 1),
        "clip_min": (lambda x: nm.clip_min(x, 0.0), arrays((3, 4)), 1),
        "conv2d3x3": (nm.conv2d3x3, arrays((4, 4, 2), (3, 2, 3, 3), (3,)), 1),
    }


RECORDING_CASES = _recording_cases()
MULTI_INPUT_OPS = [op for op, (_, inputs, _) in RECORDING_CASES.items() if len(inputs) > 1]


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


def test_the_recording_table_covers_every_public_op():
    public = {name for name, value in vars(nm).items()
              if callable(value) and getattr(value, "__module__", None) == nm.__name__
              and not name.startswith("_") and not isinstance(value, type)}
    assert public - {"as_f32", "value_of"} == set(RECORDING_CASES)
    assert [op for op, (_, _, records) in RECORDING_CASES.items() if not records] == [
        "bilinear_resize"]
    assert {records for _, _, records in RECORDING_CASES.values()} == {0, 1}
    assert MULTI_INPUT_OPS == ["matmul", "attention", "layer_norm", "add", "mul", "concat",
                               "conv2d3x3"]


@pytest.mark.parametrize("op", RECORDING_CASES)
def test_untaped_op_returns_float32_arrays(op):
    call, inputs, _ = RECORDING_CASES[op]
    for out in _outputs(call(*inputs)):
        assert type(out) is np.ndarray and out.dtype == np.float32


@pytest.mark.parametrize("op", RECORDING_CASES)
def test_op_with_one_leaf_input_records_on_that_tape_with_the_untaped_bits(op):
    call, inputs, records = RECORDING_CASES[op]
    plain = _outputs(call(*inputs))
    for i in range(len(inputs)):
        tape = nm.GradTape()
        args = [tape.leaf(x) if j == i else x for j, x in enumerate(inputs)]
        taped = _outputs(call(*args))
        assert len(tape) == records, (op, i)
        for j, (out, want) in enumerate(zip(taped, plain, strict=True)):
            if records and j == 0:
                assert isinstance(out, nm.Node) and out.tape is tape, (op, i)
            else:  # an untaped op, and attention's probabilities, stay plain for a leaf too
                assert type(out) is np.ndarray, (op, i, j)
            assert nm.value_of(out).shape == want.shape, (op, i)
            assert nm.value_of(out).tobytes() == want.tobytes(), (op, i)


@pytest.mark.parametrize("op", MULTI_INPUT_OPS)
def test_leaves_of_two_tapes_are_rejected_without_recording(op):
    call, inputs, _ = RECORDING_CASES[op]
    first, second = nm.GradTape(), nm.GradTape()
    with pytest.raises(ContractError, match="different tapes"):
        call(first.leaf(inputs[0]), second.leaf(inputs[1]), *inputs[2:])
    assert len(first) == len(second) == 0
