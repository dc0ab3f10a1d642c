"""Contract tests for the numeric kernel."""

import math

import numpy as np
import pytest

from scipy.special import erf

from tokenloc import numerics as nm
from tokenloc.errors import DegenerateInputError, DimensionError

from util import assert_grads_close, finite_diff_grad


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)).astype(np.float32)
    assert np.array_equal(nm.matmul(a, np.eye(4, dtype=np.float32)), a)


def test_matmul_zero():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 5)).astype(np.float32)
    out = nm.matmul(a, np.zeros((5, 2), dtype=np.float32))
    assert np.array_equal(out, np.zeros((3, 2), dtype=np.float32))


def test_matmul_against_triple_loop_oracle():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4)).astype(np.float32)
    b = rng.standard_normal((4, 2)).astype(np.float32)
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for t in range(4):
                expected[i, j] += float(a[i, t]) * float(b[t, j])
    assert np.allclose(nm.matmul(a, b), expected, atol=1e-6)


def test_matmul_dimension_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
        nm.matmul(np.zeros((3, 4), np.float32), np.zeros((3, 2), np.float32))


def test_matmul_associativity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (rng.standard_normal((4, 4)).astype(np.float32) for _ in range(3))
        left = nm.matmul(nm.matmul(a, b), c)
        right = nm.matmul(a, nm.matmul(b, c))
        assert np.allclose(left, right, atol=1e-4)


def test_softmax_symmetry():
    out = nm.softmax(np.array([2.5, 2.5, 2.5], np.float32))
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)


def test_softmax_forced_values():
    out = nm.softmax(np.array([0.0, math.log(2.0)], np.float32))
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(9).astype(np.float32)
    assert np.allclose(nm.softmax(v), nm.softmax(v + np.float32(100.0)), atol=1e-6)


def test_softmax_sums_to_one_across_lengths():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 32, 100, 511, 512):
        v = rng.uniform(-50, 50, size=n).astype(np.float32)
        out = nm.softmax(v)
        assert np.all(out > 0)
        assert abs(float(out.sum()) - 1.0) < 1e-6


def test_softmax_empty_rejected():
    with pytest.raises(DimensionError):
        nm.softmax(np.zeros((0,), np.float32))


def test_masked_softmax_all_ones_equals_softmax():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(8).astype(np.float32)
    assert np.allclose(nm.softmax(v, np.ones(8, np.float32)), nm.softmax(v), atol=1e-7)


def test_masked_softmax_single_entry():
    v = np.array([5.0, -3.0, 0.25], np.float32)
    out = nm.softmax(v, np.array([0, 0, 1], np.float32))
    assert np.array_equal(out, np.array([0, 0, 1], np.float32))


def test_masked_softmax_symmetric_pair():
    out = nm.softmax(np.array([1.5, 1.5, 1.5], np.float32),
                            np.array([1, 1, 0], np.float32))
    assert np.allclose(out, [0.5, 0.5, 0.0], atol=1e-6)
    assert out[2] == 0.0


def test_masked_softmax_all_zero_mask_rejected():
    with pytest.raises(DegenerateInputError):
        nm.softmax(np.ones(4, np.float32), np.zeros(4, np.float32))


def test_masked_softmax_equals_restricted_renormalized_softmax():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        scores = rng.uniform(-30, 30, size=n).astype(np.float32)
        mask = (rng.random(n) < 0.6).astype(np.float32)
        if mask.sum() == 0:
            mask[int(rng.integers(n))] = 1.0
        out = nm.softmax(scores, mask)
        plain = nm.softmax(scores).astype(np.float64) * mask
        assert np.allclose(out, plain / plain.sum(), atol=1e-6)
        assert np.all(out[mask == 0] == 0.0)


def test_layer_norm_constant_input_is_zero():
    x = np.full(6, 3.25, np.float32)
    out = nm.layer_norm(x, np.ones(6, np.float32), np.zeros(6, np.float32))
    assert np.allclose(out, 0.0, atol=1e-6)


def test_layer_norm_normalization_contract():
    rng = np.random.default_rng(8)
    x = (rng.standard_normal(16) * 5).astype(np.float32)
    out = nm.layer_norm(x, np.ones(16, np.float32), np.zeros(16, np.float32))
    assert abs(float(out.mean())) < 1e-6
    assert abs(float(out.astype(np.float64).var()) - 1.0) < 1e-3


def test_layer_norm_matches_two_pass_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(8).astype(np.float32)
    gamma = rng.standard_normal(8).astype(np.float32)
    beta = rng.standard_normal(8).astype(np.float32)
    mean = sum(float(v) for v in x) / 8
    var = sum((float(v) - mean) ** 2 for v in x) / 8
    expected = [(float(v) - mean) / math.sqrt(var + 1e-6) * float(g) + float(b)
                for v, g, b in zip(x, gamma, beta)]
    assert np.allclose(nm.layer_norm(x, gamma, beta), expected, atol=1e-6)


def test_gelu_zero():
    assert nm.gelu(np.float32(0.0)) == 0.0


def test_gelu_asymptote():
    assert abs(float(nm.gelu(np.float32(10.0))) - 10.0) < 1e-6


def test_gelu_matches_erf_oracle():
    expected = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(float(nm.gelu(np.float32(1.0))) - expected) < 1e-6


def softmax64_oracle(x, keep=None):
    """The float64 softmax written with a fresh array per step: the
    reference for the in-place `_softmax64`."""
    z = np.asarray(x, dtype=np.float64)
    if keep is None:
        e = np.exp(z - z.max(axis=-1, keepdims=True))
    else:
        top = np.where(keep, z, -np.inf).max(axis=-1, keepdims=True)
        e = np.exp(np.where(keep, z - top, -np.inf))
    return e / e.sum(axis=-1, keepdims=True)


def gelu_oracle(x):
    """The GELU expression written with a fresh array per step."""
    z = np.asarray(x, dtype=np.float64)
    cdf = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
    return (z * cdf).astype(np.float32)


def _softmax_cases():
    rng = np.random.default_rng(40)
    x = (rng.standard_normal((3, 4, 9, 9)) * 6).astype(np.float32)
    keep = rng.random((3, 4, 9, 9)) < 0.4
    keep[..., 0] = True
    shared = rng.random((3, 1, 9, 9)) < 0.4
    shared[..., 4] = True
    single = np.zeros((3, 4, 9, 9), bool)
    single[..., :, rng.integers(9)] = True
    spiky = x.copy()  # NaN and infinities in kept and in masked entries
    spiky.flat[rng.choice(x.size, 40, replace=False)] = np.repeat(
        [np.nan, np.inf, -np.inf, -900.0], 10)
    return {"unmasked": (x, None), "masked": (x, keep),
            "mask broadcast over heads": (x, shared), "one kept entry per row": (x, single),
            "float64 input": (x.astype(np.float64) * np.pi, keep),
            "non-finite unmasked": (spiky, None), "non-finite masked": (spiky, shared)}


@pytest.mark.parametrize("case", list(_softmax_cases()))
def test_softmax64_is_bit_identical_to_its_oracle(case):
    x, keep = _softmax_cases()[case]
    with np.errstate(invalid="ignore"):
        got = nm._softmax64(np.array(x, dtype=np.float64), keep)
        want64 = softmax64_oracle(x, keep)
        x32 = x.astype(np.float32)  # the public ops take float32 values
        want = softmax64_oracle(x32, keep).astype(np.float32)
        if keep is None:
            public = nm.softmax(x32)
        else:
            public = nm.softmax(x32, np.broadcast_to(keep, x.shape).astype(np.float32))
    assert got.dtype == np.float64 and np.array_equal(got, want64, equal_nan=True)
    assert np.array_equal(public, want, equal_nan=True)
    if keep is not None and np.isfinite(x).all():
        assert np.all(got[~np.broadcast_to(keep, got.shape)] == 0.0)


@pytest.mark.parametrize("x", [
    np.float32(-0.75), np.array(1.5, np.float32), np.linspace(-9, 9, 37, dtype=np.float32),
    (np.random.default_rng(41).standard_normal((5, 7)) * 4).astype(np.float32)])
def test_gelu_is_bit_identical_to_its_oracle(x):
    got, want = nm.gelu(x), gelu_oracle(x)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def add_oracle(a, b):
    """`add` as it computed before it rounded once: the exact sum rounded
    to float64, then to float32."""
    return (np.asarray(a, np.float64) + np.asarray(b, np.float64)).astype(np.float32)


def mul_oracle(a, b):
    return (np.asarray(a, np.float64) * np.asarray(b, np.float64)).astype(np.float32)


def layer_norm_oracle(x, gamma, beta, eps=1e-6):
    """`layer_norm` written with `mean` and a fresh array per step."""
    z = np.asarray(x, np.float64)
    mu = z.mean(axis=-1, keepdims=True)
    centred = z - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    xhat = centred * (1.0 / np.sqrt(var + eps))
    return (xhat * np.asarray(gamma, np.float64) + np.asarray(beta, np.float64)).astype(
        np.float32)


_F32 = np.finfo(np.float32)
# zeros of both signs, subnormals, the normal extremes, values whose sums
# and products overflow float32, infinities and NaN
_SPECIAL = np.array([0.0, -0.0, 1e-45, -1e-45, 3e-39, -2.5e-40, _F32.tiny, -_F32.tiny,
                     _F32.max, -_F32.max, 0.75 * _F32.max, -0.6 * _F32.max, 2.0 ** 64, 2.0 ** -75,
                     np.inf, -np.inf, np.nan, 1.0, -1.0, 3.0], np.float32)


def _elementwise_operands(rng, shape):
    """float32 values over the whole exponent range, about a quarter of
    them drawn from _SPECIAL."""
    signed = rng.uniform(1.0, 2.0, shape).astype(np.float32) * rng.choice([-1, 1], shape)
    x = np.ldexp(signed.astype(np.float32), rng.integers(-150, 128, shape))
    special = rng.random(shape) < 0.25
    x[special] = rng.choice(_SPECIAL, int(special.sum()))
    return x


def _elementwise_cases():
    rng = np.random.default_rng(43)
    full = _elementwise_operands(rng, (2000,))
    cases = {"seeded": (full, _elementwise_operands(rng, (2000,))),
             "every special pair": (np.repeat(_SPECIAL, len(_SPECIAL)),
                                    np.tile(_SPECIAL, len(_SPECIAL))),
             "broadcast row": (_elementwise_operands(rng, (40, 30)),
                               _elementwise_operands(rng, (30,))),
             "broadcast column and row": (_elementwise_operands(rng, (25, 1)),
                                          _elementwise_operands(rng, (1, 35))),
             "0-d and array": (np.float32(_F32.max), full),
             "0-d": (np.array(3.0, np.float32), np.array(-1e-45, np.float32))}
    ramp = rng.uniform(1.0, 2.0, 500).astype(np.float32)
    # the hardest cases for double rounding: results next to a float32 midpoint
    cases["near midpoints"] = (ramp, (ramp * np.float32(1 + 2.0 ** -23)).astype(np.float32))
    return cases


@pytest.mark.parametrize("op, oracle", [(nm.add, add_oracle), (nm.mul, mul_oracle)],
                         ids=["add", "mul"])
@pytest.mark.parametrize("case", list(_elementwise_cases()))
def test_float32_elementwise_ops_are_bit_identical_to_the_float64_round_trip(op, oracle, case):
    a, b = _elementwise_cases()[case]
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (b, a)):
            got, want = op(x, y), oracle(x, y)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(np.asarray(got).view(np.uint32),
                                  np.asarray(want).view(np.uint32)), (case, x, y)
    if case == "every special pair":  # the pool reaches overflow, inf - inf and 0 * inf
        with np.errstate(all="ignore"):
            assert np.isinf(op(a, b)).any() and np.isnan(op(a, b)).any()


def _layer_norm_cases():
    rng = np.random.default_rng(44)
    rows = (rng.standard_normal((6, 9, 32)) * 2.0 ** rng.integers(-20, 20, (6, 9, 1)))
    rows = rows.astype(np.float32)
    rows[0, 0] = 5.5                       # a constant row
    rows[0, 1, :4] = (0.0, -0.0, 1e-45, -3e-39)
    rows[0, 2, 7] = _F32.max               # its square overflows float32, not float64
    rows[0, 3, 1] = np.inf
    rows[0, 4, 2] = np.nan
    gamma, beta = (rng.standard_normal(32).astype(np.float32) for _ in range(2))
    beta[3] = -0.0
    return {"stack": (rows, gamma, beta), "matrix": (rows[1], gamma, beta),
            "vector": (rows[2, 0], gamma, beta), "special rows": (rows[0], gamma, beta),
            "width 1": (rows[1, :, :1], gamma[:1], beta[:1])}


@pytest.mark.parametrize("case", list(_layer_norm_cases()))
def test_layer_norm_is_bit_identical_to_its_oracle(case):
    x, gamma, beta = _layer_norm_cases()[case]
    with np.errstate(all="ignore"):
        got, want = nm.layer_norm(x, gamma, beta), layer_norm_oracle(x, gamma, beta)
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def _bilinear_oracle(src, out_h, out_w):
    h, w = src.shape
    out = np.zeros((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            si = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sj = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            i0, j0 = int(math.floor(si)), int(math.floor(sj))
            i1, j1 = min(i0 + 1, h - 1), min(j0 + 1, w - 1)
            fi, fj = si - i0, sj - j0
            out[i, j] = (src[i0, j0] * (1 - fi) * (1 - fj) + src[i0, j1] * (1 - fi) * fj
                         + src[i1, j0] * fi * (1 - fj) + src[i1, j1] * fi * fj)
    return out


def test_bilinear_constant_preserved():
    out = nm.bilinear_resize(np.full((3, 5), 1.75, np.float32), 7, 2)
    assert np.allclose(out, 1.75, atol=1e-6)


def test_bilinear_degenerate_source():
    out = nm.bilinear_resize(np.array([[4.5]], np.float32), 5, 3)
    assert out.shape == (5, 3)
    assert np.allclose(out, 4.5, atol=1e-7)


def test_bilinear_2x2_to_4x4_closed_form():
    src = np.array([[0, 1], [2, 3]], np.float32)
    assert np.allclose(nm.bilinear_resize(src, 4, 4), _bilinear_oracle(src, 4, 4), atol=1e-6)


def test_bilinear_stack_rows_equal_matrix_calls():
    src = np.random.default_rng(15).random((2, 3, 8, 5)).astype(np.float32)
    out = nm.bilinear_resize(src, 32, 11)
    assert out.shape == (2, 3, 32, 11) and out.dtype == np.float32
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out[i, j], nm.bilinear_resize(src[i, j], 32, 11))
    with pytest.raises(DimensionError):
        nm.bilinear_resize(np.zeros(4, np.float32), 2, 2)


def test_bilinear_reproduces_ramp():
    a, b, c = 0.7, 0.3, -0.2
    h, w = 5, 6
    src = np.array([[a + b * i + c * j for j in range(w)] for i in range(h)], np.float32)
    out_h, out_w = 13, 9
    out = nm.bilinear_resize(src, out_h, out_w)
    for i in range(out_h):
        for j in range(out_w):
            si = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sj = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            assert abs(float(out[i, j]) - (a + b * si + c * sj)) < 1e-5



def bilinear_resize_oracle(m, out_h, out_w):
    """`bilinear_resize` as it gathered its corners before, by broadcast
    (row, column) indexing of the 2-D planes: the same source coordinates,
    weights, four products and summation order."""
    z = np.asarray(m, np.float64)
    h, w = z.shape[-2:]
    si = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    sj = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    i0 = np.floor(si).astype(np.int64)[:, None]
    j0 = np.floor(sj).astype(np.int64)[None, :]
    i1, j1 = np.minimum(i0 + 1, h - 1), np.minimum(j0 + 1, w - 1)
    fi, fj = si[:, None] - i0, sj[None, :] - j0
    terms = [weight * z[..., ii, jj] for ii, jj, weight in (
        (i0, j0, (1.0 - fi) * (1.0 - fj)), (i0, j1, (1.0 - fi) * fj),
        (i1, j0, fi * (1.0 - fj)), (i1, j1, fi * fj))]
    return (terms[0] + terms[1] + terms[2] + terms[3]).astype(np.float32)


@pytest.mark.parametrize("lead, src, out", [
    ((), (8, 8), (32, 32)), ((8,), (8, 8), (32, 32)), ((2, 3), (4, 4), (16, 16)),   # up
    ((), (32, 32), (8, 8)), ((5,), (13, 9), (4, 3)),                                  # down
    ((), (5, 11), (17, 4)), ((3,), (1, 7), (6, 1)), ((2, 2), (1, 1), (3, 5)),         # mixed
    ((4,), (8, 8), (8, 8))])
def test_bilinear_resize_is_bit_identical_to_the_2d_gather_oracle(lead, src, out):
    rng = np.random.default_rng(sum(src) * 31 + sum(out))
    m = (rng.standard_normal((*lead, *src)) * 10.0 ** rng.integers(-20, 20, (*lead, 1, 1)))
    m = m.astype(np.float32)
    got, want = nm.bilinear_resize(m, *out), bilinear_resize_oracle(m, *out)
    assert got.dtype == np.float32 and got.shape == want.shape == (*lead, *out)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

def test_finite_diff_quadratic():
    h = 1e-3
    grad = finite_diff_grad(lambda x: float((x.astype(np.float64) ** 2).sum()),
                            np.array([1.0, -2.0], np.float32), h)
    assert np.allclose(grad, [2.0, -4.0], atol=h * h + 1e-5)


def test_finite_diff_linear_exact():
    slope = np.array([3.0, -1.5, 0.25], np.float32)
    for h in (1e-1, 1e-2, 1e-3):
        grad = finite_diff_grad(
            lambda x: float((x.astype(np.float64) * slope.astype(np.float64)).sum()),
            np.array([0.4, 0.2, -0.7], np.float32), h)
        assert np.allclose(grad, slope, atol=1e-6)


def test_finite_diff_matches_backward_on_softmax_pick_first():
    rng = np.random.default_rng(10)
    x = rng.uniform(-1, 1, size=4).astype(np.float32)

    tape = nm.GradTape()
    leaf = tape.leaf(x)
    loss = nm.reshape(nm.take(nm.softmax(leaf), np.s_[:1]), ())
    tape.backward(loss)

    def oracle(v):
        z = v.astype(np.float64)
        e = np.exp(z - z.max())
        return float((e / e.sum())[0])

    fd = finite_diff_grad(oracle, x, 1e-3)
    assert_grads_close(leaf.grad, fd, rel=1e-4, floor=1e-6, what="softmax-pick-first")


def test_operations_do_not_mutate_inputs():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)).astype(np.float32)
    b = rng.standard_normal((4, 4)).astype(np.float32)
    a_copy, b_copy = a.copy(), b.copy()
    nm.matmul(a, b)
    nm.softmax(a)
    nm.softmax(a, np.eye(4, dtype=np.float32))
    nm.attention(a, a, b, 2, 4)
    nm.layer_norm(a, np.ones(4, np.float32), np.zeros(4, np.float32))
    nm.gelu(a)
    nm.bilinear_resize(a, 7, 3)
    assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)


def per_head_attention(q, k, v, num_heads, mask=None):
    """Oracle for `attention` on the (T, D) rows of one sequence: the
    per-head composition of contract ops it replaced (slice each head,
    Q K^T, scale, (masked) softmax, P V, concatenate the heads)."""
    n, d = nm.value_of(q).shape
    hd = d // num_heads
    contexts, probs = [], []
    for head in range(num_heads):
        qh, kh, vh = (nm.take(x, np.s_[:, head * hd:(head + 1) * hd]) for x in (q, k, v))
        kh_t = nm.take(kh, (np.arange(n)[None, :], np.arange(hd)[:, None]))
        scores = nm.scale(nm.matmul(qh, kh_t), 1.0 / math.sqrt(hd))
        a = nm.softmax(scores, mask)
        probs.append(a)
        contexts.append(nm.matmul(a, vh))
    return nm.concat(contexts, axis=1), probs


def _attention_inputs(rng, b, t, d):
    """(B*T, D) rows of q, k and v, and a (B, T, T) mask keeping the diagonal."""
    q, k, v = (rng.standard_normal((b * t, d)).astype(np.float32) * 2 for _ in range(3))
    keep = (rng.random((b, t, t)) < 0.5).astype(np.float32)
    keep[:, np.arange(t), np.arange(t)] = 1.0
    return q, k, v, keep


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("masked", [False, True])
def test_attention_is_bit_identical_to_the_per_head_oracle(heads, masked):
    rng = np.random.default_rng(30 + heads)
    q, k, v, keep = _attention_inputs(rng, 3, 7, 8)
    context, probs = nm.attention(q, k, v, heads, 7, keep if masked else None)
    assert context.shape == (3 * 7, 8) and probs.shape == (3, heads, 7, 7)
    for i in range(3):
        rows = np.s_[i * 7:(i + 1) * 7]
        want_context, want_probs = per_head_attention(q[rows], k[rows], v[rows], heads,
                                                      keep[i] if masked else None)
        assert np.array_equal(context[i * 7:(i + 1) * 7], want_context)
        for h in range(heads):
            assert np.array_equal(probs[i, h], want_probs[h])
    if masked:
        assert np.all(probs[np.broadcast_to(keep[:, None] == 0, probs.shape)] == 0.0)


def test_attention_gradients_equal_the_per_head_oracle():
    rng = np.random.default_rng(36)
    q, k, v, keep = _attention_inputs(rng, 2, 5, 8)
    w_context = rng.standard_normal((10, 8)).astype(np.float32)
    for mask in (None, keep):
        tape = nm.GradTape()
        leaves = [tape.leaf(x) for x in (q, k, v)]
        context, _ = nm.attention(*leaves, 2, 5, mask)
        tape.backward(nm.reduce_sum(nm.mul(context, w_context)))
        for i in range(2):
            rows = np.s_[i * 5:(i + 1) * 5]
            tape_i = nm.GradTape()
            leaves_i = [tape_i.leaf(x[rows]) for x in (q, k, v)]
            context_i, _ = per_head_attention(*leaves_i, 2, None if mask is None else mask[i])
            tape_i.backward(nm.reduce_sum(nm.mul(context_i, w_context[rows])))
            for leaf, leaf_i in zip(leaves, leaves_i):
                assert_grads_close(leaf.grad[rows], leaf_i.grad, rel=1e-9, floor=1e-12,
                                   what="attention vs per-head oracle")


@pytest.mark.parametrize("masked", [False, True])
def test_taped_and_untaped_attention_return_the_same_bits(masked):
    q, k, v, keep = _attention_inputs(np.random.default_rng(42), 2, 9, 8)
    mask = keep if masked else None
    context, probs = nm.attention(q, k, v, 4, 9, mask)
    tape = nm.GradTape()
    taped_context, taped_probs = nm.attention(*(tape.leaf(x) for x in (q, k, v)), 4, 9, mask)
    assert len(tape) == 1
    assert np.array_equal(context, taped_context.value)
    # the probabilities stay off the tape: a plain float32 array with the untaped bits
    assert type(taped_probs) is np.ndarray and taped_probs.dtype == np.float32
    assert taped_probs.tobytes() == probs.tobytes()


def test_key_padding_mask_equals_the_mask_broadcast_to_every_query():
    # a (B, 1, T) mask as the mask block passes it: each sequence keeps a prefix of keys
    rng = np.random.default_rng(45)
    q, k, v, _ = _attention_inputs(rng, 3, 7, 8)
    keys = (np.arange(7) < np.array([7, 3, 5])[:, None])[:, None].astype(np.float32)
    full = np.broadcast_to(keys, (3, 7, 7))
    w_context = rng.standard_normal((21, 8)).astype(np.float32)
    outputs, grads = [], []
    for mask in (keys, full):
        plain = nm.attention(q, k, v, 4, 7, mask)
        tape = nm.GradTape()
        leaves = [tape.leaf(x) for x in (q, k, v)]
        context, probs = nm.attention(*leaves, 4, 7, mask)
        tape.backward(nm.reduce_sum(nm.mul(context, w_context)))
        outputs.append((*plain, context.value, probs))
        grads.append([leaf.grad for leaf in leaves])
    for got, want in zip(*outputs):
        assert np.array_equal(got, want)
    for got, want in zip(*grads):
        assert np.array_equal(got, want)
    assert np.all(outputs[0][1][1, :, :, 3:] == 0.0)


def test_attention_contract_errors():
    q = np.zeros((6, 4), np.float32)   # two sequences of three rows
    with pytest.raises(DimensionError, match="operands"):
        nm.attention(q[None], q[None], q[None], 2, 3)
    with pytest.raises(DimensionError, match="operands"):
        nm.attention(q, q[:3], q, 2, 3)
    for seq_len in (0, 4, 5, 7):   # rows that are not a whole number of sequences
        with pytest.raises(DimensionError, match=f"T = {seq_len}"):
            nm.attention(q, q, q, 2, seq_len)
    with pytest.raises(DimensionError):
        nm.attention(q, q, q, 3, 3)
    for shape in [(2, 3, 4), (3, 1, 3), (2, 2, 3), (1, 2, 3, 3)]:
        with pytest.raises(DimensionError, match="does not broadcast to"):
            nm.attention(q, q, q, 2, 3, np.ones(shape, np.float32))
    for shape in [(2, 1, 3), (1, 3, 3), (3, 3), (3,)]:  # every query sees every key
        assert np.array_equal(nm.attention(q, q, q, 2, 3, np.ones(shape, np.float32))[1],
                              nm.attention(q, q, q, 2, 3)[1])
    empty_row = np.ones((2, 3, 3), np.float32)
    empty_row[1, 2] = 0.0
    with pytest.raises(DegenerateInputError):
        nm.attention(q, q, q, 2, 3, empty_row)


def test_conv2d3x3_batch_rows_equal_single_images():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((3, 5, 4, 6)).astype(np.float32)
    kernel = rng.standard_normal((2, 6, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(2).astype(np.float32)
    out = nm.conv2d3x3(x, kernel, bias)
    assert out.shape == (3, 2, 5, 4)
    for i in range(3):
        assert np.array_equal(out[i], nm.conv2d3x3(x[i], kernel, bias))


def conv2d3x3_oracle(x, kernel, bias):
    """`conv2d3x3`'s forward as one einsum per tap: each (di, dj) tap of
    the zero-padded float64 grid contracted with that tap's (K, C) weights
    and added in raster tap order into a (..., K, H, W) float64 sum, then
    the bias, then one rounding to float32."""
    xv, k64, b64 = np.asarray(x), np.asarray(kernel, np.float64), np.asarray(bias, np.float64)
    *lead, h, w, c = xv.shape
    xp = np.zeros((*lead, h + 2, w + 2, c))
    xp[..., 1:-1, 1:-1, :] = xv
    out64 = np.zeros((*lead, len(k64), h, w))
    for di in range(3):
        for dj in range(3):
            out64 += np.einsum("...ijc,kc->...kij", xp[..., di:di + h, dj:dj + w, :],
                               k64[:, :, di, dj])
    out64 += b64[:, None, None]
    return out64.astype(np.float32)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_conv2d3x3_is_bit_identical_to_the_per_tap_einsum_oracle(lead):
    """Seeded cases at K in {1, 2, 3}, C in {1, 5, 32}, square and
    non-square grids down to 1x1 and inputs scaled from 1e-30 to 1e30, an
    all-zero input and a cancelling one."""
    rng = np.random.default_rng(45 + len(lead))
    cases = []
    for k in (1, 2, 3):
        for c in (1, 5, 32):
            for grid in ((8, 8), (5, 3), (1, 1), (1, 6)):
                x = rng.standard_normal((*lead, *grid, c)) * 10.0 ** rng.integers(
                    -30, 31, (*lead, 1, 1, 1))
                cases.append((x.astype(np.float32),
                               rng.standard_normal((k, c, 3, 3)).astype(np.float32),
                               rng.standard_normal(k).astype(np.float32)))
    cases.append((np.zeros((*lead, 8, 8, 32), np.float32), *cases[-4][1:]))  # K 3, C 32
    # at C = 1 each tap is one exact product and only the tap order can move a
    # bit: +-2**70 cancel before or after a 1 is absorbed, by that order
    cancelling = rng.choice(np.float32([2.0 ** 70, -2.0 ** 70, 1.0, -1.0, 0.0]), (*lead, 8, 8, 1))
    cases.append((cancelling, rng.choice(np.float32([1.0, -1.0]), (3, 1, 3, 3)),
                  np.zeros(3, np.float32)))
    for x, kernel, bias in cases:
        got, want = nm.conv2d3x3(x, kernel, bias), conv2d3x3_oracle(x, kernel, bias)
        assert got.dtype == np.float32 and got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), (x.shape, kernel.shape)
