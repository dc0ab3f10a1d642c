"""Dense float32 numeric kernel with reverse-mode gradients.

Values are stored as float32. `add` and `mul` compute in float32
directly: for +, -, * and / of binary32 operands, rounding the exact
result to binary64 and then to binary32 gives the same binary32 as
rounding it once, because 53 >= 2 * 24 + 2 (Figueroa, "When is double
rounding innocuous?", ACM SIGNUM Newsletter 30(3), 1995), so a float64
round trip could not change a bit. The other arithmetic ops round to
float32 once, from float64: reductions (dot products, sums, softmax,
mean/variance) accumulate in float64, `scale` and the attention score
scaling multiply by a binary64 constant, and layer_norm, gelu, log, the
convolution and the resize chain several float64 steps. The
convolution's forward is one float64 BLAS product of every tap (float32
operands multiply exactly) summed tap by tap in a fixed order; the resize
gathers its corners with `take` from the flattened plane. No operation
writes into its inputs or its output, so an output may share memory
with an input (`reshape` and a sliced `take` return views). Every
operation but `bilinear_resize` carries a backward rule and returns
through `_emit`, the one place that applies the recording rule: when any
argument is a Node created from a GradTape, the result is a Node and the
adjoint step is recorded on that tape; otherwise the plain float32 array
is returned.
A call records at most one step and returns at most one Node: the
resize is for inference only, so `bilinear_resize` records nothing (it
stays here until it moves into `localization`), and `attention`'s
probabilities, which no gradient flows into, stay plain on a tape. The
tape keeps the float32 operands, which a backward rule widens to
float64 (exactly) when it runs, and float64 arrays only where an
adjoint reads a value that was never rounded: the softmax
probabilities, layer_norm's normalised input and gelu's CDF.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import erf

from .errors import ContractError, DegenerateInputError, DimensionError

_SQRT_2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# indexed by a softmax keep mask (0 masked, 1 kept)
_MASK_CAP = np.array([-np.inf, np.inf])
_MASK_FLOOR = np.array([0.0, -np.inf])


def as_f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """A value recorded on a GradTape during a forward pass."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value: np.ndarray, tape: "GradTape"):
        self.value = value
        self.grad = None  # float64, allocated on first contribution
        self.tape = tape

    def add_grad(self, g) -> None:
        g = np.asarray(g, dtype=np.float64)
        if g.shape != self.value.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.value.shape}"
            )
        if self.grad is None:
            self.grad = np.zeros(self.value.shape, dtype=np.float64)
        self.grad += g


class GradTape:
    """Wengert list of adjoint steps, replayed once in reverse order.

    One tape per forward pass; a tape must not be shared across threads
    or replayed twice.
    """

    def __init__(self):
        self._records = []  # (output Node, backward fn taking the output adjoint)
        self._spent = False

    def leaf(self, value) -> Node:
        """Wrap a parameter so downstream operations record gradients for it."""
        return Node(as_f32(value), self)

    def __len__(self) -> int:
        """Number of recorded adjoint steps not yet replayed."""
        return len(self._records)

    def backward(self, loss: Node) -> None:
        """Seed d(loss)/d(loss)=1 and replay all adjoint rules in reverse.

        After the call every leaf reachable from the loss holds its
        gradient in `.grad` (float64); unreachable leaves keep None. Each
        record is released as it is replayed, so intermediate values,
        adjoints and closures are freed by reference counting instead of
        waiting for the cyclic garbage collector.
        """
        if self._spent:
            raise ContractError("tape already replayed; record a fresh forward pass")
        if not isinstance(loss, Node) or loss.tape is not self:
            raise ContractError("loss was not recorded on this tape")
        if loss.value.ndim != 0:
            raise ContractError(f"loss must be a scalar, got shape {loss.value.shape}")
        self._spent = True
        loss.grad = np.ones((), dtype=np.float64)
        records, self._records = self._records, []
        while records:
            node, backward = records.pop()
            if node.grad is not None:
                backward(node.grad)


def value_of(x) -> np.ndarray:
    """Underlying float32 array of a Node or plain array-like."""
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float32)


def _tape_of(xs):
    """The one tape the Nodes among `xs` were recorded on; None without Nodes."""
    tape = None
    for x in xs:
        if isinstance(x, Node):
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise ContractError("operands were recorded on different tapes")
    return tape


def _emit(out_value, backward, *inputs):
    """`out_value` as it is when no input is a Node; otherwise a Node
    recorded with `backward` on the inputs' tape."""
    tape = _tape_of(inputs)
    if tape is None:
        return out_value
    node = Node(out_value, tape)
    tape._records.append((node, backward))
    return node


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# contract operations
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product c[i][j] = sum_t a[i][t]*b[t][j] with float64 accumulation."""
    av, bv = value_of(a), value_of(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise DimensionError(f"matmul expects matrices, got {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul inner extents disagree: {av.shape} vs {bv.shape}")
    out = (_f64(av) @ _f64(bv)).astype(np.float32)

    def backward(g):
        if isinstance(a, Node):
            a.add_grad(g @ _f64(bv).T)
        if isinstance(b, Node):
            b.add_grad(_f64(av).T @ g)

    return _emit(out, backward, a, b)


def _softmax64(z: np.ndarray, keep=None) -> np.ndarray:
    """Softmax over the last axis of the float64 array `z`, restricted to
    `keep` when given, computed in place; returns `z`.

    Unrestricted rows subtract their max; restricted rows subtract the
    max over kept entries and are exactly zero elsewhere. Every row of
    `keep` must hold at least one entry; `keep` may broadcast against
    `z`.
    """
    if keep is None:
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
    else:
        if not keep.any(axis=-1).all():
            raise DegenerateInputError("mask selects no entries in at least one row")
        # masked entries go to -inf (NaN included) for the row max, then to
        # an exponent of 0 and to 0 after exp: exp of -inf takes a slow
        # path, and multiplying by 1 leaves every kept entry as it was
        kept = keep.astype(np.intp)
        np.fmin(z, _MASK_CAP[kept], out=z)
        z -= z.max(axis=-1, keepdims=True)
        np.maximum(z, _MASK_FLOOR[kept], out=z)
        np.exp(z, out=z)
        z *= keep
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_adjoint(g, out64) -> np.ndarray:
    return out64 * (g - (g * out64).sum(axis=-1, keepdims=True))


def softmax(x, keep=None):
    """Row-wise softmax over the last axis, stabilised by max subtraction.

    With `keep` (the shape of x), the softmax is restricted to positions
    where keep is nonzero: the others are exactly zero in the output, and
    each row of keep must select at least one position. keep is treated
    as a constant: no gradient flows into it.
    """
    xv = value_of(x)
    if xv.size == 0:
        raise DimensionError("softmax needs at least one entry")
    if keep is not None:
        keep = value_of(keep)
        if xv.shape != keep.shape:
            raise DimensionError(f"scores shape {xv.shape} does not match mask shape {keep.shape}")
        keep = keep > 0
    out64 = _softmax64(np.array(xv, dtype=np.float64), keep)
    out = out64.astype(np.float32)

    def backward(g):
        x.add_grad(_softmax_adjoint(g, out64))

    return _emit(out, backward, x)


def attention(q, k, v, num_heads: int, seq_len: int, mask=None):
    """Multi-head scaled dot-product attention over a batch of sequences.

    q, k, v: (B*T, D) token rows, B sequences of seq_len = T rows each,
    split into num_heads heads of D / num_heads features; mask: optional,
    any shape that broadcasts to (B, T, T), nonzero where a query may
    attend (each row must keep at least one key): a (B, 1, T) key-padding
    mask serves every query of a sequence without being expanded. Returns
    the context as (B*T, D) rows, heads side by side, and the (B, H, T, T)
    probabilities. Each head rounds where the composed contract ops do:
    scores Q K^T to float32, the 1/sqrt(head_dim) scale to float32, the
    (masked) softmax computed in float64 to float32, and the context
    P V accumulated in float64 to float32. Only the context is recorded;
    the probabilities are plain float32 even on a tape, and no gradient
    flows into them or into the mask.
    """
    qv, kv, vv = value_of(q), value_of(k), value_of(v)
    if (qv.ndim != 2 or kv.shape != qv.shape or vv.shape != qv.shape or seq_len < 1
            or len(qv) % seq_len):
        raise DimensionError(f"attention expects equal (B*T, D) operands with T = {seq_len}, "
                             f"got {qv.shape}, {kv.shape}, {vv.shape}")
    b, t, d = len(qv) // seq_len, seq_len, qv.shape[1]
    if d % num_heads != 0:
        raise DimensionError(f"embedding size {d} not divisible by {num_heads} heads")
    hd = d // num_heads
    keep = None
    if mask is not None:
        mv = value_of(mask)
        if mv.ndim > 3 or any(n not in (1, full) for n, full in zip(mv.shape[::-1], (t, t, b))):
            raise DimensionError(f"attention mask shape {mv.shape} does not broadcast to "
                                 f"{(b, t, t)}")
        keep = (mv > 0).reshape((1,) * (3 - mv.ndim) + mv.shape)[:, None]
    c = 1.0 / math.sqrt(hd)

    def split(x):  # (B*T, D) -> (B, H, T, hd) float64
        return _f64(x).reshape(b, t, num_heads, hd).transpose(0, 2, 1, 3)

    def merge(x):  # (B, H, T, hd) -> (B*T, D)
        return x.transpose(0, 2, 1, 3).reshape(b * t, d)

    tape = _tape_of((q, k, v))  # only to free what no backward rule will read
    q64, k64 = split(qv), split(kv)
    # one float64 and one float32 array hold the raw scores, then the
    # scaled scores, then the probabilities
    probs64 = q64 @ k64.swapaxes(-1, -2)
    del q64, k64  # the backward rules rebuild them from qv and kv
    probs = probs64.astype(np.float32)
    np.multiply(probs, c, out=probs64, dtype=np.float64)
    np.copyto(probs, probs64, casting="same_kind")
    np.copyto(probs64, probs)
    _softmax64(probs64, keep)
    np.copyto(probs, probs64, casting="same_kind")
    v64 = split(vv)
    # the P V operand: the float32 probabilities in float64, written over
    # probs64 unless the backward rule needs it
    p64 = probs64 if tape is None else np.empty_like(probs64)
    np.copyto(p64, probs)
    context = p64 @ v64
    if tape is None:
        del probs64  # freed before the context is rounded and merged
    del p64, v64
    context = merge(context.astype(np.float32))

    def backward(g):
        g_heads = split(g)
        if isinstance(v, Node):
            v.add_grad(merge(_f64(probs).swapaxes(-1, -2) @ g_heads))
        g_raw = _softmax_adjoint(g_heads @ split(vv).swapaxes(-1, -2), probs64) * c
        if isinstance(q, Node):
            q.add_grad(merge(g_raw @ split(kv)))
        if isinstance(k, Node):
            k.add_grad(merge(g_raw.swapaxes(-1, -2) @ split(qv)))

    return _emit(context, backward, q, k, v), probs


def layer_norm(x, gamma, beta, eps: float = 1e-6):
    """Normalise the last axis to zero mean / unit variance (population), then scale+shift."""
    xv, gv, bv = value_of(x), value_of(gamma), value_of(beta)
    d = xv.shape[-1]
    if gv.shape != (d,) or bv.shape != (d,):
        raise DimensionError(
            f"layer_norm parameters {gv.shape}/{bv.shape} do not match feature size {d}"
        )
    # the float64 steps of mean, centring, variance and scaling, in that
    # order, in two work arrays: xhat (x, then centred, then normalised)
    # and work (the squares, then the affine output)
    xhat = xv.astype(np.float64)
    mu = np.add.reduce(xhat, axis=-1, keepdims=True)
    mu /= d
    xhat -= mu
    work = np.multiply(xhat, xhat)
    var = np.add.reduce(work, axis=-1, keepdims=True)
    var /= d
    var += eps
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    xhat *= inv
    g64, b64 = _f64(gv), _f64(bv)
    np.multiply(xhat, g64, out=work)
    work += b64
    out = work.astype(np.float32)

    def backward(g):
        lead = tuple(range(xv.ndim - 1))
        if isinstance(x, Node):
            gg = g * g64
            x.add_grad(inv * (gg - gg.mean(axis=-1, keepdims=True)
                              - xhat * (gg * xhat).mean(axis=-1, keepdims=True)))
        if isinstance(gamma, Node):
            gamma.add_grad((g * xhat).sum(axis=lead) if lead else g * xhat)
        if isinstance(beta, Node):
            beta.add_grad(g.sum(axis=lead) if lead else g)

    return _emit(out, backward, x, gamma, beta)


def gelu(x):
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF."""
    xv = value_of(x)
    z = _f64(xv)
    cdf = np.divide(z, _SQRT_2, out=np.empty_like(z))  # an array even for 0-d z
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = (z * cdf).astype(np.float32)

    def backward(g):
        z = _f64(xv)
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
        x.add_grad(g * (cdf + z * pdf))

    return _emit(out, backward, x)


@functools.lru_cache(maxsize=16)
def _resize_corners(h: int, w: int, out_h: int, out_w: int) -> tuple:
    """(flat index into the h*w source plane, float64 weight), both
    (out_h, out_w), of the four corners that `bilinear_resize` blends, as
    read-only arrays shared between calls."""
    si = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    sj = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    i0 = np.floor(si).astype(np.int64)[:, None]
    j0 = np.floor(sj).astype(np.int64)[None, :]
    i1 = np.minimum(i0 + 1, h - 1)
    j1 = np.minimum(j0 + 1, w - 1)
    fi = si[:, None] - i0
    fj = sj[None, :] - j0
    corners = ((i0 * w + j0, (1.0 - fi) * (1.0 - fj)), (i0 * w + j1, (1.0 - fi) * fj),
               (i1 * w + j0, fi * (1.0 - fj)), (i1 * w + j1, fi * fj))
    for corner in corners:
        for array in corner:
            array.flags.writeable = False
    return corners


def bilinear_resize(m, out_h: int, out_w: int):
    """Resample the last two axes with half-pixel-centre bilinear
    interpolation; leading axes are carried through.

    The source coordinate of output (i, j) is
    ((i+0.5)*h/out_h - 0.5, (j+0.5)*w/out_w - 0.5), clamped to the valid
    range, then blended from the 4 surrounding samples. Never taped.
    """
    mv = value_of(m)
    if mv.ndim < 2:
        raise DimensionError(f"bilinear_resize expects a matrix or a stack, got shape {mv.shape}")
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"output extents must be positive, got {out_h}x{out_w}")
    h, w = mv.shape[-2:]
    corners = _resize_corners(h, w, out_h, out_w)
    z = _f64(mv).reshape(*mv.shape[:-2], h * w)
    terms = [weight * np.take(z, flat, axis=-1) for flat, weight in corners]
    return (terms[0] + terms[1] + terms[2] + terms[3]).astype(np.float32)


# ---------------------------------------------------------------------------
# supporting operations (shape plumbing and reductions, all differentiable)
# ---------------------------------------------------------------------------

def add(a, b):
    av, bv = value_of(a), value_of(b)
    out = np.add(av, bv)

    def backward(g):
        if isinstance(a, Node):
            a.add_grad(_unbroadcast(g, av.shape))
        if isinstance(b, Node):
            b.add_grad(_unbroadcast(g, bv.shape))

    return _emit(out, backward, a, b)


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    out = np.multiply(av, bv)

    def backward(g):
        if isinstance(a, Node):
            a.add_grad(_unbroadcast(g * _f64(bv), av.shape))
        if isinstance(b, Node):
            b.add_grad(_unbroadcast(g * _f64(av), bv.shape))

    return _emit(out, backward, a, b)


def scale(x, c: float):
    xv = value_of(x)
    out = (_f64(xv) * float(c)).astype(np.float32)

    def backward(g):
        x.add_grad(g * float(c))

    return _emit(out, backward, x)


def reshape(x, shape):
    xv = value_of(x)
    shape = tuple(map(int, shape))
    if math.prod(shape) != xv.size:
        raise DimensionError(f"cannot reshape {xv.shape} into {shape}")
    out = xv.reshape(shape)

    def backward(g):
        x.add_grad(g.reshape(xv.shape))

    return _emit(out, backward, x)


def concat(parts, axis: int = 0):
    values = [value_of(p) for p in parts]
    out = np.concatenate(values, axis=axis)

    def backward(g):
        index = [slice(None)] * g.ndim
        hi = 0
        for part, value in zip(parts, values):
            lo, hi = hi, hi + value.shape[axis]
            if isinstance(part, Node):
                index[axis] = slice(lo, hi)
                part.add_grad(g[tuple(index)])

    return _emit(out, backward, *parts)


def take(x, index):
    """x[index]: a view for basic slices and integers; a copy for integer
    arrays (one picks rows, a tuple of broadcasting arrays picks along the
    leading axes), whose entries picked more than once sum their gradients."""
    xv = value_of(x)
    out = xv[index]

    def backward(g):
        gx = np.zeros(xv.shape, dtype=np.float64)
        if np.may_share_memory(out, xv):  # a view: basic indexing picks no entry twice
            gx[index] = g
        else:
            np.add.at(gx, index, g)
        x.add_grad(gx)

    return _emit(out, backward, x)


def reduce_sum(x, axis=None):
    """Sum over the given axes (all axes when None), float64 accumulation."""
    xv = value_of(x)
    out = np.asarray(_f64(xv).sum(axis=axis), dtype=np.float32)

    def backward(g):
        expanded = np.asarray(g, dtype=np.float64)
        if axis is not None:  # a sum over all axes broadcasts as it is
            expanded = np.expand_dims(expanded, axis)
        x.add_grad(np.broadcast_to(expanded, xv.shape))

    return _emit(out, backward, x)


def log(x):
    """Natural logarithm; caller guarantees positive inputs."""
    xv = value_of(x)
    z = _f64(xv)
    out = np.log(z).astype(np.float32)

    def backward(g):
        x.add_grad(g / z)

    return _emit(out, backward, x)


def clip_min(x, lo: float):
    """Elementwise max(x, lo); the clipped region gets zero gradient."""
    xv = value_of(x)
    z = _f64(xv)
    out = np.maximum(z, float(lo)).astype(np.float32)

    def backward(g):
        x.add_grad(g * (z > float(lo)))

    return _emit(out, backward, x)


def conv2d3x3(x, kernel, bias):
    """3x3 convolution with zero padding 1 and stride 1.

    x: (..., H, W, C) with any leading batch axes; kernel: (K, C, 3, 3);
    bias: (K,). Returns (..., K, H, W).

    The forward is one float64 BLAS product of the zero-padded grid with
    every tap's weights, (..., H+2, W+2, C) @ (C, 9K), whose nine shifted
    tap slices are added in raster (di, dj) order, then the bias, and
    rounded to float32 once. Float32 operands multiply exactly in float64,
    so fused multiply-adds change no bit; each tap's sum over C runs in
    BLAS's order, as `matmul`'s does. The backward keeps one einsum per
    tap, since its float64 adjoints do not multiply exactly.
    """
    xv, kv, bv = value_of(x), value_of(kernel), value_of(bias)
    if xv.ndim < 3:
        raise DimensionError(f"conv input must be (..., H, W, C), got {xv.shape}")
    *lead, h, w, c = xv.shape
    if kv.ndim != 4 or kv.shape[1:] != (c, 3, 3):
        raise DimensionError(f"kernel shape {kv.shape} does not match input channels {c}")
    k = kv.shape[0]
    if bv.shape != (k,):
        raise DimensionError(f"bias shape {bv.shape} does not match {k} output channels")
    k64, b64, padded = _f64(kv), _f64(bv), (*lead, h + 2, w + 2, c)
    xp = np.zeros(padded, dtype=np.float64)
    xp[..., 1:-1, 1:-1, :] = xv
    # every tap's (C -> K) product at every padded position, tap-major columns
    taps = (xp.reshape(-1, c) @ k64.transpose(1, 2, 3, 0).reshape(c, 9 * k)).reshape(
        *padded[:-1], 9, k)
    out64 = np.zeros((*lead, h, w, k), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            out64 += taps[..., di:di + h, dj:dj + w, 3 * di + dj, :]
    out64 += b64
    out = np.moveaxis(out64, -1, -3).astype(np.float32, order="C")

    def backward(g):
        if isinstance(kernel, Node):
            xp = np.zeros(padded, dtype=np.float64)  # the forward's, rebuilt from x
            xp[..., 1:-1, 1:-1, :] = xv
            g_rows, xp_rows = g.reshape(-1, k, h, w), xp.reshape(-1, h + 2, w + 2, c)
            gk = np.zeros((k, c, 3, 3), dtype=np.float64)
            for di in range(3):
                for dj in range(3):
                    gk[:, :, di, dj] = np.einsum("bkij,bijc->kc", g_rows,
                                                 xp_rows[:, di:di + h, dj:dj + w])
            kernel.add_grad(gk)
        if isinstance(x, Node):
            gxp = np.zeros(padded, dtype=np.float64)
            for di in range(3):
                for dj in range(3):
                    gxp[..., di:di + h, dj:dj + w, :] += np.einsum("...kij,kc->...ijc", g,
                                                                   k64[:, :, di, dj])
            x.add_grad(gxp[..., 1:-1, 1:-1, :])
        if isinstance(bias, Node):
            bias.add_grad(g.reshape(-1, k, h * w).sum(axis=(0, 2)))

    return _emit(out, backward, x, kernel, bias)
