"""Shared test helpers: tolerance checks, gradient verification and
the reference paths that the program's fast paths are checked against."""

import math
import struct

import numpy as np

from tokenloc import numerics as nm
from tokenloc.backbone import block_forward, parameter_shapes
from tokenloc.errors import (
    BadMagicError,
    CheckpointError,
    ContractError,
    DegenerateInputError,
    DimensionError,
    TensorHeaderError,
    TruncationError,
    UnsupportedDtypeError,
)
from tokenloc.formats import (
    _CONFIG_STRUCT,
    CHECKPOINT_MAGIC,
    CONFIG_ENTRY,
    DTYPE_F32,
    TENSOR_MAGIC,
    _config_from_bytes,
)
from tokenloc.localization import class_heats
from tokenloc.pipeline import two_branch_forward


def assert_grads_close(analytic, numeric, rel=1e-3, floor=1e-4, what=""):
    """Elementwise |a - n| <= max(floor, rel * max(|a|, |n|))."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    tol = np.maximum(floor, rel * np.maximum(np.abs(analytic), np.abs(numeric)))
    gap = np.abs(analytic - numeric)
    worst = float((gap - tol).max())
    assert np.all(gap <= tol), (
        f"{what}: gradient mismatch, worst excess {worst:.3e} "
        f"(max gap {gap.max():.3e})")


def finite_diff_grad(f, x, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    The divisor is the realised float32 step (x+h) - (x-h), which equals 2h
    up to storage rounding and keeps linear functions exact.
    """
    xv = nm.as_f32(x).copy()
    grad = np.zeros(xv.shape, dtype=np.float64)
    for idx in np.ndindex(xv.shape):
        orig = xv[idx]
        xv[idx] = orig + np.float32(h)
        hi = float(f(xv))
        up = float(xv[idx])
        xv[idx] = orig - np.float32(h)
        lo = float(f(xv))
        down = float(xv[idx])
        xv[idx] = orig
        grad[idx] = (hi - lo) / (up - down)
    return grad.astype(np.float32)


def check_op_gradients(build_loss, arrays, h=1e-2, rel=1e-3, floor=1e-4, what=""):
    """Compare tape gradients of a scalar-valued composite against central
    finite differences, for every differentiable argument.

    `build_loss(*args)` must accept Nodes or plain arrays and return a
    scalar (Node or array respectively).
    """
    tape = nm.GradTape()
    leaves = [tape.leaf(a) for a in arrays]
    loss = build_loss(*leaves)
    tape.backward(loss)
    for i, (leaf, base) in enumerate(zip(leaves, arrays)):
        def f(x, i=i):
            plain = list(arrays)
            plain[i] = x
            return float(nm.value_of(build_loss(*plain)))

        fd = finite_diff_grad(f, base, h)
        ad = leaf.grad if leaf.grad is not None else np.zeros_like(base, dtype=np.float64)
        assert_grads_close(ad, fd, rel=rel, floor=floor, what=f"{what} arg{i}")


def weighted_sum(weights):
    """Folds an op output into a scalar so gradients can be checked."""
    def fold(out):
        return nm.reduce_sum(nm.mul(out, weights))
    return fold


def unpatchify(patches: np.ndarray, patch_size: int, h: int, w: int) -> np.ndarray:
    """Inverse of patchify for one image, reassembling the 3xHxW image."""
    gh, gw = h // patch_size, w // patch_size
    tiles = nm.as_f32(patches).reshape(gh, gw, 3, patch_size, patch_size)
    return np.ascontiguousarray(tiles.transpose(2, 0, 3, 1, 4).reshape(3, h, w))


def selection_matrix(mask) -> np.ndarray:
    """(..., N, N) attention mask from (..., N) token masks: every token
    sees all selected tokens plus itself."""
    b = nm.value_of(mask)
    if b.ndim < 1:
        raise DimensionError(f"mask must have a token axis, got shape {b.shape}")
    n = b.shape[-1]
    matrix = np.repeat(b[..., None, :], n, axis=-2).astype(np.float32)
    matrix[..., np.arange(n), np.arange(n)] = 1.0
    return matrix


def masked_importance_weights(z_p, mask, params, num_heads: int):
    """Reference for `token_refine.importance_weights`: the mask block over
    all (B, N, D) patch tokens under the (B, N, N) selection matrix, a
    per-token scalar score, and a masked softmax over each image's
    selected tokens."""
    if (nm.value_of(mask).sum(axis=-1) < 1.0).any():
        raise ContractError("selection mask must keep at least one token")
    b, n, d = nm.value_of(z_p).shape
    z, _ = block_forward(z_p, params, "refine.mask_block", num_heads,
                         mask=selection_matrix(mask))
    scores = nm.add(nm.matmul(nm.reshape(z, (b * n, d)), params["refine.score.weight"]),
                    params["refine.score.bias"])
    return nm.softmax(nm.reshape(scores, (b, n)), mask)


# Per-row reference of `token_refine.select` and its rules: one (N,)
# priority row at a time, each rule returning (threshold, mask), as the
# program selected before its rules ran on the whole (B, N) stack.

def adaptive_row(m, mass: float):
    """Keep the smallest sorted prefix reaching fraction `mass` of the
    total, plus all ties: the threshold is the raw priority at the last
    prefix position and the mask is inclusive (p >= threshold)."""
    order = np.argsort(-m, kind="stable")
    cum = np.cumsum(m[order].astype(np.float64))
    total = cum[-1]
    if total <= 0.0:
        raise DegenerateInputError("priority vector has zero total mass")
    k_star = int(np.searchsorted(cum, mass * total, side="left"))
    k_star = min(k_star, m.size - 1)
    tau = float(m[order[k_star]])
    return tau, (m >= tau).astype(np.float32)


def top_k_row(m, k: int):
    """The k highest priorities, lower index first on ties; the threshold
    is the k-th priority."""
    if k > m.size:
        raise ContractError(f"topk k={k} exceeds {m.size} tokens")
    order = np.argsort(-m, kind="stable")
    mask = np.zeros(m.shape, dtype=np.float32)
    mask[order[:k]] = 1.0
    return float(m[order[k - 1]]), mask


def fixed_row(m, tau):
    """Every priority at or above `tau`, or the row's own mean for "mean"."""
    t = float(m.mean()) if tau == "mean" else float(tau)
    return t, (m >= t).astype(np.float32)


def select_rows(priorities, rule):
    """Reference for `token_refine.select`: the (B, N) masks of
    `rule(row)` -> (threshold, mask) on each row of positive total mass;
    a zero-mass row, or an empty mask, selects the argmax token alone
    (lowest index on ties)."""
    masks = []
    for row in np.asarray(priorities, dtype=np.float32):
        if np.any(row < 0):
            raise ContractError("priorities must be nonnegative")
        _, mask = rule(row) if row.sum(dtype=np.float64) > 0.0 else (0.0, np.zeros_like(row))
        if not np.any(mask):
            mask = np.zeros(row.shape, dtype=np.float32)
            mask[int(np.argmax(row))] = 1.0
        masks.append(mask)
    return np.stack(masks)


def gt_heats(params, cfg, samples, selector=None) -> np.ndarray:
    """(S, side, side) fused maps of (image, label, boxes) samples for their
    labels, from one forward pass over all of them: bit-identical to the
    evaluation engine's stacks, since a forward's rows do not depend on
    the stack they run in."""
    images, labels, _ = zip(*samples)
    result = two_branch_forward(params, cfg, np.stack(images), selector=selector)
    return class_heats(result.refined_map, result.cam_maps, list(labels), cfg.image_size)


def iou(a, b) -> float:
    """Intersection over union of two half-open (x0, y0, x1, y1) boxes,
    one pair at a time: the reference for the array IoU tables in
    `tokenloc.localization` (itself checked against pixel sets in
    test_metrics)."""
    ax0, ay0, ax1, ay1 = (int(v) for v in a)
    bx0, by0, bx1, by1 = (int(v) for v in b)
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


# Reference decoders for `tokenloc.formats`: every field is sliced out of
# the file bytes with `_take`, one copy per field.

def _take(buffer: bytes, offset: int, count: int, what: str):
    if offset + count > len(buffer):
        raise TruncationError(f"file ended inside {what} ({offset + count} > {len(buffer)} bytes)")
    return buffer[offset:offset + count], offset + count


def tensor_header_oracle(buffer: bytes, offset: int):
    """Decode the tensor header at `offset`, returning (shape, payload offset)."""
    magic, offset = _take(buffer, offset, 4, "tensor magic")
    if magic != TENSOR_MAGIC:
        raise BadMagicError(f"expected magic {TENSOR_MAGIC!r}, found {magic!r}")
    head, offset = _take(buffer, offset, 2, "tensor header")
    dtype, ndim = struct.unpack("<BB", head)
    if dtype != DTYPE_F32:
        raise UnsupportedDtypeError(f"unsupported dtype code {dtype}")
    if ndim < 1:
        raise TensorHeaderError("tensor files need at least one dimension")
    raw, offset = _take(buffer, offset, 4 * ndim, "tensor extents")
    shape = struct.unpack(f"<{ndim}I", raw)
    if any(s < 1 for s in shape):
        raise TensorHeaderError(f"non-positive extent in {shape}")
    return shape, offset


def tensor_from_bytes_oracle(buffer: bytes, offset: int = 0):
    """Decode one tensor record, returning (array, next offset)."""
    shape, offset = tensor_header_oracle(buffer, offset)
    count = math.prod(shape)
    payload, offset = _take(buffer, offset, 4 * count, "tensor payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy(), offset


def read_tensor_oracle(data: bytes) -> np.ndarray:
    """`formats.read_tensor` on the bytes of a tensor file."""
    array, offset = tensor_from_bytes_oracle(data)
    if offset != len(data):
        raise TruncationError(f"{len(data) - offset} trailing bytes after tensor payload")
    return array


def read_checkpoint_oracle(data: bytes):
    """`formats.read_checkpoint` on the bytes of a checkpoint file."""
    magic, offset = _take(data, 0, 4, "checkpoint magic")
    if magic != CHECKPOINT_MAGIC:
        raise BadMagicError(f"expected magic {CHECKPOINT_MAGIC!r}, found {magic!r}")
    raw, offset = _take(data, offset, 4, "entry count")
    (count,) = struct.unpack("<I", raw)
    cfg = None
    params = {}
    for _ in range(count):
        raw, offset = _take(data, offset, 2, "entry name length")
        (name_len,) = struct.unpack("<H", raw)
        raw, offset = _take(data, offset, name_len, "entry name")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"entry name {raw!r} is not UTF-8: {exc.reason}") from exc
        if name == CONFIG_ENTRY:
            if cfg is not None:
                raise CheckpointError("duplicate config entry")
            raw, offset = _take(data, offset, _CONFIG_STRUCT.size, "config block")
            cfg = _config_from_bytes(raw)
        else:
            if name in params:
                raise CheckpointError(f"duplicate entry {name!r}")
            params[name], offset = tensor_from_bytes_oracle(data, offset)
    if offset != len(data):
        raise CheckpointError(f"{len(data) - offset} trailing bytes after the last entry")
    if cfg is None:
        raise CheckpointError("checkpoint has no config entry")
    if 16 * (cfg.num_blocks + 1) > len(params):
        raise CheckpointError(f"config's {cfg.num_blocks} blocks need {16 * (cfg.num_blocks + 1)} "
                              f"parameters, the checkpoint holds {len(params)}")
    expected = parameter_shapes(cfg)
    missing = sorted(set(expected) - set(params))
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {', '.join(missing)}")
    extra = sorted(set(params) - set(expected))
    if extra:
        raise CheckpointError(f"checkpoint has unexpected parameters: {', '.join(extra)}")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {params[name].shape}, config implies {shape}")
    return cfg, params
