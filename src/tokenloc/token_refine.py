"""Token priority scoring and re-attention.

Aggregates the class-token attention rows into a preliminary priority
vector per image, selects tokens for the whole stack in numpy (by
default adaptively, by cumulative attention mass), runs a transformer
block over each image's gathered selected tokens to learn importance
weights, and redistributes the selected attention mass accordingly.
Priorities, selection and re-attention are float32 numpy constants for
gradient purposes; gradients flow through the importance weights, the
refine head and the fused embedding.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics as nm
from .backbone import ModelConfig, block_forward, linear
from .errors import ContractError, DimensionError


def preliminary_attention(stack):
    """Sum the head-averaged class-token attention rows over all blocks.

    `stack` holds one (B, H, R, N+1) float32 probability array per block,
    whose row 0 is the class token's (the backbone keeps that row alone).
    Returns the (B, N) float32 priorities (class column excluded). Heads
    are added in turn and blocks summed in float32; 1/H scales in float64.
    """
    if not stack:
        raise ContractError("attention stack is empty")
    rows = []
    for probs in stack:
        heads = list(np.asarray(probs, dtype=np.float32)[:, :, 0, 1:].swapaxes(0, 1))
        mean = sum(heads[1:], heads[0]).astype(np.float64) * (1.0 / len(heads))
        rows.append(mean.astype(np.float32))
    return sum(rows[1:], rows[0])


# A selection rule maps a (B, N) float32 priority stack, every row of
# positive total mass, to its (B, N) boolean keep mask; each builder
# checks its parameter once, when the rule is built.

def adaptive(mass: float):
    """The paper's rule: per row, the smallest prefix of the priorities
    sorted descending (stable, lower index first on ties) whose float64
    running sum reaches fraction `mass` of the row total, plus every tie
    of the prefix's last priority (the mask is inclusive)."""
    if not 0.0 < mass <= 1.0:
        raise ContractError(f"mass fraction must be in (0, 1], got {mass}")

    def rule(m):
        rows = np.arange(len(m))[:, None]
        ranked = m[rows, np.argsort(-m, axis=-1, kind="stable")]
        cum = np.cumsum(ranked, axis=-1, dtype=np.float64)
        # the first prefix position whose running sum reaches the target
        last = np.minimum((cum < mass * cum[:, -1:]).sum(axis=-1), m.shape[-1] - 1)
        return m >= ranked[rows, last[:, None]]
    return rule


def top_k(k: int):
    """The k highest priorities of each row, lower index first on ties."""
    if k < 1:
        raise ContractError(f"topk needs k >= 1, got {k}")

    def rule(m):
        if k > m.shape[-1]:
            raise ContractError(f"topk k={k} exceeds {m.shape[-1]} tokens")
        keep = np.zeros(m.shape, dtype=bool)
        np.put_along_axis(keep, np.argsort(-m, axis=-1, kind="stable")[:, :k], True, axis=-1)
        return keep
    return rule


def fixed(tau):
    """Every priority at or above a fixed threshold `tau`, or at or above
    its row's own mean for tau = "mean"."""
    if tau != "mean" and not (math.isfinite(tau) and tau >= 0.0):
        raise ContractError(f"fixed threshold must be a finite number >= 0, got {tau}")
    return lambda m: m >= (m.mean(axis=-1, keepdims=True) if tau == "mean" else float(tau))


def select(priorities, selector):
    """The (B, N) float32 0/1 mask of the tokens `selector` keeps in each
    row of a (B, N) priority stack.

    A row with zero total mass, or one the rule leaves empty, keeps its
    argmax token alone (lowest index on ties): the one fallback for every
    rule.
    """
    m = np.asarray(priorities, dtype=np.float32)
    if m.ndim != 2:
        raise DimensionError(f"priorities must be a (B, N) stack, got shape {m.shape}")
    if np.any(m < 0):
        raise ContractError("priorities must be nonnegative")
    keep = np.zeros(m.shape, dtype=bool)
    live = m.sum(axis=-1, dtype=np.float64) > 0.0
    if live.any():
        keep[live] = selector(m[live])
    empty = np.flatnonzero(~keep.any(axis=-1))
    keep[empty, np.argmax(m[empty], axis=-1)] = True
    return keep.astype(np.float32)


def importance_weights(z_p, mask, params, num_heads: int):
    """Transformer block over each image's selected patch tokens, a
    per-token scalar score and a softmax over them, scattered back to
    (B, N): zero off-support, sums to 1 per image. A selected token
    attends only to selected tokens, so each image's selected rows are
    gathered first in token order, padded to the stack's largest count
    m, and a (B, 1, m) key-padding mask keeps the padding out of every
    softmax (an unpadded stack, every count m, runs unmasked)."""
    mask = np.asarray(mask) > 0
    counts = mask.sum(axis=-1)
    if (counts < 1).any():
        raise ContractError("selection mask must keep at least one token")
    b, _, d = nm.value_of(z_p).shape
    m, image = int(counts.max()), np.arange(b)[:, None]
    order = np.argsort(~mask, axis=-1, kind="stable")[:, :m]
    valid = None if (counts == m).all() else np.arange(m) < counts[:, None]
    keys = None if valid is None else valid[:, None]
    z, _ = block_forward(nm.take(z_p, (image, order)), params, "refine.mask_block", num_heads, keys)
    scores = linear(nm.reshape(z, (b * m, d)), params, "refine.score")
    lam = nm.softmax(nm.reshape(scores, (b, m)), valid)
    # each selected token reads its slot, every other token the zero column
    slots = np.where(mask, np.cumsum(mask, axis=-1) - 1, m)
    return nm.take(nm.concat([lam, np.zeros((b, 1), np.float32)], axis=1), (image, slots))


def reattention(priorities, mask, weights):
    """Redistribute the selected tokens' mass by the importance weights,
    row by row (last axis = tokens), in float32 with float64 sums.

    r = sum(m * b) / sum(lambda); m' = m * (1 - b) + lambda * r.
    Total mass is conserved; a row with an all-zero mask passes m through
    unchanged.
    """
    m, b, lam = (np.asarray(x, dtype=np.float32) for x in (priorities, mask, weights))
    empty = b.sum(axis=-1, keepdims=True) == 0.0
    lam_total = lam.astype(np.float64).sum(axis=-1, keepdims=True)
    if np.any((lam_total == 0.0) & ~empty):
        raise ContractError("importance weights sum to zero over a non-empty selection")
    # an empty row has nothing to redistribute: r = 0 / (sum(lambda) + 1)
    lam_sum = lam_total.astype(np.float32) + empty.astype(np.float32)
    ratio = (m * b).astype(np.float64).sum(axis=-1, keepdims=True).astype(np.float32) / lam_sum
    return m * (1.0 - b) + lam * ratio


def spatial_map(refined):
    """Reshape (..., N) vectors to their sqrt(N) x sqrt(N) spatial grids."""
    v = np.asarray(refined, dtype=np.float32)
    n = v.shape[-1]
    side = math.isqrt(n)
    if side * side != n:
        raise DimensionError(f"vector length {n} is not a perfect square")
    return v.reshape(*v.shape[:-1], side, side)


def refine_classify(z_cls, z_p, weights, params, cfg: ModelConfig):
    """Classification head of the scoring branch.

    Fuses each image's (N, D) patch tokens by its (1, N) importance
    weights, runs the final transformer block over [class token; fusion],
    projects the class row to logits and normalises, giving (B, K)
    probabilities. The fusion runs as one (B, B*N) @ (B*N, D) product
    whose left factor holds each image's weights on its own diagonal
    block, so every image keeps its (1, N) @ (N, D) product.
    """
    b, n, d = nm.value_of(z_p).shape
    diagonal = np.eye(b, dtype=np.float32)[:, :, None]
    lam_rows = nm.reshape(nm.mul(nm.reshape(weights, (b, 1, n)), diagonal), (b, b * n))
    fusion = nm.matmul(lam_rows, nm.reshape(z_p, (b * n, d)))
    seq = nm.concat([z_cls, nm.reshape(fusion, (b, 1, d))], axis=1)
    out, _ = block_forward(seq, params, "refine.final_block", cfg.num_heads)
    return nm.softmax(linear(nm.take(out, np.s_[:, 0]), params, "refine.head"))
