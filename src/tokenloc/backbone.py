"""Patch embedding and the transformer backbone with attention capture.

Tokens carry a leading batch axis: (B, T, D). The backbone runs blocks
1..L-1 and keeps each block's class-token attention rows, (B, H, 1, T),
which is all that token scoring reads; the final (L-th) block lives in
the token-refinement classification head. Blocks are pre-norm with a
GELU MLP; the linear layers run on the B*T token rows, and all heads of
all sequences go through one fused attention op on those rows, with
scores scaled by 1/sqrt(head_dim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .errors import ContractError, DimensionError

PARAM_STD = 0.02
# float32 parameter bytes; the toy defaults need 119,828
MAX_PARAM_BYTES = 64 << 20
# one image's (H, T, T) float64 attention array; the toy defaults need
# 135,200 bytes, and patch size 1 at 32 px 33,620,000
MAX_ATTENTION_BYTES = 64 << 20


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters shared by every stage of the pipeline.

    Images are square (height = width = image_size); tokens form a
    grid_size x grid_size grid with grid_size = image_size // patch_size.
    """

    image_size: int
    patch_size: int
    embed_dim: int
    num_blocks: int
    num_heads: int
    num_classes: int
    mlp_ratio: int = 4
    selection_mass: float = 0.65

    def __post_init__(self):
        if self.image_size < 1 or self.patch_size < 1:
            raise DimensionError("image_size and patch_size must be positive")
        if self.image_size % self.patch_size != 0:
            raise DimensionError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim < 1 or self.num_heads < 1:
            raise DimensionError("embed_dim and num_heads must be positive")
        if self.embed_dim % self.num_heads != 0:
            raise DimensionError(f"field 'embed_dim' must be divisible by num_heads "
                                 f"{self.num_heads}, got {self.embed_dim}")
        if self.num_blocks < 2:
            raise DimensionError("num_blocks must be at least 2 (backbone plus final block)")
        if self.num_classes < 1:
            raise DimensionError("num_classes must be positive")
        if self.mlp_ratio < 1:
            raise DimensionError("mlp_ratio must be at least 1")
        if not 0.0 < self.selection_mass <= 1.0:
            raise DimensionError(f"selection_mass must be in (0, 1], got {self.selection_mass}")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_tokens(self) -> int:
        return self.grid_size * self.grid_size

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size * self.patch_size

    @property
    def mlp_hidden(self) -> int:
        return self.mlp_ratio * self.embed_dim

    @property
    def num_parameters(self) -> int:
        """Entries of all `parameter_shapes(self)`: the two-block table's,
        plus one block's per further block, so any depth costs the same."""
        two, block = (sum(map(math.prod, shapes.values())) for shapes in
                      (parameter_shapes(replace(self, num_blocks=2)), _block_shapes(self, "")))
        return two + (self.num_blocks - 2) * block

    def check_image(self, shape) -> None:
        """Raise ContractError unless `shape` is the (3, S, S) of this
        model's images."""
        expected = (3, self.image_size, self.image_size)
        if tuple(shape) != expected:
            raise ContractError(f"image shape {tuple(shape)} does not match the checkpoint's "
                                f"{expected}")

    def check_memory(self) -> None:
        """Raise DimensionError unless the parameters and one image's
        attention fit MAX_PARAM_BYTES and MAX_ATTENTION_BYTES; arithmetic
        only, so an oversized config is rejected before any allocation."""
        param_bytes = 4 * self.num_parameters
        if param_bytes > MAX_PARAM_BYTES:
            raise DimensionError(f"the parameters take {param_bytes} bytes of float32, more than "
                                 f"the budget of {MAX_PARAM_BYTES}")
        t = self.num_tokens + 1
        attention_bytes = 8 * self.num_heads * t * t
        if attention_bytes > MAX_ATTENTION_BYTES:
            raise DimensionError(f"one image's attention over {self.num_heads} heads and {t} "
                                 f"tokens takes {attention_bytes} bytes of float64, more than the "
                                 f"budget of {MAX_ATTENTION_BYTES}")


def _block_shapes(cfg: ModelConfig, prefix: str) -> dict:
    d, hidden = cfg.embed_dim, cfg.mlp_hidden
    shapes = {
        f"{prefix}.ln1.gamma": (d,),
        f"{prefix}.ln1.beta": (d,),
        f"{prefix}.ln2.gamma": (d,),
        f"{prefix}.ln2.beta": (d,),
        f"{prefix}.mlp.fc1.weight": (d, hidden),
        f"{prefix}.mlp.fc1.bias": (hidden,),
        f"{prefix}.mlp.fc2.weight": (hidden, d),
        f"{prefix}.mlp.fc2.bias": (d,),
    }
    for name in ("q", "k", "v", "out"):
        shapes[f"{prefix}.attn.{name}.weight"] = (d, d)
        shapes[f"{prefix}.attn.{name}.bias"] = (d,)
    return shapes


def parameter_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape map of every learnable parameter for this config."""
    d, n, k = cfg.embed_dim, cfg.num_tokens, cfg.num_classes
    shapes = {
        "embed.patch.weight": (cfg.patch_dim, d),
        "embed.cls": (1, d),
        "embed.pos": (n + 1, d),
        "refine.score.weight": (d, 1),
        "refine.score.bias": (1,),
        "refine.head.weight": (d, k),
        "refine.head.bias": (k,),
        "cam.conv.weight": (k, d, 3, 3),
        "cam.conv.bias": (k,),
    }
    for i in range(cfg.num_blocks - 1):
        shapes.update(_block_shapes(cfg, f"backbone.block{i}"))
    shapes.update(_block_shapes(cfg, "refine.mask_block"))
    shapes.update(_block_shapes(cfg, "refine.final_block"))
    return shapes


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    x = rng.normal(0.0, std, size=shape)
    for _ in range(32):
        bad = np.abs(x) > 2.0 * std
        if not bad.any():
            break
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return np.clip(x, -2.0 * std, 2.0 * std).astype(np.float32)


def init_params(cfg: ModelConfig, seed: int) -> dict:
    """Seeded initial weights: truncated-normal projections, zero biases
    and class token, normal position embeddings, identity layer norms."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {}
    for name, shape in parameter_shapes(cfg).items():
        if name == "embed.pos":
            params[name] = rng.normal(0.0, PARAM_STD, size=shape).astype(np.float32)
        elif name.endswith("gamma"):
            params[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(("bias", "beta")) or name == "embed.cls":
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            params[name] = _trunc_normal(rng, shape, PARAM_STD)
    return params


def patchify(image, patch_size: int) -> np.ndarray:
    """Split 3xHxW images (any leading batch axes) into rows of flattened
    non-overlapping patches; `ModelConfig.check_image` checks the shape.

    Row n holds patch n (raster order over the patch grid) flattened
    channel-major, then row, then column.
    """
    img = nm.as_f32(image)
    *lead, _, h, w = img.shape
    if h % patch_size != 0 or w % patch_size != 0:
        raise DimensionError(f"image {h}x{w} not divisible by patch size {patch_size}")
    gh, gw = h // patch_size, w // patch_size
    tiles = img.reshape(*lead, 3, gh, patch_size, gw, patch_size)
    axes = len(lead)
    order = (*range(axes), axes + 1, axes + 3, axes, axes + 2, axes + 4)
    return np.ascontiguousarray(
        tiles.transpose(order).reshape(*lead, gh * gw, 3 * patch_size * patch_size)
    )


def embed(patches, params, cfg: ModelConfig):
    """Project (B, N, P) patches, prepend the class token and add position
    embeddings, giving (B, N+1, D) tokens."""
    b, n, width = np.shape(patches)
    d = cfg.embed_dim
    projected = nm.reshape(nm.matmul(np.reshape(patches, (b * n, width)),
                                     params["embed.patch.weight"]), (b, n, d))
    cls = nm.add(np.zeros((b, 1, d), dtype=np.float32), params["embed.cls"])
    return nm.add(nm.concat([cls, projected], axis=1), params["embed.pos"])


def linear(rows, params, name: str):
    """rows @ params[name.weight] + params[name.bias]."""
    return nm.add(nm.matmul(rows, params[f"{name}.weight"]), params[f"{name}.bias"])


def mhsa(rows, params, prefix: str, num_heads: int, seq_len: int, mask=None):
    """Multi-head self-attention over (B*T, D) token rows, B sequences of
    seq_len = T rows, optionally restricted row-wise by a mask of any shape
    that broadcasts to (B, T, T), such as a (B, 1, T) key-padding mask.

    Returns the output-projected result as (B*T, D) rows and the
    (B, H, T, T) attention probabilities.
    """
    q, k, v = (linear(rows, params, f"{prefix}.attn.{name}") for name in ("q", "k", "v"))
    context, probs = nm.attention(q, k, v, num_heads, seq_len, mask)
    return linear(context, params, f"{prefix}.attn.out"), probs


def block_forward(z, params, prefix: str, num_heads: int, mask=None):
    """Pre-norm transformer block over (B, T, D) sequences: attention
    residual then GELU MLP residual, on the B*T token rows. A mask that
    broadcasts to (B, T, T), such as a (B, 1, T) key-padding mask,
    restricts which tokens each token attends to. Returns the (B, T, D)
    output and the (B, H, T, T) attention probabilities."""
    b, t, d = nm.value_of(z).shape
    rows = nm.reshape(z, (b * t, d))
    attn_out, probs = mhsa(
        nm.layer_norm(rows, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"]),
        params, prefix, num_heads, t, mask,
    )
    mid = nm.add(rows, attn_out)
    hidden = nm.gelu(linear(
        nm.layer_norm(mid, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"]),
        params, f"{prefix}.mlp.fc1"))
    out = nm.add(mid, linear(hidden, params, f"{prefix}.mlp.fc2"))
    return nm.reshape(out, (b, t, d)), probs


def backbone_forward(z0, params, cfg: ModelConfig):
    """Run blocks 1..L-1 over (B, N+1, D) tokens and keep a float32 copy,
    off the tape, of each block's class-token attention row, (B, H, 1, N+1);
    the rest of each (B, H, N+1, N+1) array is freed with its block."""
    z = z0
    stack = []
    for i in range(cfg.num_blocks - 1):
        z, probs = block_forward(z, params, f"backbone.block{i}", cfg.num_heads)
        stack.append(probs[:, :, :1].copy())
    return z, stack
