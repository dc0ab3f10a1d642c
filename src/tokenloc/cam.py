"""Class activation map branch.

Patch tokens are laid out on their spatial grid and convolved into one
map per class; the spatial mean of each map is that class's logit, so
the maps themselves are the localization evidence.
"""

from __future__ import annotations

import math

from . import numerics as nm
from .backbone import ModelConfig
from .errors import DimensionError


def cam_forward(z_p, params, cfg: ModelConfig):
    """Return (class maps K x g x g, logits, class probabilities) for
    (..., N, D) patch tokens, with the same leading batch axes.

    Maps come from a 3x3 zero-padded convolution over the g x g x D token
    grid; logits are the per-channel spatial means, so mean(maps[k])
    equals logits[k] by construction. Map values are raw (may be
    negative); rectification happens at fusion time.
    """
    *lead, n, d = nm.value_of(z_p).shape
    side = math.isqrt(n)
    if side * side != n:
        raise DimensionError(f"token count {n} is not a perfect square")
    if d != cfg.embed_dim:
        raise DimensionError(f"token width {d} does not match embed_dim {cfg.embed_dim}")
    grid = nm.reshape(z_p, (*lead, side, side, d))
    maps = nm.conv2d3x3(grid, params["cam.conv.weight"], params["cam.conv.bias"])
    logits = nm.scale(nm.reduce_sum(maps, axis=(-2, -1)), 1.0 / (side * side))
    return maps, logits, nm.softmax(logits)
