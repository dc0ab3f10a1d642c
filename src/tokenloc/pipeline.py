"""Full two-branch forward pass: backbone, token refinement, CAM.

The pass runs on a (B, 3, H, W) stack: training sends a whole batch,
single-image commands a stack of one, and evaluation consecutive stacks
of FORWARD_CHUNK images. Used taped (training) and untaped (inference).
The priorities, token selection and re-attention run in float32 numpy
on whole (B, N) stacks, off the tape even in a taped pass; a selector
that returns one constant mask pins the selection (that is what makes
finite-difference checks of the composed loss well-posed). Re-attention
has no off switch: the map without it is the priority vector itself,
which every result carries as `priorities`. `rescored` re-selects a
result's tokens by another rule, which is how
`localization.evaluate_samples` scores several rules on one pass per
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numerics as nm
from .backbone import ModelConfig, backbone_forward, embed, patchify
from .cam import cam_forward
from .errors import ContractError
from .token_refine import (
    adaptive,
    importance_weights,
    preliminary_attention,
    reattention,
    refine_classify,
    select,
    spatial_map,
)


# Images per untaped evaluation stack, and heats per labelling call. A
# larger stack runs fewer, larger kernel calls but holds more at once, so
# the size is chosen by peak memory: the backbone keeps only each block's
# class-token attention rows, and the untaped attention frees its float64
# work arrays before the context is merged, so at the toy model size one
# stack's forward plus a re-scored selection peaks at 1.17 MB
# (tracemalloc) with 4 images and 2.33 MB with 8, under the 2.385 MB
# one-stack budget that tests/test_pipeline.py holds it to.
FORWARD_CHUNK = 8


@dataclass
class ForwardResult:
    """Outputs of one forward pass over a (B, 3, H, W) image stack; every
    field carries the batch axis first.

    `weights`, `refined_map` and `p_refine` run from the result's fields
    the first time they are read: only a taped pass and scoring with
    re-attention run the mask block, only the fusing commands run
    re-attention (numpy, never taped), and only `infer` and training the
    refine head. A taped pass records the importance weights, then CAM
    (which `two_branch_forward` sets), then the head: that order fixes
    how z_p sums its adjoints.
    """

    params: dict              # the weights of the pass
    cfg: ModelConfig
    z_cls: object             # (B, 1, D) class token out of the backbone
    z_p: object               # (B, N, D) patch tokens out of the backbone
    priorities: np.ndarray    # (B, N) priorities m, the backbone's summed class-token attention
    mask: np.ndarray          # (B, N) float32 0/1 selected tokens
    cam_maps: object = None   # (B, K, sqrt(N), sqrt(N)) class activation maps
    p_cam: object = None      # (B, K) CAM-branch class probabilities

    @cached_property
    def weights(self):
        """(B, N) importance weights lambda of the mask block, zero off the mask."""
        return importance_weights(self.z_p, self.mask, self.params, self.cfg.num_heads)

    @cached_property
    def refined_map(self):
        """(B, sqrt(N), sqrt(N)) scoring-branch maps: the priorities
        re-attended by the importance weights."""
        return spatial_map(reattention(self.priorities, self.mask, nm.value_of(self.weights)))

    @cached_property
    def p_refine(self):
        """(B, K) scoring-branch class probabilities, from the final block
        and head."""
        return refine_classify(self.z_cls, self.z_p, self.weights, self.params, self.cfg)


def _selected(cfg: ModelConfig, priorities, selector) -> np.ndarray:
    """The (B, N) mask that `selector` (None: `adaptive(cfg.selection_mass)`)
    keeps of the priorities."""
    return select(priorities, adaptive(cfg.selection_mass) if selector is None else selector)


def two_branch_forward(params, cfg: ModelConfig, images, *, selector=None) -> ForwardResult:
    """Run the whole pipeline on a (B, 3, H, W) stack of images.

    `selector` is a selection rule that `token_refine.select` applies to
    the (B, N) priority stack; None means `adaptive(cfg.selection_mass)`.
    """
    stack = nm.as_f32(images)
    if stack.ndim != 4:
        raise ContractError(f"expected a (B, 3, {cfg.image_size}, {cfg.image_size}) image "
                            f"stack, got shape {stack.shape}")
    cfg.check_image(stack.shape[1:])
    z0 = embed(patchify(stack, cfg.patch_size), params, cfg)
    tokens, attention = backbone_forward(z0, params, cfg)
    z_cls, z_p = nm.take(tokens, np.s_[:, :1]), nm.take(tokens, np.s_[:, 1:])
    priorities = preliminary_attention(attention)
    result = ForwardResult(params=params, cfg=cfg, z_cls=z_cls, z_p=z_p, priorities=priorities,
                           mask=_selected(cfg, priorities, selector))
    if isinstance(z_p, nm.Node):  # a taped pass records the mask block before CAM
        _ = result.weights
    result.cam_maps, _, result.p_cam = cam_forward(z_p, params, cfg)
    return result


def rescored(result: ForwardResult, selector) -> ForwardResult:
    """`result` with its tokens selected by `selector` (as in
    `two_branch_forward`) instead: only the selection runs again, and the
    mask block when `weights` is read; the backbone tokens, priorities and
    CAM outputs are shared with `result`."""
    return replace(result, mask=_selected(result.cfg, result.priorities, selector))

