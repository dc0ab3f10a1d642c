"""Full two-branch forward pass: backbone, token refinement, CAM.

Used taped (training) and untaped (inference). Token selection is
discrete: during a taped pass it is computed from the current priority
values and treated as a constant, and callers may pin it explicitly via
`selection_override` (that is what makes finite-difference checks of the
composed loss well-posed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .backbone import ModelConfig, backbone_forward, embed, patchify
from .cam import cam_forward
from .errors import DegenerateInputError
from .token_refine import (
    TokenSelection,
    adaptive_select,
    importance_weights,
    preliminary_attention,
    reattention,
    refine_classify,
    selection_matrix,
    spatial_map,
)


@dataclass
class ForwardResult:
    tokens: object            # (N+1) x D output of the backbone
    stack: list               # per-block list of per-head attention matrices
    selection: TokenSelection
    refined_map: object       # sqrt(N) x sqrt(N) scoring-branch map
    cam_maps: object          # K x sqrt(N) x sqrt(N)
    cam_logits: object
    p_cam: object             # CAM-branch class probabilities
    p_refine: object          # scoring-branch class probabilities


def select_tokens(priorities: np.ndarray, mass: float) -> tuple:
    """Adaptive selection with the degenerate fallback: a zero-mass
    priority vector selects the argmax token alone."""
    try:
        return adaptive_select(priorities, mass)
    except DegenerateInputError:
        mask = np.zeros(priorities.shape, dtype=np.float32)
        mask[int(np.argmax(priorities))] = 1.0
        return float(priorities.max()), mask


def two_branch_forward(params, cfg: ModelConfig, image, *, selection_mass=None,
                       selector=None, reattention_on: bool = True,
                       selection_override=None) -> ForwardResult:
    """Run the whole pipeline on one image.

    `selector`, when given, maps the priority vector to (threshold, mask)
    in place of the adaptive rule; `selection_override` pins a previously
    computed (threshold, mask) pair.
    """
    patches = patchify(image, cfg.patch_size)
    z0 = embed(patches, params, cfg)
    tokens, stack = backbone_forward(z0, params, cfg)
    return branch_forward(params, cfg, tokens, stack, selection_mass=selection_mass,
                          selector=selector, reattention_on=reattention_on,
                          selection_override=selection_override)


def branch_forward(params, cfg: ModelConfig, tokens, stack, *, selection_mass=None,
                   selector=None, reattention_on: bool = True,
                   selection_override=None) -> ForwardResult:
    """Both branches on top of a backbone output (`tokens`, `stack`), with
    the keyword arguments of `two_branch_forward`. Selection rules can be
    compared on one backbone pass by calling this on a result's tokens
    and stack."""
    mass = cfg.selection_mass if selection_mass is None else float(selection_mass)
    n_plus_1, d = nm.value_of(tokens).shape
    z_cls = nm.crop(tokens, (0, 0), (1, d))
    z_p = nm.crop(tokens, (1, 0), (n_plus_1 - 1, d))

    priorities = preliminary_attention(stack)
    m_val = nm.value_of(priorities)
    if selection_override is not None:
        tau, mask = selection_override
    elif selector is not None:
        tau, mask = selector(m_val)
    else:
        tau, mask = select_tokens(m_val, mass)
    selection = TokenSelection(priorities=m_val.copy(), threshold=float(tau),
                               mask=mask, matrix=selection_matrix(mask))

    lam = importance_weights(z_p, selection, params, cfg.num_heads)
    selection.weights = lam
    refined = reattention(priorities, mask, lam) if reattention_on else priorities
    selection.refined = refined

    cam_maps, cam_logits, p_cam = cam_forward(z_p, params, cfg)
    p_refine = refine_classify(z_cls, z_p, lam, params, cfg)

    return ForwardResult(
        tokens=tokens,
        stack=stack,
        selection=selection,
        refined_map=spatial_map(refined),
        cam_maps=cam_maps,
        cam_logits=cam_logits,
        p_cam=p_cam,
        p_refine=p_refine,
    )
