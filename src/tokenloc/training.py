"""Joint cross-entropy training on a synthetic localization task.

Phase 1 trains the backbone and scoring branch; phase 2 freezes them and
trains only the CAM convolution. The loss is the mean over the batch of
both branches' summed cross entropies in both phases, computed by one
taped forward over the stacked batch; the phase selects which
parameters are tape leaves and receive updates. Everything is a pure
function of the two configs, so repeated runs are byte-identical.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .backbone import ModelConfig, init_params
from .errors import ContractError, DimensionError
from .pipeline import two_branch_forward

PROB_FLOOR = 1e-12
MAX_TOY_DATASET_BYTES = 64 << 20  # float32 images; 85x the 64 32x32 ones of the defaults


def _check_seed(seed: int) -> None:
    """numpy seeds only from nonnegative integers."""
    if seed < 0:
        raise ContractError(f"field 'seed' must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class ToyTaskConfig:
    """One solid coloured square per image on a cluttered background; the
    label is the square's colour class and the box its extent.

    The background is low-frequency colour clutter (a coarse random grid
    upscaled to image resolution) times noise_level. Low-frequency
    clutter keeps individual background patches distinct, which is what
    lets the class-token attention single out the object instead of
    locking onto one shared background direction.
    """

    image_size: int = 32
    num_classes: int = 2
    min_object: int = 14
    max_object: int = 24
    noise_level: float = 0.6
    samples_per_epoch: int = 64
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.num_classes < 2:
            raise ContractError("toy task needs at least 2 classes")
        if not 1 <= self.min_object <= self.max_object <= self.image_size:
            raise ContractError("object size range must fit inside the image")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ContractError("noise level must be in [0, 1]")
        if self.samples_per_epoch < 1:
            raise ContractError("samples_per_epoch must be positive")
        if self.image_size % 4 != 0:
            raise ContractError("image_size must be divisible by 4")
        # checked before make_dataset allocates the images
        side = math.isqrt(MAX_TOY_DATASET_BYTES // (4 * 3 * self.samples_per_epoch))
        if self.image_size > side:
            raise ContractError(f"field 'image_size' must be at most {side} with samples_per_epoch "
                                f"{self.samples_per_epoch} (a toy dataset holds at most "
                                f"{MAX_TOY_DATASET_BYTES} bytes of float32), got {self.image_size}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    weight_decay: float = 5e-4
    steps_phase1: int = 200
    steps_phase2: int = 100
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        for name in ("learning_rate", "weight_decay"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate >= 0):
                raise ContractError(f"field {name!r} must be a finite nonnegative number, "
                                    f"got {rate!r}")
        if self.steps_phase1 < 0 or self.steps_phase2 < 0 or self.batch_size < 1:
            raise ContractError("step and batch counts must be positive")


def class_color(k: int, num_classes: int) -> np.ndarray:
    """Evenly spaced hues, fully saturated."""
    return np.asarray(colorsys.hsv_to_rgb(k / num_classes, 1.0, 1.0), dtype=np.float32)


def make_dataset(toy: ToyTaskConfig) -> list:
    """Deterministic list of (image 3xHxW, label, (1, 4) int64 box) samples."""
    rng = np.random.Generator(np.random.PCG64(toy.seed))
    side = toy.image_size
    tile = side // 4
    samples = []
    for _ in range(toy.samples_per_epoch):
        label = int(rng.integers(toy.num_classes))
        size = int(rng.integers(toy.min_object, toy.max_object + 1))
        x0 = int(rng.integers(side - size + 1))
        y0 = int(rng.integers(side - size + 1))
        clutter = rng.random((3, 4, 4))
        image = (toy.noise_level * clutter.repeat(tile, 1).repeat(tile, 2)).astype(np.float32)
        image[:, y0:y0 + size, x0:x0 + size] = class_color(label, toy.num_classes)[:, None, None]
        samples.append((image, label, np.array([[x0, y0, x0 + size, y0 + size]], np.int64)))
    return samples


def cross_entropy_joint(p_cam, p_refine, labels):
    """-(log p_cam[y] + log p_refine[y]) per image, probabilities floored
    at 1e-12.

    p_cam and p_refine are (..., K); labels holds one class id per
    leading index (a plain int for a single K-vector). Returns the
    per-image losses with the leading shape.
    """
    shape = nm.value_of(p_cam).shape
    k = shape[-1]
    if nm.value_of(p_refine).shape != shape:
        raise DimensionError("branch probability vectors disagree in shape")
    labels = np.asarray(labels)
    if labels.shape != shape[:-1]:
        raise DimensionError(f"{labels.size} labels for probabilities of shape {shape}")
    if np.any((labels < 0) | (labels >= k)):
        raise ContractError(f"class id out of range for {k} classes: {labels.tolist()}")
    index = (*np.indices(labels.shape, sparse=True), labels)

    def pick_log(p):
        return nm.log(nm.clip_min(nm.take(p, index), PROB_FLOOR))

    return nm.scale(nm.add(pick_log(p_cam), pick_log(p_refine)), -1.0)


def backward(loss, tape: nm.GradTape, leaves: dict) -> dict:
    """Replay the tape and collect one float32 gradient per leaf;
    parameters the loss never touched get exact zeros."""
    tape.backward(loss)
    grads = {}
    for name, leaf in leaves.items():
        if leaf.grad is None:
            grads[name] = np.zeros(leaf.value.shape, dtype=np.float32)
        else:
            grads[name] = leaf.grad.astype(np.float32)
    return grads


def sgd_step(params: dict, grads: dict, lr: float, weight_decay: float) -> dict:
    """p <- p - lr * (g + weight_decay * p), returning fresh arrays."""
    updated = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter shape {p.shape} ({name})")
        p64 = p.astype(np.float64)
        updated[name] = (p64 - lr * (g.astype(np.float64) + weight_decay * p64)).astype(np.float32)
    return updated


def _batch_loss(params, cfg, batch):
    """Mean joint cross entropy of one taped forward over the stacked batch."""
    images = np.stack([image for image, _, _ in batch])
    result = two_branch_forward(params, cfg, images)
    losses = cross_entropy_joint(result.p_cam, result.p_refine, [label for _, label, _ in batch])
    return nm.scale(nm.reduce_sum(losses), 1.0 / len(batch))


def _is_cam_param(name: str) -> bool:
    return name.startswith("cam.")


# a run that overflows is reported by the finiteness checks on its losses
# and final parameters instead of by numpy's warnings
@np.errstate(all="ignore")
def train_toy(toy: ToyTaskConfig, train: TrainConfig, model: ModelConfig | None = None):
    """Two-phase training loop on the synthetic task.

    Returns (model config, trained parameters, loss curve) with curve
    rows (step, phase, loss). Batches cycle through the fixed dataset in
    order, so the whole run is reproducible from the two configs. A
    model over its memory budgets is rejected before anything is
    allocated, and a run that diverges (a non-finite loss, or a
    non-finite parameter after the last step) raises ContractError.
    """
    if model is None:
        model = default_model_config(toy)
    check_model_fits(toy, model)
    if train.batch_size > toy.samples_per_epoch:
        raise ContractError(f"field 'batch_size' must be at most the toy task's samples_per_epoch "
                            f"({toy.samples_per_epoch}), got {train.batch_size}")
    model.check_memory()
    dataset = make_dataset(toy)
    params = init_params(model, train.seed)
    curve = []
    cursor = 0

    def next_batch():
        nonlocal cursor
        batch = [dataset[(cursor + i) % len(dataset)] for i in range(train.batch_size)]
        cursor = (cursor + train.batch_size) % len(dataset)
        return batch

    step = 0
    for phase, steps in ((1, train.steps_phase1), (2, train.steps_phase2)):
        for _ in range(steps):
            step += 1
            # only this phase's parameters are tape leaves; frozen ones go in
            # as plain arrays, so the frozen part of the network runs untaped
            tape = nm.GradTape()
            leaves = {name: tape.leaf(value) for name, value in params.items()
                      if _is_cam_param(name) == (phase == 2)}
            loss = _batch_loss({**params, **leaves}, model, next_batch())
            loss_value = float(nm.value_of(loss))
            if not math.isfinite(loss_value):
                raise ContractError(f"training diverged: the loss is {loss_value} at step {step} "
                                    f"with learning_rate {train.learning_rate!r}")
            grads = backward(loss, tape, leaves)
            stepped = sgd_step({name: params[name] for name in leaves}, grads,
                               train.learning_rate, train.weight_decay)
            params = {name: stepped.get(name, value) for name, value in params.items()}
            curve.append((step, phase, loss_value))
    bad = sum(int(np.count_nonzero(~np.isfinite(p))) for p in params.values())
    if bad:
        raise ContractError(f"training diverged: {bad} parameters are not finite after step "
                            f"{step} with learning_rate {train.learning_rate!r}")
    return model, params, curve


def check_model_fits(toy: ToyTaskConfig, model: ModelConfig) -> None:
    """The model must take the toy task's images and classes."""
    for name in ("image_size", "num_classes"):
        if getattr(model, name) != getattr(toy, name):
            raise ContractError(f"field {name!r} must be the toy task's {name} "
                                f"{getattr(toy, name)}, got {getattr(model, name)!r}")


def default_model_config(toy: ToyTaskConfig) -> ModelConfig:
    """Desk-scale defaults sized to the toy task."""
    return ModelConfig(
        image_size=toy.image_size,
        patch_size=4,   # ToyTaskConfig takes only image sizes divisible by 4
        embed_dim=32,
        num_blocks=2,
        num_heads=4,
        num_classes=toy.num_classes,
        mlp_ratio=2,
        selection_mass=0.65,
    )
