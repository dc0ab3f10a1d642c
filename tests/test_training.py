"""Loss, optimiser and toy-training tests."""

import math
import tracemalloc

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc import pipeline, training
from tokenloc.backbone import ModelConfig, init_params
from tokenloc.errors import ContractError, DimensionError
from tokenloc.localization import localize
from tokenloc.pipeline import two_branch_forward
from tokenloc.training import (
    ToyTaskConfig,
    TrainConfig,
    _batch_loss,
    backward,
    cross_entropy_joint,
    default_model_config,
    make_dataset,
    sgd_step,
    train_toy,
)

from util import assert_grads_close

TOY = ToyTaskConfig(image_size=32, num_classes=2, min_object=14, max_object=24,
                    noise_level=0.6, samples_per_epoch=8, seed=7)


def test_cross_entropy_perfect_prediction():
    p = np.array([0.0, 1.0, 0.0], np.float32)
    assert float(nm.value_of(cross_entropy_joint(p, p, 1))) == pytest.approx(0.0, abs=1e-6)


def test_cross_entropy_uniform_k10():
    p = np.full(10, 0.1, np.float32)
    loss = float(nm.value_of(cross_entropy_joint(p, p, 3)))
    assert loss == pytest.approx(2.0 * math.log(10.0), abs=1e-5)


def test_cross_entropy_direct_evaluation():
    p_cam = np.array([0.5, 0.5], np.float32)
    p_ref = np.array([0.25, 0.75], np.float32)
    loss = float(nm.value_of(cross_entropy_joint(p_cam, p_ref, 0)))
    assert loss == pytest.approx(math.log(8.0), abs=1e-5)


def test_cross_entropy_invalid_label():
    p = np.full(3, 1 / 3, np.float32)
    with pytest.raises(ContractError):
        cross_entropy_joint(p, p, 3)


def test_cross_entropy_nonnegative_and_floored():
    p = np.array([1.0, 0.0], np.float32)
    loss = float(nm.value_of(cross_entropy_joint(p, p, 1)))
    assert loss == pytest.approx(-2.0 * math.log(1e-12), rel=1e-6)


def one_hot_pick_loss(p_cam, p_refine, labels):
    """Oracle for the loss's pick: each image's label probability read as
    the sum of its probabilities times a one-hot row."""
    labels = np.asarray(labels)
    one_hot = (np.arange(nm.value_of(p_cam).shape[-1]) == labels[..., None]).astype(np.float32)

    def pick_log(p):
        entry = nm.reduce_sum(nm.mul(p, one_hot), axis=-1)
        return nm.log(nm.clip_min(entry, training.PROB_FLOOR))

    return nm.scale(nm.add(pick_log(p_cam), pick_log(p_refine)), -1.0)


def _pick_cases():
    """(p_cam, p_refine, labels) of random (B, K) probabilities, a single
    K-vector with a 0-d label, and probabilities at and below the floor."""
    rng = np.random.default_rng(8)
    floor = np.float32(training.PROB_FLOOR)
    tiny = np.array([floor, np.nextafter(floor, np.float32(1)), np.nextafter(floor, np.float32(0)),
                     floor / 2, np.float32(1e-45), 0.0], np.float32)
    return {
        "batch": (*rng.dirichlet(np.ones(5), size=(2, 6)).astype(np.float32),
                  rng.integers(5, size=6)),
        "0-d label": (*rng.dirichlet(np.ones(4), size=2).astype(np.float32), np.int64(3)),
        "floor": (np.tile(tiny, (6, 1)), np.tile(tiny[::-1], (6, 1)), np.arange(6)),
    }


@pytest.mark.parametrize("case", ["batch", "0-d label", "floor"])
def test_loss_pick_matches_the_one_hot_product_bit_for_bit(case):
    p_cam, p_refine, labels = _pick_cases()[case]
    weights = np.random.default_rng(9).uniform(-1.0, 1.0, np.shape(labels)).astype(np.float32)
    out = []
    for loss_fn in (cross_entropy_joint, one_hot_pick_loss):
        tape = nm.GradTape()
        leaves = [tape.leaf(p_cam), tape.leaf(p_refine)]
        losses = loss_fn(*leaves, labels)
        tape.backward(nm.reduce_sum(nm.mul(losses, weights)))
        out.append([nm.value_of(losses).tobytes(), *(leaf.grad.tobytes() for leaf in leaves)])
    assert out[0] == out[1]


def test_backward_zero_for_unused_parameters():
    tape = nm.GradTape()
    leaves = {"a": tape.leaf(np.ones(3, np.float32)),
              "b": tape.leaf(np.ones(2, np.float32))}
    loss = nm.reduce_sum(nm.mul(leaves["a"], leaves["a"]))
    grads = backward(loss, tape, leaves)
    assert np.allclose(grads["a"], 2.0)
    assert np.array_equal(grads["b"], np.zeros(2, np.float32))


def test_backward_tape_reuse_rejected():
    tape = nm.GradTape()
    leaves = {"a": tape.leaf(np.ones(3, np.float32))}
    loss = nm.reduce_sum(leaves["a"])
    backward(loss, tape, leaves)
    with pytest.raises(ContractError):
        backward(loss, tape, leaves)


def test_loss_scaling_linearity_through_pipeline():
    cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                      num_heads=2, num_classes=3)
    params = init_params(cfg, 0)
    image = np.random.default_rng(1).random((1, 3, 8, 8)).astype(np.float32)

    def grads_scaled(factor):
        tape = nm.GradTape()
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        result = two_branch_forward(leaves, cfg, image)
        loss = nm.scale(nm.reduce_sum(cross_entropy_joint(result.p_cam, result.p_refine, [1])),
                        factor)
        return backward(loss, tape, leaves)

    ones = grads_scaled(1.0)
    twos = grads_scaled(2.0)
    for name in ones:
        assert np.allclose(twos[name], 2.0 * ones[name].astype(np.float64), atol=1e-6)


def test_sgd_fixed_point():
    params = {"w": np.array([1.0, -2.0], np.float32)}
    grads = {"w": np.zeros(2, np.float32)}
    out = sgd_step(params, grads, lr=0.5, weight_decay=0.0)
    assert np.array_equal(out["w"], params["w"])


def test_sgd_forced_zero():
    params = {"w": np.array([0.5, -0.25], np.float32)}
    out = sgd_step(params, {"w": params["w"].copy()}, lr=1.0, weight_decay=0.0)
    assert np.array_equal(out["w"], np.zeros(2, np.float32))


def test_sgd_matches_elementwise_oracle():
    rng = np.random.default_rng(2)
    params = {"w": rng.standard_normal(6).astype(np.float32)}
    grads = {"w": rng.standard_normal(6).astype(np.float32)}
    lr, wd = 0.05, 5e-4
    out = sgd_step(params, grads, lr, wd)
    expected = [float(p) - lr * (float(g) + wd * float(p))
                for p, g in zip(params["w"], grads["w"])]
    assert np.allclose(out["w"], expected, atol=1e-7)


def test_sgd_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        sgd_step({"w": np.zeros(3, np.float32)}, {"w": np.zeros(2, np.float32)}, 0.1, 0.0)


def test_dataset_is_deterministic_and_labeled():
    a = make_dataset(TOY)
    b = make_dataset(TOY)
    assert len(a) == TOY.samples_per_epoch
    for (ia, la, ba), (ib, lb, bb) in zip(a, b):
        assert np.array_equal(ia, ib) and la == lb and np.array_equal(ba, bb)
        assert 0 <= la < TOY.num_classes
        assert ia.shape == (3, 32, 32)
        assert ba.shape == (1, 4) and ba.dtype == np.int64
        (x0, y0, x1, y1), = ba.tolist()
        size = x1 - x0
        assert TOY.min_object <= size <= TOY.max_object
        assert y1 - y0 == size


def kron_dataset(toy):
    """Oracle for `make_dataset`: the clutter upscaled by one np.kron per
    channel, with the same random draws in the same order."""
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
        image = np.stack([np.kron(clutter[c], np.ones((tile, tile))) for c in range(3)])
        image = (toy.noise_level * image).astype(np.float32)
        image[:, y0:y0 + size, x0:x0 + size] = training.class_color(label, toy.num_classes)[
            :, None, None]
        samples.append((image, label, (x0, y0, x0 + size, y0 + size)))
    return samples


@pytest.mark.parametrize("toy", [TOY, ToyTaskConfig(image_size=16, num_classes=3, min_object=4,
                                                    max_object=12, samples_per_epoch=5, seed=2)])
def test_dataset_is_bit_identical_to_the_kron_oracle(toy):
    got = make_dataset(toy)
    want = kron_dataset(toy)
    assert len(got) == len(want)
    for (image, label, box), (want_image, want_label, want_box) in zip(got, want):
        assert image.dtype == np.float32 and np.array_equal(image, want_image)
        assert label == want_label and box.tolist() == [list(want_box)]


def test_training_is_deterministic():
    train = TrainConfig(learning_rate=0.1, weight_decay=5e-4, steps_phase1=4,
                        steps_phase2=3, batch_size=4, seed=5)
    cfg1, params1, curve1 = train_toy(TOY, train)
    cfg2, params2, curve2 = train_toy(TOY, train)
    assert curve1 == curve2
    for name in params1:
        assert np.array_equal(params1[name], params2[name])


def test_zero_learning_rate_flat_curve():
    toy = ToyTaskConfig(image_size=32, num_classes=2, min_object=14, max_object=24,
                        noise_level=0.6, samples_per_epoch=4, seed=7)
    train = TrainConfig(learning_rate=0.0, weight_decay=0.0, steps_phase1=5,
                        steps_phase2=0, batch_size=4, seed=5)
    _, _, curve = train_toy(toy, train)
    losses = {loss for _, _, loss in curve}
    assert len(losses) == 1


def test_phase2_freezes_backbone_and_scoring_branch():
    short = TrainConfig(learning_rate=0.1, weight_decay=5e-4, steps_phase1=6,
                        steps_phase2=0, batch_size=4, seed=5)
    longer = TrainConfig(learning_rate=0.1, weight_decay=5e-4, steps_phase1=6,
                         steps_phase2=5, batch_size=4, seed=5)
    _, after_p1, _ = train_toy(TOY, short)
    _, after_p2, _ = train_toy(TOY, longer)
    changed = []
    for name in after_p1:
        if name.startswith("cam."):
            if not np.array_equal(after_p1[name], after_p2[name]):
                changed.append(name)
        else:
            assert after_p1[name].tobytes() == after_p2[name].tobytes(), name
    assert changed  # phase 2 really trained the CAM weights


def test_phase1_loss_decreases():
    train = TrainConfig(learning_rate=0.1, weight_decay=5e-4, steps_phase1=40,
                        steps_phase2=0, batch_size=4, seed=9)
    _, _, curve = train_toy(TOY, train)
    losses = [loss for _, _, loss in curve]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_curve_structure():
    train = TrainConfig(learning_rate=0.1, weight_decay=5e-4, steps_phase1=3,
                        steps_phase2=2, batch_size=2, seed=1)
    _, _, curve = train_toy(TOY, train)
    assert [step for step, _, _ in curve] == [1, 2, 3, 4, 5]
    assert [phase for _, phase, _ in curve] == [1, 1, 1, 2, 2]
    assert all(loss >= 0.0 for _, _, loss in curve)


def test_model_config_mismatch_rejected():
    model = ModelConfig(image_size=16, patch_size=4, embed_dim=8, num_blocks=2,
                        num_heads=2, num_classes=2)
    with pytest.raises(ContractError):
        train_toy(TOY, TrainConfig(steps_phase1=1, steps_phase2=0, batch_size=1, seed=0),
                  model)


def per_image_loss(params, cfg, batch):
    """Oracle for the batched loss: the per-image loop it replaced, one
    forward per image, losses added in float32, then averaged."""
    total = None
    for image, label, _ in batch:
        result = two_branch_forward(params, cfg, image[None])
        loss = nm.reshape(cross_entropy_joint(result.p_cam, result.p_refine, [label]), ())
        total = loss if total is None else nm.add(total, loss)
    return nm.scale(total, 1.0 / len(batch))


def _phase_names(params, phase):
    """The parameters that a step of `phase` trains."""
    return [name for name in params if name.startswith("cam.") == (phase == 2)]


def _loss_and_grads(loss_fn, params, cfg, batch, names):
    tape = nm.GradTape()
    leaves = {name: tape.leaf(params[name]) for name in names}
    loss = loss_fn({**params, **leaves}, cfg, batch)
    return float(nm.value_of(loss)), backward(loss, tape, leaves)


@pytest.mark.parametrize("phase", [1, 2])
def test_batched_loss_and_gradients_match_the_per_image_loop(phase):
    toy = ToyTaskConfig(samples_per_epoch=8, seed=3)
    cfg = default_model_config(toy)
    params = init_params(cfg, 4)
    batch = make_dataset(toy)
    names = _phase_names(params, phase)
    loss, grads = _loss_and_grads(_batch_loss, params, cfg, batch, names)
    want_loss, want_grads = _loss_and_grads(per_image_loss, params, cfg, batch, names)
    assert loss == pytest.approx(want_loss, rel=1e-6)
    for name in names:
        assert_grads_close(grads[name], want_grads[name], rel=1e-4, floor=1e-7, what=name)


def test_taped_loss_reads_p_refine_where_an_eager_forward_computes_it(monkeypatch):
    # the scoring branch runs when p_refine is first read; forcing it as
    # the forward returns must record the same tape and give the same bits
    toy = ToyTaskConfig(samples_per_epoch=4, seed=3)
    cfg = default_model_config(toy)
    params = init_params(cfg, 4)
    batch = make_dataset(toy)
    lazy = {phase: _loss_and_grads(_batch_loss, params, cfg, batch,
                                   [n for n in params if n.startswith("cam.") == (phase == 2)])
            for phase in (1, 2)}
    real_forward = pipeline.two_branch_forward

    def eager_forward(*args, **kwargs):
        result = real_forward(*args, **kwargs)
        result.p_refine
        return result

    monkeypatch.setattr(training, "two_branch_forward", eager_forward)
    for phase, (loss, grads) in lazy.items():
        want_loss, want_grads = _loss_and_grads(
            _batch_loss, params, cfg, batch, list(grads))
        assert loss == want_loss
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), name


def zero_mass_checkpoint():
    """A one-head model whose class token attends only to itself on an
    all-zero image (every patch probability underflows to 0, so selection
    falls back to the argmax token) but spreads attention on a bright one."""
    cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                      num_heads=1, num_classes=2)
    params = init_params(cfg, 5)
    pattern = np.zeros(8, np.float32)
    pattern[:2] = (1.0, -1.0)
    params["embed.patch.weight"] = np.tile(pattern, (cfg.patch_dim, 1))
    params["embed.cls"] = pattern[None]
    params["embed.pos"] = np.zeros_like(params["embed.pos"])
    params["backbone.block0.attn.q.weight"] = np.zeros((8, 8), np.float32)
    params["backbone.block0.attn.q.bias"] = 10.0 * np.eye(8, dtype=np.float32)[0]
    params["backbone.block0.attn.k.weight"] = np.zeros((8, 8), np.float32)
    params["backbone.block0.attn.k.weight"][0, 0] = 100.0
    params["backbone.block0.attn.k.bias"] = np.zeros(8, np.float32)
    return cfg, params


def test_mixed_batch_with_a_zero_mass_fallback_matches_each_image_alone():
    cfg, params = zero_mass_checkpoint()
    dark = np.zeros((3, 8, 8), np.float32)
    bright = np.random.default_rng(6).uniform(0.2, 1.0, (3, 8, 8)).astype(np.float32)
    batch = [(dark, 0, None), (bright, 1, None)]
    result = two_branch_forward(params, cfg, np.stack([dark, bright]))
    assert np.all(result.priorities[0] == 0.0)
    assert np.array_equal(result.mask[0], [1, 0, 0, 0])
    assert result.priorities[1].sum() > 0.0
    for i, (image, _, _) in enumerate(batch):
        alone = two_branch_forward(params, cfg, image[None])
        for field in ("refined_map", "cam_maps", "p_cam", "p_refine", "priorities", "mask",
                      "weights"):
            assert np.array_equal(getattr(result, field)[i], getattr(alone, field)[0]), field
    names = list(params)
    loss, grads = _loss_and_grads(_batch_loss, params, cfg, batch, names)
    want_loss, want_grads = _loss_and_grads(per_image_loss, params, cfg, batch, names)
    assert loss == pytest.approx(want_loss, rel=1e-6)
    for name in names:
        assert_grads_close(grads[name], want_grads[name], rel=1e-4, floor=1e-7, what=name)


def test_a_training_step_records_no_reattention_and_keeps_its_loss_and_gradients(monkeypatch):
    toy = ToyTaskConfig(samples_per_epoch=8, seed=7)
    cfg = default_model_config(toy)
    params, batch = init_params(cfg, 9), make_dataset(toy)
    map_records, reattended = [], []
    reattention = pipeline.reattention
    monkeypatch.setattr(pipeline, "reattention",
                        lambda *args: reattended.append(1) or reattention(*args))

    def step(forward):
        monkeypatch.setattr(training, "two_branch_forward", forward)
        tape = nm.GradTape()
        leaves = {name: tape.leaf(value) for name, value in params.items()}
        loss = _batch_loss({**params, **leaves}, cfg, batch)
        return len(tape), nm.value_of(loss), backward(loss, tape, leaves)

    def eager_forward(*args, **kwargs):
        # the scoring-branch map read within the taped pass, before the loss
        result = two_branch_forward(*args, **kwargs)
        tape = result.z_p.tape
        before = len(tape)
        result.refined_map
        map_records.append(len(tape) - before)
        return result

    records, loss, grads = step(two_branch_forward)
    assert not reattended
    eager_records, eager_loss, eager_grads = step(eager_forward)
    # re-attention runs in numpy on the result's own arrays: reading the map records nothing
    assert map_records == [0] and len(reattended) == 1
    assert records == eager_records
    assert loss.tobytes() == eager_loss.tobytes()
    for name in params:
        assert grads[name].tobytes() == eager_grads[name].tobytes(), name


def test_training_step_tape_size_and_release(monkeypatch):
    sizes = []
    real_backward = training.backward

    def sizing_backward(loss, tape, leaves):
        before, nodes = len(tape), [node for node, _ in tape._records]
        grads = real_backward(loss, tape, leaves)
        dead = sum(node.grad is None for node in nodes)
        sizes.append((before, len(tape), sorted(leaves), dead))
        return grads

    monkeypatch.setattr(training, "backward", sizing_backward)
    toy = ToyTaskConfig(samples_per_epoch=8, seed=7)
    train_toy(toy, TrainConfig(steps_phase1=1, steps_phase2=1, batch_size=8, seed=9))
    (phase1, after1, names1, dead1), (phase2, after2, names2, dead2) = sizes
    # one taped forward over the batch; the priority path is not recorded, so a
    # record that no gradient reaches would raise the count
    assert phase1 == 101, phase1
    assert phase2 <= 20, phase2         # only the CAM branch is taped in phase 2
    assert after1 == after2 == 0        # a replayed tape holds no records
    assert dead1 == dead2 == 0          # every record receives a gradient
    assert not any(name.startswith("cam.") for name in names1)
    assert names2 == ["cam.conv.bias", "cam.conv.weight"]


# The tracemalloc peak of one taped phase-1 step (forward and backward) at
# the toy defaults, a batch of 8, was 12.29 MB (11.73 MiB) when the tape
# held float64 copies of matmul, attention, gelu and convolution operands
# and a copy per reshape, and 6.99 MB (6.66 MiB) once it keeps the float32
# values and the backward rules rebuild the float64 copies. The budget,
# that peak plus 15%, catches float64 operand copies coming back onto the
# tape.
TRAIN_STEP_BUDGET = 8_045_000


def test_one_phase1_step_stays_under_its_memory_budget():
    toy = ToyTaskConfig(samples_per_epoch=TrainConfig().batch_size, seed=7)
    cfg = default_model_config(toy)
    params, batch = init_params(cfg, 9), make_dataset(toy)
    tracemalloc.start()
    try:
        _loss_and_grads(_batch_loss, params, cfg, batch, _phase_names(params, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TRAIN_STEP_BUDGET, f"one phase-1 step peaked at {peak} bytes"


def test_read_only_parameters_images_and_op_outputs_give_the_same_bits(monkeypatch):
    # no op writes into its inputs or outputs, so a value may share memory
    # with the value it was made from (reshape and a sliced take return
    # views); attention's probabilities skip `_emit`, and its backward rule
    # reads them, so no caller may write into them before the backward either
    toy = ToyTaskConfig(samples_per_epoch=4, seed=7)
    cfg = default_model_config(toy)
    emit, attention = nm._emit, nm.attention

    def read_only_emit(out_value, *args):
        np.asarray(out_value).flags.writeable = False
        return emit(out_value, *args)

    def read_only_attention(*args, **kwargs):
        context, probs = attention(*args, **kwargs)
        probs.flags.writeable = False
        return context, probs

    def outputs(writeable):
        params, batch = init_params(cfg, 9), make_dataset(toy)
        images = np.stack([image for image, _, _ in batch])
        for array in [*params.values(), *(image for image, _, _ in batch), images]:
            array.flags.writeable = writeable
        out = []
        for phase in (1, 2):
            loss, grads = _loss_and_grads(_batch_loss, params, cfg, batch,
                                          _phase_names(params, phase))
            out += [np.float64(loss), *(grads[name] for name in sorted(grads))]
        result = two_branch_forward(params, cfg, images)
        out += [result.refined_map, nm.value_of(result.p_refine)]
        return [array.tobytes() for array in out]

    want = outputs(True)
    monkeypatch.setattr(nm, "_emit", read_only_emit)
    monkeypatch.setattr(nm, "attention", read_only_attention)
    assert outputs(False) == want


def test_every_public_kernel_op_is_called_by_training_or_localize(monkeypatch):
    # a kernel op that neither a taped phase-1 step, a phase-2 step nor an
    # untaped localize calls is dead code, and so is the backward rule of
    # an op that no training step records: every op but the untaped
    # bilinear_resize must return a Node recorded on a step's tape
    public = {name: op for name, op in vars(nm).items()
              if callable(op) and getattr(op, "__module__", None) == nm.__name__
              and not name.startswith("_") and not isinstance(op, type)}
    called, recorded = set(), set()

    def counting(name, op):
        def wrapper(*args, **kwargs):
            called.add(name)
            out = op(*args, **kwargs)
            first = out[0] if isinstance(out, tuple) else out
            if isinstance(first, nm.Node) and first.tape._records[-1][0] is first:
                recorded.add(name)
            return out
        return wrapper

    for name, op in public.items():
        monkeypatch.setattr(nm, name, counting(name, op))
    toy = ToyTaskConfig(samples_per_epoch=2, seed=7)
    cfg, params, _ = train_toy(toy, TrainConfig(steps_phase1=1, steps_phase2=1, batch_size=2,
                                                seed=9))
    assert sorted(set(public) - recorded) == ["as_f32", "bilinear_resize", "value_of"]
    localize(params, cfg, make_dataset(toy)[0][0], theta=0.5)
    assert sorted(set(public) - called) == []
