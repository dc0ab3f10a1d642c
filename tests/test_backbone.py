"""Patch embedding and transformer backbone tests."""

import math

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc.backbone import (
    ModelConfig,
    backbone_forward,
    block_forward,
    embed,
    init_params,
    mhsa,
    parameter_shapes,
    patchify,
)
from tokenloc.errors import DimensionError

from util import unpatchify

TINY = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                   num_heads=2, num_classes=3)


def test_config_validation():
    with pytest.raises(DimensionError):
        ModelConfig(image_size=10, patch_size=4, embed_dim=8, num_blocks=2,
                    num_heads=2, num_classes=2)
    with pytest.raises(DimensionError):
        ModelConfig(image_size=8, patch_size=4, embed_dim=9, num_blocks=2,
                    num_heads=2, num_classes=2)
    with pytest.raises(DimensionError):
        ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=1,
                    num_heads=2, num_classes=2)
    with pytest.raises(DimensionError):
        ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                    num_heads=2, num_classes=2, selection_mass=0.0)


def test_patchify_counts():
    image = np.zeros((3, 8, 8), np.float32)
    patches = patchify(image, 4)
    assert patches.shape == (4, 48)


def test_patchify_constant_image():
    patches = patchify(np.full((3, 8, 8), 0.5, np.float32), 4)
    assert np.all(patches == patches[0])


def test_patchify_roundtrip():
    rng = np.random.default_rng(0)
    image = rng.random((3, 8, 8)).astype(np.float32)
    assert np.array_equal(unpatchify(patchify(image, 4), 4, 8, 8), image)


def test_patchify_layout_channel_major():
    image = np.zeros((3, 4, 4), np.float32)
    image[1, 0, 1] = 7.0  # channel 1, first row, second column of patch 0
    row = patchify(image, 2)[0]
    assert row[2 * 2 + 0 * 2 + 1] == 7.0  # channel block 1, row 0, col 1


def test_patchify_indivisible_rejected():
    with pytest.raises(DimensionError):
        patchify(np.zeros((3, 9, 9), np.float32), 4)


def test_embed_zero_cases():
    params = init_params(TINY, 0)
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    n, d = TINY.num_tokens, TINY.embed_dim

    cls = np.arange(d, dtype=np.float32).reshape(1, d)
    with_cls = dict(zeros, **{"embed.cls": cls})
    z0 = embed(np.zeros((2, n, TINY.patch_dim), np.float32), with_cls, TINY)
    assert z0.shape == (2, n + 1, d)
    assert np.array_equal(z0[:, 0], np.vstack([cls, cls]))
    assert np.array_equal(z0[:, 1:], np.zeros((2, n, d), np.float32))

    pos = np.random.default_rng(1).standard_normal((n + 1, d)).astype(np.float32)
    with_pos = dict(zeros, **{"embed.pos": pos})
    z0 = embed(np.ones((1, n, TINY.patch_dim), np.float32), with_pos, TINY)
    assert np.array_equal(z0[0], pos)


def test_embed_matches_composition_oracle():
    rng = np.random.default_rng(2)
    params = init_params(TINY, 3)
    patches = rng.standard_normal((TINY.num_tokens, TINY.patch_dim)).astype(np.float32)
    z0 = embed(patches[None], params, TINY)[0]
    proj = patches.astype(np.float64) @ params["embed.patch.weight"].astype(np.float64)
    expected = np.vstack([params["embed.cls"].astype(np.float64), proj])
    expected += params["embed.pos"].astype(np.float64)
    assert np.allclose(z0, expected, atol=1e-6)


def test_mhsa_rows_sum_to_one():
    rng = np.random.default_rng(3)
    params = init_params(TINY, 4)
    z = rng.standard_normal((3, 5, 8)).astype(np.float32)
    _, attn = mhsa(z, params, "backbone.block0", TINY.num_heads)
    assert attn.shape == (3, TINY.num_heads, 5, 5)
    assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-5)


def test_mhsa_equal_keys_give_uniform_attention():
    rng = np.random.default_rng(4)
    params = init_params(TINY, 5)
    params = dict(params)
    params["backbone.block0.attn.k.weight"] = np.zeros((8, 8), np.float32)
    z = rng.standard_normal((2, 5, 8)).astype(np.float32)
    _, attn = mhsa(z, params, "backbone.block0", TINY.num_heads)
    assert np.allclose(attn, 1.0 / 5.0, atol=1e-6)


def test_mhsa_single_head_matches_step_oracle():
    rng = np.random.default_rng(5)
    d, n = 4, 3
    names = ("q", "k", "v", "out")
    params = {}
    for name in names:
        params[f"blk.attn.{name}.weight"] = rng.standard_normal((d, d)).astype(np.float32)
        params[f"blk.attn.{name}.bias"] = rng.standard_normal(d).astype(np.float32)
    z = rng.standard_normal((n, d)).astype(np.float32)

    out, attn = mhsa(z[None], params, "blk", 1)

    z64 = z.astype(np.float64)
    q = z64 @ params["blk.attn.q.weight"] + params["blk.attn.q.bias"]
    k = z64 @ params["blk.attn.k.weight"] + params["blk.attn.k.bias"]
    v = z64 @ params["blk.attn.v.weight"] + params["blk.attn.v.bias"]
    scores = q @ k.T / math.sqrt(d)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    expected = a @ v @ params["blk.attn.out.weight"] + params["blk.attn.out.bias"]

    assert np.allclose(attn[0, 0], a, atol=1e-5)
    assert np.allclose(out, expected, atol=1e-5)


def _zero_block(params, prefix):
    out = dict(params)
    for name in list(out):
        if name.startswith(prefix) and (".attn." in name or ".mlp." in name):
            out[name] = np.zeros_like(out[name])
    return out


def test_block_zero_weights_is_identity():
    rng = np.random.default_rng(6)
    params = _zero_block(init_params(TINY, 7), "backbone.block0")
    z = rng.standard_normal((2, 5, 8)).astype(np.float32)
    out, _ = block_forward(z, params, "backbone.block0", TINY.num_heads)
    assert np.array_equal(out, z)


def test_block_preserves_shape():
    rng = np.random.default_rng(7)
    params = init_params(TINY, 8)
    z = rng.standard_normal((3, 5, 8)).astype(np.float32)
    out, attn = block_forward(z, params, "backbone.block0", TINY.num_heads)
    assert out.shape == z.shape
    assert attn.shape == (3, TINY.num_heads, 5, 5)


def test_block_matches_composition_oracle():
    rng = np.random.default_rng(8)
    params = init_params(TINY, 9)
    z = rng.standard_normal((5, 8)).astype(np.float32)
    out, _ = block_forward(z[None], params, "backbone.block0", TINY.num_heads)

    attn_in = nm.layer_norm(z, params["backbone.block0.ln1.gamma"],
                            params["backbone.block0.ln1.beta"])
    attn_out, _ = mhsa(attn_in[None], params, "backbone.block0", TINY.num_heads)
    mid = nm.add(z, attn_out)
    hidden = nm.gelu(nm.add(nm.matmul(
        nm.layer_norm(mid, params["backbone.block0.ln2.gamma"],
                      params["backbone.block0.ln2.beta"]),
        params["backbone.block0.mlp.fc1.weight"]), params["backbone.block0.mlp.fc1.bias"]))
    expected = nm.add(mid, nm.add(nm.matmul(hidden, params["backbone.block0.mlp.fc2.weight"]),
                                  params["backbone.block0.mlp.fc2.bias"]))
    assert np.allclose(out[0], expected, atol=1e-5)


def test_backbone_stack_length_and_shapes():
    for blocks in (2, 3, 4):
        cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=blocks,
                          num_heads=2, num_classes=3)
        params = init_params(cfg, 10)
        rng = np.random.default_rng(blocks)
        z0 = rng.standard_normal((2, cfg.num_tokens + 1, 8)).astype(np.float32)
        out, stack = backbone_forward(z0, params, cfg)
        assert out.shape == (2, cfg.num_tokens + 1, 8)
        assert len(stack) == blocks - 1
        # each block keeps its class-token row alone
        assert all(probs.shape == (2, 2, 1, cfg.num_tokens + 1) for probs in stack)


def test_backbone_deterministic():
    cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=3,
                      num_heads=2, num_classes=3)
    params = init_params(cfg, 11)
    z0 = np.random.default_rng(12).standard_normal((1, 5, 8)).astype(np.float32)
    out1, stack1 = backbone_forward(z0, params, cfg)
    out2, stack2 = backbone_forward(z0, params, cfg)
    assert np.array_equal(out1, out2)
    for a1, a2 in zip(stack1, stack2):
        assert np.array_equal(a1, a2)


def test_backbone_equals_manual_block_chain():
    cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=3,
                      num_heads=2, num_classes=3)
    params = init_params(cfg, 13)
    z0 = np.random.default_rng(14).standard_normal((1, 5, 8)).astype(np.float32)
    out, stack = backbone_forward(z0, params, cfg)
    z1, a1 = block_forward(z0, params, "backbone.block0", 2)
    z2, a2 = block_forward(z1, params, "backbone.block1", 2)
    assert np.array_equal(out, z2)
    assert len(stack) == 2
    assert np.array_equal(stack[0], a1[:, :, :1]) and np.array_equal(stack[1], a2[:, :, :1])


def test_patchify_stack_equals_single_images():
    rng = np.random.default_rng(22)
    images = rng.random((3, 3, 8, 8)).astype(np.float32)
    patches = patchify(images, 4)
    assert patches.shape == (3, 4, 48)
    for image, rows in zip(images, patches):
        assert np.array_equal(rows, patchify(image, 4))


def test_init_params_covers_every_shape_and_is_seeded():
    shapes = parameter_shapes(TINY)
    params = init_params(TINY, 21)
    assert set(params) == set(shapes)
    for name, shape in shapes.items():
        assert params[name].shape == shape
        assert params[name].dtype == np.float32
    again = init_params(TINY, 21)
    for name in params:
        assert np.array_equal(params[name], again[name])
    assert np.all(params["embed.cls"] == 0)
    assert np.all(params["backbone.block0.ln1.gamma"] == 1)
    assert np.all(np.abs(params["embed.patch.weight"]) <= 2 * 0.02 + 1e-7)


@pytest.mark.parametrize("fields", [
    {}, {"patch_size": 1}, {"num_blocks": 5, "mlp_ratio": 3, "num_classes": 7},
    {"image_size": 24, "patch_size": 2, "embed_dim": 12, "num_heads": 3},
])
def test_parameter_count_equals_the_shape_table(fields):
    cfg = ModelConfig(**{"image_size": 32, "patch_size": 4, "embed_dim": 32, "num_blocks": 2,
                         "num_heads": 4, "num_classes": 2, "mlp_ratio": 2, **fields})
    assert cfg.num_parameters == sum(math.prod(s) for s in parameter_shapes(cfg).values())


def test_memory_budgets_take_the_toy_defaults_and_patch_size_1_at_32_px():
    for patch in (4, 1):
        ModelConfig(image_size=32, patch_size=patch, embed_dim=32, num_blocks=2, num_heads=4,
                    num_classes=2, mlp_ratio=2).check_memory()
