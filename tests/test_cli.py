"""Command-line surface tests: exit codes, file outputs, cross-command consistency."""

import contextlib
import csv
import json
import os
import platform
import struct
import subprocess
import sys
import threading
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tokenloc import ablation, cli, formats, pipeline, training
from tokenloc import numerics as nm
from tokenloc import localization as loc
from tokenloc.backbone import ModelConfig, init_params
from tokenloc.cli import main
from tokenloc.errors import TruncationError
from tokenloc.formats import (
    parse_manifest,
    read_checkpoint,
    read_tensor,
    tensor_to_bytes,
    write_checkpoint,
    write_tensor,
)
from tokenloc.localization import DEFAULT_GRID, localize, threshold_grid
from tokenloc.pipeline import FORWARD_CHUNK
from tokenloc.training import ToyTaskConfig, default_model_config, make_dataset

from test_localization import brightness_checkpoint, hit_fraction_oracle, planted_image
from test_metrics import Record, _loc_acc_oracle
from test_pipeline import ACCEPTANCE_CKPT
from util import gt_heats, iou


@pytest.fixture()
def workspace(tmp_path):
    cfg, params = brightness_checkpoint()
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(ckpt, cfg, params)
    image = planted_image(12, 8, 8)
    image_path = tmp_path / "img.trt"
    write_tensor(image_path, image)
    return tmp_path, cfg, params, ckpt, image_path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_infer_writes_probability_vectors(workspace):
    tmp, cfg, params, ckpt, image = workspace
    out_pc, out_pt = tmp / "pc.trt", tmp / "pt.trt"
    code = main(["infer", "--ckpt", str(ckpt), "--input", str(image),
                 "--out-logits", str(out_pc), "--out-pt", str(out_pt)])
    assert code == 0
    pc, pt = read_tensor(out_pc), read_tensor(out_pt)
    assert pc.shape == pt.shape == (2,)
    assert abs(pc.sum() - 1.0) < 1e-6 and abs(pt.sum() - 1.0) < 1e-6


def test_refine_branch_runs_only_for_commands_that_read_p_refine(workspace, monkeypatch):
    tmp, cfg, params, ckpt, image = workspace
    manifest = _write_manifest(tmp, cfg, params, count=FORWARD_CHUNK + 1)
    calls = []
    real_refine = pipeline.refine_classify

    def counting_refine(*args):
        calls.append(args)
        return real_refine(*args)

    monkeypatch.setattr(pipeline, "refine_classify", counting_refine)
    commands = [
        ["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--theta", "0.45",
         "--out-report", str(tmp / "r.csv")],
        ["calibrate", "--ckpt", str(ckpt), "--manifest", str(manifest),
         "--out-table", str(tmp / "t.csv")],
        ["ablate-selection", "--ckpt", str(ckpt), "--manifest", str(manifest),
         "--strategies", "adaptive:0.5,topk:4", "--out-table", str(tmp / "a.csv")],
        ["localize", "--ckpt", str(ckpt), "--input", str(image), "--theta", "0.45",
         "--out-box", str(tmp / "box.txt")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv[0]
    assert calls == []
    out_pt = tmp / "pt.trt"
    assert main(["infer", "--ckpt", str(ckpt), "--input", str(image),
                 "--out-logits", str(tmp / "pc.trt"), "--out-pt", str(out_pt)]) == 0
    assert len(calls) == 1
    result = pipeline.two_branch_forward(params, cfg, read_tensor(image)[None])
    eager = real_refine(result.z_cls, result.z_p, result.weights, params, cfg)
    assert np.array_equal(read_tensor(out_pt), eager[0])


def test_ablation_runs_one_backbone_priority_and_cam_pass_per_stack(workspace, monkeypatch):
    # three strategies in both modes share each stack's pass: only the
    # selection and the mask block run again for the later ones
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params, count=FORWARD_CHUNK + 1)
    calls = Counter()

    def counting(name):
        real = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, wrapper)

    for name in ("backbone_forward", "preliminary_attention", "cam_forward",
                 "importance_weights"):
        counting(name)
    assert main(["ablate-selection", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--strategies", "adaptive,topk:4,fixed:mean", "--reattention", "both",
                 "--out-table", str(tmp / "a.csv")]) == 0
    stacks = 2   # FORWARD_CHUNK images, then one
    assert calls == {"backbone_forward": stacks, "preliminary_attention": stacks,
                     "cam_forward": stacks, "importance_weights": 3 * stacks}
    assert len(_read_csv(tmp / "a.csv")) == 1 + 3 * 2


def test_localize_writes_box_and_map(workspace):
    tmp, cfg, params, ckpt, image = workspace
    out_box, out_map = tmp / "box.txt", tmp / "map.trt"
    code = main(["localize", "--ckpt", str(ckpt), "--input", str(image),
                 "--class", "0", "--theta", "0.45",
                 "--out-box", str(out_box), "--out-map", str(out_map)])
    assert code == 0
    x0, y0, x1, y1 = (int(v) for v in out_box.read_text().split())
    assert (x0, y0, x1, y1) == (12, 8, 20, 16)
    assert read_tensor(out_map).shape == (32, 32)


def test_localize_theta_zero_full_image_box(workspace):
    tmp, cfg, params, ckpt, image = workspace
    out_box = tmp / "box.txt"
    code = main(["localize", "--ckpt", str(ckpt), "--input", str(image),
                 "--class", "auto", "--theta", "0.0", "--out-box", str(out_box)])
    assert code == 0
    assert out_box.read_text().split() == ["0", "0", "32", "32"]


def _write_manifest(tmp, cfg, params, count=5, theta=0.45):
    """Manifest whose ground truth equals the model's own predictions, so
    every metric is exactly 1 at the matching threshold."""
    rng = np.random.default_rng(3)
    lines = []
    for i in range(count):
        size = int(rng.choice([8, 12]))
        x0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        y0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        image = planted_image(x0, y0, size)
        write_tensor(tmp / f"img{i}.trt", image)
        _, predicted, _, _ = localize(params, cfg, image, 0, theta=theta)
        lines.append(f"id:img{i} image:img{i}.trt label:0 "
                     f"boxes:{','.join(map(str, predicted.tolist()))}")
    manifest = tmp / "data.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_eval_perfect_fixture(workspace):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params)
    report = tmp / "report.csv"
    code = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--theta", "0.45", "--metrics", "gt-known,maxboxaccv2",
                 "--out-report", str(report)])
    assert code == 0
    rows = dict((metric, value) for metric, value in _read_csv(report)[1:])
    assert float(rows["gt-known"]) == 1.0
    assert float(rows["maxboxaccv2"]) == 1.0
    assert float(rows["theta"]) == 0.45


def test_eval_top1_top5(workspace):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params)
    report = tmp / "report.csv"
    code = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--theta", "0.45", "--metrics", "gt-known,top1,top5",
                 "--out-report", str(report)])
    assert code == 0
    rows = dict(_read_csv(report)[1:])
    assert float(rows["top5"]) == 1.0  # two classes, always within top 5
    assert 0.0 <= float(rows["top1"]) <= float(rows["top5"])


def test_eval_grid_labels_each_pair_once_with_one_forward_per_image(workspace, monkeypatch):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params, count=FORWARD_CHUNK + 2)
    lines = manifest.read_text().splitlines()
    lines[1::2] = [line.replace("label:0", "label:1") for line in lines[1::2]]
    manifest.write_text("\n".join(lines) + "\n")
    samples = parse_manifest(manifest, cfg)
    thetas = threshold_grid(*DEFAULT_GRID)

    forwards, boxed = [], []
    real_forward, real_boxes = pipeline.two_branch_forward, loc.heat_boxes

    def counting_forward(params, cfg, images, **kwargs):
        forwards.append(images)
        return real_forward(params, cfg, images, **kwargs)

    def recording_boxes(heats, thetas, width, height):
        boxed.append((np.array(heats, np.float32), list(thetas)))
        return real_boxes(heats, thetas, width, height)

    monkeypatch.setattr(pipeline, "two_branch_forward", counting_forward)
    monkeypatch.setattr(cli, "two_branch_forward", counting_forward)
    monkeypatch.setattr(loc, "heat_boxes", recording_boxes)
    report = tmp / "report.csv"
    assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--theta", "grid",
                 "--out-report", str(report)]) == 0
    monkeypatch.undo()

    # every image forwarded once, in manifest order, in stacks of at most FORWARD_CHUNK
    images = len(samples)
    stacks = [min(FORWARD_CHUNK, images - start) for start in range(0, images, FORWARD_CHUNK)]
    assert stacks[-1] < FORWARD_CHUNK  # a short final stack
    assert [len(stack) for stack in forwards] == stacks
    assert np.array_equal(np.concatenate(forwards), np.stack([image for image, _, _ in samples]))
    # one labelling call per stack of GT-class heats over the whole grid, then
    # one call for every predicted-class heat that differs from it, at theta_star
    mispredicted = [i for i, (image, label, _) in enumerate(samples)
                    if localize(params, cfg, image, "predicted", theta=0.5)[2] != label]
    assert 0 < len(mispredicted) < images
    assert [len(heats) for heats, _ in boxed] == stacks + [len(mispredicted)]
    assert [len(call_thetas) for _, call_thetas in boxed] == [len(thetas)] * len(stacks) + [1]
    # `heat_boxes` labels internally, so each of its calls is one labelling
    for heats, call_thetas in boxed:
        assert heats.shape[1:] == (32, 32)
        assert len(heats) * len(call_thetas) <= FORWARD_CHUNK * len(thetas)

    rows = dict(_read_csv(report)[1:])
    heats = gt_heats(params, cfg, samples)
    table = [(theta, hit_fraction_oracle(heats, samples, theta, 0.5, 32, 32))
             for theta in thetas]
    theta_star = min(theta for theta, acc in table if acc == max(acc for _, acc in table))
    per_level = [max(hit_fraction_oracle(heats, samples, theta, level, 32, 32)
                     for theta in thetas) for level in loc.MAX_BOX_ACC_LEVELS]
    assert rows["theta"] == repr(theta_star)
    assert rows["gt-known"] == repr(dict(table)[theta_star])
    assert rows["maxboxaccv2"] == repr(sum(per_level) / len(per_level))
    # every (image, theta) pair boxed once: each GT-class heat over the grid,
    # and each differing predicted-class heat at theta_star
    expected = Counter((heat.tobytes(), theta) for heat in heats for theta in thetas)
    expected.update((localize(params, cfg, samples[i][0], "predicted", theta=theta_star)[0]
                     .tobytes(), theta_star) for i in mispredicted)
    assert Counter((heat.tobytes(), theta) for stack, call_thetas in boxed
                   for heat in stack for theta in call_thetas) == expected
    top1 = 0
    for image, label, gt_boxes in samples:
        _, box, class_id, _ = localize(params, cfg, image, "predicted", theta=theta_star)
        top1 += class_id == label and max(iou(box, gt) for gt in gt_boxes) > 0.5
    assert rows["top1"] == repr(top1 / images)
    # both classes share one CAM kernel, so every class's box is the GT box,
    # and with two classes every label is in the top 5
    assert rows["top5"] == rows["gt-known"]


def test_each_grid_command_runs_the_engine_once_per_setting(workspace, monkeypatch):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params, count=FORWARD_CHUNK + 2)
    lines = manifest.read_text().splitlines()
    lines[1::2] = [line.replace("label:0", "label:1") for line in lines[1::2]]
    manifest.write_text("\n".join(lines) + "\n")
    calls = Counter()

    def count(name, *modules):
        real = getattr(loc, name)

        def counting(*args):
            calls[name] += 1
            return real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counting)

    count("evaluate_heats", loc, ablation)
    count("_gt_array", loc)
    count("_box_ious", loc)
    common = ["--ckpt", str(ckpt), "--manifest", str(manifest)]
    for argv, engine_runs, ious_runs in [
        (["eval", *common, "--theta", "grid", "--out-report", str(tmp / "r.csv")], 1, 2),
        (["eval", *common, "--theta", "0.45", "--out-report", str(tmp / "r.csv")], 1, 2),
        (["eval", *common, "--theta", "grid", "--metrics", "gt-known,maxboxaccv2",
          "--out-report", str(tmp / "r.csv")], 1, 1),
        (["calibrate", *common, "--out-table", str(tmp / "t.csv")], 1, 1),
        (["ablate-selection", *common, "--strategies", "adaptive,topk:4",
          "--out-table", str(tmp / "a.csv")], 3, 3),
    ]:
        calls.clear()
        assert main(argv) == 0, argv
        # one ground-truth array and one GT-class IoU table per setting (the
        # ablation's re-attention off is one setting for every strategy); all
        # four metrics of eval add one IoU call for the predicted-class boxes
        assert calls == {"evaluate_heats": engine_runs, "_gt_array": engine_runs,
                         "_box_ious": ious_runs}, argv


def test_chunked_evaluation_csvs_equal_the_stack_of_one_path(tmp_path, monkeypatch):
    # two full stacks and a tail of one
    heldout = make_dataset(ToyTaskConfig(samples_per_epoch=2 * FORWARD_CHUNK + 1, seed=99))
    lines = []
    for i, (image, label, boxes) in enumerate(heldout):
        write_tensor(tmp_path / f"img{i}.trt", image)
        lines.append(f"id:img{i} image:img{i}.trt label:{label} "
                     f"boxes:{','.join(map(str, boxes[0].tolist()))}")
    manifest = tmp_path / "heldout.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    ckpt = ["--ckpt", str(ACCEPTANCE_CKPT), "--manifest", str(manifest)]

    def outputs(tag):
        runs = [["eval", *ckpt, "--theta", "grid", "--out-report", str(tmp_path / f"{tag}.eval")],
                ["calibrate", *ckpt, "--out-table", str(tmp_path / f"{tag}.cal")],
                ["ablate-selection", *ckpt, "--strategies", "adaptive,fixed:mean,topk:8",
                 "--out-table", str(tmp_path / f"{tag}.abl")]]
        for argv in runs:
            assert main(argv) == 0, argv[0]
        return [(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("eval", "cal", "abl")]

    chunked = outputs("chunked")
    monkeypatch.setattr(pipeline, "FORWARD_CHUNK", 1)
    assert outputs("single") == chunked
    assert len(chunked[2].splitlines()) == 1 + 3 * 2  # header, 3 strategies x re-attention on/off


def test_calibrate_singleton_matches_eval(workspace):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params)
    table_path, report = tmp / "table.csv", tmp / "report.csv"
    assert main(["calibrate", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--grid", "grid:0.45:0.45:0.1", "--out-table", str(table_path)]) == 0
    assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--theta", "0.45", "--metrics", "gt-known",
                 "--out-report", str(report)]) == 0
    table = _read_csv(table_path)
    assert len(table) == 2  # header + one theta
    report_rows = dict(_read_csv(report)[1:])
    assert table[1][1] == report_rows["gt-known"]


def test_calibrate_full_grid_consistency(workspace):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params, count=4)
    table_path = tmp / "table.csv"
    assert main(["calibrate", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--grid", "grid:0.2:0.6:0.2", "--out-table", str(table_path)]) == 0
    for theta_text, acc_text in _read_csv(table_path)[1:]:
        report = tmp / f"r{theta_text}.csv"
        assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--theta", theta_text, "--metrics", "gt-known",
                     "--out-report", str(report)]) == 0
        assert dict(_read_csv(report)[1:])["gt-known"] == acc_text


def test_train_toy_command(tmp_path):
    toy = {"image_size": 32, "num_classes": 2, "min_object": 14, "max_object": 24,
           "noise_level": 0.6, "samples_per_epoch": 8, "seed": 7}
    train = {"learning_rate": 0.1, "weight_decay": 5e-4, "steps_phase1": 3,
             "steps_phase2": 2, "batch_size": 4, "seed": 5,
             "model": {"patch_size": 4, "embed_dim": 16, "num_blocks": 2,
                       "num_heads": 2, "mlp_ratio": 2, "selection_mass": 0.65}}
    toy_path, train_path = tmp_path / "toy.json", tmp_path / "train.json"
    toy_path.write_text(json.dumps(toy))
    train_path.write_text(json.dumps(train))
    ckpt, curve = tmp_path / "out.ckpt", tmp_path / "curve.csv"
    code = main(["train-toy", "--toy-config", str(toy_path), "--train-config", str(train_path),
                 "--out-ckpt", str(ckpt), "--out-curve", str(curve)])
    assert code == 0
    rows = _read_csv(curve)
    assert rows[0] == ["step", "phase", "loss"]
    assert len(rows) == 6
    cfg, params = read_checkpoint(ckpt)
    assert cfg.embed_dim == 16 and cfg.num_classes == 2


def test_heatmap_command(workspace, tmp_path):
    tmp, cfg, params, ckpt, image = workspace
    heat = tmp / "heat.trt"
    write_tensor(heat, np.zeros((32, 32), np.float32))
    out = tmp / "overlay.ppm"
    code = main(["heatmap", "--map", str(heat), "--image", str(image),
                 "--alpha", "1.0", "--out", str(out)])
    assert code == 0
    data = out.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    assert data[-3:] == bytes([0, 0, 255])


def test_ablate_selection_command(workspace):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = _write_manifest(tmp, cfg, params, count=3)
    table = tmp / "ablation.csv"
    labels = ["adaptive", "adaptive:0.8", "topk:5", "fixed:0.25", "fixed:mean"]
    code = main(["ablate-selection", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--strategies", ",".join(labels),
                 "--grid", "grid:0.45:0.45:0.1", "--out-table", str(table)])
    assert code == 0
    rows = _read_csv(table)
    assert rows[0] == ["strategy", "reattention", "theta", "gt_known", "max_box_acc_v2"]
    # each strategy x {on, off}, labelled as written
    assert [(row[0], row[1]) for row in rows[1:]] == [
        (label, mode) for label in labels for mode in ("on", "off")]


def test_usage_errors_exit_2(capsys):
    assert main(["localize", "--nonsense"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    err = capsys.readouterr().err
    assert "error: usage:" in err


def test_missing_file_exits_3(tmp_path, capsys):
    code = main(["infer", "--ckpt", str(tmp_path / "absent.ckpt"),
                 "--input", str(tmp_path / "absent.trt"),
                 "--out-logits", str(tmp_path / "a.trt"), "--out-pt", str(tmp_path / "b.trt")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: format:")


def test_corrupt_checkpoint_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code = main(["infer", "--ckpt", str(bad), "--input", str(bad),
                 "--out-logits", str(tmp_path / "a.trt"), "--out-pt", str(tmp_path / "b.trt")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: format:")


# the config entry comes first: magic, entry count, name length, b"config", eight u32 fields
_CONFIG_AT = 4 + 4 + 2 + len(b"config")


# (offset, bytes written there, error detail) on the workspace checkpoint
CHECKPOINT_PATCHES = [
    (10, b"c\xffnfig",
     "entry name b'c\\xffnfig' is not UTF-8: invalid start byte"),
    (_CONFIG_AT + 7 * 4, struct.pack("<I", 0),
     "invalid config entry: selection_mass must be in (0, 1], got 0.0"),
    (_CONFIG_AT + 3 * 4, struct.pack("<I", 1),
     "invalid config entry: num_blocks must be at least 2 (backbone plus final block)"),
    (_CONFIG_AT + 1 * 4, struct.pack("<I", 5),
     "invalid config entry: image_size 32 not divisible by patch_size 5"),
    (_CONFIG_AT + 4 * 4, struct.pack("<I", 0),
     "invalid config entry: embed_dim and num_heads must be positive"),
    # one byte flipped to 0x7f in each extent: caught before, or by, the shape table
    (_CONFIG_AT + 3 * 4 + 3, b"\x7f",
     "config's 2130706434 blocks need 34091302960 parameters, the checkpoint holds 57"),
    (_CONFIG_AT + 0 * 4 + 3, b"\x7f",
     "parameter 'embed.pos' has shape (65, 8), config implies (283744377233211457, 8)"),
    (_CONFIG_AT + 2 * 4 + 3, b"\x7f",
     "parameter 'embed.patch.weight' has shape (48, 8), config implies (48, 2130706440)"),
    (_CONFIG_AT + 6 * 4 + 3, b"\x7f",
     "parameter 'refine.head.weight' has shape (8, 2), config implies (8, 2130706434)"),
]


@pytest.mark.parametrize("offset, patch, detail", CHECKPOINT_PATCHES)
def test_checkpoint_decode_errors_exit_3(workspace, capsys, offset, patch, detail):
    tmp, cfg, params, ckpt, image = workspace
    data = bytearray(ckpt.read_bytes())
    data[offset:offset + len(patch)] = patch
    bad = tmp / "bad.ckpt"
    bad.write_bytes(bytes(data))
    manifest = tmp / "one.manifest"
    manifest.write_text(f"id:a image:{image.name} label:0 boxes:12,8,20,16\n")
    commands = [
        ["infer", "--ckpt", str(bad), "--input", str(image),
         "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")],
        ["eval", "--ckpt", str(bad), "--manifest", str(manifest), "--theta", "0.5",
         "--out-report", str(tmp / "r.csv")],
    ]
    for argv in commands:
        assert main(argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert err == f"error: format: {bad}: {detail}\n", err
    assert not (tmp / "a.trt").exists() and not (tmp / "r.csv").exists()


def test_tensor_extent_overflow_exits_3(workspace, capsys):
    tmp, cfg, params, ckpt, _ = workspace
    huge = tmp / "huge.trt"
    # eight extents of 2**31: their product wraps to 0 in 64-bit integers
    huge.write_bytes(b"TRT1" + struct.pack("<BB", 0, 8) + struct.pack("<8I", *[2 ** 31] * 8))
    with pytest.raises(TruncationError):
        read_tensor(huge)
    code = main(["infer", "--ckpt", str(ckpt), "--input", str(huge),
                 "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")])
    assert code == 3
    assert capsys.readouterr().err == (f"error: format: {huge}: file ended inside tensor payload "
                                       f"({6 + 4 * 8 + 4 * 2 ** 248} > {6 + 4 * 8} bytes)\n")


# a 3x32x32 zero image, everything after its magic
_IMAGE_32 = struct.pack("<BB3I", 0, 3, 3, 32, 32) + bytes(4 * 3 * 32 * 32)


@pytest.mark.parametrize("header, detail", [
    (struct.pack("<BB", 0, 0), "tensor files need at least one dimension"),
    (struct.pack("<BB3I", 0, 3, 3, 0, 32), "non-positive extent in (3, 0, 32)"),
    pytest.param(_IMAGE_32[:-7], "file ended inside tensor payload (12306 > 12299 bytes)",
                 id="cut-payload"),
    pytest.param(_IMAGE_32 + b"xx", "2 trailing bytes after tensor payload", id="trailing-bytes"),
])
@pytest.mark.parametrize("command", ["infer", "manifest"])
def test_malformed_tensor_header_exits_3(workspace, capsys, header, detail, command):
    tmp, cfg, params, ckpt, _ = workspace
    bad = tmp / "bad.trt"
    bad.write_bytes(b"TRT1" + header)
    if command == "infer":
        argv = ["infer", "--ckpt", str(ckpt), "--input", str(bad),
                "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")]
        want = f"error: format: {bad}: {detail}\n"
    else:
        manifest = tmp / "bad.manifest"
        manifest.write_text("id:bad image:bad.trt label:0 boxes:12,8,20,16\n")
        argv = ["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--theta", "0.5",
                "--out-report", str(tmp / "r.csv")]
        want = f"error: format: {manifest}:1: {bad}: {detail}\n"
    assert main(argv) == 3
    assert capsys.readouterr().err == want
    assert not (tmp / "a.trt").exists() and not (tmp / "r.csv").exists()


# (command and the option whose file is bad, the bad file's bytes from the
# workspace checkpoint's and image's, the error line with {bad} its path)
@pytest.mark.parametrize("command, bad, line", [
    ("infer --input", lambda ckpt, image: b"XXXX" + image[4:],
     "format: {bad}: expected magic b'TRT1', found b'XXXX'"),
    ("infer --ckpt", lambda ckpt, image: ckpt[:100],
     "format: {bad}: file ended inside tensor payload (119 > 100 bytes)"),
    ("infer --ckpt", lambda ckpt, image: image,
     "format: {bad}: expected magic b'TRTC', found b'TRT1'"),
    ("heatmap --map", lambda ckpt, image: tensor_to_bytes(np.zeros((8, 8), np.float32)),
     "contract: --map {bad}, --image {image}: heat (8, 8) does not match image (3, 32, 32)"),
    ("heatmap --map", lambda ckpt, image: image[:-1],
     "format: {bad}: file ended inside tensor payload (12306 > 12305 bytes)"),
    ("heatmap --image", lambda ckpt, image: image + b"x",
     "format: {bad}: 1 trailing bytes after tensor payload"),
])
def test_file_errors_name_the_file(workspace, capsys, command, bad, line):
    tmp, cfg, params, ckpt, image = workspace
    bad_path = tmp / "bad.trt"
    bad_path.write_bytes(bad(ckpt.read_bytes(), image.read_bytes()))
    write_tensor(tmp / "heat.trt", np.full((32, 32), 0.5, np.float32))
    name, option = command.split()
    argv = {"infer": ["infer", "--ckpt", ckpt, "--input", image, "--out-logits",
                      tmp / "out.trt", "--out-pt", tmp / "out-pt.trt"],
            "heatmap": ["heatmap", "--map", tmp / "heat.trt", "--image", image,
                        "--alpha", "0.5", "--out", tmp / "out.ppm"]}[name]
    argv[argv.index(option) + 1] = bad_path
    assert main([str(arg) for arg in argv]) == (3 if line.startswith("format") else 4)
    assert capsys.readouterr().err == "error: " + line.format(bad=bad_path, image=image) + "\n"
    assert not any(tmp.glob("out*"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_pixel_exits_4(workspace, capsys, value):
    tmp, cfg, params, ckpt, image_path = workspace
    image = read_tensor(image_path)
    image[1, 5, 7] = value
    bad = tmp / "bad.trt"
    write_tensor(bad, image)
    manifest = tmp / "bad.manifest"
    manifest.write_text("id:bad image:bad.trt label:0 boxes:12,8,20,16\n")
    # (command, what the message cites before the image): a manifest's
    # image is cited after its manifest line
    commands = [
        (["infer", "--ckpt", str(ckpt), "--input", str(bad),
          "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")], ""),
        (["localize", "--ckpt", str(ckpt), "--input", str(bad), "--theta", "0.5",
          "--out-box", str(tmp / "box.txt")], ""),
        (["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--theta", "0.5",
          "--out-report", str(tmp / "r.csv")], f"{manifest}:1: "),
        (["calibrate", "--ckpt", str(ckpt), "--manifest", str(manifest),
          "--out-table", str(tmp / "t.csv")], f"{manifest}:1: "),
        (["ablate-selection", "--ckpt", str(ckpt), "--manifest", str(manifest),
          "--strategies", "adaptive", "--out-table", str(tmp / "t.csv")], f"{manifest}:1: "),
    ]
    for argv, where in commands:
        assert main(argv) == 4, argv[0]
        err = capsys.readouterr().err
        assert err == (f"error: contract: {where}{bad}: non-finite pixel {np.float32(value)} "
                       f"at index (1, 5, 7)\n"), err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_parameter_exits_4(workspace, capsys, value):
    tmp, cfg, params, ckpt, image = workspace
    data = bytearray(ckpt.read_bytes())
    # the first value of embed.pos, after its tensor record's 6 + 4 * 2 header bytes
    at = data.find(tensor_to_bytes(params["embed.pos"])) + 14
    data[at:at + 4] = struct.pack("<f", value)
    bad = tmp / "bad.ckpt"
    bad.write_bytes(bytes(data))
    manifest = tmp / "one.manifest"
    manifest.write_text(f"id:a image:{image.name} label:0 boxes:12,8,20,16\n")
    commands = [
        ["infer", "--ckpt", str(bad), "--input", str(image),
         "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")],
        ["localize", "--ckpt", str(bad), "--input", str(image), "--theta", "0.5",
         "--out-box", str(tmp / "box.txt")],
        ["eval", "--ckpt", str(bad), "--manifest", str(manifest), "--theta", "0.5",
         "--out-report", str(tmp / "r.csv")],
    ]
    for argv in commands:
        assert main(argv) == 4, argv[0]
        err = capsys.readouterr().err
        assert err == (f"error: contract: {bad}: parameter 'embed.pos' has non-finite value "
                       f"{np.float32(value)} at index (0, 0)\n"), err
    assert not any((tmp / name).exists() for name in ("a.trt", "box.txt", "r.csv"))


def test_image_size_mismatch_exits_4(workspace, capsys, monkeypatch):
    tmp, cfg, params, ckpt, _ = workspace
    small = tmp / "small.trt"
    write_tensor(small, np.zeros((3, 16, 16), np.float32))
    commands = [
        ["infer", "--ckpt", str(ckpt), "--input", str(small),
         "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")],
        ["localize", "--ckpt", str(ckpt), "--input", str(small), "--theta", "0.5",
         "--out-box", str(tmp / "box.txt")],
    ]
    forwards = _count_forwards(monkeypatch)
    for argv in commands:
        assert main(argv) == 4, argv[0]
        err = capsys.readouterr().err
        assert err == (f"error: contract: {small}: image shape (3, 16, 16) does not match the "
                       "checkpoint's (3, 32, 32)\n"), err
    assert not (tmp / "a.trt").exists() and not (tmp / "box.txt").exists()
    assert forwards == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_heat_map_exits_4(workspace, capsys, value):
    tmp, cfg, params, ckpt, image = workspace
    heat = np.full((32, 32), 0.5, np.float32)
    heat[3, 4:] = value
    heat_path = tmp / "heat.trt"
    write_tensor(heat_path, heat)
    out = tmp / "overlay.ppm"
    code = main(["heatmap", "--map", str(heat_path), "--image", str(image),
                 "--alpha", "0.5", "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err == (f"error: contract: {heat_path}: heat map has non-finite value {value} "
                   f"at index (3, 4)\n"), err
    assert not out.exists()


@pytest.mark.parametrize("lines, line_no, what", [
    (["id:a image:img.trt label:1 label:0 boxes:12,8,20,16"], 1, "key 'label' repeated"),
    (["id:a image:img.trt label:0 boxes:12,8,20,16",
      "id:b image:img.trt label:0 boxes:12,8,20,16",
      "id:a image:img.trt label:1 boxes:12,8,20,16"], 3, "id 'a' already used on line 1"),
])
def test_duplicate_manifest_key_or_id_exits_3(workspace, capsys, lines, line_no, what):
    tmp, cfg, params, ckpt, _ = workspace
    manifest = tmp / "dup.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    code = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--theta", "0.5",
                 "--out-report", str(tmp / "r.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err == f"error: format: {manifest}:{line_no}: {what}\n", err
    assert not (tmp / "r.csv").exists()


@pytest.mark.parametrize("field, text", [
    ("label", "1_0"), ("label", "+1"), ("label", "\u0661"), ("label", "-1"), ("label", ""),
    ("label", "1" * 19),
    ("box coordinate", "1_2"), ("box coordinate", "+12"), ("box coordinate", "\u06612"),
    ("box coordinate", "-1"),
])
def test_manifest_integer_that_is_not_ascii_decimal_exits_3(workspace, capsys, field, text):
    tmp, cfg, params, ckpt, _ = workspace
    line = (f"id:a image:img.trt label:{text} boxes:12,8,20,16" if field == "label"
            else f"id:a image:img.trt label:0 boxes:12,8,20,16;{text},8,20,16")
    manifest = tmp / "one.manifest"
    manifest.write_text("id:b image:img.trt label:0 boxes:12,8,20,16\n" + line + "\n",
                        encoding="utf-8")
    argv = ["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--theta", "0.5",
            "--out-report", str(tmp / "r.csv")]
    detail = f"{field} {text!r} is not a decimal integer of at most 18 digits"
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: format: {manifest}:2: {detail}\n"
    assert not (tmp / "r.csv").exists()


def test_contract_violation_exits_4(workspace, capsys):
    tmp, cfg, params, ckpt, image = workspace
    manifest = _write_manifest(tmp, cfg, params, count=2)
    code = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--theta", "0.5", "--metrics", "bogus",
                 "--out-report", str(tmp / "r.csv")])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: contract:")


@pytest.mark.parametrize("metrics", [",", "", "top1,top1", "gt-known,,top5", " top1,top1 ",
                                     "gt-known,maxboxaccv2,gt-known"])
def test_metric_list_naming_a_metric_other_than_once_exits_4(workspace, capsys, metrics):
    tmp, cfg, params, ckpt, _ = workspace
    _assert_one_contract_line(capsys, tmp, _manifest_argv(tmp, ckpt, "eval", "--metrics", metrics))


def test_invalid_class_id_exits_4(workspace, capsys):
    tmp, cfg, params, ckpt, image = workspace
    code = main(["localize", "--ckpt", str(ckpt), "--input", str(image),
                 "--class", "7", "--theta", "0.5", "--out-box", str(tmp / "b.txt")])
    assert code == 4
    assert capsys.readouterr().err == (
        "error: contract: --class must be 'auto' or a class id in [0, 2), got '7'\n")


@pytest.mark.parametrize("command, option, value, detail", [
    ("localize", "--class", "2", None),
    ("localize", "--class", "99999999999999999999999", None),
    ("localize", "--class", "-1", "expected 'auto' or a class id in ASCII digits, got '-1'"),
    ("localize", "--class", "abc", "expected 'auto' or a class id in ASCII digits, got 'abc'"),
    ("localize", "--class", "1.0", "expected 'auto' or a class id in ASCII digits, got '1.0'"),
    ("localize", "--class", "", "expected 'auto' or a class id in ASCII digits, got ''"),
    ("localize", "--class", "\u0663", "expected 'auto' or a class id in ASCII digits, got '\u0663'"),
    ("ablate-selection", "--strategies", "topk:0", "topk needs k >= 1, got 0"),
    ("ablate-selection", "--strategies", "topk:abc", "strategy 'topk:abc': 'abc' is not an integer"),
    ("ablate-selection", "--strategies", "adaptive,fixed:nan",
     "fixed threshold must be a finite number >= 0, got nan"),
    ("ablate-selection", "--strategies", "adaptive:0", "mass fraction must be in (0, 1], got 0.0"),
    ("ablate-selection", "--strategies", "nonsense:1", "unknown selection strategy 'nonsense'"),
    ("ablate-selection", "--strategies", ",", "no strategy in ','"),
    ("eval", "--theta", "abc", None),
    ("eval", "--theta", "1e", None),
    ("eval", "--theta", "2", "threshold must be in [0, 1], got 2.0"),
    ("eval", "--theta", "-0.5", "threshold must be in [0, 1], got -0.5"),
    ("localize", "--theta", "nan", "threshold must be in [0, 1], got nan"),
    ("localize", "--theta", "1.5", "threshold must be in [0, 1], got 1.5"),
    ("eval", "--metrics", "bogus", f"unknown metric 'bogus', expected one of {loc.METRIC_NAMES}"),
    ("eval", "--metrics", "top1, bogus",
     f"unknown metric 'bogus', expected one of {loc.METRIC_NAMES}"),
])
def test_malformed_class_or_theta_exits_4_naming_the_option_and_value(workspace, capsys, command,
                                                                     option, value, detail):
    tmp, cfg, params, ckpt, image = workspace
    assert cfg.num_classes == 2
    if command == "localize":
        argv = ["localize", "--ckpt", str(ckpt), "--input", str(image), "--theta", "0.5",
                "--out-box", str(tmp / "out.txt"), option, value]
    else:
        argv = _manifest_argv(tmp, ckpt, command, option, value)
    err = _assert_one_contract_line(capsys, tmp, argv)
    if detail is None:  # not a class of the checkpoint
        assert f"{option}" in err and repr(value) in err, err
    else:
        # the library's text behind the option, checked before any file is read
        assert err == f"error: contract: {option}: {detail}\n"
        argv[argv.index("--ckpt") + 1] = str(tmp / "missing.ckpt")
        assert _assert_one_contract_line(capsys, tmp, argv) == err


@pytest.mark.parametrize("alpha", ["2", "-0.1", "nan"])
def test_alpha_outside_unit_interval_exits_4_before_reading_a_file(tmp_path, capsys, alpha):
    argv = ["heatmap", "--map", str(tmp_path / "missing.trt"), "--image",
            str(tmp_path / "missing.trt"), "--alpha", alpha, "--out", str(tmp_path / "out.ppm")]
    err = _assert_one_contract_line(capsys, tmp_path, argv)
    assert err == f"error: contract: --alpha: alpha must be in [0, 1], got {float(alpha)}\n"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_main_builds_the_parser_once_per_process(workspace, monkeypatch, capsys):
    tmp, cfg, params, ckpt, image = workspace
    progs = []
    real_init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    localize_argv = ["localize", "--ckpt", str(ckpt), "--input", str(image), "--theta", "0.45",
                     "--out-box", str(tmp / "box.txt")]
    assert main(localize_argv) == 0
    built = len(progs)
    for argv in [localize_argv] * 3 + [["--help"], ["localize", "--nonsense"], []]:
        main(argv)
    assert progs.count("tokenloc") == 1 and len(progs) == built  # the 8 subparsers too
    assert cli.build_parser.cache_info().misses == 1


def test_repeated_main_calls_write_what_fresh_processes_write(workspace, capsys):
    tmp, cfg, params, ckpt, image = workspace

    def commands(out):
        out.mkdir()
        return [["localize", "--ckpt", ckpt, "--input", image, "--class", "auto",
                 "--theta", "0.45", "--out-box", out / "box.txt", "--out-map", out / "map.trt"],
                ["infer", "--ckpt", ckpt, "--input", image,
                 "--out-logits", out / "pc.trt", "--out-pt", out / "pt.trt"]]

    assert main(["localize", "--ckpt", str(ckpt), "--theta", "oops"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1, err
    assert main(["--help"]) == 0
    assert "localize" in capsys.readouterr().out
    for argv in commands(tmp / "same"):
        assert main([str(a) for a in argv]) == 0, argv[0]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv in commands(tmp / "fresh"):
        subprocess.run([sys.executable, "-m", "tokenloc.cli", *map(str, argv)], env=env,
                       check=True, timeout=120)
    for name in ("box.txt", "map.trt", "pc.trt", "pt.trt"):
        assert (tmp / "same" / name).read_bytes() == (tmp / "fresh" / name).read_bytes(), name


_TOY_JSON = {"image_size": 32, "num_classes": 2, "min_object": 14, "max_object": 24,
             "noise_level": 0.6, "samples_per_epoch": 4, "seed": 7}
_TRAIN_JSON = {"learning_rate": 0.1, "weight_decay": 5e-4, "steps_phase1": 1,
               "steps_phase2": 1, "batch_size": 2, "seed": 5,
               "model": {"patch_size": 8, "embed_dim": 8, "num_blocks": 2,
                         "num_heads": 2, "mlp_ratio": 1, "selection_mass": 0.65}}


def _train_toy_argv(tmp, toy=_TOY_JSON, train=_TRAIN_JSON):
    toy_path, train_path = tmp / "toy.json", tmp / "train.json"
    toy_path.write_text(json.dumps(toy))
    train_path.write_text(json.dumps(train))
    return ["train-toy", "--toy-config", str(toy_path), "--train-config", str(train_path),
            "--out-ckpt", str(tmp / "out.ckpt"), "--out-curve", str(tmp / "curve.csv")]


# each manifest command's arguments after --manifest, up to its output path
_MANIFEST_ARGS = {"calibrate": ["--out-table"], "eval": ["--theta", "0.5", "--out-report"],
                  "ablate-selection": ["--strategies", "adaptive", "--out-table"]}


@pytest.mark.parametrize("command", [*_MANIFEST_ARGS, "train-toy:toy", "train-toy:train"])
def test_non_utf8_input_exits_3(workspace, capsys, command):
    tmp, cfg, params, ckpt, image = workspace
    if command.startswith("train-toy"):
        argv = _train_toy_argv(tmp)
        bad = tmp / f"{command.split(':')[1]}.json"
        bad.write_bytes(bad.read_bytes() + b"\xff")
        where = f"{bad}: not UTF-8 at byte {bad.stat().st_size - 1}"
    else:
        bad = tmp / "bad.manifest"
        first = b"id:a image:img.trt label:0 boxes:12,8,20,16\n"
        bad.write_bytes(first + b"\xff\xfeid:b image:img.trt label:0 boxes:12,8,20,16\n")
        argv = [command, "--ckpt", str(ckpt), "--manifest", str(bad), *_MANIFEST_ARGS[command],
                str(tmp / "out.csv")]
        where = f"{bad}:2: not UTF-8 at byte {len(first)}"
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: format: {where}: invalid start byte\n"
    assert not (tmp / "out.csv").exists() and not (tmp / "out.ckpt").exists()


# a config's text, and the detail of its error
@pytest.mark.parametrize("text, detail", [
    # universal newlines: a CRLF or CR file has the offsets of its LF twin
    *[(newline.join(["{", ' "seed": 0,', ' "steps"1', "}"]),
       "Expecting ':' delimiter: line 3 column 9 (char 22)") for newline in ("\n", "\r\n", "\r")],
    ('{"seed": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits) for integer string"),
    ('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth exceeded"),
], ids=["lf", "crlf", "cr", "long-integer", "deep-nesting"])
@pytest.mark.parametrize("config", ["toy", "train"])
def test_a_json_config_that_does_not_parse_exits_3_naming_it(tmp_path, capsys, config, text,
                                                             detail):
    argv = _train_toy_argv(tmp_path)
    bad = tmp_path / f"{config}.json"
    bad.write_bytes(text.encode("ascii"))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: format: {bad}: {detail}") and err.count("\n") == 1, err
    assert not (tmp_path / "out.ckpt").exists()


def _manifest_argv(tmp, ckpt, command, *extra,
                   lines="id:a image:img.trt label:0 boxes:12,8,20,16\n"):
    """`command` on tmp/one.manifest holding `lines` (by default one line
    of the workspace image), writing tmp/out.csv, with `extra` arguments
    last (a repeated option's last value wins)."""
    manifest = tmp / "one.manifest"
    manifest.write_text(lines)
    return [command, "--ckpt", str(ckpt), "--manifest", str(manifest), *_MANIFEST_ARGS[command],
            str(tmp / "out.csv"), *extra]


def _assert_one_contract_line(capsys, tmp, argv):
    assert main(argv) == 4, argv
    err = capsys.readouterr().err
    assert err.startswith("error: contract: ") and err.count("\n") == 1, err
    assert not any(tmp.glob("out*")), argv
    return err


def _count_forwards(monkeypatch) -> list:
    """Record every two_branch_forward call the commands make."""
    calls, real = [], pipeline.two_branch_forward

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (pipeline, cli, loc, training):
        monkeypatch.setattr(module, "two_branch_forward", counting)
    return calls


_FITS = "id:a image:img.trt label:0 boxes:12,8,20,16"
_MISFIT = "image shape (3, 16, 16) does not match the checkpoint's (3, 32, 32)"


# command, the manifest's lines, the cited line, the error after it
@pytest.mark.parametrize("command, lines, line_no, detail", [
    *[(command, [_FITS, "id:b image:img.trt label:7 boxes:12,8,20,16"], 2,
       "class id 7 out of range for 2 classes") for command in _MANIFEST_ARGS],
    *[(command, [_FITS, "id:b image:small.trt label:0 boxes:0,0,8,8"], 2, _MISFIT)
      for command in _MANIFEST_ARGS],
    ("eval", ["id:b image:small.trt label:0 boxes:0,0,8,8"], 1, _MISFIT),
    ("eval", ["id:b image:gray.trt label:0 boxes:0,0,8,8"], 1,
     "image shape (1, 32, 32) does not match the checkpoint's (3, 32, 32)"),
])
def test_a_manifest_sample_that_does_not_fit_the_checkpoint_exits_4_naming_its_line(
        workspace, capsys, monkeypatch, command, lines, line_no, detail):
    tmp, cfg, params, ckpt, _ = workspace
    write_tensor(tmp / "small.trt", np.zeros((3, 16, 16), np.float32))
    write_tensor(tmp / "gray.trt", np.zeros((1, 32, 32), np.float32))
    argv = _manifest_argv(tmp, ckpt, command, lines="\n".join(lines) + "\n")
    forwards = _count_forwards(monkeypatch)
    err = _assert_one_contract_line(capsys, tmp, argv)
    assert err == f"error: contract: {tmp / 'one.manifest'}:{line_no}: {detail}\n"
    assert forwards == []


@pytest.mark.parametrize("command", ["infer", "localize", *_MANIFEST_ARGS])
def test_an_image_that_overflows_the_forward_exits_4_naming_the_input(workspace, capsys,
                                                                      command):
    # every pixel is finite, but times 1e38 the forward leaves the float32 range
    tmp, cfg, params, ckpt, image = workspace
    huge = tmp / "huge.trt"
    write_tensor(huge, read_tensor(image) * np.float32(1e38))
    if command == "infer":
        argv = ["infer", "--ckpt", str(ckpt), "--input", str(huge),
                "--out-logits", str(tmp / "out.trt"), "--out-pt", str(tmp / "out2.trt")]
    elif command == "localize":
        argv = ["localize", "--ckpt", str(ckpt), "--input", str(huge), "--theta", "0.5",
                "--out-box", str(tmp / "out.txt")]
    else:
        argv = _manifest_argv(tmp, ckpt, command,
                              lines="id:a image:huge.trt label:0 boxes:12,8,20,16\n")
    cited = huge if command in ("infer", "localize") else tmp / "one.manifest"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = _assert_one_contract_line(capsys, tmp, argv)
    assert caught == []
    assert err.startswith(f"error: contract: {cited}: the forward pass is not finite ("), err


@pytest.mark.parametrize("command", ["infer", "localize", "eval", "calibrate"])
@pytest.mark.parametrize("u", ["0", "1.5", "nan", "2"])
def test_selection_mass_outside_unit_interval_exits_4(workspace, capsys, command, u):
    tmp, cfg, params, ckpt, image = workspace
    if command == "infer":
        argv = ["infer", "--ckpt", str(ckpt), "--input", str(image),
                "--out-logits", str(tmp / "out.trt"), "--out-pt", str(tmp / "out2.trt"), "--u", u]
    elif command == "localize":
        argv = ["localize", "--ckpt", str(ckpt), "--input", str(image), "--theta", "0.5",
                "--out-box", str(tmp / "out.txt"), "--u", u]
    else:
        argv = _manifest_argv(tmp, ckpt, command, "--u", u)
    err = _assert_one_contract_line(capsys, tmp, argv)
    assert err == f"error: contract: --u: mass fraction must be in (0, 1], got {float(u)}\n"


@pytest.mark.parametrize("strategy", ["adaptive:0", "adaptive:nan", "topk", "topk:0", "topk:1.5",
                                      "topk:65", "fixed:-1", "fixed:nan", "fixed:inf",
                                      "nonsense:1", "adaptive,adaptive", "topk:8,topk:8",
                                      "adaptive:0.5,fixed:mean,adaptive:0.50",
                                      "adaptive,adaptive:0.65", "adaptive:0.65,adaptive",
                                      "topk:abc", "adaptive:x", "fixed:1e"])
def test_malformed_selection_strategy_exits_4(workspace, capsys, strategy):
    tmp, cfg, params, ckpt, _ = workspace
    assert cfg.num_tokens == 64   # so topk:65 asks for more tokens than there are
    # a bare `adaptive` selects at the checkpoint's mass, so it duplicates adaptive:0.65
    write_checkpoint(ckpt, replace(cfg, selection_mass=0.65), params)
    err = _assert_one_contract_line(
        capsys, tmp, _manifest_argv(tmp, ckpt, "ablate-selection", "--strategies", strategy))
    assert err.startswith("error: contract: --strategies: "), err
    if "," in strategy:
        assert err == (f"error: contract: --strategies: {strategy!r} names a strategy more "
                       f"than once\n")
    if strategy == "topk:65":   # a bound that needs the checkpoint's token count
        assert err == "error: contract: --strategies: topk k=65 exceeds 64 tokens\n"
    if strategy in ("topk:1.5", "topk:abc", "adaptive:x", "fixed:1e"):
        kind, _, arg = strategy.partition(":")
        what = "an integer" if kind == "topk" else "a number"
        assert err == (f"error: contract: --strategies: strategy {strategy!r}: {arg!r} "
                       f"is not {what}\n")


@pytest.mark.parametrize("grid", ["0:1:1e-7", "0.05:0.95:nan", "nan:0.95:0.05", "0.05:inf:0.05",
                                  "-0.1:0.9:0.1", "0:1.5:0.1", "0.9:0.1:0.1", "0:1:0",
                                  "0.5:0.1:0.1", "0.1:0.9:abc", "0.1:abc:0.1", "0.1:0.9",
                                  "0.1:0.9:0.1:1"])
@pytest.mark.parametrize("command", ["calibrate", "eval", "ablate-selection"])
def test_invalid_threshold_grid_exits_4(workspace, capsys, command, grid):
    # 0:1:1e-7 would ask for a (1, 10000001, 32, 32) mask stack
    tmp, cfg, params, ckpt, _ = workspace
    option = "--theta" if command == "eval" else "--grid"
    err = _assert_one_contract_line(
        capsys, tmp, _manifest_argv(tmp, ckpt, command, option, f"grid:{grid}"))
    assert err.startswith(f"error: contract: {option}") and "grid" in err, err
    if "abc" in grid or grid.count(":") != 2:  # not three numbers: the option's own message
        assert err == (f"error: contract: {option} must be grid[:start:stop:step] with three "
                       f"numbers, got 'grid:{grid}'\n")


@pytest.mark.parametrize("command", _MANIFEST_ARGS)
def test_manifest_line_without_boxes_exits_3(workspace, capsys, command):
    tmp, cfg, params, ckpt, _ = workspace
    argv = _manifest_argv(tmp, ckpt, command, lines="id:a image:img.trt label:0 boxes:12,8,20,16\n"
                                                    "id:b image:img.trt label:0 boxes:\n")
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"error: format: {tmp / 'one.manifest'}:2: "
                                       f"line has no ground-truth boxes\n")
    assert not (tmp / "out.csv").exists()


_MILLIONTHS = "a whole number of millionths, as a checkpoint stores it"


@pytest.mark.parametrize("section, field, value, kind", [
    ("train", "batch_size", 2.5, "an integer"),
    ("train", "seed", 1.5, "an integer"),
    ("train", "steps_phase1", True, "an integer"),
    ("train", "learning_rate", "0.1", "a number"),
    ("model", "patch_size", 4.0, "an integer"),
    ("model", "selection_mass", False, "a number"),
    ("toy", "seed", None, "an integer"),
    ("toy", "noise_level", [0.6], "a number"),
    ("train", "learning_rate", float("nan"), "a finite nonnegative number"),
    ("train", "weight_decay", float("inf"), "a finite nonnegative number"),
    # sizes that cannot be allocated, rejected before any array is built
    ("toy", "image_size", 1_048_576, "at most 1182 with samples_per_epoch 4 "
                                     "(a toy dataset holds at most 67108864 bytes of float32)"),
    ("toy+train", "batch_size", 10_000_000, "at most the toy task's samples_per_epoch (4)"),
    ("toy+train", "batch_size", 5, "at most the toy task's samples_per_epoch (4)"),
    # numpy seeds only from nonnegative integers
    ("toy", "seed", -1, "a nonnegative integer"),
    ("train", "seed", -1, "a nonnegative integer"),
    # checked by ModelConfig itself
    ("model", "embed_dim", 9, "divisible by num_heads 2"),
    # a mass the checkpoint's millionths cannot hold
    ("model", "selection_mass", 1e-9, _MILLIONTHS),
    ("model", "selection_mass", 0.6500004, _MILLIONTHS),
    ("model", "selection_mass", 0.1 + 0.2, _MILLIONTHS),
    # the model must take the toy task's images and classes
    ("model", "image_size", 16, "the toy task's image_size 32"),
    ("model", "num_classes", 3, "the toy task's num_classes 2"),
    # a field the config does not have (kind None)
    ("toy", "bogus", 1, None),
    ("train", "bogus", 1, None),
    ("model", "depth", 2, None),
])
def test_train_toy_config_field_types_exit_4(tmp_path, capsys, monkeypatch, section, field,
                                             value, kind):
    toy, train = dict(_TOY_JSON), dict(_TRAIN_JSON, model=dict(_TRAIN_JSON["model"]))
    target = {"toy": toy, "train": train, "toy+train": train, "model": train["model"]}[section]
    target[field] = value
    argv = _train_toy_argv(tmp_path, toy, train)
    # a field checked against the other config's fields cites neither file
    where = {"toy": f"{tmp_path / 'toy.json'}: ", "train": f"{tmp_path / 'train.json'}: ",
             "model": f"{tmp_path / 'train.json'}: model section: ", "toy+train": ""}[section]
    forwards = _count_forwards(monkeypatch)
    assert main(argv) == 4
    err = capsys.readouterr().err
    detail = f"unknown field {field!r}" if kind is None else (f"field {field!r} must be {kind}, "
                                                              f"got {value!r}")
    assert err == f"error: contract: {where}{detail}\n"
    assert not (tmp_path / "out.ckpt").exists()
    assert forwards == []


_BUDGET = "more than the budget of 67108864"


# toy fields, train fields, model-section fields (None: no section, the defaults), error detail
@pytest.mark.parametrize("toy, train, model, detail", [
    ({}, {}, {"num_heads": 0}, "embed_dim and num_heads must be positive"),
    ({}, {}, {"embed_dim": 0}, "embed_dim and num_heads must be positive"),
    ({}, {}, {"embed_dim": 65536},
     f"the parameters take 309306064916 bytes of float32, {_BUDGET}"),
    ({}, {}, {"mlp_ratio": 100_000_000},
     f"the parameters take 163200011348 bytes of float32, {_BUDGET}"),
    ({}, {}, {"num_blocks": 100_000_000},
     f"the parameters take 185600009268 bytes of float32, {_BUDGET}"),
    ({"image_size": 2048, "samples_per_epoch": 1}, {"batch_size": 1}, None,
     f"one image's attention over 4 heads and 262145 tokens takes 2199040032800 bytes of "
     f"float64, {_BUDGET}"),
])
def test_train_toy_model_sizes_out_of_bounds_exit_4_before_allocating(tmp_path, capsys,
                                                                      monkeypatch, toy, train,
                                                                      model, detail):
    def refuse(*args):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(training, "make_dataset", refuse)
    monkeypatch.setattr(training, "init_params", refuse)
    train = dict(_TRAIN_JSON, **train, model=dict(_TRAIN_JSON["model"], **model or {}))
    if model is None:
        del train["model"]
    assert main(_train_toy_argv(tmp_path, dict(_TOY_JSON, **toy), train)) == 4
    # without a model section, the toy config's image_size sets the default model
    where = (f"{tmp_path / 'train.json'}: model section: " if model is not None
             else f"{tmp_path / 'toy.json'}: ")
    assert capsys.readouterr().err == f"error: contract: {where}{detail}\n"
    assert not (tmp_path / "out.ckpt").exists() and not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("toy, train, detail", [
    ({"samples_per_epoch": 8}, {"learning_rate": 1e30, "steps_phase1": 3, "steps_phase2": 1},
     "the loss is nan at step 2 with learning_rate 1e+30"),
    # the last update overflows: only the parameter check can see it
    ({}, {"learning_rate": 1e300, "steps_phase1": 1, "steps_phase2": 0},
     "3096 parameters are not finite after step 1 with learning_rate 1e+300"),
])
def test_train_toy_that_diverges_exits_4_with_one_line_and_writes_nothing(tmp_path, capsys,
                                                                           toy, train, detail):
    # numpy's overflow warnings would be errors under this suite's filterwarnings
    train = dict(_TRAIN_JSON, **train)
    assert main(_train_toy_argv(tmp_path, dict(_TOY_JSON, **toy), train)) == 4
    assert capsys.readouterr().err == f"error: contract: training diverged: {detail}\n"
    assert not (tmp_path / "out.ckpt").exists() and not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("command", ["infer", *_MANIFEST_ARGS])
def test_checkpoint_over_the_attention_budget_exits_3(workspace, capsys, command):
    tmp, _, _, _, image = workspace
    # patch size 1 at 64 px: 4,097 tokens, a 16 kB position table
    cfg = ModelConfig(image_size=64, patch_size=1, embed_dim=4, num_blocks=2, num_heads=4,
                      num_classes=2, mlp_ratio=1)
    ckpt = tmp / "fine.ckpt"
    write_checkpoint(ckpt, cfg, init_params(cfg, 0))
    if command == "infer":
        argv = ["infer", "--ckpt", str(ckpt), "--input", str(image),
                "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")]
    else:
        manifest = tmp / "one.manifest"
        manifest.write_text(f"id:a image:{image.name} label:0 boxes:12,8,20,16\n")
        argv = [command, "--ckpt", str(ckpt), "--manifest", str(manifest),
                *_MANIFEST_ARGS[command], str(tmp / "out.csv")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: format: {ckpt}: invalid config entry: one image's attention over 4 heads and "
        f"4097 tokens takes 537133088 bytes of float64, {_BUDGET}\n")
    assert not (tmp / "a.trt").exists() and not (tmp / "out.csv").exists()


def test_train_toy_takes_json_integers_for_float_fields(tmp_path):
    train = dict(_TRAIN_JSON, learning_rate=0, weight_decay=0)
    assert main(_train_toy_argv(tmp_path, dict(_TOY_JSON, noise_level=1), train)) == 0
    assert len(_read_csv(tmp_path / "curve.csv")) == 3


def test_train_toy_model_section_overrides_the_defaults_field_by_field(tmp_path, capsys):
    train = dict(_TRAIN_JSON, model={"embed_dim": 8, "num_heads": 2})
    assert main(_train_toy_argv(tmp_path, train=train)) == 0
    cfg, _ = read_checkpoint(tmp_path / "out.ckpt")
    assert cfg == replace(default_model_config(ToyTaskConfig(**_TOY_JSON)),
                          embed_dim=8, num_heads=2)
    (tmp_path / "out.ckpt").unlink()
    train = dict(_TRAIN_JSON, model={"embed_dim": 8, "depth": 2})
    assert main(_train_toy_argv(tmp_path, train=train)) == 4
    assert capsys.readouterr().err == (
        f"error: contract: {tmp_path / 'train.json'}: model section: unknown field 'depth'\n")
    assert not (tmp_path / "out.ckpt").exists()


def test_eval_fuses_predicted_class_heats_only_where_the_top_class_differs(tmp_path,
                                                                           monkeypatch):
    heldout = make_dataset(ToyTaskConfig(samples_per_epoch=9, seed=99))
    lines = []
    for i, (image, label, boxes) in enumerate(heldout):
        write_tensor(tmp_path / f"img{i}.trt", image)
        label = 1 - label if i % 2 else label  # flipped labels force mispredictions
        lines.append(f"id:img{i} image:img{i}.trt label:{label} "
                     f"boxes:{','.join(map(str, boxes[0].tolist()))}")
    manifest = tmp_path / "flipped.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    fused = []
    real_heats = loc.class_heats

    def counting_heats(scoring_map, cam_maps, class_ids, side):
        heats = real_heats(scoring_map, cam_maps, class_ids, side)
        # GT-class heats take the stack's label list, predicted-class heats
        # an array of the top-ranked classes of the rows that differ
        fused.append((isinstance(class_ids, np.ndarray), len(heats)))
        return heats

    monkeypatch.setattr(loc, "class_heats", counting_heats)
    report = tmp_path / "report.csv"
    assert main(["eval", "--ckpt", str(ACCEPTANCE_CKPT), "--manifest", str(manifest),
                 "--theta", "grid", "--out-report", str(report)]) == 0
    monkeypatch.undo()

    # the per-image path: one forward and one predicted-class heat per image
    cfg, params = read_checkpoint(ACCEPTANCE_CKPT)
    samples = parse_manifest(manifest, cfg)
    theta_star, table, _ = loc.evaluate_samples(params, cfg, samples, (),
                                                threshold_grid(*DEFAULT_GRID))
    heats = gt_heats(params, cfg, samples)
    per_level = [max(hit_fraction_oracle(heats, samples, theta, level, 32, 32)
                     for theta in threshold_grid(*DEFAULT_GRID))
                 for level in loc.MAX_BOX_ACC_LEVELS]
    ranked = []
    for image, label, gt_boxes in samples:
        p_cam = nm.value_of(pipeline.two_branch_forward(params, cfg, image[None]).p_cam)[0]
        ranked.append(Record(
            box=localize(params, cfg, image, "predicted", theta=theta_star)[1],
            gt_boxes=gt_boxes, gt_class=label,
            class_ranking=[int(k) for k in np.argsort(-p_cam, kind="stable")]))
    mispredicted = sum(r.class_ranking[0] != r.gt_class for r in ranked)
    assert 0 < mispredicted < len(samples)
    assert sum(n for predicted, n in fused if predicted) == mispredicted
    assert sum(n for predicted, n in fused if not predicted) == len(samples)
    assert _read_csv(report) == [
        ["metric", "value"], ["gt-known", repr(dict(table)[theta_star])],
        ["top1", repr(_loc_acc_oracle(ranked, "top1"))],
        ["top5", repr(_loc_acc_oracle(ranked, "top5"))],
        ["maxboxaccv2", repr(sum(per_level) / len(per_level))],
        ["theta", repr(theta_star)]]


# each writing command on the workspace, without its output options, and those options
def _writer_argv(tmp, ckpt, image, command):
    if command == "infer":
        return ["infer", "--ckpt", str(ckpt), "--input", str(image)], ["--out-logits", "--out-pt"]
    if command == "localize":
        return (["localize", "--ckpt", str(ckpt), "--input", str(image), "--theta", "0.5"],
                ["--out-box", "--out-map"])
    if command == "train-toy":
        return _train_toy_argv(tmp)[:-4], ["--out-ckpt", "--out-curve"]
    if command == "heatmap":
        write_tensor(tmp / "heat.trt", np.linspace(0, 1, 1024, dtype=np.float32).reshape(32, 32))
        return (["heatmap", "--map", str(tmp / "heat.trt"), "--image", str(image),
                 "--alpha", "0.5"], ["--out"])
    *argv, option, _ = _manifest_argv(tmp, ckpt, command)  # _ is its output path
    return argv, [option]


_WRITERS = ["infer", "localize", *_MANIFEST_ARGS, "train-toy", "heatmap"]
# (command, output option) for every output of every writing command
_OUTPUTS = [("infer", "--out-logits"), ("infer", "--out-pt"), ("localize", "--out-box"),
            ("localize", "--out-map"), *[(c, _MANIFEST_ARGS[c][-1]) for c in _MANIFEST_ARGS],
            ("train-toy", "--out-ckpt"), ("train-toy", "--out-curve"), ("heatmap", "--out")]


def _with_outputs(argv, options, paths):
    return argv + [str(a) for option in options for a in (option, paths[option])]


@pytest.mark.parametrize("command", _WRITERS)
def test_dev_null_is_an_output_path_of_every_writing_command(workspace, capsys, command):
    tmp, cfg, params, ckpt, image = workspace
    argv, options = _writer_argv(tmp, ckpt, image, command)
    assert main(_with_outputs(argv, options, dict.fromkeys(options, os.devnull))) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command, option", _OUTPUTS)
def test_a_fifo_output_receives_the_bytes_of_a_regular_file_output(workspace, command, option):
    tmp, cfg, params, ckpt, image = workspace
    argv, options = _writer_argv(tmp, ckpt, image, command)
    regular = {o: tmp / f"out{o}" for o in options}
    assert main(_with_outputs(argv, options, regular)) == 0
    fifo = tmp / "fifo"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    code = main(_with_outputs(argv, options, {**regular, option: fifo}))
    if code:  # the command never opened the FIFO: let the reader see its end
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    reader.join(60)
    assert code == 0 and not reader.is_alive()
    assert got == [regular[option].read_bytes()]


@pytest.mark.parametrize("kind", ["directory", "under-a-file"])
@pytest.mark.parametrize("command, option", _OUTPUTS)
def test_an_output_path_that_cannot_be_a_file_exits_3_naming_it(workspace, capsys, command,
                                                                option, kind):
    tmp, cfg, params, ckpt, image = workspace
    argv, options = _writer_argv(tmp, ckpt, image, command)
    if kind == "directory":
        bad = tmp / "outdir"
        bad.mkdir()
    else:
        (tmp / "file.txt").write_text("x")
        bad = tmp / "file.txt" / "box.txt"
    paths = {**{o: tmp / f"out{o}" for o in options}, option: bad}
    assert main(_with_outputs(argv, options, paths)) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: format: ") and err.count("\n") == 1, err
    assert f"'{bad}'" in err, err


class _FakeLibc:
    """A libc whose mallopt records its calls and returns `result`."""

    def __init__(self, calls, result=1):
        self.mallopt = lambda param, value: calls.append((param, value)) or result


@pytest.fixture()
def heap_policy(monkeypatch):
    """A call through(cdll) makes the next main() set the heap policy
    again, through `cdll` in place of ctypes.CDLL."""
    import ctypes

    def through(cdll):
        cli._keep_freed_heap.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", cdll)

    yield through
    cli._keep_freed_heap.cache_clear()


def _policy_argvs(tmp, ckpt, image):
    """A success that writes tmp/box.txt, a usage error and a format error."""
    box = tmp / "box.txt"
    return [["localize", "--ckpt", str(ckpt), "--input", str(image), "--theta", "0.45",
             "--out-box", str(box)], ["localize", "--theta", "oops"],
            ["infer", "--ckpt", str(tmp / "missing.ckpt"), "--input", str(image),
             "--out-logits", str(tmp / "pc.trt"), "--out-pt", str(tmp / "pt.trt")]]


def test_main_sets_the_heap_policy_once_per_process(workspace, capsys, heap_policy):
    tmp, cfg, params, ckpt, image = workspace
    calls = []
    heap_policy(lambda name: _FakeLibc(calls))
    for argv in _policy_argvs(tmp, ckpt, image) * 2 + [["--help"]]:
        main(argv)
    # M_TRIM_THRESHOLD at 1 GiB, then M_MMAP_THRESHOLD at 32 MiB
    assert calls == [(-1, 1 << 30), (-3, 32 << 20)]


def _no_libc(name):
    raise OSError("no libc")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_libc,
                                  lambda name: _FakeLibc([], result=0)],
                         ids=["no-mallopt", "cdll-raises", "mallopt-refuses"])
def test_a_libc_without_the_heap_policy_changes_no_output(workspace, capsys, heap_policy, cdll):
    tmp, cfg, params, ckpt, image = workspace

    def run_all():
        out = []
        for argv in _policy_argvs(tmp, ckpt, image):
            code = main(argv)
            box = tmp / "box.txt"
            out.append((code, capsys.readouterr(), box.exists() and box.read_bytes()))
            box.unlink(missing_ok=True)
        return out

    main(["--help"])   # the policy of this process, set through the real libc
    capsys.readouterr()
    with_policy = run_all()
    heap_policy(cdll)
    assert run_all() == with_policy
    assert cli._keep_freed_heap.cache_info().misses == 1


_FAULTS_CHILD = """
import json, resource, sys
from tokenloc import cli
argv = ["train-toy", "--toy-config", sys.argv[1], "--train-config", sys.argv[2],
        "--out-ckpt", sys.argv[3], "--out-curve", sys.argv[4]]
assert cli.main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_a_steady_state_training_step_takes_few_page_faults(tmp_path):
    """The second of two train-toy runs in one process reuses the heap
    pages of the first: without the policy a step took about 1,000 minor
    faults, with it under 4."""
    (tmp_path / "toy.json").write_text("{}")
    (tmp_path / "train.json").write_text(json.dumps({"steps_phase1": 20, "steps_phase2": 5}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _FAULTS_CHILD, *(str(tmp_path / name) for name in
                           ("toy.json", "train.json", "out.ckpt", "curve.csv"))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 32 * 25, done.stdout


_ENDLESS_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from tokenloc import cli
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        results.append((cli.main(argv), err.getvalue()))
print(json.dumps(results))
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and os.path.exists("/dev/zero")),
                    reason="needs RLIMIT_AS and /dev/zero")
def test_an_endless_input_exits_3_naming_it_under_an_address_space_cap(workspace):
    tmp, cfg, params, ckpt, image = workspace
    zero_line = tmp / "zero.manifest"
    zero_line.write_text("id:a image:/dev/zero label:0 boxes:12,8,20,16\n")
    outputs = ["--out-logits", str(tmp / "pc.trt"), "--out-pt", str(tmp / "pt.trt")]
    cases = [  # (argv, the path the error names)
        (["infer", "--ckpt", str(ckpt), "--input", "/dev/zero", *outputs], "/dev/zero"),
        (["infer", "--ckpt", "/dev/zero", "--input", str(image), *outputs], "/dev/zero"),
        (["eval", "--ckpt", str(ckpt), "--manifest", "/dev/zero", "--theta", "0.5",
          "--out-report", str(tmp / "out.csv")], "/dev/zero"),
        (["eval", "--ckpt", str(ckpt), "--manifest", str(zero_line), "--theta", "0.5",
          "--out-report", str(tmp / "out.csv")], f"{zero_line}:1: /dev/zero"),
        *[(_train_toy_argv(tmp) + [config, "/dev/zero"], "/dev/zero")
          for config in ("--toy-config", "--train-config")]]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _ENDLESS_CHILD,
                           json.dumps([argv for argv, _ in cases])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    for (argv, where), (code, err) in zip(cases, results):
        assert (code, err) == (3, f"error: format: {where}: not a regular file, and longer "
                                  f"than {formats.MAX_STREAM_BYTES} bytes\n"), argv
    assert not any(tmp.glob("out*")) and not any(tmp.glob("p?.trt"))


@pytest.mark.parametrize("option", ["--ckpt", "--input", "--manifest", "manifest image"])
def test_a_fifo_input_gives_the_outputs_of_a_regular_file(workspace, capsys, option):
    tmp, cfg, params, ckpt, image = workspace
    manifest = tmp / "one.manifest"
    manifest.write_text("id:a image:img.trt label:0 boxes:12,8,20,16\n")
    if option in ("--manifest", "manifest image"):
        argv = ["eval", "--ckpt", ckpt, "--manifest", manifest, "--theta", "0.5",
                "--out-report", tmp / "out.csv"]
        outputs = ["out.csv"]
    else:
        argv = ["infer", "--ckpt", ckpt, "--input", image,
                "--out-logits", tmp / "out-pc.trt", "--out-pt", tmp / "out-pt.trt"]
        outputs = ["out-pc.trt", "out-pt.trt"]
    assert main([str(a) for a in argv]) == 0
    regular = [(tmp / name).read_bytes() for name in outputs]
    for name in outputs:
        (tmp / name).unlink()
    fifo = tmp / "fifo"
    os.mkfifo(fifo)
    if option == "manifest image":
        source = image
        manifest.write_text(f"id:a image:{fifo.name} label:0 boxes:12,8,20,16\n")
    else:
        source = argv[argv.index(option) + 1]
        argv[argv.index(option) + 1] = fifo

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(Path(source).read_bytes())

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    code = main([str(a) for a in argv])
    if code:  # the command never opened the FIFO: let the writer see its end
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    writer.join(60)
    assert code == 0, capsys.readouterr().err
    assert [(tmp / name).read_bytes() for name in outputs] == regular
