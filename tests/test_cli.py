"""Command-line surface tests: exit codes, file outputs, cross-command consistency."""

import csv
import json
import os
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tokenloc import ablation, cli, pipeline, training
from tokenloc import numerics as nm
from tokenloc import localization as loc
from tokenloc.backbone import ModelConfig, init_params
from tokenloc.cli import main
from tokenloc.errors import TruncationError
from tokenloc.formats import (
    parse_manifest,
    read_checkpoint,
    read_tensor,
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
    n_plus_1 = result.tokens.shape[1]
    eager = real_refine(nm.crop(result.tokens, (0, 0, 0), (1, 1, cfg.embed_dim)),
                        nm.crop(result.tokens, (0, 1, 0), (1, n_plus_1 - 1, cfg.embed_dim)),
                        result.selection.weights, params, cfg)
    assert np.array_equal(read_tensor(out_pt), eager[0])


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
    samples = parse_manifest(manifest)
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
          "--out-table", str(tmp / "a.csv")], 4, 4),
    ]:
        calls.clear()
        assert main(argv) == 0, argv
        # one ground-truth array and one GT-class IoU table per setting; all
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
        assert err == f"error: format: {detail}\n", err
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
    err = capsys.readouterr().err
    assert err.startswith("error: format: file ended inside tensor payload")
    assert err.count("\n") == 1


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
        want = f"error: format: {detail}\n"
    else:
        manifest = tmp / "bad.manifest"
        manifest.write_text("id:bad image:bad.trt label:0 boxes:12,8,20,16\n")
        argv = ["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--theta", "0.5",
                "--out-report", str(tmp / "r.csv")]
        want = f"error: format: {manifest}:1: {bad}: {detail}\n"
    assert main(argv) == 3
    assert capsys.readouterr().err == want
    assert not (tmp / "a.trt").exists() and not (tmp / "r.csv").exists()


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


def test_image_size_mismatch_exits_4(workspace, capsys):
    tmp, cfg, params, ckpt, _ = workspace
    small = tmp / "small.trt"
    write_tensor(small, np.zeros((3, 16, 16), np.float32))
    commands = [
        ["infer", "--ckpt", str(ckpt), "--input", str(small),
         "--out-logits", str(tmp / "a.trt"), "--out-pt", str(tmp / "b.trt")],
        ["localize", "--ckpt", str(ckpt), "--input", str(small), "--theta", "0.5",
         "--out-box", str(tmp / "box.txt")],
    ]
    for argv in commands:
        assert main(argv) == 4, argv[0]
        err = capsys.readouterr().err
        assert err == ("error: contract: image shape (3, 16, 16) does not match the "
                       "checkpoint's (3, 32, 32)\n"), err
    assert not (tmp / "a.trt").exists() and not (tmp / "box.txt").exists()


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
    assert err == (f"error: contract: heat map has non-finite value {value} "
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


@pytest.mark.parametrize("command", ["infer", "localize", "eval", "calibrate"])
@pytest.mark.parametrize("u", ["0", "1.5", "nan"])
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
    assert f"mass fraction must be in (0, 1], got {float(u)}" in err


@pytest.mark.parametrize("strategy", ["adaptive:0", "adaptive:nan", "topk", "topk:0", "topk:1.5",
                                      "topk:65", "fixed:-1", "fixed:nan", "fixed:inf",
                                      "nonsense:1", "adaptive,adaptive", "topk:8,topk:8",
                                      "adaptive:0.5,fixed:mean,adaptive:0.50",
                                      "adaptive,adaptive:0.65", "adaptive:0.65,adaptive"])
def test_malformed_selection_strategy_exits_4(workspace, capsys, strategy):
    tmp, cfg, params, ckpt, _ = workspace
    assert cfg.num_tokens == 64   # so topk:65 asks for more tokens than there are
    # a bare `adaptive` selects at the checkpoint's mass, so it duplicates adaptive:0.65
    write_checkpoint(ckpt, replace(cfg, selection_mass=0.65), params)
    err = _assert_one_contract_line(
        capsys, tmp, _manifest_argv(tmp, ckpt, "ablate-selection", "--strategies", strategy))
    if "," in strategy:
        assert f"--strategies {strategy!r} names a strategy more than once" in err


@pytest.mark.parametrize("grid", ["0:1:1e-7", "0.05:0.95:nan", "nan:0.95:0.05", "0.05:inf:0.05",
                                  "-0.1:0.9:0.1", "0:1.5:0.1", "0.9:0.1:0.1", "0:1:0"])
@pytest.mark.parametrize("command", ["calibrate", "eval", "ablate-selection"])
def test_invalid_threshold_grid_exits_4(workspace, capsys, command, grid):
    # 0:1:1e-7 would ask for a (1, 10000001, 32, 32) mask stack
    tmp, cfg, params, ckpt, _ = workspace
    option = "--theta" if command == "eval" else "--grid"
    err = _assert_one_contract_line(
        capsys, tmp, _manifest_argv(tmp, ckpt, command, option, f"grid:{grid}"))
    assert "grid" in err


@pytest.mark.parametrize("command", _MANIFEST_ARGS)
def test_manifest_line_without_boxes_exits_3(workspace, capsys, command):
    tmp, cfg, params, ckpt, _ = workspace
    argv = _manifest_argv(tmp, ckpt, command, lines="id:a image:img.trt label:0 boxes:12,8,20,16\n"
                                                    "id:b image:img.trt label:0 boxes:\n")
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"error: format: {tmp / 'one.manifest'}:2: "
                                       f"line has no ground-truth boxes\n")
    assert not (tmp / "out.csv").exists()


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
])
def test_train_toy_config_field_types_exit_4(tmp_path, capsys, section, field, value, kind):
    toy, train = dict(_TOY_JSON), dict(_TRAIN_JSON, model=dict(_TRAIN_JSON["model"]))
    target = {"toy": toy, "train": train, "toy+train": train, "model": train["model"]}[section]
    target[field] = value
    argv = _train_toy_argv(tmp_path, toy, train)
    # a field checked against the other config's fields cites neither file
    where = {"toy": f"{tmp_path / 'toy.json'}: ", "train": f"{tmp_path / 'train.json'}: ",
             "model": f"{tmp_path / 'train.json'}: model section: ", "toy+train": ""}[section]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err == f"error: contract: {where}field {field!r} must be {kind}, got {value!r}\n"
    assert not (tmp_path / "out.ckpt").exists()


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
    assert capsys.readouterr().err == f"error: contract: {detail}\n"
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
        "error: format: invalid config entry: one image's attention over 4 heads and 4097 "
        f"tokens takes 537133088 bytes of float64, {_BUDGET}\n")
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
        f"error: contract: {tmp_path / 'train.json'}: model section: "
        "ModelConfig.__init__() got an unexpected keyword argument 'depth'\n")
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
    samples = parse_manifest(manifest)
    theta_star, table = loc.grid_search_threshold(params, cfg, samples)
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
