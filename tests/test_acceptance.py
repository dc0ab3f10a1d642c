"""Acceptance gate: one test per criterion, at its stated tolerance and
runtime budget. Each prints a [PASS] line (run with -s to see them)."""

import csv
import itertools
import struct
import time
from dataclasses import replace

import numpy as np
import pytest

from tokenloc import numerics as nm
from tokenloc.ablation import parse_strategy, run_ablation
from tokenloc.backbone import ModelConfig, block_forward, embed, init_params, mhsa, patchify
from tokenloc.cli import main
from tokenloc.errors import BadMagicError, TruncationError, UnsupportedDtypeError
from tokenloc.formats import read_checkpoint, write_checkpoint, write_tensor, read_tensor
from tokenloc.localization import grid_search_threshold
from tokenloc.pipeline import two_branch_forward
from tokenloc.token_refine import adaptive_select, reattention
from tokenloc.training import (
    ToyTaskConfig,
    TrainConfig,
    backward,
    cross_entropy_joint,
    make_dataset,
    train_toy,
)

from util import assert_grads_close, check_op_gradients, finite_diff_grad, selection_matrix
from test_localization import (
    assert_labeller_matches_oracle,
    brightness_checkpoint,
    planted_image,
)
from test_metrics import (
    Record,
    _loc_acc_oracle,
    _max_box_acc_oracle,
    array_loc_acc,
    array_max_box_acc_v2,
    random_records,
)
from test_token_refine import selection_oracle

TINY = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                   num_heads=2, num_classes=3)

TOY = ToyTaskConfig(image_size=32, num_classes=2, min_object=14, max_object=24,
                    noise_level=0.6, samples_per_epoch=64, seed=7)
TRAIN = TrainConfig(learning_rate=0.1, weight_decay=5e-4, steps_phase1=200,
                    steps_phase2=100, batch_size=8, seed=9)
HELDOUT_SEED = 99


def _report(name, elapsed, budget, detail=""):
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"[PASS] {name}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")


@pytest.fixture(scope="module")
def trained():
    cfg, params, curve = train_toy(TOY, TRAIN)
    return cfg, params, curve


def test_criterion_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(0)

    def rand(*shape):
        return rng.uniform(-1, 1, size=shape).astype(np.float32)

    # every backward rule on random inputs of length <= 64
    w6, w8, w34, w43, w244 = rand(6), rand(8), (rand(3, 4)), rand(4, 3), rand(2, 4, 4)
    mask = np.array([1, 0, 1, 1, 0, 1], np.float32)
    checks = [
        ("matmul", lambda a, b: nm.reduce_sum(nm.mul(nm.matmul(a, b), w34)),
         [rand(3, 5), rand(5, 4)]),
        ("softmax", lambda x: nm.reduce_sum(nm.mul(nm.softmax(x), w8)), [rand(8) * 3]),
        ("masked_softmax", lambda x: nm.reduce_sum(nm.mul(nm.masked_softmax(x, mask), w6)),
         [rand(6) * 3]),
        ("layer_norm", lambda x, g, b: nm.reduce_sum(nm.mul(nm.layer_norm(x, g, b), w8)),
         [rand(8) * 2, rand(8), rand(8)]),
        ("gelu", lambda x: nm.reduce_sum(nm.mul(nm.gelu(x), w8)), [rand(8) * 2]),
        ("bilinear_resize",
         lambda m: nm.reduce_sum(nm.mul(nm.bilinear_resize(m, 4, 3), w43)), [rand(3, 4)]),
        ("add", lambda a, b: nm.reduce_sum(nm.mul(nm.add(a, b), w34)), [rand(3, 4), rand(4)]),
        ("mul", lambda a, b: nm.reduce_sum(nm.mul(nm.mul(a, b), w34)), [rand(3, 4), rand(4)]),
        ("div", lambda a, b: nm.reduce_sum(nm.mul(nm.div(a, b), w6)),
         [rand(6), (rand(6) * 0.4 + 2.0).astype(np.float32)]),
        ("conv2d3x3", lambda x, k, b: nm.reduce_sum(nm.mul(nm.conv2d3x3(x, k, b), w244)),
         [rand(4, 4, 3), rand(2, 3, 3, 3), rand(2)]),
        ("log", lambda x: nm.reduce_sum(nm.mul(nm.log(x), w6)),
         [(rand(6) * 0.4 + 1.0).astype(np.float32)]),
    ]
    for name, build, args in checks:
        check_op_gradients(build, args, what=name)

    # full composed two-branch loss on the tiny config
    params = init_params(TINY, 1)
    image = rng.random((1, 3, 8, 8)).astype(np.float32)
    label = [2]
    base = two_branch_forward(params, TINY, image)
    frozen = (base.selection.threshold[0], base.selection.mask[0])

    def pinned(_):
        return frozen

    tape = nm.GradTape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    result = two_branch_forward(leaves, TINY, image, selector=pinned)
    loss = nm.reduce_sum(cross_entropy_joint(result.p_cam, result.p_refine, label))
    grads = backward(loss, tape, leaves)

    def loss_at(name, value):
        probe = dict(params)
        probe[name] = value
        out = two_branch_forward(probe, TINY, image, selector=pinned)
        return float(nm.value_of(cross_entropy_joint(out.p_cam, out.p_refine, label))[0])

    total = 0
    for name, base_value in params.items():
        fd = finite_diff_grad(lambda v, n=name: loss_at(n, v), base_value, 1e-2)
        assert_grads_close(grads[name], fd, what=f"composed loss wrt {name}")
        total += base_value.size
    _report("gradient suite", time.monotonic() - start, 60.0,
            f"all backward rules + {total} composed-loss parameters")


def test_criterion_attention_contracts():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    checked_rows = 0
    for trial in range(100):
        heads = int(rng.choice([1, 2, 4]))
        cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                          num_heads=heads, num_classes=2)
        params = init_params(cfg, 100 + trial)
        image = rng.random((1, 3, 8, 8)).astype(np.float32)
        result = two_branch_forward(params, cfg, image)
        # the backbone keeps each block's class-token rows; check its whole
        # attention, and that the kept rows are that attention's first rows
        _, probs = block_forward(embed(patchify(image, cfg.patch_size), params, cfg), params,
                                 "backbone.block0", heads)
        assert len(result.stack) == 1
        assert np.array_equal(result.stack[0], probs[:, :, :1])
        for a in probs[0]:
            assert np.all(a >= 0)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-5)
            checked_rows += a.shape[0]
        n = cfg.num_tokens
        b = (rng.random(n) < rng.uniform(0.2, 0.9)).astype(np.float32)
        if b.sum() == 0:
            b[int(rng.integers(n))] = 1.0
        matrix = selection_matrix(b)
        z_p = rng.standard_normal((1, n, cfg.embed_dim)).astype(np.float32)
        _, masked = mhsa(z_p, params, "refine.mask_block", heads, mask=matrix[None])
        for a in masked[0]:
            assert np.all(a[matrix == 0] == 0.0)
            assert np.all(a >= 0)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-5)
            checked_rows += a.shape[0]
    _report("attention contracts", time.monotonic() - start, 30.0,
            f"{checked_rows} attention rows over 100 forwards")


def test_criterion_selection_suite():
    start = time.monotonic()
    rng = np.random.default_rng(2)
    for trial in range(500):
        n = int(rng.integers(1, 13))
        m = (rng.random(n) * float(rng.choice([0.5, 1.0, 20.0]))).astype(np.float32)
        if float(m.sum()) == 0.0:
            m[0] = np.float32(0.5)
        u = float(rng.uniform(0.02, 1.0))
        tau, mask = adaptive_select(m, u)
        tau_oracle, selected_oracle = selection_oracle(m, u)
        assert set(np.flatnonzero(mask)) == selected_oracle
        assert tau == tau_oracle

        total = float(m.astype(np.float64).sum())
        assert float(m.astype(np.float64)[mask > 0].sum()) / total >= u - 1e-9

        _, wider = adaptive_select(m, min(1.0, u + float(rng.uniform(0, 1.0 - u + 1e-9))))
        assert set(np.flatnonzero(mask)) <= set(np.flatnonzero(wider))

        for c in (0.25, 8.0):
            _, scaled = adaptive_select((m * np.float32(c)).astype(np.float32), u)
            assert np.array_equal(mask, scaled)
    _report("selection suite", time.monotonic() - start, 10.0,
            "500 random vectors vs exhaustive-prefix oracle, exact")


def test_criterion_reattention_conservation():
    start = time.monotonic()
    refined = reattention(np.array([0.5, 0.3, 0.2], np.float32),
                          np.array([1, 1, 0], np.float32),
                          np.array([0.9, 0.1, 0.0], np.float32))
    assert np.allclose(refined, [0.72, 0.08, 0.2], atol=1e-6)

    rng = np.random.default_rng(3)
    for trial in range(1000):
        n = int(rng.integers(1, 24))
        m = (rng.random(n) * float(rng.choice([1.0, 10.0]))).astype(np.float32)
        b = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(np.float32)
        lam = np.zeros(n, np.float32)
        if b.sum() > 0:
            raw = (rng.random(n) + 1e-3) * b
            lam = (raw / raw.sum()).astype(np.float32)
        out = reattention(m, b, lam)
        before = float(m.astype(np.float64).sum())
        after = float(nm.value_of(out).astype(np.float64).sum())
        assert abs(after - before) < 1e-5
    _report("re-attention conservation", time.monotonic() - start, 5.0,
            "1000 random triples incl. degenerate masks + hand example")


def test_criterion_selection_matrix_structure():
    start = time.monotonic()
    count = 0
    for n in range(1, 9):
        for bits in itertools.product((0.0, 1.0), repeat=n):
            b = np.array(bits, np.float32)
            matrix = selection_matrix(b)
            assert np.array_equal(np.diag(matrix), np.ones(n))
            off = ~np.eye(n, dtype=bool)
            for j in range(n):
                assert np.all(matrix[:, j][off[:, j]] == b[j])
            count += 1
    _report("selection-matrix structure", time.monotonic() - start, 5.0,
            f"all {count} masks for N <= 8, exact")


def test_criterion_metric_oracles():
    start = time.monotonic()
    pred, gt = (0, 0, 10, 6), (0, 0, 10, 10)
    assert array_max_box_acc_v2([Record(pred, [gt], 0, [0, 1])]) == pytest.approx(2 / 3)

    rng = np.random.default_rng(4)
    for trial in range(100):
        records = random_records(rng, int(rng.integers(1, 12)), size=16)
        for mode in ("gt-known", "top1", "top5"):
            assert array_loc_acc(records, mode) == _loc_acc_oracle(records, mode)
        assert array_max_box_acc_v2(records) == _max_box_acc_oracle(records)
    _report("metric oracles", time.monotonic() - start, 10.0,
            "100 record sets, exact, incl. single-record 2/3 case")


def test_criterion_component_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    for trial in range(200):
        mask = rng.random((16, 16)) < rng.uniform(0.3, 0.7)
        assert_labeller_matches_oracle(mask.astype(np.float32), [0.5])
    _report("component oracle", time.monotonic() - start, 5.0,
            "200 random 16x16 masks vs recursive flood fill, exact")


def test_criterion_end_to_end_synthetic(trained):
    start = time.monotonic()
    cfg, params, _ = trained
    samples = make_dataset(replace(TOY, samples_per_epoch=50, seed=HELDOUT_SEED))

    theta_star, table = grid_search_threshold(params, cfg, samples)
    gt_known = dict(table)[theta_star]
    assert gt_known >= 0.70, f"GT-known accuracy {gt_known} below 0.70"

    rows = run_ablation(params, cfg, samples,
                        [parse_strategy(text, cfg.selection_mass)
                         for text in ("adaptive:0.65", "fixed:mean")],
                        reattention_on=True)
    by_label = {label: acc for label, _, _, acc, _ in rows}
    assert by_label["adaptive:0.65"] >= by_label["fixed:mean"], by_label
    _report("end-to-end synthetic localization", time.monotonic() - start, 300.0,
            f"GT-known {gt_known:.2f} at theta*={theta_star:.2f}; "
            f"adaptive {by_label['adaptive:0.65']:.2f} >= fixed-mean {by_label['fixed:mean']:.2f}")


def test_criterion_training_progress(trained):
    start = time.monotonic()
    _, _, curve = trained
    phase1 = [loss for _, phase, loss in curve if phase == 1]
    assert len(phase1) == 200
    ratio = float(np.mean(phase1[-20:]) / np.mean(phase1[:20]))
    assert ratio <= 0.7, f"loss ratio {ratio}"

    short = TrainConfig(learning_rate=0.1, weight_decay=5e-4, steps_phase1=20,
                        steps_phase2=0, batch_size=4, seed=5)
    longer = replace(short, steps_phase2=10)
    small_toy = replace(TOY, samples_per_epoch=8)
    _, after_p1, _ = train_toy(small_toy, short)
    _, after_p2, _ = train_toy(small_toy, longer)
    for name in after_p1:
        if not name.startswith("cam."):
            assert after_p1[name].tobytes() == after_p2[name].tobytes(), name
    assert any(not np.array_equal(after_p1[n], after_p2[n])
               for n in after_p1 if n.startswith("cam."))
    _report("toy training progress", time.monotonic() - start, 300.0,
            f"200-step loss ratio {ratio:.3f} <= 0.7; phase 2 froze the rest bit-exactly")


def test_criterion_format_roundtrips(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for trial in range(50):
        shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5))))
        tensor = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / f"t{trial}.trt"
        write_tensor(path, tensor)
        first = path.read_bytes()
        back = read_tensor(path)
        assert np.array_equal(back, tensor)
        write_tensor(path, back)
        assert path.read_bytes() == first

    for trial in range(5):
        cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                          num_heads=2, num_classes=int(rng.integers(2, 5)))
        path = tmp_path / f"c{trial}.ckpt"
        write_checkpoint(path, cfg, init_params(cfg, trial))
        first = path.read_bytes()
        cfg_back, params_back = read_checkpoint(path)
        write_checkpoint(path, cfg_back, params_back)
        assert path.read_bytes() == first

    bad = tmp_path / "bad.trt"
    bad.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(BadMagicError):
        read_tensor(bad)
    cut = tmp_path / "cut.trt"
    blob = bytearray()
    blob += b"TRT1" + struct.pack("<BB", 0, 1) + struct.pack("<I", 4) + b"\x00" * 10
    cut.write_bytes(bytes(blob))
    with pytest.raises(TruncationError):
        read_tensor(cut)
    wrong = tmp_path / "wrong.trt"
    wrong.write_bytes(b"TRT1" + struct.pack("<BB", 7, 1) + struct.pack("<I", 1) + b"\x00" * 4)
    with pytest.raises(UnsupportedDtypeError):
        read_tensor(wrong)
    _report("format roundtrips", time.monotonic() - start, 5.0,
            "50 tensors + 5 checkpoints byte-identical; error classes verified")


def test_criterion_cross_command_consistency(tmp_path):
    start = time.monotonic()
    cfg, params = brightness_checkpoint()
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(ckpt, cfg, params)

    rng = np.random.default_rng(7)
    lines = []
    for i in range(10):
        size = int(rng.choice([8, 12]))
        x0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        y0 = int(rng.integers(0, (32 - size) // 4 + 1)) * 4
        write_tensor(tmp_path / f"img{i}.trt", planted_image(x0, y0, size))
        lines.append(f"id:img{i} image:img{i}.trt label:0 boxes:{x0},{y0},{x0 + size},{y0 + size}")
    manifest = tmp_path / "data.manifest"
    manifest.write_text("\n".join(lines) + "\n")

    table_path = tmp_path / "table.csv"
    assert main(["calibrate", "--ckpt", str(ckpt), "--manifest", str(manifest),
                 "--grid", "grid:0.1:0.9:0.1", "--out-table", str(table_path)]) == 0
    with open(table_path, newline="") as fh:
        table = list(csv.reader(fh))[1:]
    assert len(table) == 9
    for theta_text, acc_text in table:
        report = tmp_path / "report.csv"
        assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--theta", theta_text, "--metrics", "gt-known",
                     "--out-report", str(report)]) == 0
        with open(report, newline="") as fh:
            rows = dict(list(csv.reader(fh))[1:])
        assert rows["gt-known"] == acc_text, f"theta {theta_text}"
    _report("cross-command consistency", time.monotonic() - start, 60.0,
            "calibrate table == per-theta eval on a 10-image fixture, exact")
