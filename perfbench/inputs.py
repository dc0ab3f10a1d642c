"""Seeded benchmark inputs, written with the file formats README.md specifies.

The benchmark builds its inputs itself, so a change to the program cannot
change what the program is fed. Workload seed ``n`` selects fixture
``k = n % SEED_SPACE``: toy-task seed ``7 + k``, training seed ``9 + k``
and held-out seed ``99 + k``. Seed 0 is the acceptance fixture. Expected
outputs were recorded for every ``k`` (see record.py), which is why the
seed space is finite.
"""

from __future__ import annotations

import colorsys
import json
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "data" / "acceptance.ckpt"
EXPECTED = HERE / "data" / "expected.json"

SEED_SPACE = 32
IMAGE_SIZE = 32
NUM_CLASSES = 2
HELDOUT_IMAGES = 50
TRAIN_STEPS = (6, 2)   # phase 1, phase 2 steps of one train-toy command
BATCH_SIZE = 8
TOY = {"image_size": IMAGE_SIZE, "num_classes": NUM_CLASSES, "min_object": 14,
       "max_object": 24, "noise_level": 0.6, "samples_per_epoch": 64}


def fixture_index(seed: int) -> int:
    return seed % SEED_SPACE


def toy_samples(seed: int, count: int) -> list:
    """(image 3xHxW float32, label, (x0, y0, x1, y1)) triples.

    Same draws as ``tokenloc.training.make_dataset`` for the toy config
    above, so seed 99 gives the acceptance held-out set.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    side, tile = IMAGE_SIZE, IMAGE_SIZE // 4
    samples = []
    for _ in range(count):
        label = int(rng.integers(NUM_CLASSES))
        size = int(rng.integers(TOY["min_object"], TOY["max_object"] + 1))
        x0 = int(rng.integers(side - size + 1))
        y0 = int(rng.integers(side - size + 1))
        clutter = rng.random((3, 4, 4))
        image = np.stack([np.kron(clutter[c], np.ones((tile, tile))) for c in range(3)])
        image = (TOY["noise_level"] * image).astype(np.float32)
        colour = np.asarray(colorsys.hsv_to_rgb(label / NUM_CLASSES, 1.0, 1.0), dtype=np.float32)
        image[:, y0:y0 + size, x0:x0 + size] = colour[:, None, None]
        samples.append((image, label, (x0, y0, x0 + size, y0 + size)))
    return samples


def write_tensor(path: Path, array) -> None:
    """TRT1 tensor file: magic, dtype 0 (float32), rank, u32 extents, payload."""
    arr = np.ascontiguousarray(np.asarray(array, dtype="<f4"))
    header = b"TRT1" + struct.pack("<BB", 0, arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    path.write_bytes(header + arr.tobytes())


def read_tensor(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"TRT1" or data[4] != 0:
        raise ValueError(f"{path}: not a float32 TRT1 tensor")
    ndim = data[5]
    shape = struct.unpack(f"<{ndim}I", data[6:6 + 4 * ndim])
    payload = data[6 + 4 * ndim:]
    if len(payload) != 4 * int(np.prod(shape)):
        raise ValueError(f"{path}: payload does not match shape {shape}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape)


@dataclass
class Inputs:
    root: Path
    checkpoint: Path
    toy_config: Path
    train_config: Path
    manifest: Path                # all held-out images
    images: list                  # held-out image paths
    expected: dict | None = None  # recorded outputs for this fixture


def load_expected(seed: int) -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))["fixtures"][fixture_index(seed)]


def build(root: Path, seed: int) -> Inputs:
    """Write one fixture's configs, held-out images, manifest and checkpoint."""
    k = fixture_index(seed)
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    toy_config = root / "toy.json"
    toy_config.write_text(json.dumps(dict(TOY, seed=7 + k)), encoding="utf-8")
    train_config = root / "train.json"
    train_config.write_text(json.dumps({
        "learning_rate": 0.1, "weight_decay": 0.0005, "steps_phase1": TRAIN_STEPS[0],
        "steps_phase2": TRAIN_STEPS[1], "batch_size": BATCH_SIZE, "seed": 9 + k,
    }), encoding="utf-8")
    images, lines = [], []
    for i, (image, label, (x0, y0, x1, y1)) in enumerate(toy_samples(99 + k, HELDOUT_IMAGES)):
        path = root / f"img{i}.trt"
        write_tensor(path, image)
        images.append(path)
        lines.append(f"id:img{i} image:{path.name} label:{label} boxes:{x0},{y0},{x1},{y1}")
    manifest = root / "heldout.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    checkpoint = root / "model.ckpt"
    shutil.copyfile(CHECKPOINT, checkpoint)
    return Inputs(root=root, checkpoint=checkpoint, toy_config=toy_config,
                  train_config=train_config, manifest=manifest, images=images)
