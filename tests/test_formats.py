"""File-format tests: tensors, checkpoints, manifests, heatmaps."""

import contextlib
import os
import struct
import threading
from dataclasses import replace

import numpy as np
import pytest

from tokenloc.backbone import ModelConfig, init_params, parameter_shapes
from tokenloc import formats
from tokenloc.errors import (
    BadMagicError,
    CheckpointError,
    ContractError,
    FormatError,
    ManifestError,
    TensorHeaderError,
    TruncationError,
    UnsupportedDtypeError,
)
from tokenloc.formats import (
    MASS_FIXED_POINT,
    mass_fixed_point,
    parse_manifest,
    read_checkpoint,
    read_tensor,
    tensor_to_bytes,
    write_checkpoint,
    write_file,
    write_heatmap,
    write_tensor,
)

CFG = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                  num_heads=2, num_classes=3, selection_mass=0.65)


def test_tensor_roundtrip_bytes_and_values(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "t.trt"
    for _ in range(50):
        ndim = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        tensor = rng.standard_normal(shape).astype(np.float32)
        write_tensor(path, tensor)
        back = read_tensor(path)
        assert np.array_equal(back, tensor)
        assert back.dtype == np.float32
        write_tensor(tmp_path / "again.trt", back)
        assert (tmp_path / "again.trt").read_bytes() == path.read_bytes()


def test_tensor_byte_layout():
    tensor = np.array([1.5], np.float32)
    blob = tensor_to_bytes(tensor)
    # magic(4) + dtype u8 + ndim u8 + one u32 extent + one f32 payload
    assert blob[:4] == b"TRT1"
    assert blob[4] == 0 and blob[5] == 1
    assert struct.unpack("<I", blob[6:10]) == (1,)
    assert struct.unpack("<f", blob[10:14]) == (1.5,)
    assert len(blob) == 14


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.trt"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagicError, match="TRT1"):
        read_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "cut.trt"
    blob = tensor_to_bytes(np.arange(6, dtype=np.float32))
    path.write_bytes(blob[:-5])
    with pytest.raises(TruncationError):
        read_tensor(path)


def test_tensor_unknown_dtype(tmp_path):
    path = tmp_path / "dtype.trt"
    blob = bytearray(tensor_to_bytes(np.zeros(2, np.float32)))
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedDtypeError):
        read_tensor(path)


def test_tensor_trailing_garbage(tmp_path):
    path = tmp_path / "trail.trt"
    path.write_bytes(tensor_to_bytes(np.zeros(2, np.float32)) + b"xx")
    with pytest.raises(TruncationError):
        read_tensor(path)


def test_write_file_finishes_short_writes_and_cuts_the_stale_tail(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"\xaa" * 1000)
    data = bytes(range(256)) * 2
    sizes = []
    real_write = os.write

    def short_write(fd, buffer):  # at most 7 bytes per call, as a pipe or signal may allow
        sizes.append(len(buffer))
        return real_write(fd, bytes(buffer[:7]))

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_write)
        write_file(path, data)
    assert path.read_bytes() == data
    assert sizes == list(range(len(data), 0, -7))


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "model.ckpt"
    params = init_params(CFG, 1)
    write_checkpoint(path, CFG, params)
    cfg_back, params_back = read_checkpoint(path)
    assert cfg_back == CFG
    assert set(params_back) == set(params)
    for name in params:
        assert np.array_equal(params_back[name], params[name])
    write_checkpoint(tmp_path / "again.ckpt", cfg_back, params_back)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_missing_parameter_named(tmp_path):
    path = tmp_path / "missing.ckpt"
    params = init_params(CFG, 2)
    blob = bytearray()
    blob += b"TRTC"
    names = sorted(set(params) - {"cam.conv.weight"})
    blob += struct.pack("<I", len(names) + 1)
    config_payload = struct.pack("<8I", 8, 4, 8, 2, 2, 4, 3, 650000)
    for name, payload in [("config", config_payload)] + [
            (n, tensor_to_bytes(params[n])) for n in names]:
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded)) + encoded + payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="cam.conv.weight"):
        read_checkpoint(path)


def test_checkpoint_duplicate_entry(tmp_path):
    path = tmp_path / "dup.ckpt"
    params = init_params(CFG, 3)
    blob = bytearray()
    blob += b"TRTC"
    names = sorted(params) + ["embed.cls"]
    blob += struct.pack("<I", len(names) + 1)
    config_payload = struct.pack("<8I", 8, 4, 8, 2, 2, 4, 3, 650000)
    for name, payload in [("config", config_payload)] + [
            (n, tensor_to_bytes(params[n])) for n in names]:
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded)) + encoded + payload
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="duplicate"):
        read_checkpoint(path)


def test_checkpoint_shape_mismatch(tmp_path):
    path = tmp_path / "shape.ckpt"
    params = init_params(CFG, 4)
    params["embed.cls"] = np.zeros((2, 8), np.float32)
    with pytest.raises(CheckpointError):
        write_checkpoint(path, CFG, params)
        read_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        read_checkpoint(path)


def test_checkpoint_entry_count_matches_structural_scan(tmp_path):
    rng = np.random.default_rng(5)
    for trial in range(5):
        path = tmp_path / f"scan{trial}.ckpt"
        write_checkpoint(path, CFG, init_params(CFG, trial))
        data = path.read_bytes()
        (declared,) = struct.unpack("<I", data[4:8])
        offset, scanned = 8, 0
        while offset < len(data):
            (name_len,) = struct.unpack("<H", data[offset:offset + 2])
            offset += 2
            name = data[offset:offset + name_len].decode()
            offset += name_len
            if name == "config":
                offset += 32
            else:
                (dtype, ndim) = struct.unpack("<BB", data[offset + 4:offset + 6])
                shape = struct.unpack(f"<{ndim}I", data[offset + 6:offset + 6 + 4 * ndim])
                count = int(np.prod(shape))
                offset += 6 + 4 * ndim + 4 * count
            scanned += 1
        assert scanned == declared == len(parameter_shapes(CFG)) + 1


def test_checkpoint_mass_fixed_point(tmp_path):
    cfg = ModelConfig(image_size=8, patch_size=4, embed_dim=8, num_blocks=2,
                      num_heads=2, num_classes=3, selection_mass=0.123456)
    path = tmp_path / "u.ckpt"
    write_checkpoint(path, cfg, init_params(cfg, 6))
    cfg_back, _ = read_checkpoint(path)
    assert cfg_back.selection_mass == pytest.approx(0.123456, abs=1e-6)


@pytest.mark.parametrize("mass", [1e-9, 0.6500004, 0.1 + 0.2])
def test_checkpoint_writer_rejects_a_mass_its_millionths_cannot_hold(tmp_path, mass):
    cfg = replace(CFG, selection_mass=mass)
    path = tmp_path / "u.ckpt"
    with pytest.raises(ContractError, match="whole number of millionths"):
        write_checkpoint(path, cfg, init_params(cfg, 6))
    assert not path.exists()


def test_checkpoint_writer_rejects_a_non_finite_parameter(tmp_path):
    params = init_params(CFG, 6)
    params["cam.conv.weight"][1, 2, 0, 1] = np.inf
    path = tmp_path / "u.ckpt"
    with pytest.raises(ContractError, match=r"^parameter 'cam.conv.weight' has non-finite value "
                                            r"inf at index \(1, 2, 0, 1\)$"):
        write_checkpoint(path, CFG, params)
    assert not path.exists()


def test_a_whole_number_of_millionths_reads_back_as_the_same_mass():
    for fixed in [*range(1, MASS_FIXED_POINT, 997), MASS_FIXED_POINT - 1, MASS_FIXED_POINT]:
        mass = float(f"0.{fixed:06d}") if fixed < MASS_FIXED_POINT else 1.0
        assert mass_fixed_point(mass) == fixed
        assert mass_fixed_point(mass) / MASS_FIXED_POINT == mass


def _write_image(tmp_path, name, shape=(3, 8, 8)):
    path = tmp_path / name
    write_tensor(path, np.zeros(shape, np.float32))
    return path


def test_manifest_empty_file(tmp_path):
    path = tmp_path / "empty.manifest"
    path.write_text("")
    assert parse_manifest(path, CFG) == []


def test_manifest_three_line_fixture(tmp_path):
    _write_image(tmp_path, "a.trt")
    _write_image(tmp_path, "b.trt")
    lines = [
        "id:a image:a.trt label:0 boxes:0,0,4,4",
        "",
        "id:b image:b.trt label:1 boxes:1,2,5,6;0,0,8,8",
        "id:c image:a.trt label:0 boxes:2,2,3,3",
    ]
    path = tmp_path / "m.manifest"
    path.write_text("\n".join(lines) + "\n")
    samples = parse_manifest(path, CFG)
    assert [label for _, label, _ in samples] == [0, 1, 0]
    assert all(image.shape == (3, 8, 8) for image, _, _ in samples)
    assert samples[1][2].tolist() == [[1, 2, 5, 6], [0, 0, 8, 8]]
    assert samples[2][2].dtype == np.int64 and samples[2][2].tolist() == [[2, 2, 3, 3]]


def test_manifest_inverted_box_cites_line(tmp_path):
    _write_image(tmp_path, "a.trt")
    path = tmp_path / "m.manifest"
    path.write_text("id:a image:a.trt label:0 boxes:0,0,4,4\n"
                    "id:b image:a.trt label:0 boxes:5,0,5,4\n")
    with pytest.raises(ManifestError, match=":2:"):
        parse_manifest(path, CFG)


def test_manifest_out_of_bounds_box(tmp_path):
    _write_image(tmp_path, "a.trt")
    path = tmp_path / "m.manifest"
    path.write_text("id:a image:a.trt label:0 boxes:0,0,9,4\n")
    with pytest.raises(ManifestError, match=":1:"):
        parse_manifest(path, CFG)


def test_manifest_missing_field(tmp_path):
    _write_image(tmp_path, "a.trt")
    path = tmp_path / "m.manifest"
    path.write_text("id:a image:a.trt boxes:0,0,4,4\n")
    with pytest.raises(ManifestError, match="label"):
        parse_manifest(path, CFG)


def test_manifest_repeated_key_cites_line(tmp_path):
    _write_image(tmp_path, "a.trt")
    path = tmp_path / "m.manifest"
    path.write_text("id:a image:a.trt label:0 boxes:0,0,4,4\n"
                    "id:b image:a.trt label:1 boxes:0,0,4,4 boxes:1,1,2,2\n")
    with pytest.raises(ManifestError, match=":2: key 'boxes' repeated"):
        parse_manifest(path, CFG)


def test_manifest_repeated_id_cites_both_lines(tmp_path):
    _write_image(tmp_path, "a.trt")
    path = tmp_path / "m.manifest"
    path.write_text("id:a image:a.trt label:0 boxes:0,0,4,4\n\n"
                    "id:a image:a.trt label:1 boxes:0,0,4,4\n")
    with pytest.raises(ManifestError, match=":3: id 'a' already used on line 1"):
        parse_manifest(path, CFG)


def test_manifest_missing_image_file(tmp_path):
    path = tmp_path / "m.manifest"
    path.write_text("id:a image:gone.trt label:0 boxes:0,0,4,4\n")
    with pytest.raises(ManifestError, match=":1:"):
        parse_manifest(path, CFG)


def test_heatmap_colormap_endpoints(tmp_path):
    image = np.zeros((3, 2, 2), np.float32)
    blue = tmp_path / "blue.ppm"
    write_heatmap(blue, np.zeros((2, 2), np.float32), image, alpha=1.0)
    data = blue.read_bytes()
    assert data.startswith(b"P6\n2 2\n255\n")
    assert data[len(b"P6\n2 2\n255\n"):] == bytes([0, 0, 255] * 4)

    red = tmp_path / "red.ppm"
    write_heatmap(red, np.ones((2, 2), np.float32), image, alpha=1.0)
    assert red.read_bytes().endswith(bytes([255, 0, 0] * 4))


def test_heatmap_alpha_zero_quantizes_image(tmp_path):
    rng = np.random.default_rng(7)
    image = rng.random((3, 2, 3)).astype(np.float32)
    path = tmp_path / "img.ppm"
    write_heatmap(path, np.zeros((2, 3), np.float32), image, alpha=0.0)
    payload = path.read_bytes()[len(b"P6\n3 2\n255\n"):]
    expected = np.floor(image.astype(np.float64) * 255.0 + 0.5).astype(np.uint8)
    assert payload == expected.transpose(1, 2, 0).tobytes()


def test_heatmap_dim_mismatch(tmp_path):
    from tokenloc.errors import DimensionError
    with pytest.raises(DimensionError):
        write_heatmap(tmp_path / "x.ppm", np.zeros((2, 2), np.float32),
                      np.zeros((3, 4, 4), np.float32), alpha=0.5)


def test_heatmap_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(8)
    heat = rng.random((4, 4)).astype(np.float32)
    image = rng.random((3, 4, 4)).astype(np.float32)
    write_heatmap(tmp_path / "a.ppm", heat, image, 0.4)
    write_heatmap(tmp_path / "b.ppm", heat, image, 0.4)
    assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()


def _decode_outcome(decode, data):
    """('ok', result) or (error class, message) of one decode."""
    try:
        return "ok", decode(data)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _cited(path, outcome):
    """An oracle's outcome as a reader of `path` reports it: an error's
    message behind the path."""
    kind, result = outcome
    return outcome if kind == "ok" else (kind, f"{path}: {result}")


def _assert_same_decode(got, want, what):
    assert got[0] == want[0], (what, got, want)
    if got[0] != "ok":
        assert got[1] == want[1], what
        return
    if isinstance(want[1], np.ndarray):
        pairs = [(got[1], want[1])]
    else:
        (cfg, params), (want_cfg, want_params) = got[1], want[1]
        assert cfg == want_cfg and list(params) == list(want_params), what
        pairs = [(params[name], want_params[name]) for name in want_params]
    for array, want_array in pairs:
        assert array.dtype == want_array.dtype == np.float32 and array.flags.writeable, what
        assert array.shape == want_array.shape, what
        assert array.tobytes() == want_array.tobytes(), what


def _structure_offsets(data):
    """Offsets of a checkpoint's non-payload bytes, and one offset inside
    each tensor payload."""
    offsets, inside = list(range(8)), []
    offset = 8
    while offset < len(data):
        (name_len,) = struct.unpack("<H", data[offset:offset + 2])
        name = data[offset + 2:offset + 2 + name_len]
        head = offset + 2 + name_len
        if name == b"config":
            end = head + 32
        else:
            (ndim,) = struct.unpack("<B", data[head + 5:head + 6])
            shape = struct.unpack(f"<{ndim}I", data[head + 6:head + 6 + 4 * ndim])
            payload = head + 6 + 4 * ndim
            end = payload + 4 * int(np.prod(shape))
            inside.append((payload + end) // 2)
            head = payload
        offsets += range(offset, head)
        offset = end
    return offsets, inside


def _checkpoint_cases():
    """Checkpoint bytes: valid files, the broken files of the checkpoint
    tests above and of the CLI decode table, and truncations and 0x7f and
    0xff bytes at the first 200 structure bytes and inside each payload."""
    from test_cli import CHECKPOINT_PATCHES
    from test_localization import brightness_checkpoint
    from test_pipeline import ACCEPTANCE_CKPT

    def blob(cfg, params, names, config=None):
        out = b"TRTC" + struct.pack("<I", len(names) + 1)
        config = config or struct.pack("<8I", cfg.image_size, cfg.patch_size, cfg.embed_dim,
                                       cfg.num_blocks, cfg.num_heads, cfg.mlp_ratio,
                                       cfg.num_classes, 650000)
        for name, payload in [("config", config)] + [(n, tensor_to_bytes(params[n]))
                                                     for n in names]:
            out += struct.pack("<H", len(name.encode())) + name.encode() + payload
        return out

    params = init_params(CFG, 2)
    small = blob(CFG, params, sorted(params))
    bright_cfg, bright_params = brightness_checkpoint()
    bright = blob(bright_cfg, bright_params, sorted(bright_params))
    cases = {"acceptance": ACCEPTANCE_CKPT.read_bytes(), "small": small, "bright": bright,
             "missing": blob(CFG, params, sorted(set(params) - {"cam.conv.weight"})),
             "duplicate": blob(CFG, params, sorted(params) + ["embed.cls"]),
             "extra": blob(CFG, {**params, "zz": np.ones(1, np.float32)},
                           sorted(params) + ["zz"]),
             "no config": b"TRTC" + struct.pack("<I", 0),
             "two configs": small[:48] + small[8:],
             "bad magic": b"NOPE" + b"\x00" * 32, "junk": b"JUNKJUNKJUNK",
             "trailing": small + b"x"}
    for offset, patch, _ in CHECKPOINT_PATCHES:
        cases[f"patch {offset} {patch!r}"] = (bright[:offset] + patch
                                               + bright[offset + len(patch):])
    offsets, inside = _structure_offsets(small)
    offsets = offsets[:200] + inside  # the header, the config and the first tensor entries
    for cut in offsets:
        cases[f"cut {cut}"] = small[:cut]
    for offset in offsets:
        for byte in (0x7F, 0xFF):
            cases[f"flip {offset} {byte}"] = small[:offset] + bytes([byte]) + small[offset + 1:]
    return cases


def test_checkpoint_decoder_matches_the_sliced_oracle(tmp_path):
    from util import read_checkpoint_oracle

    path = tmp_path / "case.ckpt"
    outcomes = set()
    for what, data in _checkpoint_cases().items():
        path.write_bytes(data)
        got = _decode_outcome(read_checkpoint, path)
        _assert_same_decode(got, _cited(path, _decode_outcome(read_checkpoint_oracle, data)),
                            what)
        outcomes.add(got[0])
    # every class of outcome the format has shows up in the table
    assert {"ok", BadMagicError, CheckpointError, TruncationError,
            UnsupportedDtypeError, TensorHeaderError} <= outcomes


def test_tensor_decoder_matches_the_sliced_oracle(tmp_path):
    from util import read_tensor_oracle

    blob = tensor_to_bytes(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    cases = {"valid": blob, "scalar row": tensor_to_bytes(np.array([1.5], np.float32)),
             "bad magic": b"XXXX" + b"\x00" * 16, "cut payload": blob[:-5],
             "trailing": blob + b"xx", "dtype": blob[:4] + b"\x09" + blob[5:],
             "rank 0": b"TRT1" + struct.pack("<BB", 0, 0),
             "zero extent": b"TRT1" + struct.pack("<BB3I", 0, 3, 3, 0, 32),
             "extent overflow": (b"TRT1" + struct.pack("<BB", 0, 8)
                                 + struct.pack("<8I", *[2 ** 31] * 8))}
    for cut in range(len(blob)):
        cases[f"cut {cut}"] = blob[:cut]
    for offset in range(18):
        for byte in (0x7F, 0xFF, 0x00):
            cases[f"flip {offset} {byte}"] = blob[:offset] + bytes([byte]) + blob[offset + 1:]
    path = tmp_path / "case.trt"
    outcomes = set()
    for what, data in cases.items():
        path.write_bytes(data)
        got = _decode_outcome(read_tensor, path)
        _assert_same_decode(got, _cited(path, _decode_outcome(read_tensor_oracle, data)), what)
        outcomes.add(got[0])
    assert {"ok", BadMagicError, TruncationError, UnsupportedDtypeError,
            TensorHeaderError} <= outcomes


@pytest.mark.parametrize("size", [0, 1, 99, 100, 101, 250])
def test_a_stream_is_read_up_to_the_cap_and_no_further(tmp_path, monkeypatch, size):
    monkeypatch.setattr(formats, "MAX_STREAM_BYTES", 100)
    monkeypatch.setattr(formats, "_STREAM_CHUNK", 7)
    data = bytes(range(256))[:size]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:   # the reader may stop
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        if size <= 100:
            assert formats.read_file(fifo) == data
        else:
            with pytest.raises(FormatError, match=f"^{fifo}: not a regular file, and longer "
                                                  "than 100 bytes$"):
                formats.read_file(fifo)
    finally:
        writer.join(60)
    regular = tmp_path / "regular"
    regular.write_bytes(data)
    assert formats.read_file(regular) == data   # a regular file has no cap
