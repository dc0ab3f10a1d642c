"""Bit-exact file formats: tensors, checkpoints, manifests, heatmaps.

Tensor files ("TRT1") hold one little-endian float32 array. Checkpoint
files ("TRTC") hold a u32 entry count followed by (u16 name length,
UTF-8 name, payload) entries; the entry named "config" carries the model
configuration as eight u32 fields (image_size, patch_size, embed_dim,
num_blocks, num_heads, mlp_ratio, num_classes, selection_mass * 1e6) and
every other payload is an embedded tensor file. Entries are written with
"config" first, then parameters sorted by name, so identical inputs
always produce identical bytes.

Every output goes through `write_file`, which overwrites in place, so a
crash in mid-write can leave new bytes ahead of a stale tail: the tensor
and checkpoint readers reject a longer tail (exit 3) but read an old file
of the same length as a mix; a CSV or box file has no reader in the CLI
and can keep stale tail rows.
"""

from __future__ import annotations

import io
import math
import os
import re
import stat
import struct
from pathlib import Path

import numpy as np

from .backbone import MAX_PARAM_BYTES, ModelConfig, block_shapes, parameter_shapes
from .errors import (
    BadMagicError,
    CheckpointError,
    ContractError,
    DimensionError,
    FormatError,
    ManifestError,
    TensorHeaderError,
    TruncationError,
    UnsupportedDtypeError,
    cited,
)

TENSOR_MAGIC = b"TRT1"
CHECKPOINT_MAGIC = b"TRTC"
DTYPE_F32 = 0
CONFIG_ENTRY = "config"
# header fields, one layout each for the readers and the writers
_CONFIG_STRUCT = struct.Struct("<8I")
_DTYPE_NDIM = struct.Struct("<BB")
_EXTENTS = tuple(struct.Struct(f"<{ndim}I") for ndim in range(256))  # by the u8 rank
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_F32 = np.dtype("<f4")
MASS_FIXED_POINT = 10 ** 6
# the most bytes a reader takes from a file that is not a regular one (a
# FIFO, /dev/zero): twice the parameter budget, room for any checkpoint's headers
MAX_STREAM_BYTES = 2 * MAX_PARAM_BYTES
_STREAM_CHUNK = 1 << 20
# ASCII digits only (no sign, underscore or other script), and few enough for an int64
_DECIMAL = re.compile("[0-9]{1,18}")


def mass_fixed_point(mass: float) -> int:
    """The whole millionths of `mass` that a checkpoint stores; a mass
    they do not read back exactly is a contract error."""
    fixed = round(mass * MASS_FIXED_POINT)
    if fixed / MASS_FIXED_POINT != mass:
        raise ContractError(f"field 'selection_mass' must be a whole number of millionths, as a "
                            f"checkpoint stores it, got {mass!r}")
    return fixed


def tensor_to_bytes(array) -> bytes:
    arr = np.ascontiguousarray(np.asarray(array, dtype="<f4"))
    if arr.ndim < 1:
        raise DimensionError("tensor files need at least one dimension (use shape (1,))")
    if arr.ndim > 255:
        raise DimensionError(f"too many dimensions: {arr.ndim}")
    header = TENSOR_MAGIC + _DTYPE_NDIM.pack(DTYPE_F32, arr.ndim)
    return header + _EXTENTS[arr.ndim].pack(*arr.shape) + arr.tobytes()


def _truncated(what: str, end: int, size: int) -> TruncationError:
    return TruncationError(f"file ended inside {what} ({end} > {size} bytes)")


def _tensor_header(buffer: bytes, offset: int):
    """Decode the tensor header at `offset`, returning (shape, payload offset)."""
    size = len(buffer)
    magic = buffer[offset:offset + 4]
    if magic != TENSOR_MAGIC:
        if offset + 4 > size:
            raise _truncated("tensor magic", offset + 4, size)
        raise BadMagicError(f"expected magic {TENSOR_MAGIC!r}, found {magic!r}")
    if offset + 6 > size:
        raise _truncated("tensor header", offset + 6, size)
    dtype, ndim = _DTYPE_NDIM.unpack_from(buffer, offset + 4)
    if dtype != DTYPE_F32:
        raise UnsupportedDtypeError(f"unsupported dtype code {dtype}")
    if ndim < 1:
        raise TensorHeaderError("tensor files need at least one dimension")
    offset += 6
    if offset + 4 * ndim > size:
        raise _truncated("tensor extents", offset + 4 * ndim, size)
    shape = _EXTENTS[ndim].unpack_from(buffer, offset)
    if 0 in shape:
        raise TensorHeaderError(f"non-positive extent in {shape}")
    return shape, offset + 4 * ndim


def tensor_from_bytes(buffer: bytes, offset: int = 0):
    """Decode one tensor record, returning (array, next offset)."""
    shape, offset = _tensor_header(buffer, offset)
    end = offset + 4 * math.prod(shape)  # Python ints: a fixed-width product can wrap to 0
    if end > len(buffer):
        raise _truncated("tensor payload", end, len(buffer))
    return np.ndarray(shape, _F32, buffer, offset).copy(), end


def write_file(path, data: bytes) -> None:
    """Write `data` over `path` in place: no O_TRUNC (dear on ext4 with
    auto_da_alloc), then cut to `len(data)` only for a regular file, so a
    FIFO or /dev/null works. A crash can leave new bytes before a stale tail."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_file(path) -> bytes:
    """The bytes of `path`: a regular file in one read, anything else in
    chunks up to MAX_STREAM_BYTES, so an endless stream is a FormatError."""
    with open(path, "rb") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return fh.read()
        data = bytearray()
        while chunk := fh.read(_STREAM_CHUNK):
            data += chunk
            if len(data) > MAX_STREAM_BYTES:
                raise FormatError(f"{path}: not a regular file, and longer than "
                                  f"{MAX_STREAM_BYTES} bytes")
        return bytes(data)


def write_tensor(path, array) -> None:
    write_file(path, tensor_to_bytes(array))


def read_tensor(path) -> np.ndarray:
    data = read_file(path)
    with cited(path):
        array, offset = tensor_from_bytes(data)
        if offset != len(data):
            raise TruncationError(f"{len(data) - offset} trailing bytes after tensor payload")
    return array


def _check_finite(array: np.ndarray, what: str) -> None:
    """Raise ContractError `<what> <value> at index <index>` for the first
    non-finite element of `array`, if it holds one."""
    if not np.isfinite(array).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(array))[0])
        raise ContractError(f"{what} {array[where]} at index {where}")


def read_image(path, what: str = "non-finite pixel") -> np.ndarray:
    """Read an image tensor (or by `what` another tensor that must be finite,
    such as a heat map), rejecting its first non-finite element."""
    image = read_tensor(path)
    with cited(path):
        _check_finite(image, what)
    return image


def _config_to_bytes(cfg: ModelConfig) -> bytes:
    return _CONFIG_STRUCT.pack(
        cfg.image_size, cfg.patch_size, cfg.embed_dim, cfg.num_blocks,
        cfg.num_heads, cfg.mlp_ratio, cfg.num_classes,
        mass_fixed_point(cfg.selection_mass),
    )


def _config_from_bytes(raw: bytes) -> ModelConfig:
    w, p, d, blocks, heads, ratio, k, mass = _CONFIG_STRUCT.unpack(raw)
    try:
        return ModelConfig(image_size=w, patch_size=p, embed_dim=d, num_blocks=blocks,
                           num_heads=heads, num_classes=k, mlp_ratio=ratio,
                           selection_mass=mass / MASS_FIXED_POINT)
    except DimensionError as exc:
        raise CheckpointError(f"invalid config entry: {exc}") from exc


def _check_params(cfg: ModelConfig, params: dict) -> None:
    """Raise CheckpointError unless `params` holds exactly the parameters
    `cfg` implies, each of its shape, and ContractError unless every
    value is finite."""
    expected = parameter_shapes(cfg)
    if expected.keys() != params.keys():
        missing = sorted(expected.keys() - params.keys())
        if missing:
            raise CheckpointError(f"checkpoint is missing parameters: {', '.join(missing)}")
        extra = sorted(params.keys() - expected.keys())
        raise CheckpointError(f"checkpoint has unexpected parameters: {', '.join(extra)}")
    for name, shape in expected.items():
        if np.shape(params[name]) != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {np.shape(params[name])}, config implies {shape}")
    finite = np.isfinite(np.concatenate(list(params.values()), axis=None))
    if not finite.all():  # the offending parameter is looked up only on failure
        name = next(name for name in expected if not np.isfinite(params[name]).all())
        _check_finite(np.asarray(params[name]), f"parameter {name!r} has non-finite value")


def write_checkpoint(path, cfg: ModelConfig, params: dict) -> None:
    """Write config plus every parameter; validates completeness first."""
    _check_params(cfg, params)
    chunks = [CHECKPOINT_MAGIC, _U32.pack(len(params) + 1)]
    ordered = [(CONFIG_ENTRY, _config_to_bytes(cfg))]
    ordered += [(name, tensor_to_bytes(params[name])) for name in sorted(params)]
    for name, payload in ordered:
        encoded = name.encode("utf-8")
        chunks.append(_U16.pack(len(encoded)))
        chunks.append(encoded)
        chunks.append(payload)
    write_file(path, b"".join(chunks))


def read_checkpoint(path):
    """Read and validate a checkpoint, returning (config, params dict)."""
    data = read_file(path)
    with cited(path):
        return _checkpoint_from_bytes(data)


def _checkpoint_from_bytes(data: bytes):
    """Decode and validate checkpoint bytes, returning (config, params dict)."""
    size = len(data)
    if data[:4] != CHECKPOINT_MAGIC:
        if size < 4:
            raise _truncated("checkpoint magic", 4, size)
        raise BadMagicError(f"expected magic {CHECKPOINT_MAGIC!r}, found {data[:4]!r}")
    if size < 8:
        raise _truncated("entry count", 8, size)
    (count,) = _U32.unpack_from(data, 4)
    offset = 8
    cfg = None
    params = {}
    for _ in range(count):
        if offset + 2 > size:
            raise _truncated("entry name length", offset + 2, size)
        (name_len,) = _U16.unpack_from(data, offset)
        offset += 2
        raw = data[offset:offset + name_len]
        offset += name_len
        if offset > size:
            raise _truncated("entry name", offset, size)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"entry name {raw!r} is not UTF-8: {exc.reason}") from exc
        if name == CONFIG_ENTRY:
            if cfg is not None:
                raise CheckpointError("duplicate config entry")
            end = offset + _CONFIG_STRUCT.size
            if end > size:
                raise _truncated("config block", end, size)
            cfg = _config_from_bytes(data[offset:end])
            offset = end
        else:
            if name in params:
                raise CheckpointError(f"duplicate entry {name!r}")
            params[name], offset = tensor_from_bytes(data, offset)
    if offset != len(data):
        raise CheckpointError(f"{len(data) - offset} trailing bytes after the last entry")
    if cfg is None:
        raise CheckpointError("checkpoint has no config entry")
    # the entries of num_blocks + 1 transformer blocks bound num_blocks before a
    # shape table is built, and the stored shapes bound the other extents
    need = len(block_shapes(cfg, "")) * (cfg.num_blocks + 1)
    if need > len(params):
        raise CheckpointError(f"config's {cfg.num_blocks} blocks need {need} parameters, the "
                              f"checkpoint holds {len(params)}")
    _check_params(cfg, params)
    # after the shapes, so that a corrupt extent is named by the checks above
    try:
        cfg.check_memory()
    except DimensionError as exc:
        raise CheckpointError(f"invalid config entry: {exc}") from exc
    return cfg, params


def _decimal(text: str, what: str) -> int:
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{what} {text!r} is not a decimal integer of at most 18 digits")
    return int(text)


def _parse_boxes(text: str, width: int, height: int) -> np.ndarray:
    """The `x0,y0,x1,y1[;...]` boxes of a line as a (G, 4) int64 array,
    each non-empty and inside the width x height image."""
    rows = [[_decimal(c, "box coordinate") for c in part.split(",")]
            for part in text.split(";") if part]
    for row in rows:
        if len(row) != 4:
            raise ValueError(f"box needs 4 coordinates, got {len(row)}")
        x0, y0, x1, y1 = row
        if not (x0 < x1 <= width and y0 < y1 <= height):
            raise ValueError(f"box ({x0},{y0},{x1},{y1}) outside {width}x{height} image")
    if not rows:
        raise ValueError("line has no ground-truth boxes")
    return np.array(rows, np.int64)


def parse_manifest(path, cfg: ModelConfig) -> list:
    """Parse the line-based dataset manifest of samples for the model of `cfg`.

    Each non-blank line holds space-separated key:value fields,
    e.g. `id:img0 image:img0.trt label:1 boxes:4,5,20,21;0,0,8,8`.
    Image paths are resolved relative to the manifest's directory; each
    line's image is read once, with `read_image`, and its shape bounds
    the boxes. The label and the box coordinates are ASCII decimal
    integers. A key repeated on one line and an id repeated across lines
    are errors. An image not of `cfg.check_image`'s shape and a label
    outside its classes are contract errors. Errors cite the 1-based line
    number (an image's own errors follow it). Returns one (image, label,
    (G, 4) int64 boxes) sample per line.
    """
    path = Path(path)
    base = path.parent
    samples = []
    id_lines = {}
    data = read_file(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # universal newlines, as in the parse below
        line_no = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).getvalue().count("\n")
        raise ManifestError(f"{path}:{line_no + 1}: not UTF-8 at byte {exc.start}: "
                            f"{exc.reason}") from exc
    with io.StringIO(text, newline=None) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            with cited(f"{path}:{line_no}"):
                try:
                    fields = {}
                    for token in line.split():
                        key, sep, value = token.partition(":")
                        if not sep:
                            raise ValueError(f"token {token!r} is not key:value")
                        if key in fields:
                            raise ValueError(f"key {key!r} repeated")
                        fields[key] = value
                    for key in ("id", "image", "label", "boxes"):
                        if key not in fields:
                            raise ValueError(f"missing field {key!r}")
                    if fields["id"] in id_lines:
                        raise ValueError(
                            f"id {fields['id']!r} already used on line {id_lines[fields['id']]}")
                    id_lines[fields["id"]] = line_no
                    image = read_image(base / fields["image"])
                    label = _decimal(fields["label"], "label")
                    cfg.check_image(image.shape)
                    if label >= cfg.num_classes:
                        raise ContractError(f"class id {label} out of range for {cfg.num_classes} "
                                            f"classes")
                    _, height, width = image.shape
                    samples.append((image, label, _parse_boxes(fields["boxes"], width, height)))
                except (ValueError, OSError, FormatError) as exc:
                    raise ManifestError(str(exc)) from exc
    return samples


def check_alpha(alpha: float) -> None:
    """The blending weight of `write_heatmap` must be in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise DimensionError(f"alpha must be in [0, 1], got {alpha}")


def write_heatmap(path, heat, image, alpha: float) -> None:
    """Blend a [0,1] heat map over a 3xHxW [0,1] image into a binary PPM.

    Colormap is linear blue (0) to red (1) with zero green; blending is
    alpha*colormap + (1-alpha)*image, quantised half-up to 8 bits.
    """
    heat = np.asarray(heat, dtype=np.float64)
    image = np.asarray(image, dtype=np.float64)
    if heat.ndim != 2 or image.shape != (3,) + heat.shape:
        raise DimensionError(f"heat {heat.shape} does not match image {image.shape}")
    _check_finite(heat, "heat map has non-finite value")
    check_alpha(alpha)
    h, w = heat.shape
    overlay = np.stack([heat, np.zeros_like(heat), 1.0 - heat])
    blended = alpha * overlay + (1.0 - alpha) * image
    pixels = np.clip(np.floor(blended * 255.0 + 0.5), 0, 255).astype(np.uint8)
    write_file(path, f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.transpose(1, 2, 0).tobytes())
