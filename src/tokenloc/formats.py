"""Bit-exact file formats: tensors, checkpoints, manifests, heatmaps.

Tensor files ("TRT1") hold one little-endian float32 array. Checkpoint
files ("TRTC") hold a u32 entry count followed by (u16 name length,
UTF-8 name, payload) entries; the entry named "config" carries the model
configuration as eight u32 fields (image_size, patch_size, embed_dim,
num_blocks, num_heads, mlp_ratio, num_classes, selection_mass * 1e6) and
every other payload is an embedded tensor file. Entries are written with
"config" first, then parameters sorted by name, so identical inputs
always produce identical bytes.
"""

from __future__ import annotations

import io
import math
import re
import struct
from pathlib import Path

import numpy as np

from .backbone import ModelConfig, parameter_shapes
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
# ASCII digits only (no sign, underscore or other script), and few enough for an int64
_DECIMAL = re.compile("[0-9]{1,18}")


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


def write_tensor(path, array) -> None:
    Path(path).write_bytes(tensor_to_bytes(array))


def read_tensor(path) -> np.ndarray:
    data = Path(path).read_bytes()
    array, offset = tensor_from_bytes(data)
    if offset != len(data):
        raise TruncationError(f"{len(data) - offset} trailing bytes after tensor payload")
    return array


def read_image(path) -> np.ndarray:
    """Read an image tensor, rejecting the first non-finite pixel."""
    image = read_tensor(path)
    bad = np.argwhere(~np.isfinite(image))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        raise ContractError(f"{path}: non-finite pixel {image[where]} at index {where}")
    return image


def _config_to_bytes(cfg: ModelConfig) -> bytes:
    return _CONFIG_STRUCT.pack(
        cfg.image_size, cfg.patch_size, cfg.embed_dim, cfg.num_blocks,
        cfg.num_heads, cfg.mlp_ratio, cfg.num_classes,
        round(cfg.selection_mass * MASS_FIXED_POINT),
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
    `cfg` implies, each of its shape."""
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
    Path(path).write_bytes(b"".join(chunks))


def read_checkpoint(path):
    """Read and validate a checkpoint, returning (config, params dict)."""
    data = Path(path).read_bytes()
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
    # 16 parameters per block: the entry count bounds num_blocks before a
    # shape table is built, and the stored shapes bound the other extents
    if 16 * (cfg.num_blocks + 1) > len(params):
        raise CheckpointError(f"config's {cfg.num_blocks} blocks need {16 * (cfg.num_blocks + 1)} "
                              f"parameters, the checkpoint holds {len(params)}")
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


def parse_manifest(path) -> list:
    """Parse the line-based dataset manifest.

    Each non-blank line holds space-separated key:value fields,
    e.g. `id:img0 image:img0.trt label:1 boxes:4,5,20,21;0,0,8,8`.
    Image paths are resolved relative to the manifest's directory; each
    line's image is read once, with `read_image`, and its shape bounds
    the boxes. The label and the box coordinates are ASCII decimal
    integers. A key repeated on one line and an id repeated across lines
    are errors. Errors cite the 1-based line number (and the image, for
    a malformed image file or a non-finite pixel). Returns one (image,
    label, (G, 4) int64 boxes) sample per line.
    """
    path = Path(path)
    base = path.parent
    samples = []
    id_lines = {}
    data = path.read_bytes()
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
                image_path = base / fields["image"]
                try:
                    image = read_image(image_path)
                except FormatError as exc:
                    raise ValueError(f"{image_path}: {exc}") from exc
                except ContractError as exc:  # a non-finite pixel: still a contract error
                    raise ContractError(f"{path}:{line_no}: {exc}") from exc
                if image.ndim != 3 or image.shape[0] != 3:
                    raise ValueError(f"image tensor must be 3xHxW, got {image.shape}")
                _, height, width = image.shape
                samples.append((image, _decimal(fields["label"], "label"),
                                _parse_boxes(fields["boxes"], width, height)))
            except (ValueError, OSError) as exc:
                raise ManifestError(f"{path}:{line_no}: {exc}") from exc
    return samples


def write_heatmap(path, heat, image, alpha: float) -> None:
    """Blend a [0,1] heat map over a 3xHxW [0,1] image into a binary PPM.

    Colormap is linear blue (0) to red (1) with zero green; blending is
    alpha*colormap + (1-alpha)*image, quantised half-up to 8 bits.
    """
    heat = np.asarray(heat, dtype=np.float64)
    image = np.asarray(image, dtype=np.float64)
    if heat.ndim != 2 or image.shape != (3,) + heat.shape:
        raise DimensionError(f"heat {heat.shape} does not match image {image.shape}")
    bad = np.argwhere(~np.isfinite(heat))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        raise ContractError(f"heat map has non-finite value {heat[where]} at index {where}")
    if not 0.0 <= alpha <= 1.0:
        raise DimensionError(f"alpha must be in [0, 1], got {alpha}")
    h, w = heat.shape
    overlay = np.stack([heat, np.zeros_like(heat), 1.0 - heat])
    blended = alpha * overlay + (1.0 - alpha) * image
    pixels = np.clip(np.floor(blended * 255.0 + 0.5), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.transpose(1, 2, 0).tobytes())
