"""Binary grid/dictionary file formats, PGM export, CSV tables, key=value configs.

Grid files ("DLGRID1"): 7-byte magic, height and width as little-endian
uint32, spacing as little-endian float32, then height*width little-endian
float32 values row-major. Dictionary files ("DLDICT1"): magic, atom count
and atom side as little-endian uint32, then m*k*k float32 values
atom-major. Round trips are bit-exact for 32-bit payloads. CSV tables
have LF line endings and plain numbers only: integers as integers, every
other value as the shortest text that reads back as the same float64.
"""

from __future__ import annotations

import struct

import numpy as np

from .operators import Dictionary, ImageGrid

__all__ = [
    "FormatError",
    "GRID_MAGIC",
    "DICT_MAGIC",
    "write_grid",
    "read_grid",
    "load_image",
    "save_image",
    "write_dictionary",
    "read_dictionary",
    "write_pgm16",
    "write_csv",
    "read_config",
]

GRID_MAGIC = b"DLGRID1"
DICT_MAGIC = b"DLDICT1"


class FormatError(ValueError):
    """Malformed header or truncated payload."""


def write_grid(path, values: np.ndarray, spacing: float = 1.0):
    """Write a 2D array in the DLGRID1 format (values stored as float32)."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise FormatError("grid payload must be 2D")
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<IIf", h, w, float(spacing)))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_grid(path):
    """Read a DLGRID1 file; returns ``(values, spacing)`` with float32 values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:7] != GRID_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:7]!r}")
    if len(blob) < 7 + 12:
        raise FormatError(f"{path}: truncated header")
    h, w, spacing = struct.unpack("<IIf", blob[7:19])
    payload = blob[19:]
    if len(payload) != 4 * h * w:
        raise FormatError(f"{path}: expected {4 * h * w} payload bytes, found {len(payload)}")
    values = np.frombuffer(payload, dtype="<f4").reshape(h, w)
    return values.astype(np.float64), float(spacing)


def load_image(path) -> ImageGrid:
    values, spacing = read_grid(path)
    return ImageGrid(values, spacing)


def save_image(path, image: ImageGrid):
    write_grid(path, image.values, image.pixel_spacing)


def write_dictionary(path, dict_: Dictionary):
    """Write atoms in the DLDICT1 format (float32, atom-major)."""
    with open(path, "wb") as fh:
        fh.write(DICT_MAGIC)
        fh.write(struct.pack("<II", dict_.atom_count, dict_.atom_side))
        fh.write(np.ascontiguousarray(dict_.atoms, dtype="<f4").tobytes())


def read_dictionary(path) -> Dictionary:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:7] != DICT_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:7]!r}")
    if len(blob) < 7 + 8:
        raise FormatError(f"{path}: truncated header")
    m, k = struct.unpack("<II", blob[7:15])
    payload = blob[15:]
    if len(payload) != 4 * m * k * k:
        raise FormatError(f"{path}: expected {4 * m * k * k} payload bytes, found {len(payload)}")
    atoms = np.frombuffer(payload, dtype="<f4").reshape(m, k, k)
    return Dictionary(atoms.astype(np.float64))


def write_pgm16(path, values: np.ndarray):
    """Export as 16-bit binary PGM, min..max mapped linearly to 0..65535."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise FormatError("PGM payload must be 2D")
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        scaled = np.round((values - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(values)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode())
        fh.write(scaled.astype(">u2").tobytes())


def write_csv(path, header, rows):
    """Write a header line and one line per row of numbers, LF-terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
                              for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_config(path) -> dict:
    """Parse a plain-text key=value file; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
