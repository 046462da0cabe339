import struct

import numpy as np
import pytest

from dictolearn.fileio import (
    DICT_MAGIC,
    FormatError,
    GRID_MAGIC,
    read_config,
    read_dictionary,
    read_grid,
    write_csv,
    write_dictionary,
    write_grid,
    write_pgm16,
)
from dictolearn.operators import Dictionary, normalize_atoms


def test_grid_round_trip_bit_exact(tmp_path, rng):
    values = rng.standard_normal((9, 7)).astype(np.float32).astype(np.float64)
    p1 = tmp_path / "a.dlgrid"
    p2 = tmp_path / "b.dlgrid"
    write_grid(p1, values, spacing=2.5)
    back, spacing = read_grid(p1)
    assert spacing == 2.5
    np.testing.assert_array_equal(back, values)
    write_grid(p2, back, spacing)
    assert p1.read_bytes() == p2.read_bytes()


def test_dictionary_round_trip_bit_exact(tmp_path, rng):
    atoms = normalize_atoms(rng.standard_normal((5, 4, 4))).atoms
    atoms32 = atoms.astype(np.float32).astype(np.float64)
    d = Dictionary(atoms32)
    p1 = tmp_path / "a.dldict"
    p2 = tmp_path / "b.dldict"
    write_dictionary(p1, d)
    back = read_dictionary(p1)
    np.testing.assert_array_equal(back.atoms, atoms32)
    write_dictionary(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.dlgrid"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_grid(p)
    with pytest.raises(FormatError):
        read_dictionary(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "trunc.dlgrid"
    write_grid(p, np.zeros((4, 4)), 1.0)
    blob = p.read_bytes()
    p.write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        read_grid(p)
    q = tmp_path / "trunc.dldict"
    write_dictionary(q, Dictionary(np.ones((1, 1, 1))))
    q.write_bytes(q.read_bytes()[:-2])
    with pytest.raises(FormatError):
        read_dictionary(q)


def test_little_endian_layout(tmp_path):
    # Header: 7-byte magic, u32 dims, f32 spacing; payload float32 LE.
    p = tmp_path / "one.dlgrid"
    write_grid(p, np.array([[1.0]]), spacing=1.0)
    blob = p.read_bytes()
    assert blob[:7] == GRID_MAGIC
    assert struct.unpack("<II", blob[7:15]) == (1, 1)
    assert blob[19:23] == b"\x00\x00\x80\x3f"  # IEEE-754 LE 1.0f

    q = tmp_path / "one.dldict"
    write_dictionary(q, Dictionary(np.ones((1, 1, 1))))
    blob = q.read_bytes()
    assert blob[:7] == DICT_MAGIC
    assert struct.unpack("<II", blob[7:15]) == (1, 1)
    assert blob[15:19] == b"\x00\x00\x80\x3f"


def test_pgm16_header_and_payload(tmp_path):
    p = tmp_path / "img.pgm"
    write_pgm16(p, np.array([[0.0, 1.0], [0.5, 1.0]]))
    blob = p.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert blob.startswith(header)
    pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(2, 2)
    assert pixels[0, 0] == 0 and pixels[0, 1] == 65535
    assert pixels[1, 0] == round(0.5 * 65535)


def test_pgm16_constant_image(tmp_path):
    p = tmp_path / "flat.pgm"
    write_pgm16(p, np.full((3, 3), 4.2))
    pixels = np.frombuffer(p.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(pixels == 0)


def test_read_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\nlambda1 = 50\n\nmethod=dict # trailing\n")
    cfg = read_config(p)
    assert cfg == {"lambda1": "50", "method": "dict"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("novalue\n")
    with pytest.raises(FormatError):
        read_config(bad)


def test_write_csv_writes_plain_numbers_with_lf(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "x", "y"), [(np.int64(3), np.float64(0.1), np.float32(0.5)),
                                      (4, 1e-17, float("inf"))])
    assert path.read_bytes() == b"i,x,y\n3,0.1,0.5\n4,1e-17,inf\n"
