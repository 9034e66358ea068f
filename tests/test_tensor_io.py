"""Binary tensor blobs and netpbm round trips."""

import numpy as np
import pytest

from refseg.errors import CheckpointError
from refseg.tensor_io import (
    read_pgm,
    read_ppm,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_pgm,
    write_ppm,
    write_tensor,
)


def test_eavt_round_trip_f32(tmp_path, rng):
    arr = rng.standard_normal((3, 4, 2)).astype(np.float32)
    write_tensor(tmp_path / "t.eavt", arr)
    back = read_tensor(tmp_path / "t.eavt")
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_eavt_round_trip_f64(rng):
    arr = rng.standard_normal((7,))
    back = tensor_from_bytes(tensor_to_bytes(arr))
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_eavt_scalar_rank_zero():
    arr = np.array(3.5, dtype=np.float32)
    back = tensor_from_bytes(tensor_to_bytes(arr))
    assert back.shape == () and back == np.float32(3.5)


def test_eavt_header_layout():
    arr = np.zeros((2, 3), dtype=np.float32)
    blob = tensor_to_bytes(arr)
    assert blob[:4] == b"EAVT"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert int.from_bytes(blob[8:12], "little") == 2
    assert int.from_bytes(blob[12:16], "little") == 3
    assert len(blob) == 16 + 6 * 4


def test_eavt_bad_magic():
    with pytest.raises(CheckpointError):
        tensor_from_bytes(b"NOPE" + b"\x00" * 16)


def test_eavt_truncated_payload():
    blob = tensor_to_bytes(np.zeros(5, dtype=np.float32))
    with pytest.raises(CheckpointError):
        tensor_from_bytes(blob[:-3])


def test_ppm_round_trip(tmp_path, rng):
    img = rng.random((5, 7, 3)).astype(np.float32)
    write_ppm(tmp_path / "i.ppm", img)
    back = read_ppm(tmp_path / "i.ppm")
    assert back.shape == (5, 7, 3)
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6  # quantization only


def test_pgm_round_trip_binary_mask(tmp_path, rng):
    mask = (rng.random((6, 4)) > 0.5).astype(np.uint8) * 255
    write_pgm(tmp_path / "m.pgm", mask)
    back = read_pgm(tmp_path / "m.pgm")
    assert np.array_equal(back, mask)


@pytest.mark.parametrize(
    "read, content",
    [
        (read_ppm, b"P6\n2 2\n255\n" + bytes(11)),
        (read_pgm, b"P5\n2 2\n255\n" + bytes(3)),
        (read_ppm, b"P6\nx 2\n255\n" + bytes(12)),
        (read_pgm, b"P5\n2 2.0\n255\n" + bytes(4)),
        (read_pgm, b"P5\n2 2\nmax\n" + bytes(4)),
        (read_ppm, b"P6\n2 2\n0\n" + bytes(12)),
        (read_pgm, b"P5\n2 2\n256\n" + bytes(4)),
    ],
    ids=["truncated_ppm", "truncated_pgm", "text_width", "float_height", "text_maxval", "maxval_0", "maxval_256"],
)
def test_malformed_netpbm_rejected(tmp_path, read, content):
    path = tmp_path / "bad.pnm"
    path.write_bytes(content)
    with pytest.raises(CheckpointError):
        read(path)
