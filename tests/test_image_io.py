import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthface.image_io import quantize, read_pgm, write_pgm, write_ppm


def test_pgm_roundtrip_bit_exact(tmp_path, rng):
    img = quantize(rng.uniform(size=(13, 17)))
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_bool_mask(tmp_path, rng):
    mask = rng.uniform(size=(9, 9)) < 0.5
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    assert np.array_equal(read_pgm(path) > 0.5, mask)


def test_ppm_roundtrip_bit_exact(tmp_path, rng):
    img = quantize(rng.uniform(size=(7, 5, 3)))
    path = tmp_path / "a.ppm"
    write_ppm(path, img)
    header = b"P6\n5 7\n255\n"
    raw = path.read_bytes()
    assert raw.startswith(header) and len(raw) == len(header) + 7 * 5 * 3
    pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(7, 5, 3)
    assert np.array_equal(pixels / 255.0, img)


def test_pnm_magic_mismatch(tmp_path, rng):
    write_ppm(tmp_path / "a.ppm", quantize(rng.uniform(size=(4, 4, 3))))
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "a.ppm")


def test_pgm_header_with_comment(tmp_path):
    raw = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[0, 1] == 128 / 255.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.5, 1.5, allow_nan=False))
def test_quantize_idempotent_and_on_grid(value):
    img = np.full((2, 2), value)
    q = quantize(img)
    assert np.array_equal(quantize(q), q)
    assert np.all(q >= 0.0) and np.all(q <= 1.0)
    steps = q * 255.0
    assert np.abs(steps - np.round(steps)).max() < 1e-9
