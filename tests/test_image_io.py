import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthface.datagen import (generate_sample, load_coeff_vector,
                               load_sample_coeffs, save_coeff_vector,
                               save_sample_coeffs)
from synthface.image_io import read_pgm, to_pixels, write_pgm, write_ppm
from synthface.model import build_procedural_model
from synthface.model_io import load_model, model_digest, save_model
from synthface.reconstruct import LinearPredictor, load_predictor, save_predictor


def test_pgm_roundtrip_bit_exact(tmp_path, rng):
    img = to_pixels(rng.uniform(size=(13, 17))) / 255.0
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    pixels = read_pgm(path)
    assert pixels.dtype == np.uint8 and np.array_equal(pixels, to_pixels(img))
    assert np.array_equal(pixels / 255.0, img)


def test_pgm_bool_mask(tmp_path, rng):
    mask = rng.uniform(size=(9, 9)) < 0.5
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    assert np.array_equal(read_pgm(path) > 0.5, mask)


def test_pgm_of_pixels_equals_pgm_of_their_floats(tmp_path):
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    write_pgm(tmp_path / "pixels.pgm", pixels)
    write_pgm(tmp_path / "floats.pgm", pixels / 255.0)
    raw = (tmp_path / "pixels.pgm").read_bytes()
    assert raw == (tmp_path / "floats.pgm").read_bytes()
    assert raw == b"P5\n16 16\n255\n" + pixels.tobytes()


def test_ppm_roundtrip_bit_exact(tmp_path, rng):
    img = to_pixels(rng.uniform(size=(7, 5, 3))) / 255.0
    path = tmp_path / "a.ppm"
    write_ppm(path, img)
    header = b"P6\n5 7\n255\n"
    raw = path.read_bytes()
    assert raw.startswith(header) and len(raw) == len(header) + 7 * 5 * 3
    pixels = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(7, 5, 3)
    assert np.array_equal(pixels / 255.0, img)


@pytest.mark.parametrize("write, shape, reason", [
    (write_ppm, (4, 4), "P6 image shape (4, 4) is not (H, W) + (3,)"),
    (write_pgm, (4, 4, 3), "P5 image shape (4, 4, 3) is not (H, W) + ()"),
], ids=["ppm_gray", "pgm_rgb"])
def test_pnm_writers_reject_wrong_channel_count(tmp_path, write, shape, reason):
    path = tmp_path / "x.pnm"
    with pytest.raises(ValueError, match=re.escape(reason)):
        write(path, np.zeros(shape))
    assert not path.exists()


def test_pnm_magic_mismatch(tmp_path, rng):
    write_ppm(tmp_path / "a.ppm", to_pixels(rng.uniform(size=(4, 4, 3))) / 255.0)
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "a.ppm")


def test_pgm_header_with_comment(tmp_path):
    raw = b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pgm(path)
    assert img.dtype == np.uint8
    assert np.array_equal(img, to_pixels(np.array([[0, 128], [255, 64]]) / 255.0))


@pytest.mark.parametrize("header", [
    b"P5 4 2 255\n",
    b"P5\n4 2\n# between the size and maxval\n255\n",
    b"P5 4\t2# after the height\r255\r",
], ids=["one_line", "comment_before_maxval", "tab_and_carriage_returns"])
def test_pgm_header_in_any_line_layout(tmp_path, header):
    pixels = bytes(range(0, 256, 32))
    path = tmp_path / "h.pgm"
    path.write_bytes(header + pixels)
    img = read_pgm(path)
    assert img.shape == (2, 4) and img.tobytes() == pixels
    expected = np.frombuffer(pixels, dtype=np.uint8).reshape(2, 4) / 255.0
    assert img.dtype == np.uint8 and np.array_equal(img, to_pixels(expected))


@pytest.mark.parametrize("raw, reason", [
    # one whitespace byte ends the header; a second is the first pixel
    (b"P5 4 2 255\n\n" + bytes(8), "9 pixel bytes, expected 8 for 4x2"),
    (b"P5 4 2 255#\n" + bytes(8), "malformed PGM header b'4 2 255'"),
    (b"P5 4 +2 255\n" + bytes(8), "malformed PGM header b'4 +2 255'"),
    (b"P5 4 2 65535\n" + bytes(16), "unsupported PGM maxval 65535"),
    (b"P5 4 2", "truncated PGM header"),
], ids=["two_whitespace_bytes", "comment_after_maxval", "signed_height",
        "maxval_16_bit", "truncated"])
def test_pgm_header_rejects(tmp_path, raw, reason):
    path = tmp_path / "h.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        read_pgm(path)
    assert str(err.value) == f"{path}: {reason}"


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.5, 1.5, allow_nan=False))
def test_to_pixels_idempotent_and_on_grid(value):
    img = np.full((2, 2), value)
    q = to_pixels(img) / 255.0
    assert np.array_equal(to_pixels(q) / 255.0, q)
    assert np.all(q >= 0.0) and np.all(q <= 1.0)
    steps = q * 255.0
    assert np.abs(steps - np.round(steps)).max() < 1e-9


# ---------------------------------------------------------------------------
# Every reader names its file: each cut of a valid file is a ValueError
# whose message starts with the path

@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """name -> (path of a valid file, its reader)."""
    root = tmp_path_factory.mktemp("valid")
    model = build_procedural_model(1, 3, 2, 2, 9)
    sample = generate_sample(np.random.default_rng(3), model, 16, 16)
    save_model(model, root / "m.mfm")
    save_predictor(root / "p.prd", LinearPredictor(np.ones((2, 4)), np.ones(2),
                                                   8, 8, model_digest(model)))
    save_coeff_vector(root / "v.bin", sample.alpha_gt.vector)
    save_sample_coeffs(root / "s.bin", sample)
    write_pgm(root / "f.pgm", sample.face_image)
    return {"mfm1": (root / "m.mfm", load_model),
            "prd4": (root / "p.prd", load_predictor),
            "coeff_vector": (root / "v.bin", load_coeff_vector),
            "sample_coeffs": (root / "s.bin",
                              lambda path: load_sample_coeffs(path, model.n_id)),
            "pgm": (root / "f.pgm", read_pgm)}


@pytest.mark.parametrize("name", ["mfm1", "prd4", "coeff_vector",
                                  "sample_coeffs", "pgm"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_cut_of_a_valid_file_names_it(valid_files, tmp_path_factory,
                                            name, data):
    path, reader = valid_files[name]
    whole = path.read_bytes()
    reader(path)
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    bad = tmp_path_factory.getbasetemp() / f"cut_{path.name}"
    bad.write_bytes(whole[:cut])
    with pytest.raises(ValueError) as err:
        reader(bad)
    assert str(err.value).startswith(f"{bad}: ")
