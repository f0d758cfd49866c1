import numpy as np
import pytest

from synthface.model_io import (ModelFormatError, load_model, model_digest,
                                model_from_bytes, model_to_bytes, save_model)


def test_bytes_roundtrip_bit_exact(small_model):
    data = model_to_bytes(small_model)
    loaded = model_from_bytes(data)
    assert model_to_bytes(loaded) == data
    for name in ("mu_shape", "basis_id", "basis_exp", "mu_tex", "basis_tex",
                 "triangles", "landmark_indices"):
        assert np.array_equal(getattr(loaded, name), getattr(small_model, name))


def test_file_roundtrip(tmp_path, small_model):
    path = tmp_path / "m.mfm"
    save_model(small_model, path)
    loaded = load_model(path)
    assert model_digest(loaded) == model_digest(small_model)


def test_digest_is_stable_and_discriminating(small_model, fit_model):
    assert model_digest(small_model) == model_digest(small_model)
    assert model_digest(small_model) != model_digest(fit_model)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.mfm"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    # the error must name the offending file
    assert str(path) in str(err.value)


def test_corrupt_trailer_raises(small_model):
    data = model_to_bytes(small_model)
    # truncate inside the landmark trailer and damage its magic
    cut = data.rfind(b"LMK1")
    corrupted = data[:cut] + b"ZZZ9" + data[cut + 4:]
    with pytest.raises(ModelFormatError):
        model_from_bytes(corrupted)


def test_model_without_landmarks_roundtrips(small_model):
    from dataclasses import replace
    bare = replace(small_model, landmark_indices=None, _cache={})
    loaded = model_from_bytes(model_to_bytes(bare))
    assert loaded.landmark_indices is None


def test_non_orthonormal_basis_rejected(small_model):
    from dataclasses import replace
    scaled = replace(small_model, basis_id=2.0 * small_model.basis_id, _cache={})
    with pytest.raises(ModelFormatError, match="not orthonormal"):
        model_from_bytes(model_to_bytes(scaled))
