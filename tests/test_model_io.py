import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from synthface import model_io
from synthface.model import (sample_geometry_coefficients,
                             sample_texture_coefficients, synthesize_geometry,
                             synthesize_texture)
from synthface.model_io import (load_model, model_chunks, model_digest,
                                model_from_bytes, save_model)


def model_to_bytes(model):
    return b"".join(model_chunks(model))


def test_bytes_roundtrip_bit_exact(small_model):
    data = model_to_bytes(small_model)
    loaded = model_from_bytes(data)
    assert model_to_bytes(loaded) == data
    for name in ("mu_shape", "basis_id", "basis_exp", "mu_tex", "basis_tex",
                 "triangles", "landmark_indices"):
        assert np.array_equal(getattr(loaded, name), getattr(small_model, name))


def test_split_bases_are_views_of_shape_basis(small_model):
    loaded = model_from_bytes(model_to_bytes(small_model))
    assert loaded.shape_basis.flags.f_contiguous     # column-major, as stored
    for model in (small_model, loaded):
        for part in (model.basis_id, model.basis_exp):
            assert np.shares_memory(part, model.shape_basis)
        assert np.array_equal(np.hstack([model.basis_id, model.basis_exp]),
                              model.shape_basis)


def test_built_and_loaded_models_synthesize_bit_identically(small_model, fit_model):
    rng = np.random.default_rng(3)
    for built in (small_model, fit_model):
        loaded = model_from_bytes(model_to_bytes(built))
        for model in (built, loaded):
            assert model.shape_basis.flags.f_contiguous
            assert model.basis_tex.flags.f_contiguous
        for _ in range(20):
            geo = sample_geometry_coefficients(rng, built)
            tex = sample_texture_coefficients(rng, built)
            assert synthesize_geometry(built, geo).vertices.tobytes() \
                == synthesize_geometry(loaded, geo).vertices.tobytes()
            assert synthesize_texture(built, tex).tobytes() \
                == synthesize_texture(loaded, tex).tobytes()


def test_file_roundtrip(tmp_path, small_model):
    path = tmp_path / "m.mfm"
    save_model(small_model, path)
    assert path.read_bytes() == model_to_bytes(small_model)
    loaded = load_model(path)
    row_major = replace(small_model,
                        shape_basis=np.ascontiguousarray(small_model.shape_basis),
                        basis_tex=np.ascontiguousarray(small_model.basis_tex))
    # the digest hashes the file's bytes, whatever the arrays' memory order
    assert model_digest(loaded) == model_digest(small_model) \
        == model_digest(row_major) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_digest_is_stable_and_discriminating(small_model, fit_model):
    assert model_digest(small_model) == model_digest(small_model)
    assert model_digest(small_model) != model_digest(fit_model)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.mfm"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ValueError) as err:
        load_model(path)
    # the error must name the offending file
    assert str(path) in str(err.value)


def test_corrupt_trailer_raises(small_model):
    data = model_to_bytes(small_model)
    # truncate inside the landmark trailer and damage its magic
    cut = data.rfind(b"LMK1")
    corrupted = data[:cut] + b"ZZZ9" + data[cut + 4:]
    with pytest.raises(ValueError):
        model_from_bytes(corrupted)


def test_model_without_landmark_trailer_rejected(tmp_path, small_model):
    data = model_to_bytes(small_model)
    path = tmp_path / "bare.mfm"
    path.write_bytes(data[:data.rfind(model_io.LANDMARK_MAGIC)])
    with pytest.raises(ValueError, match="no LMK1 landmark trailer") as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")


def test_non_orthonormal_basis_rejected(small_model):
    scaled = replace(small_model, shape_basis=2.0 * small_model.shape_basis)
    with pytest.raises(ValueError, match="not orthonormal"):
        model_from_bytes(model_to_bytes(scaled))


def test_landmark_trailer_index_out_of_range_rejected(small_model):
    data = model_to_bytes(small_model)
    last = len(data) - 4        # the trailer's last landmark index
    bad = data[:last] + struct.pack("<I", small_model.n_vertices)
    with pytest.raises(ValueError, match="landmark vertex index out of range"):
        model_from_bytes(bad)


def test_bytes_after_landmark_trailer_rejected(small_model):
    with pytest.raises(ValueError, match="8 bytes after the landmark trailer"):
        model_from_bytes(model_to_bytes(small_model) + b"\x00" * 8)


def test_digest_serializes_once_per_model(small_model, monkeypatch):
    model = replace(small_model)            # a fresh cache
    calls = []

    def counting_chunks(m):
        calls.append(m)
        return model_chunks(m)

    monkeypatch.setattr(model_io, "model_chunks", counting_chunks)
    first = model_digest(model)
    assert model_digest(model) == first and len(calls) == 1
    changed = replace(model, basis_tex=-model.basis_tex)
    assert model_digest(changed) != first and len(calls) == 2
