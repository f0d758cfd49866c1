"""Binary MFM1 model file format.

Layout (little-endian): magic ``MFM1``; u32 N, M, n_id, n_exp, n_tex; then
float64 arrays mu_S, the shape basis [A_id | A_exp] (column-major, so A_id's
columns and then A_exp's), mu_T, A_T (column-major); u32 triangle triples;
the landmark trailer ``LMK1`` + u32 K + u32 landmark vertex indices, which
ends the file.  Round-trips are bit-exact.  Loading rejects a file whose shape
basis is not orthonormal: the vertex-space loss, the ridge predictor and the
landmark prior all rely on that.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .image_io import names_file
from .model import MorphableModel

MAGIC = b"MFM1"
LANDMARK_MAGIC = b"LMK1"


def model_chunks(model: MorphableModel):
    """The MFM1 file of `model` as consecutive buffers; an array already in file
    order is passed as is, not copied."""
    yield MAGIC + struct.pack("<5I", model.n_vertices, model.triangles.shape[0],
                              model.n_id, model.n_exp, model.n_tex)
    for arr in (model.mu_shape, model.shape_basis, model.mu_tex, model.basis_tex):
        # column-major bytes of `arr` are the row-major bytes of its transpose
        yield np.ascontiguousarray(arr.T, dtype="<f8")
    yield np.ascontiguousarray(model.triangles, dtype="<u4")
    yield LANDMARK_MAGIC + struct.pack("<I", model.landmark_indices.shape[0])
    yield np.ascontiguousarray(model.landmark_indices, dtype="<u4")


def model_from_bytes(data: bytes) -> MorphableModel:
    if data[:4] != MAGIC:
        raise ValueError(f"bad model magic {data[:4]!r}, expected {MAGIC!r}")
    off = 4
    n, m, n_id, n_exp, n_tex = struct.unpack_from("<5I", data, off)
    off += 20

    def read_f8(count, shape=None):
        nonlocal off
        arr = np.frombuffer(data, dtype="<f8", count=count, offset=off).copy()
        off += 8 * count
        if shape is not None:
            arr = arr.reshape(shape, order="F")
        return arr

    mu_s = read_f8(3 * n)
    # kept column-major as read: its column views multiply as A_id and A_exp did
    basis = read_f8(3 * n * (n_id + n_exp), (3 * n, n_id + n_exp))
    mu_t = read_f8(3 * n)
    a_tex = read_f8(3 * n * n_tex, (3 * n, n_tex))
    tris = np.frombuffer(data, dtype="<u4", count=3 * m, offset=off) \
        .copy().reshape(m, 3).astype(np.int64)
    off += 12 * m

    if data[off:off + 4] != LANDMARK_MAGIC:
        raise ValueError(f"no {LANDMARK_MAGIC.decode()} landmark trailer at byte {off}")
    k = struct.unpack_from("<I", data, off + 4)[0]
    landmarks = np.frombuffer(data, dtype="<u4", count=k, offset=off + 8) \
        .copy().astype(np.int64)
    off += 8 + 4 * k
    if off != len(data):
        raise ValueError(f"{len(data) - off} bytes after the landmark trailer")
    model = MorphableModel(mu_s, basis, n_id, mu_t, a_tex, tris,
                           landmark_indices=landmarks)
    if not np.allclose(basis.T @ basis, np.eye(n_id + n_exp), atol=1e-8):
        raise ValueError("shape basis [A_id | A_exp] is not orthonormal")
    return model


def save_model(model: MorphableModel, path) -> None:
    with open(path, "wb") as f:
        f.writelines(model_chunks(model))


@names_file
def load_model(path) -> MorphableModel:
    with open(path, "rb") as f:
        return model_from_bytes(f.read())


def model_digest(model: MorphableModel) -> str:
    """SHA-256 hex digest of the serialized model, computed once per model."""
    if "digest" not in model._cache:
        h = hashlib.sha256()
        for chunk in model_chunks(model):
            h.update(chunk)
        model._cache["digest"] = h.hexdigest()
    return model._cache["digest"]


@names_file
def check_model(path, digest: str, model: MorphableModel) -> None:
    """Reject the file at `path` if the model digest it records is not `model`'s."""
    if digest != model_digest(model):
        raise ValueError("made with a different model")


@names_file
def check_coeffs(path, vec: np.ndarray, model: MorphableModel) -> None:
    """Reject the file at `path` if `vec` is not one value per shape basis column."""
    if vec.shape[0] != model.n_id + model.n_exp:
        raise ValueError(f"{vec.shape[0]} geometry coefficients, expected "
                         f"{model.n_id + model.n_exp} for the model")
