"""Iterative error-feedback reconstruction with a pluggable predictor.

The loop takes the input face as 8-bit pixels and starts at the mean face
(all-zero coefficients).  Each step renders a shading image of the current
estimate, masks the face's pixels with the estimate's coverage, and asks the
predictor for updated coefficients.  The estimate is the loop's only state,
so one that covers no pixel gives all-zero features.  It returns the sequence
of coefficient estimates with the mesh and shading image of the last one.
The shading render is quantized to 8-bit pixels, as `datagen` stores it, so
the predictor reads the kind of input it was trained on.  The desk-scale
predictor is a ridge-trained linear map on the means of fixed 8-pixel blocks
of 8-bit pixels k, taken as k/255; anything with the same call signature
plugs in unchanged.  Its PRD4 file records the image size and the model it
was trained for.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import defaults
from .image_io import names_file, to_pixels
from .model_io import model_digest
from .model import (GeometryCoefficients, Mesh, MorphableModel,
                    synthesize_geometry)
from .render import PoseParams, render_shading_image


@dataclass(frozen=True)
class IEFConfig:
    width: int = defaults.IMAGE_WIDTH
    height: int = defaults.IMAGE_HEIGHT
    iterations = defaults.IEF_ITERATIONS    # fixed, so a constant and not a field

    def __post_init__(self):
        k = defaults.FEATURE_DOWNSAMPLE
        if min(self.width, self.height) < 1 or self.width % k or self.height % k:
            raise ValueError(f"image size {self.width}x{self.height} is not a "
                             f"positive multiple of the {k}-pixel pooling")

    @property
    def feature_dim(self) -> int:
        return (defaults.INPUT_CHANNELS * self.width * self.height
                // defaults.FEATURE_DOWNSAMPLE ** 2)


@names_file
def pooled_config(path, width: int, height: int) -> IEFConfig:
    """The config of `width` x `height` images read from the file at `path`."""
    return IEFConfig(width=width, height=height)


@dataclass
class ReconstructionResult:
    iterates: list          # coefficient vectors, length iterations + 1; [0] is zero
    final_mesh: Mesh        # geometry of iterates[-1]
    final_shading: np.ndarray   # its float shading render under the input pose,
                                # not quantized: no predictor reads it

    def final_coefficients(self, model: MorphableModel) -> GeometryCoefficients:
        return GeometryCoefficients.from_vector(self.iterates[-1], model.n_id)


def extract_features(face_pixels: np.ndarray, shading_pixels: np.ndarray,
                     config: IEFConfig) -> np.ndarray:
    """Means of the 8 x 8 blocks of the face channel, then of the shading one.

    Each channel is uint8 pixels k, taken as k/255.  A block's integer pixel
    sum (at most 64 x 255, exact in uint16) is divided by 64 x 255 once, so
    each feature is the correctly rounded mean.
    """
    h, w = expected = (config.height, config.width)
    if face_pixels.shape != expected or shading_pixels.shape != expected:
        raise ValueError(
            f"image dims {face_pixels.shape}/{shading_pixels.shape} do not match "
            f"config {expected}")
    sums = []
    for name, p in (("face", face_pixels), ("shading", shading_pixels)):
        if p.dtype != np.uint8:
            raise ValueError(f"{name} pixels have dtype {p.dtype}, not uint8")
        # 8 = defaults.FEATURE_DOWNSAMPLE: 8 rows, then 8 columns
        columns = p.reshape(h // 8, 8, w).sum(axis=1, dtype=np.uint16)
        sums.append(columns.reshape(-1, 8).sum(axis=1, dtype=np.uint16))
    return np.concatenate(sums) / (64 * 255.0)


@dataclass
class LinearPredictor:
    """pred = weight @ [features; alpha] + bias, for `width` x `height` images
    and the model whose digest it records."""

    weight: np.ndarray    # (n_coeffs, feature_dim + n_coeffs)
    bias: np.ndarray      # (n_coeffs,)
    width: int
    height: int
    model_digest: str     # sha256 hex of the MFM1 model bytes

    def __call__(self, features: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        x = np.concatenate([features, alpha])
        if x.shape[0] != self.weight.shape[1]:
            raise ValueError(
                f"predictor expects input dim {self.weight.shape[1]}, "
                f"got {x.shape[0]}")
        return self.weight @ x + self.bias

    @property
    def n_coeffs(self) -> int:
        return self.weight.shape[0]


def train_linear_predictor(samples,
                           model: MorphableModel,
                           config: IEFConfig,
                           ridge_lambda: float = defaults.RIDGE_LAMBDA) -> LinearPredictor:
    """Ridge regression from [features; alpha_t] to alpha_gt.

    The loss is measured in vertex space through the shape basis.  Every
    model `model_io` loads has an orthonormal shape basis, so that loss equals
    the coefficient-space loss and plain ridge regression minimizes it.

    With fewer samples n than inputs d the same weights come from the n x n
    system, by (XᵀX + λI)⁻¹Xᵀ = Xᵀ(XXᵀ + λI)⁻¹ (ridge in dual variables,
    Saunders, Gammerman & Vovk, ICML 1998); otherwise from the d x d one.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("training set is empty")
    if not (np.isfinite(ridge_lambda) and ridge_lambda > 0):
        raise ValueError(f"ridge_lambda must be finite and > 0, got {ridge_lambda}")
    # the trailing all-ones column trains the bias, the only intercept
    x = np.stack([np.concatenate([
        extract_features(s.face_pixels, s.shading_pixels, config),
        s.alpha_t.vector, [1.0]]) for s in samples])
    y = np.stack([s.alpha_gt.vector for s in samples])
    n, d = x.shape
    if n < d:
        params = (x.T @ np.linalg.solve(x @ x.T + ridge_lambda * np.eye(n), y)).T
    else:
        params = np.linalg.solve(x.T @ x + ridge_lambda * np.eye(d), x.T @ y).T
    return LinearPredictor(params[:, :-1], params[:, -1], config.width,
                           config.height, model_digest(model))


def ief_reconstruct(face_pixels: np.ndarray,
                    pose: PoseParams,
                    predictor: Callable,
                    model: MorphableModel,
                    config: IEFConfig) -> ReconstructionResult:
    """Run the error-feedback loop from the mean face on (H, W) uint8 pixels."""
    if face_pixels.dtype != np.uint8:
        raise ValueError(f"face pixels have dtype {face_pixels.dtype}, not uint8")
    if face_pixels.shape != (config.height, config.width):
        raise ValueError(
            f"image shape {face_pixels.shape} does not match config "
            f"({config.height}, {config.width})")
    n_coeffs = model.n_id + model.n_exp
    alpha = np.zeros(n_coeffs)
    iterates = [alpha.copy()]

    for k in range(config.iterations + 1):
        mesh = synthesize_geometry(
            model, GeometryCoefficients.from_vector(alpha, model.n_id))
        raster = render_shading_image(mesh, pose, config.width, config.height)
        if k == config.iterations:
            return ReconstructionResult(iterates, mesh, raster.image)
        masked = np.where(raster.mask, face_pixels, 0)
        features = extract_features(masked, to_pixels(raster.image), config)
        alpha = np.asarray(predictor(features, alpha), dtype=np.float64)
        if alpha.shape != (n_coeffs,):
            raise ValueError("predictor returned a wrong-sized coefficient vector")
        iterates.append(alpha.copy())


# ---------------------------------------------------------------------------
# PRD4 predictor file: magic, u32 width, height, n_coeffs, the 32-byte model
# digest, then float64 weight (row-major) and bias.

PREDICTOR_MAGIC = b"PRD4"
HEADER = struct.Struct("<4s3I32s")


def save_predictor(path, predictor: LinearPredictor) -> None:
    with open(path, "wb") as f:
        f.write(HEADER.pack(PREDICTOR_MAGIC, predictor.width, predictor.height,
                            predictor.n_coeffs,
                            bytes.fromhex(predictor.model_digest)))
        f.write(predictor.weight.astype("<f8").tobytes(order="C"))
        f.write(predictor.bias.astype("<f8").tobytes())


@names_file
def load_predictor(path) -> LinearPredictor:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != PREDICTOR_MAGIC:
        raise ValueError(f"bad predictor magic {data[:4]!r}, expected "
                         f"{PREDICTOR_MAGIC!r}")
    _, width, height, n_coeffs, digest = HEADER.unpack_from(data)
    n_in = IEFConfig(width=width, height=height).feature_dim + n_coeffs
    expected = HEADER.size + 8 * (n_coeffs * n_in + n_coeffs)
    if len(data) != expected:
        raise ValueError(f"{len(data)} bytes, expected {expected} for "
                         f"{width}x{height} n_coeffs={n_coeffs}")
    values = np.frombuffer(data, dtype="<f8", offset=HEADER.size)
    if not np.all(np.isfinite(values)):
        raise ValueError("weight or bias contains non-finite values")
    weight = values[:n_coeffs * n_in].reshape(n_coeffs, n_in).copy()
    bias = values[n_coeffs * n_in:].copy()
    return LinearPredictor(weight, bias, width, height, digest.hex())
