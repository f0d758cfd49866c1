"""Landmark-based fitting baseline and geometric evaluation.

Reconstructions are compared to ground truth by aligning with the optimal
similarity transform (Kabsch-Umeyama) and measuring pointwise Euclidean
distances between corresponding vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .image_io import names_file
from .model import GeometryCoefficients, Mesh, MorphableModel, synthesize_geometry
from .render import PoseParams, project_vertices, rasterize


@dataclass(frozen=True)
class LandmarkSet:
    vertex_indices: np.ndarray   # (K,) model vertex indices
    image_points: np.ndarray     # (K, 2) pixel coordinates

    def __post_init__(self):
        object.__setattr__(self, "vertex_indices",
                           np.asarray(self.vertex_indices, dtype=np.int64))
        object.__setattr__(self, "image_points",
                           np.asarray(self.image_points, dtype=np.float64))
        if self.vertex_indices.shape[0] < 3:
            raise ValueError("need at least 3 landmarks")
        if self.image_points.shape != (self.vertex_indices.shape[0], 2):
            raise ValueError("image_points must be (K, 2)")
        if self.vertex_indices.min() < 0:
            raise ValueError("landmark vertex indices must be >= 0")
        if not np.isfinite(self.image_points).all():
            raise ValueError("landmark image points must be finite")


@dataclass(frozen=True)
class SimilarityTransform:
    scale: float
    rotation: np.ndarray     # (3, 3) proper
    translation: np.ndarray  # (3,)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * points @ self.rotation.T + self.translation


@dataclass
class ErrorReport:
    distances: np.ndarray    # per-vertex Euclidean errors

    @property
    def mean(self) -> float:
        return float(self.distances.mean())

    @property
    def median(self) -> float:
        return float(np.median(self.distances))

    @property
    def max(self) -> float:
        return float(self.distances.max())

    @property
    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.distances ** 2)))


def landmark_fit(landmarks: LandmarkSet,
                 pose: PoseParams,
                 model: MorphableModel,
                 width: int,
                 height: int,
                 lambda_reg: float = defaults.LAMBDA_LANDMARK) -> GeometryCoefficients:
    """Closed-form ridge fit of coefficients to 2D landmark observations.

    Minimizes the squared pixel distance between projected model landmark
    vertices and the annotated points, plus lambda_reg * ||alpha||^2.
    """
    if not 0 < lambda_reg < np.inf:
        raise ValueError("lambda_reg must be finite and > 0")
    if landmarks.vertex_indices.max() >= model.n_vertices:
        raise ValueError("landmark vertex index out of range")
    k = landmarks.vertex_indices.shape[0]
    n = model.n_id + model.n_exp

    rows = np.stack([3 * landmarks.vertex_indices,
                     3 * landmarks.vertex_indices + 1,
                     3 * landmarks.vertex_indices + 2], axis=1).reshape(-1)
    basis_k = model.shape_basis[rows].reshape(k, 3, n)
    mu_k = model.mu_shape[rows].reshape(k, 3)

    # pixel = P2 @ (R p + t) + center, with P2 = diag(f, -f) [I2|0]
    p2 = np.array([[pose.f, 0.0, 0.0], [0.0, -pose.f, 0.0]]) @ pose.rotation
    center = np.array([width / 2.0, height / 2.0])
    a = np.einsum("ij,kjn->kin", p2, basis_k).reshape(2 * k, n)
    base = mu_k @ p2.T + (np.array([pose.f, -pose.f]) * pose.translation[:2]) + center
    b = (landmarks.image_points - base).reshape(-1)

    # augmented least squares keeps conditioning at kappa(A), not kappa(A)^2
    aug = np.vstack([a, np.sqrt(lambda_reg) * np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    alpha = np.linalg.lstsq(aug, rhs, rcond=None)[0]
    return GeometryCoefficients.from_vector(alpha, model.n_id)


def project_landmarks(model: MorphableModel, coeffs: GeometryCoefficients,
                      pose: PoseParams, width: int, height: int,
                      vertex_indices: np.ndarray) -> LandmarkSet:
    """Ground-truth landmark observations from a synthesized face."""
    mesh = synthesize_geometry(model, coeffs)
    pts, _ = project_vertices(mesh, pose, width, height)
    return LandmarkSet(vertex_indices, pts[vertex_indices])


def optimal_similarity_align(source: Mesh, target: Mesh):
    """Kabsch-Umeyama similarity transform minimizing sum ||s R x + t - y||^2.

    Returns (SimilarityTransform, aligned source mesh).
    """
    x = source.vertices
    y = target.vertices
    if x.shape != y.shape:
        raise ValueError("meshes must have equal vertex counts")
    n = x.shape[0]
    mx = x.mean(axis=0)
    my = y.mean(axis=0)
    xc = x - mx
    yc = y - my
    var_x = np.mean(np.sum(xc ** 2, axis=1))
    if var_x < 1e-300:
        raise ValueError("source mesh is degenerate (zero spread)")

    cov = yc.T @ xc / n
    u, d, vt = np.linalg.svd(cov)
    if np.count_nonzero(d > 1e-12 * max(d[0], 1e-300)) < 2:
        raise ValueError("point sets are collinear; alignment is ill-posed")
    s = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s[-1] = -1.0
    r = u @ np.diag(s) @ vt
    scale = float(np.sum(d * s) / var_x)
    if scale <= 0:
        raise ValueError("degenerate configuration: nonpositive optimal scale")
    t = my - scale * r @ mx
    transform = SimilarityTransform(scale, r, t)
    return transform, Mesh(transform.apply(x), source.triangles)


def pointwise_error(aligned: Mesh, ground_truth: Mesh) -> ErrorReport:
    if aligned.vertices.shape != ground_truth.vertices.shape:
        raise ValueError("meshes must have equal vertex counts")
    d = np.linalg.norm(aligned.vertices - ground_truth.vertices, axis=1)
    return ErrorReport(d)


def baseline_indices(model: MorphableModel) -> np.ndarray:
    """The landmark baseline's vertices: every 7th model landmark, at most 10."""
    return model.landmark_indices[::7][:10]


@names_file
def check_baseline(path, model: MorphableModel) -> None:
    """Reject the model file at `path` if its baseline has fewer than 3 landmarks."""
    if baseline_indices(model).shape[0] < 3:
        raise ValueError(f"{model.landmark_indices.size} landmarks, too few for the baseline")


def score(model: MorphableModel, coeffs: GeometryCoefficients,
          gt: GeometryCoefficients, pose: PoseParams, width: int, height: int):
    """[("ief", mesh, report), ("landmark", mesh, report)] for `coeffs` and the
    baseline fitted to `gt`'s `baseline_indices` landmarks under `pose`: each
    mesh as synthesized, scored against `gt`'s after similarity alignment."""
    gt_mesh = synthesize_geometry(model, gt)
    idx = baseline_indices(model)
    pts, _ = project_vertices(gt_mesh, pose, width, height)
    baseline = landmark_fit(LandmarkSet(idx, pts[idx]), pose, model, width, height)
    rows = []
    for label, c in (("ief", coeffs), ("landmark", baseline)):
        mesh = synthesize_geometry(model, c)
        _, aligned = optimal_similarity_align(mesh, gt_mesh)
        rows.append((label, mesh, pointwise_error(aligned, gt_mesh)))
    return rows


def error_colormap(errors: np.ndarray) -> np.ndarray:
    """Linear blue (0) -> red (largest error) map; (K,) errors to (K, 3) RGB."""
    peak = float(errors.max())
    t = errors / peak if peak > 0 else np.zeros_like(errors)
    t = np.clip(t, 0.0, 1.0)
    return np.stack([t, np.zeros_like(t), 1.0 - t], axis=1)


def error_heatmap(mesh: Mesh, report: ErrorReport, pose: PoseParams,
                  width: int, height: int) -> np.ndarray:
    """Render the mesh colored by per-vertex error; returns (H, W, 3) image."""
    return rasterize(mesh, error_colormap(report.distances), pose, width, height).image


def format_report(report: ErrorReport, label: str = "") -> str:
    head = f"# error report {label}".rstrip() + "\n"
    return (head
            + f"count={report.distances.shape[0]}\n"
            + f"mean={report.mean!r}\n"
            + f"median={report.median!r}\n"
            + f"max={report.max!r}\n"
            + f"rms={report.rms!r}\n")
