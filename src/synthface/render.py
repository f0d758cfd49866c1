"""Weak-perspective projection, Phong shading and z-buffered rasterization.

Conventions:
  - image origin top-left, y grows downward; pixel centers at (x+0.5, y+0.5)
  - projection p = f * [I2|0] (R P + t), mapped to pixels by the image-center
    offset with the y axis flipped
  - meshes face +z, so the depth test keeps the LARGEST rotated z
  - top-left fill rule on shared triangle edges
  - each pixel keeps its largest depth, ties to the lowest triangle id
Shading is Gouraud style: Phong evaluated per vertex, colors interpolated.

`rasterize` runs in whole-array stages: triangle rows, per-row spans between
the edge crossings, the exact edge test on each span pixel, then per fragment
barycentrics and depth and color, each the fixed-order sum
(b0 v0 + b2 v2) + b1 v1 whatever the machine's SIMD kernels.  The fill rule's
top-left flags are gathered only when some edge value is exactly 0, fragments
are compressed only when some span pixel is outside, and the depth resolve
runs only when some pixel is contested (fewer covered pixels than fragments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .model import Mesh

FRONTAL_LIGHT = np.array([0.0, 0.0, 1.0])
VIEW_DIR = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class PoseParams:
    f: float                 # weak-perspective scale
    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        # each test is written so that NaN fails it; an inf would make r.T @ r warn
        if not 0 < self.f < np.inf:
            raise ValueError("pose scale f must be finite and > 0")
        if not (np.isfinite(r).all() and np.abs(r.T @ r - np.eye(3)).max() <= 1e-10):
            raise ValueError("rotation is not orthogonal")
        if not abs(np.linalg.det(r) - 1.0) <= 1e-10:
            raise ValueError("rotation determinant must be +1")
        if t.shape != (3,) or not np.isfinite(t).all():
            raise ValueError("translation must be 3 finite values")

    @classmethod
    def identity(cls, f: float = 1.0) -> "PoseParams":
        return cls(f, np.eye(3), np.zeros(3))


@dataclass(frozen=True)
class LightingParams:
    k_ambient: float
    k_diffuse: float
    k_specular: float
    shininess: float
    light_dir: np.ndarray    # unit 3-vector

    def __post_init__(self):
        d = np.asarray(self.light_dir, dtype=np.float64)
        object.__setattr__(self, "light_dir", d)
        if not all(0 <= k < np.inf for k in
                   (self.k_ambient, self.k_diffuse, self.k_specular)):
            raise ValueError("reflectance constants must be finite and >= 0")
        if not 0 < self.shininess < np.inf:
            raise ValueError("shininess must be finite and > 0")
        if d.shape != (3,) or not abs(np.linalg.norm(d) - 1.0) <= 1e-10:
            raise ValueError("light_dir must be a unit 3-vector")


@dataclass
class RasterOutput:
    image: np.ndarray   # (H, W) or (H, W, 3), float in [0,1]
    mask: np.ndarray    # (H, W) bool
    depth: np.ndarray   # (H, W), rotated-space z; -inf outside the mask


# ---------------------------------------------------------------------------
# Projection

def project_vertices(mesh: Mesh, pose: PoseParams,
                     width: int, height: int):
    """Returns ((N,2) pixel coordinates, (N,) rotated-space depths)."""
    cam = mesh.vertices @ pose.rotation.T + pose.translation
    pts = np.empty((cam.shape[0], 2))
    pts[:, 0] = width / 2.0 + pose.f * cam[:, 0]
    pts[:, 1] = height / 2.0 - pose.f * cam[:, 1]
    return pts, cam[:, 2].copy()


def compute_vertex_normals(mesh: Mesh) -> np.ndarray:
    """Area-weighted vertex normals; (0,0,1) fallback for degenerate vertices."""
    v = mesh.vertices
    t = mesh.triangles
    corner = v.take(t.T, axis=0)    # (3, M, 3): one contiguous block per corner
    face_n = np.cross(corner[1] - corner[0], corner[2] - corner[0])   # |n| = 2 area
    # each vertex sums its faces corner by corner, in the order of t.T.ravel()
    acc = np.stack([np.bincount(t.T.reshape(-1), weights=np.tile(face_n[:, c], 3),
                                minlength=v.shape[0]) for c in range(3)], axis=1)
    norms = np.linalg.norm(acc, axis=1)
    bad = norms < 1e-300
    acc[bad] = (0.0, 0.0, 1.0)
    norms[bad] = 1.0
    return acc / norms[:, None]


def phong_shade(albedo: np.ndarray, normal: np.ndarray,
                lighting: LightingParams) -> np.ndarray:
    """Phong reflectance per vertex, viewed along +z; albedo (..., 3),
    normal (..., 3) unit.  Output clamped to [0,1].
    """
    albedo = np.asarray(albedo, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    l = lighting.light_dir
    ln = np.maximum(normal @ l, 0.0)
    refl = 2.0 * (normal @ l)[..., None] * normal - l
    rv = np.maximum(refl @ VIEW_DIR, 0.0)
    out = (lighting.k_ambient
           + lighting.k_diffuse * ln[..., None]
           + lighting.k_specular * (rv ** lighting.shininess)[..., None]) * albedo
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Rasterization

def _ranges(start, count):
    """Members of the integer ranges [start, start + count): (range index, value)."""
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(owner.size) - (np.cumsum(count) - count - start).take(owner)


def rasterize(mesh: Mesh, colors: np.ndarray, pose: PoseParams,
              width: int, height: int) -> RasterOutput:
    """Z-buffered triangle fill with barycentric color interpolation."""
    colors = np.asarray(colors, dtype=np.float64)
    if colors.ndim not in (1, 2) or colors.shape[0] != mesh.vertices.shape[0]:
        raise ValueError(f"colors of shape {colors.shape} are not (N,) or (N, C) "
                         f"for a mesh of N = {mesh.vertices.shape[0]} vertices")
    pts, depths = project_vertices(mesh, pose, width, height)
    channels = 1 if colors.ndim == 1 else colors.shape[1]

    tri = mesh.triangles.T.copy()           # (3, M)
    x, y = pts[:, 0].take(tri), pts[:, 1].take(tri)
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    # orient every triangle positively (swap vertices 1 and 2 where needed)
    flip = area2 < 0
    for a in (tri, x, y):
        a[1:] = np.where(flip, a[:0:-1], a[1:])
    area2 = np.abs(area2)
    # the rows of each triangle's pixel box, clipped to the image; none for
    # degenerate triangles
    iy0 = np.clip(np.ceil(np.minimum(np.minimum(y[0], y[1]), y[2]) - 0.5).astype(np.int64),
                  0, height)
    iy1 = np.clip(np.floor(np.maximum(np.maximum(y[0], y[1]), y[2]) - 0.5).astype(np.int64),
                  -1, height - 1)
    rows = np.where(area2 != 0, np.maximum(iy1 - iy0 + 1, 0), 0)

    # edge k runs from vertex k+1 to k+2: e_k = dx (py - ay) - dy (px - ax);
    # a pixel is inside where every e_k > 0, or e_k == 0 on a top or left edge
    ax, ay = x[[1, 2, 0]], y[[1, 2, 0]]
    dx, dy = x[[2, 0, 1]] - ax, y[[2, 0, 1]] - ay
    # per (triangle, row): e_k >= 0 bounds px from below where dy < 0 and from
    # above where dy > 0 (NaN marks the other edges); the span between the
    # bounds, padded far beyond their rounding error, holds every covered pixel
    rt, iy = _ranges(iy0, rows)
    r_ax, t1, r_dx, lo, hi = (np.take(a, rt, axis=1) for a in (
        ax, ay, dx, np.where(dy < 0, dy, np.nan), np.where(dy > 0, dy, np.nan)))
    np.subtract(iy + 0.5, t1, out=t1)
    t1 *= r_dx
    pad = 2.0 ** -32 * (1.0 + np.abs(x).max(initial=0.0))
    with np.errstate(over="ignore"):    # t1 / dy can overflow where dy is tiny
        lo = np.fmax.reduce(np.add(r_ax, np.divide(t1, lo, out=lo), out=lo)) - pad
        hi = np.fmin.reduce(np.add(r_ax, np.divide(t1, hi, out=hi), out=hi)) + pad
    x0 = np.fmin(np.fmax(np.ceil(lo - 0.5), 0), width).astype(np.int64)
    x1 = np.fmax(np.fmin(np.floor(hi - 0.5), width - 1), -1).astype(np.int64)
    rc, ix = _ranges(x0, np.maximum(x1 - x0 + 1, 0))

    # the exact edge test decides coverage
    rep = rt.take(rc)
    e = np.subtract(ix + 0.5, np.take(ax, rep, axis=1))
    e *= np.take(dy, rep, axis=1)
    np.subtract(np.take(t1, rc, axis=1), e, out=e)
    inside, on_edge = e > 0, e == 0
    if on_edge.any():                       # zeros count on top and left edges
        inside |= on_edge & np.take((dy == 0) & (dx < 0) | (dy > 0), rep, axis=1)
    inside = np.logical_and.reduce(inside)
    pix = np.take(iy * width, rc) + ix
    if not inside.all():
        rep, e, pix = rep[inside], np.compress(inside, e, axis=1), pix[inside]
    e /= area2.take(rep)                    # barycentrics, (3, F)
    # depth and color of each fragment, summed in the fixed order (0 + 2) + 1
    frag = np.take(np.vstack((depths, colors.T)).take(tri, axis=1), rep, axis=2)
    frag *= e
    frag = frag[:, 0] + frag[:, 2] + frag[:, 1]      # (1 + C, F)

    depth = np.full(height * width, -np.inf)
    mask = np.zeros(height * width, dtype=bool)
    mask[pix] = True
    if np.count_nonzero(mask) < pix.size:
        # resolve: each pixel keeps its largest depth (-0.0 ties 0.0; the winner
        # then writes its own), then its lowest fragment index, which has the
        # lowest triangle id because fragments come triangle by triangle (rep ascends)
        np.maximum.at(depth, pix, frag[0])
        cand = np.nonzero(frag[0] == depth.take(pix))[0]
        first = np.full(height * width, pix.size)
        np.minimum.at(first, pix.take(cand), cand)
        win = cand[first.take(pix.take(cand)) == cand]
        pix, frag = pix.take(win), np.take(frag, win, axis=1)
    depth[pix] = frag[0]
    image = np.zeros((height, width, channels))
    image.reshape(-1, channels)[pix] = frag[1:].T
    return RasterOutput(image[..., 0] if channels == 1 else image,
                        mask.reshape(height, width), depth.reshape(height, width))


def render_shading_image(mesh: Mesh, pose: PoseParams,
                         width: int, height: int) -> RasterOutput:
    """Lambertian gray render under a frontal light, unit albedo."""
    normals = compute_vertex_normals(mesh)
    gray = np.maximum(normals @ FRONTAL_LIGHT, 0.0)
    return rasterize(mesh, gray, pose, width, height)


# ---------------------------------------------------------------------------
# Randomized scene parameters

def sample_lighting(rng: np.random.Generator) -> LightingParams:
    """Reflectance constants around the default means; frontal light direction."""
    ka, kd, ks = (max(m + s * rng.standard_normal(), 0.0) for m, s in
                  zip(defaults.PHONG_MEANS, defaults.PHONG_SIGMAS))
    # uniform area measure on the z > 0 hemisphere
    z = rng.uniform(0.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sqrt(max(1.0 - z * z, 0.0))
    light = np.array([r * np.cos(phi), r * np.sin(phi), z])
    light /= np.linalg.norm(light)
    return LightingParams(ka, kd, ks, defaults.PHONG_SHININESS, light)


def rotation_from_euler(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """R = Rz(roll) @ Rx(pitch) @ Ry(yaw), angles in radians."""
    cy, sy = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    cr, sr = np.cos(roll), np.sin(roll)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    rz = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    return rz @ rx @ ry


def nominal_focal(mesh: Mesh, image_height: int) -> float:
    """Scale at which the mesh spans `defaults.POSE_FILL_FRAC` of the image height."""
    extent = mesh.vertices[:, 1].max() - mesh.vertices[:, 1].min()
    if extent <= 0:
        raise ValueError("mesh has no vertical extent")
    return defaults.POSE_FILL_FRAC * image_height / extent


def face_width_of(mesh: Mesh) -> float:
    return float(mesh.vertices[:, 0].max() - mesh.vertices[:, 0].min())


def sample_pose(rng: np.random.Generator, f0: float, face_width: float) -> PoseParams:
    """Near-frontal pose: normal Euler angles, small translation, scale jitter."""
    sigma = np.deg2rad(defaults.POSE_ROTATION_SIGMA_DEG)
    yaw, pitch, roll = sigma * rng.standard_normal(3)
    r = rotation_from_euler(yaw, pitch, roll)
    t = np.zeros(3)
    t[:2] = defaults.POSE_TRANSLATION_FRAC * face_width * rng.standard_normal(2)
    f = f0 * (1.0 + defaults.POSE_SCALE_FRAC * rng.standard_normal())
    f = max(f, 1e-3 * f0)
    return PoseParams(f, r, t)


def luminance(rgb: np.ndarray) -> np.ndarray:
    """Rec.601 grayscale conversion of an (..., 3) image."""
    return rgb @ np.array([0.299, 0.587, 0.114])
