"""Linear morphable face model: synthesis, sampling, losses and texture projection.

The model represents geometry as ``mu_S + [A_id | A_exp] @ [alpha_id; alpha_exp]``
with one shape basis, and per-vertex color as ``mu_T + A_T @ alpha_T``,
passed around as a plain (N, 3) array.  A procedural builder stands in for a
scan-derived basis: the mean is a smooth face-like heightfield and the basis
columns are orthonormalized smooth random displacement fields, which keeps
every algebraic property (linearity, orthonormal Gram matrix) that the rest
of the pipeline relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import defaults

# Extents of the procedural mean face in model units.  Kept O(1) so that a
# unit-norm basis column produces a visible displacement.
FACE_WIDTH = 3.0
FACE_HEIGHT = 4.0
FACE_DEPTH = 1.3


@dataclass(frozen=True)
class GeometryCoefficients:
    """Identity + expression coefficients, standard-normal scale."""

    alpha_id: np.ndarray
    alpha_exp: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha_id", np.asarray(self.alpha_id, dtype=np.float64))
        object.__setattr__(self, "alpha_exp", np.asarray(self.alpha_exp, dtype=np.float64))
        if not (np.isfinite(self.alpha_id).all() and np.isfinite(self.alpha_exp).all()):
            raise ValueError("geometry coefficients must be finite")

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.alpha_id, self.alpha_exp])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_id: int) -> "GeometryCoefficients":
        vec = np.asarray(vec, dtype=np.float64)
        return cls(vec[:n_id], vec[n_id:])

    @classmethod
    def zeros(cls, n_id: int, n_exp: int) -> "GeometryCoefficients":
        return cls(np.zeros(n_id), np.zeros(n_exp))


@dataclass(frozen=True)
class TextureCoefficients:
    alpha_tex: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha_tex", np.asarray(self.alpha_tex, dtype=np.float64))
        if not np.all(np.isfinite(self.alpha_tex)):
            raise ValueError("texture coefficients must be finite")


@dataclass(frozen=True)
class Mesh:
    """Vertex positions plus shared triangle topology."""

    vertices: np.ndarray       # (N, 3)
    triangles: np.ndarray      # (M, 3) int

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=np.float64))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))


@dataclass(frozen=True)
class MorphableModel:
    mu_shape: np.ndarray       # (3N,), interleaved xyz
    shape_basis: np.ndarray    # (3N, n_id + n_exp), [A_id | A_exp]
    n_id: int                  # leading shape_basis columns that are identity
    mu_tex: np.ndarray         # (3N,), interleaved rgb
    basis_tex: np.ndarray      # (3N, n_tex)
    triangles: np.ndarray      # (M, 3) int
    landmark_indices: np.ndarray   # (K,) vertex indices, 68 from the builder
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n3 = self.mu_shape.shape[0]
        if n3 % 3 != 0:
            raise ValueError("mu_shape length must be a multiple of 3")
        if not 0 <= self.n_id <= self.shape_basis.shape[1]:
            raise ValueError(f"n_id={self.n_id} exceeds the shape basis columns")
        for name in ("mu_shape", "shape_basis", "mu_tex", "basis_tex"):
            a = getattr(self, name)
            if a.shape[0] != n3:
                raise ValueError(f"{name} row count {a.shape[0]} != 3N={n3}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite values")
        if self.triangles.min() < 0 or self.triangles.max() >= self.n_vertices:
            raise ValueError("triangle index out of range")
        lmk = self.landmark_indices
        if lmk.size and (lmk.min() < 0 or lmk.max() >= self.n_vertices):
            raise ValueError(f"landmark vertex index out of range for {self.n_vertices} vertices")

    @property
    def n_vertices(self) -> int:
        return self.mu_shape.shape[0] // 3

    @property
    def n_exp(self) -> int:
        return self.shape_basis.shape[1] - self.n_id

    @property
    def n_tex(self) -> int:
        return self.basis_tex.shape[1]

    @property
    def basis_id(self) -> np.ndarray:
        """A_id, a view of the leading shape_basis columns."""
        return self.shape_basis[:, :self.n_id]

    @property
    def basis_exp(self) -> np.ndarray:
        """A_exp, a view of the trailing shape_basis columns."""
        return self.shape_basis[:, self.n_id:]

    @property
    def mean_mesh(self) -> Mesh:
        return Mesh(self.mu_shape.reshape(-1, 3), self.triangles)


# ---------------------------------------------------------------------------
# Procedural construction

def _harmonics_1d(u: np.ndarray, n_freq: int) -> np.ndarray:
    """Columns: 1, cos(k pi s), sin(k pi s) with s in [0,1]; shape (len(u), 2*n_freq+1)."""
    s = (u + 1.0) / 2.0
    cols = [np.ones_like(s)]
    for k in range(1, n_freq + 1):
        cols.append(np.cos(np.pi * k * s))
        cols.append(np.sin(np.pi * k * s))
    return np.stack(cols, axis=1)


def _smooth_field_basis(u: np.ndarray, v: np.ndarray, n_freq: int) -> np.ndarray:
    """Tensor-product harmonic basis over the grid; shape (N, (2*n_freq+1)**2)."""
    bu = _harmonics_1d(u, n_freq)
    bv = _harmonics_1d(v, n_freq)
    return np.einsum("ni,nj->nij", bu, bv).reshape(u.shape[0], -1)


def _gauss(u, v, cu, cv, su, sv):
    return np.exp(-((u - cu) ** 2 / (2 * su**2) + (v - cv) ** 2 / (2 * sv**2)))


def _mean_face_height(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Smooth face-like profile over [-1,1]^2; returns values roughly in [0,1]."""
    h = 0.85 * _gauss(u, v, 0.0, 0.0, 0.62, 0.72)          # base dome
    h += 0.55 * _gauss(u, v, 0.0, -0.15, 0.10, 0.22)        # nose ridge
    h += 0.18 * _gauss(u, v, -0.38, 0.32, 0.20, 0.10)       # brow left
    h += 0.18 * _gauss(u, v, 0.38, 0.32, 0.20, 0.10)        # brow right
    h += 0.12 * _gauss(u, v, 0.0, -0.75, 0.22, 0.14)        # chin
    h -= 0.10 * _gauss(u, v, -0.35, 0.18, 0.13, 0.08)       # eye socket left
    h -= 0.10 * _gauss(u, v, 0.35, 0.18, 0.13, 0.08)        # eye socket right
    return h


def _landmark_layout() -> np.ndarray:
    """68 canonical (u, v) landmark positions on [-1,1]^2, v up."""
    pts = []
    # jaw outline, 17 points along the lower face ellipse
    ang = np.linspace(np.pi, 2 * np.pi, 17)
    pts += [(0.72 * np.cos(a), 0.80 * np.sin(a)) for a in ang]
    # brows, 5 each
    for side in (-1.0, 1.0):
        xs = side * np.linspace(0.55, 0.15, 5)
        pts += [(x, 0.42 + 0.06 * np.cos(np.pi * (x - side * 0.35) / 0.4)) for x in xs]
    # nose bridge (4) + nostril line (5)
    pts += [(0.0, y) for y in np.linspace(0.30, -0.05, 4)]
    pts += [(x, -0.14) for x in np.linspace(-0.14, 0.14, 5)]
    # eyes, 6 each on small ellipses
    for cx in (-0.35, 0.35):
        ang = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        pts += [(cx + 0.14 * np.cos(a), 0.22 + 0.06 * np.sin(a)) for a in ang]
    # mouth: outer 12, inner 8
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    pts += [(0.26 * np.cos(a), -0.42 + 0.11 * np.sin(a)) for a in ang]
    ang = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    pts += [(0.16 * np.cos(a), -0.42 + 0.05 * np.sin(a)) for a in ang]
    return np.array(pts)


def _nearest_unique_vertices(grid_uv: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Nearest grid vertex per target, greedily avoiding duplicates."""
    taken = set()
    out = np.empty(len(targets), dtype=np.int64)
    for i, p in enumerate(targets):
        d2 = np.sum((grid_uv - p) ** 2, axis=1)
        for j in np.argsort(d2):
            if int(j) not in taken:
                taken.add(int(j))
                out[i] = j
                break
    return out


# Every coordinate of a basis field gets the same energy: that keeps the landmark
# observation matrix well conditioned under weak perspective while leaving
# enough depth variation for shading images.
def _orthonormal_smooth_basis(rng, field_basis, n_cols):
    """Random smooth displacement fields with orthonormalized columns (3N x n_cols)."""
    n_pts, n_field = field_basis.shape
    raw = np.empty((3 * n_pts, n_cols))
    for c in range(n_cols):
        disp = np.empty((n_pts, 3))
        for axis in range(3):
            g = rng.standard_normal(n_field)
            disp[:, axis] = (field_basis @ g) / np.sqrt(n_field)
        raw[:, c] = disp.reshape(-1)
    q, r = np.linalg.qr(raw)
    del raw
    # fix signs for determinism
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q *= signs
    diag = np.abs(np.diag(r))
    if diag.min() < 1e-10 * diag.max():
        raise ValueError("smooth field space too small for requested basis size")
    # column-major, as MFM1 stores and loads them, so that a built model and
    # its file round-trip multiply bit-identically
    return np.asfortranarray(q)


def build_procedural_model(seed: int,
                           n_id: int = defaults.N_ID,
                           n_exp: int = defaults.N_EXP,
                           n_tex: int = defaults.N_TEX,
                           grid_resolution: int = defaults.GRID_RESOLUTION) -> MorphableModel:
    """Deterministic face-like morphable model on a square grid.

    The mean shape is a smooth heightfield; [basis_id | basis_exp] has mutually
    orthonormal columns, and basis_tex is orthonormal independently.
    """
    if min(n_id, n_exp, n_tex, grid_resolution) < 1:
        raise ValueError("all dimensions must be >= 1")
    n = grid_resolution * grid_resolution
    if n_id + n_exp > 3 * n:
        raise ValueError(
            f"n_id + n_exp = {n_id + n_exp} exceeds 3N = {3 * n}; "
            "increase grid_resolution")
    if n_tex > 3 * n:
        raise ValueError(f"n_tex = {n_tex} exceeds 3N = {3 * n}")
    layout = _landmark_layout()
    if n < len(layout):
        raise ValueError(f"N = {n} vertices is fewer than the {len(layout)} "
                         "landmarks; increase grid_resolution")

    rng = np.random.default_rng(np.random.SeedSequence([0x5F4CE, seed]))

    lin = np.linspace(-1.0, 1.0, grid_resolution)
    vv, uu = np.meshgrid(lin, lin, indexing="ij")   # vv: rows (y), uu: cols (x)
    u = uu.reshape(-1)
    v = vv.reshape(-1)

    verts = np.empty((n, 3))
    verts[:, 0] = u * (FACE_WIDTH / 2.0)
    verts[:, 1] = v * (FACE_HEIGHT / 2.0)
    verts[:, 2] = _mean_face_height(u, v) * FACE_DEPTH
    verts -= verts.mean(axis=0)

    # two triangles per grid cell, CCW seen from +z
    g = grid_resolution
    i, j = np.meshgrid(np.arange(g - 1), np.arange(g - 1), indexing="ij")
    v00 = (i * g + j).reshape(-1)
    v01 = v00 + 1
    v10 = v00 + g
    v11 = v10 + 1
    tris = np.concatenate([
        np.stack([v00, v01, v11], axis=1),
        np.stack([v00, v11, v10], axis=1),
    ])

    # smooth-field harmonic space large enough to span the requested columns
    n_freq = 2
    while 3 * (2 * n_freq + 1) ** 2 < max(n_id + n_exp, n_tex) + 8:
        n_freq += 1
    field_basis = _smooth_field_basis(u, v, n_freq)

    shape_basis = _orthonormal_smooth_basis(rng, field_basis, n_id + n_exp)
    tex_basis = _orthonormal_smooth_basis(rng, field_basis, n_tex)

    mu_tex = np.empty((n, 3))
    mu_tex[:, 0] = 0.78 + 0.05 * v
    mu_tex[:, 1] = 0.60 + 0.04 * v
    mu_tex[:, 2] = 0.50 + 0.03 * v

    landmarks = _nearest_unique_vertices(np.stack([u, v], axis=1), layout)

    return MorphableModel(
        mu_shape=verts.reshape(-1),
        shape_basis=shape_basis,
        n_id=n_id,
        mu_tex=mu_tex.reshape(-1),
        basis_tex=tex_basis,
        triangles=tris,
        landmark_indices=landmarks,
    )


# ---------------------------------------------------------------------------
# Synthesis and losses

def synthesize_geometry(model: MorphableModel, coeffs: GeometryCoefficients) -> Mesh:
    if coeffs.alpha_id.shape[0] != model.n_id or coeffs.alpha_exp.shape[0] != model.n_exp:
        raise ValueError(
            f"coefficient lengths ({coeffs.alpha_id.shape[0]}, {coeffs.alpha_exp.shape[0]}) "
            f"do not match model dims ({model.n_id}, {model.n_exp})")
    flat = model.mu_shape + model.basis_id @ coeffs.alpha_id \
        + model.basis_exp @ coeffs.alpha_exp
    return Mesh(flat.reshape(-1, 3), model.triangles)


def synthesize_texture(model: MorphableModel, tcoeffs: TextureCoefficients) -> np.ndarray:
    if tcoeffs.alpha_tex.shape[0] != model.n_tex:
        raise ValueError(
            f"texture coefficient length {tcoeffs.alpha_tex.shape[0]} != {model.n_tex}")
    return (model.mu_tex + model.basis_tex @ tcoeffs.alpha_tex).reshape(-1, 3)


def _shape_residual(model: MorphableModel,
                    x: GeometryCoefficients,
                    y: GeometryCoefficients) -> np.ndarray:
    """Vertex-space difference of the two synthesized geometries."""
    dx = x.vector - y.vector
    if dx.shape[0] != model.shape_basis.shape[1]:
        raise ValueError("coefficient dimensions do not match the model")
    return model.shape_basis @ dx


def geometry_loss(model: MorphableModel,
                  x: GeometryCoefficients,
                  y: GeometryCoefficients) -> float:
    """Squared error between the two synthesized geometries (vertex space)."""
    d = _shape_residual(model, x, y)
    return float(d @ d)


def geometry_loss_grad(model: MorphableModel,
                       x: GeometryCoefficients,
                       y: GeometryCoefficients) -> np.ndarray:
    """Gradient of geometry_loss with respect to x."""
    return 2.0 * (model.shape_basis.T @ _shape_residual(model, x, y))


def sample_geometry_coefficients(rng: np.random.Generator,
                                 model: MorphableModel) -> GeometryCoefficients:
    vec = rng.standard_normal(model.n_id + model.n_exp)
    return GeometryCoefficients.from_vector(vec, model.n_id)


def sample_texture_coefficients(rng: np.random.Generator,
                                model: MorphableModel) -> TextureCoefficients:
    return TextureCoefficients(rng.standard_normal(model.n_tex))


def project_texture(model: MorphableModel,
                    observed: np.ndarray,
                    visibility: np.ndarray,
                    lambda_tex: float = defaults.LAMBDA_TEXTURE):
    """Least-squares texture coefficients from the visible vertices' colors.

    Returns ``(TextureCoefficients, colors)``: the (N, 3) colors keep the
    observed ones on visible vertices and take the model reconstruction on
    occluded ones.
    """
    visibility = np.asarray(visibility, dtype=bool)
    if visibility.shape[0] != model.n_vertices:
        raise ValueError("visibility mask length must equal the vertex count")
    if not visibility.any():
        raise ValueError("visibility mask has no visible vertices")
    rows = np.repeat(visibility, 3)
    a = model.basis_tex[rows]
    b = observed.reshape(-1)[rows] - model.mu_tex[rows]
    ata = a.T @ a
    ata[np.diag_indices_from(ata)] += lambda_tex
    alpha = np.linalg.solve(ata, a.T @ b)

    recon = (model.mu_tex + model.basis_tex @ alpha).reshape(-1, 3)
    return TextureCoefficients(alpha), np.where(visibility[:, None], observed, recon)
