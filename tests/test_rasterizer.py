import numpy as np
import pytest

from synthface.model import Mesh
from synthface.render import PoseParams, rasterize


def reference_rasterize(mesh, colors, pose, width, height):
    """Dense per-pixel point-in-triangle + depth-compare rasterizer.

    Uses the same edge function, fill rule and orientation fix as the
    production rasterizer so masks and depth winners must agree exactly.
    """
    colors = np.asarray(colors, dtype=np.float64)
    cols = colors.reshape(colors.shape[0], -1)
    channels = cols.shape[1]
    cam = mesh.vertices @ pose.rotation.T + pose.translation
    px_v = width / 2.0 + pose.f * cam[:, 0]
    py_v = height / 2.0 - pose.f * cam[:, 1]
    depth_v = cam[:, 2]

    image = np.zeros((height, width, channels))
    mask = np.zeros((height, width), dtype=bool)
    depth = np.full((height, width), -np.inf)

    ys, xs = np.mgrid[0:height, 0:width]
    pcx = xs + 0.5
    pcy = ys + 0.5

    for tri_id, tri in enumerate(mesh.triangles):
        tri = list(tri)
        x = px_v[tri]
        y = py_v[tri]
        area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
        if area2 < 0:
            tri = [tri[0], tri[2], tri[1]]
            x = px_v[tri]
            y = py_v[tri]
            area2 = -area2
        if area2 == 0:
            continue
        inside = np.ones((height, width), dtype=bool)
        bary = np.empty((3, height, width))
        for k in range(3):
            a, b = (k + 1) % 3, (k + 2) % 3
            e = (x[b] - x[a]) * (pcy - y[a]) - (y[b] - y[a]) * (pcx - x[a])
            dx = x[b] - x[a]
            dy = y[b] - y[a]
            top_left = (dy == 0) & (dx < 0) | (dy > 0)
            inside &= (e > 0) | ((e == 0) & top_left)
            bary[k] = e
        bary = bary / area2
        d = np.einsum("kij,k->ij", bary, depth_v[tri])
        win = inside & (d > depth)
        depth[win] = d[win]
        mask[win] = True
        c = np.einsum("kij,kc->ijc", bary, cols[tri])
        image[win] = c[win]

    if channels == 1:
        image = image[..., 0]
    return image, mask, depth


def pixel_triangle(cells, width, height):
    """Triangle whose projection under the identity pose hits given pixel coords."""
    px = np.asarray(cells, dtype=np.float64)
    verts = np.zeros((3, 3))
    verts[:, 0] = px[:, 0] - width / 2.0
    verts[:, 1] = height / 2.0 - px[:, 1]
    return Mesh(verts, np.array([[0, 1, 2]]))


def test_single_triangle_exact_pixel_set():
    width = height = 16
    mesh = pixel_triangle([(4.2, 4.2), (6.3, 4.2), (4.2, 6.3)], width, height)
    raster = rasterize(mesh, np.ones(3), PoseParams.identity(), width, height)
    expected = {(4, 4), (5, 4), (4, 5)}
    got = {(int(x), int(y)) for y, x in zip(*np.nonzero(raster.mask))}
    assert got == expected


def test_zbuffer_keeps_near_triangle():
    # two stacked quasi-identical triangles; the one with larger z wins
    v = np.array([[-3.0, -3, 0], [3, -3, 0], [0, 3, 0],
                  [-3.0, -3, 1], [3, -3, 1], [0, 3, 1]])
    t = np.array([[0, 1, 2], [3, 4, 5]])
    colors = np.array([[0.0, 1, 0]] * 3 + [[1.0, 0, 0]] * 3)
    raster = rasterize(Mesh(v, t), colors, PoseParams.identity(4.0), 48, 48)
    assert raster.mask.any()
    assert np.allclose(raster.image[raster.mask], [1.0, 0.0, 0.0])
    assert np.allclose(raster.depth[raster.mask], 1.0)


def test_hidden_copy_changes_nothing(rng):
    verts = rng.standard_normal((12, 3))
    tris = rng.integers(0, 12, size=(8, 3))
    colors = rng.uniform(size=12)
    pose = PoseParams.identity(6.0)
    front = rasterize(Mesh(verts, tris), colors, pose, 40, 40)
    shifted = verts.copy()
    shifted[:, 2] -= 10.0   # same silhouette, strictly behind
    both = rasterize(Mesh(np.vstack([verts, shifted]),
                          np.vstack([tris, tris + 12])),
                     np.concatenate([colors, colors]), pose, 40, 40)
    assert np.array_equal(front.mask, both.mask)
    assert np.array_equal(front.depth, both.depth)
    assert np.array_equal(front.image, both.image)


def test_shared_edge_pixels_covered_once():
    # adjacent triangles of a quad: every covered pixel belongs to exactly one
    v = np.array([[-4.0, -4, 0], [4, -4, 0], [4, 4, 0], [-4, 4, 0]])
    pose = PoseParams.identity(3.0)
    full = rasterize(Mesh(v, np.array([[0, 1, 2], [0, 2, 3]])),
                     np.ones(4), pose, 32, 32)
    a = rasterize(Mesh(v, np.array([[0, 1, 2]])), np.ones(4), pose, 32, 32)
    b = rasterize(Mesh(v, np.array([[0, 2, 3]])), np.ones(4), pose, 32, 32)
    overlap = a.mask & b.mask
    assert not overlap.any()
    assert np.array_equal(a.mask | b.mask, full.mask)


def test_matches_reference_on_random_meshes(rng):
    width = height = 48
    for _ in range(12):
        nv = int(rng.integers(6, 30))
        nt = int(rng.integers(4, 60))
        verts = rng.standard_normal((nv, 3)) * rng.uniform(0.5, 2.0)
        tris = rng.integers(0, nv, size=(nt, 3))
        colors = rng.uniform(size=(nv, 3))
        pose = PoseParams.identity(float(rng.uniform(2.0, 12.0)))
        got = rasterize(Mesh(verts, tris), colors, pose, width, height)
        ref_img, ref_mask, ref_depth = reference_rasterize(
            Mesh(verts, tris), colors, pose, width, height)
        assert np.array_equal(got.mask, ref_mask)
        # depths may differ by summation order only; the winner must agree,
        # which the color comparison pins down
        assert np.abs(got.depth[ref_mask] - ref_depth[ref_mask]).max() <= 1e-9
        assert np.all(np.isneginf(got.depth[~ref_mask]))
        assert np.abs(got.image - ref_img).max() <= 1e-9


@pytest.mark.parametrize("rgb", [False, True], ids=["gray", "rgb"])
@pytest.mark.parametrize("mesh, width", [
    (Mesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=np.int64)), 16),
    (Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]])), 16),
    (Mesh(np.array([[1000.0, 1000, 0], [1001, 1000, 0], [1000, 1001, 0]]),
          np.array([[0, 1, 2]])), 16),
    # its box holds 6x6 pixel centres, none of which lies inside it
    (pixel_triangle([(2.0, 2.2), (8.0, 8.2), (8.0, 8.3)], 16, 16), 16),
    (pixel_triangle([(2.0, 2.0), (12.0, 2.0), (2.0, 12.0)], 16, 16), 0),
], ids=["no_triangles", "zero_area", "offscreen", "sliver", "width_0"])
def test_empty_and_offscreen_meshes(mesh, width, rgb):
    height = 16
    colors = np.ones((3, 3) if rgb else 3)
    raster = rasterize(mesh, colors, PoseParams.identity(), width, height)
    assert raster.image.shape == ((height, width, 3) if rgb else (height, width))
    assert not raster.image.any()
    assert raster.mask.shape == (height, width) and not raster.mask.any()
    assert raster.depth.shape == (height, width)
    assert np.all(np.isneginf(raster.depth))
