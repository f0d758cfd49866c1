import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthface.model import (Mesh, build_procedural_model, sample_geometry_coefficients,
                             synthesize_geometry)
from synthface.render import PoseParams, nominal_focal, rasterize, rotation_from_euler


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


def pixel_mesh(cells, width, height, depths=None, triangles=((0, 1, 2),)):
    """Mesh whose vertices project to the given pixel coords under the identity pose."""
    px = np.asarray(cells, dtype=np.float64)
    verts = np.zeros((px.shape[0], 3))
    verts[:, 0] = px[:, 0] - width / 2.0
    verts[:, 1] = height / 2.0 - px[:, 1]
    if depths is not None:
        verts[:, 2] = depths
    return Mesh(verts, np.array(triangles))


def pixel_triangle(cells, width, height):
    """Triangle whose projection under the identity pose hits given pixel coords."""
    return pixel_mesh(cells, width, height)


def assert_matches_reference(mesh, colors, width, height, pose=PoseParams.identity()):
    """Exact mask, image and depth within 1e-9 of the oracle (identity pose by default)."""
    got = rasterize(mesh, colors, pose, width, height)
    ref_img, ref_mask, ref_depth = reference_rasterize(mesh, colors, pose, width, height)
    assert np.array_equal(got.mask, ref_mask)
    assert np.abs(got.depth[ref_mask] - ref_depth[ref_mask]).max(initial=0.0) <= 1e-9
    assert np.all(np.isneginf(got.depth[~ref_mask]))
    assert np.abs(got.image - ref_img).max(initial=0.0) <= 1e-9
    return got


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


# Where spans could lose a pixel: edges through pixel centres, axis-aligned
# edges, slivers, clipping on every side and spans far wider than the image.
# The image is 16 x 12 so that x and y cannot be swapped unnoticed.
@pytest.mark.parametrize("cells, triangles", [
    # a rectangle on pixel centres cut along its diagonal
    ([(2.5, 1.5), (12.5, 1.5), (12.5, 9.5), (2.5, 9.5)], [(0, 1, 2), (0, 2, 3)]),
    # the same rectangle on pixel corners (half-integers from the centres)
    ([(2.0, 1.0), (13.0, 1.0), (13.0, 10.0), (2.0, 10.0)], [(0, 2, 1), (0, 3, 2)]),
    # a fan around a centre: horizontal, vertical and diagonal edges through centres
    ([(7.5, 5.5), (13.5, 5.5), (7.5, 0.5), (1.5, 5.5), (7.5, 11.5), (13.5, 11.5)],
     [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1)]),
    # slivers thinner than a pixel that still cover a column, a row and a diagonal
    ([(3.4, 0.3), (3.6, 0.3), (3.5, 11.7)], [(0, 1, 2)]),
    ([(0.3, 5.45), (15.7, 5.5), (0.3, 5.55)], [(0, 1, 2)]),
    ([(0.5, 0.5), (11.5, 11.5), (11.6, 11.5), (11.4, 11.5)], [(0, 1, 2), (0, 3, 1)]),
    # edges 1e-9 px beyond rows and diagonals of pixel centres
    ([(2.5 - 1e-9, 1.5 - 1e-9), (12.5 + 1e-9, 1.5 - 1e-9), (12.5 + 1e-9, 9.5 + 1e-9),
      (2.5 - 1e-9, 9.5 + 1e-9)], [(0, 1, 2), (0, 2, 3)]),
    ([(0.5 - 1e-9, 0.5), (11.5 - 1e-9, 11.5), (15.5, 0.5),
      (0.5 + 1e-9, 0.5), (11.5 + 1e-9, 11.5), (0.5, 11.5)], [(0, 1, 2), (3, 4, 5)]),
    # edges through pixel centres up to rounding: a span taken from the edge
    # crossings without padding misses a covered centre of each
    ([(0.6850710052566287, 8.08594935043344), (4.458417218191594, 11.321927555704518),
      (4.359466436223444, 12.411258526148941), (2.960351449632017, 3.442767400633021),
      (-1.038298760837273, 6.337620798449706), (4.267560591285717, 1.6934189128846504)],
     [(0, 1, 2), (3, 4, 5)]),
    # larger than the image and clipped on all four sides
    ([(-40.0, -30.0), (60.0, -30.0), (10.0, 50.0)], [(0, 1, 2)]),
    # far off-screen vertices: the spans of every row reach far past the image
    ([(-1e6, 6.2), (1e6, 5.8), (8.3, 1e6), (-1e6, -1e6), (1e6, 3.3), (5.2, 1e6)],
     [(0, 1, 2), (3, 4, 5)]),
], ids=["centres", "corners", "fan", "sliver_column", "sliver_row",
        "sliver_diagonal", "near_centres", "near_diagonal", "rounding", "clipped_all_sides", "far_offscreen"])
def test_span_edge_cases_match_reference(cells, triangles, rng):
    width, height = 16, 12
    depths = rng.uniform(-1.0, 1.0, len(cells))
    mesh = pixel_mesh(cells, width, height, depths, triangles)
    got = assert_matches_reference(mesh, rng.uniform(size=(len(cells), 3)), width, height)
    assert got.mask.any()


def test_coplanar_duplicate_keeps_lowest_triangle_id(rng):
    width, height = 16, 12
    cells = [(1.5, 0.5), (14.0, 3.25), (4.75, 11.5)] * 2
    mesh = pixel_mesh(cells, width, height, [0.5, -0.25, 1.0] * 2,
                      [(0, 1, 2), (3, 4, 5), (1, 2, 0)])
    colors = np.repeat([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 3, axis=0)
    got = assert_matches_reference(mesh, colors, width, height)
    assert got.mask.any()
    assert np.allclose(got.image[got.mask], [1.0, 0.0, 0.0])


quarters = st.integers(-8, 56).map(lambda q: q / 4.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_matches_reference_on_quarter_pixel_grid(data):
    # quarter-pixel corners put edges and corners on pixel centres and edges
    # often, and triangles drawn from one small pool share edges.  Each
    # triangle is flat at its own depth: two overlapping triangles at equal
    # depth would tie only up to rounding, which the oracle does not settle.
    width, height = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    pool = data.draw(st.lists(st.tuples(quarters, quarters), min_size=3, max_size=7))
    corners = st.integers(0, len(pool) - 1)
    triangles = data.draw(st.lists(st.tuples(corners, corners, corners),
                                   min_size=1, max_size=8))
    levels = data.draw(st.permutations(range(len(triangles))))
    n = 3 * len(triangles)
    colors = np.linspace(0.0, 1.0, n) if data.draw(st.booleans()) \
        else np.linspace(0.0, 1.0, 3 * n).reshape(n, 3)
    mesh = pixel_mesh([pool[i] for t in triangles for i in t], width, height,
                      np.repeat(levels, 3) / 4.0, np.arange(n).reshape(-1, 3))
    assert_matches_reference(mesh, colors, width, height)


# Contested pixels: several fragments hit one pixel and the depth resolve
# picks the winner.  Each triangle has its own three vertices, so identical
# triangles give bit-identical fragment depths.

def test_duplicates_on_one_pixel_keep_lowest_id_at_largest_depth():
    width, height = 10, 8
    cells = [(4.2, 4.2), (5.0, 4.2), (4.2, 5.0)]      # covers pixel (4, 4) alone
    levels = [0.25, 0.75, 0.75, 0.75, 0.75, 0.5]        # ids 1-4 tie in front
    mesh = pixel_mesh(cells * len(levels), width, height, np.repeat(levels, 3),
                      np.arange(3 * len(levels)).reshape(-1, 3))
    colors = np.repeat(np.linspace(0.1, 0.6, len(levels)), 3)
    got = assert_matches_reference(mesh, colors, width, height)
    assert list(zip(*np.nonzero(got.mask))) == [(4, 4)]
    assert got.image[4, 4] == pytest.approx(colors[3])     # id 1's colour


@pytest.mark.parametrize("signs", [(-0.0, 0.0), (0.0, -0.0)], ids=["neg_first", "pos_first"])
def test_signed_zero_depths_tie_to_lowest_id(signs):
    # vertex depths of -0.0 and +0.0 tie: the lower id wins whichever sign it has
    width, height = 16, 12
    cells = [(1.5, 0.5), (14.0, 3.25), (4.75, 11.5)] * 2
    mesh = pixel_mesh(cells, width, height, np.repeat(signs, 3),
                      [(0, 1, 2), (3, 4, 5)])
    colors = np.repeat([0.25, 0.75], 3)
    got = assert_matches_reference(mesh, colors, width, height)
    ref_depth = reference_rasterize(mesh, colors, PoseParams.identity(), width, height)[2]
    assert got.mask.sum() > 20
    assert np.all(got.image[got.mask] == pytest.approx(0.25))
    assert np.array_equal(np.signbit(got.depth), np.signbit(ref_depth))


@pytest.mark.parametrize("zero_ties", [False, True], ids=["folded", "zero_ties"])
def test_folded_mesh_matches_reference(zero_ties):
    # 400 triangles over a pool of 150 random vertices fold over each other so
    # that most covered pixels are contested; with zero_ties, two thirds of the
    # triangles lie flat at depth +-0.0 and tie exactly wherever they overlap
    width, height = 40, 32
    rng = np.random.default_rng(11)
    pool = rng.uniform((-4.0, -4.0), (width + 4.0, height + 4.0), size=(150, 2))
    pool_depth = rng.standard_normal(150)
    tris = rng.integers(0, 150, size=(400, 3))
    depths = pool_depth[tris]
    if zero_ties:
        flat = np.arange(400) % 3 != 0
        depths[flat] = rng.choice([-0.0, 0.0], size=(int(flat.sum()), 1))
    mesh = pixel_mesh(pool[tris.reshape(-1)], width, height, depths.reshape(-1),
                      np.arange(1200).reshape(-1, 3))
    hits = sum(rasterize(Mesh(mesh.vertices, t[None]), np.zeros(1200),
                         PoseParams.identity(), width, height).mask.astype(int)
               for t in mesh.triangles)
    assert (hits > 1).sum() > 0.5 * (hits > 0).sum()
    assert_matches_reference(mesh, rng.uniform(size=(1200, 3)), width, height)


@pytest.mark.parametrize("shape", [(3, 2, 3), (), (2, 3), (4,)],
                         ids=["three_dims", "scalar", "too_few", "too_many"])
def test_rejects_colors_not_one_per_vertex(shape):
    # (3, 2, 3) has one entry per vertex along its first axis, but is neither
    # (N,) nor (N, C)
    mesh = pixel_triangle([(4.2, 4.2), (6.3, 4.2), (4.2, 6.3)], 16, 16)
    with pytest.raises(ValueError, match=re.escape(f"colors of shape {shape}")):
        rasterize(mesh, np.ones(shape), PoseParams.identity(), 16, 16)


@pytest.mark.parametrize("rgb", [False, True], ids=["gray", "rgb"])
@pytest.mark.parametrize("yaw, contested", [(0.0, False), (1.0, True)],
                         ids=["frontal", "folded"])
def test_face_mesh_matches_reference(yaw, contested, rgb):
    # a procedural face at about one fragment per pixel, as the benchmark's
    # renders are: shared edges and triangles of about a pixel.  Seen from the
    # front it covers no pixel twice, so no depth resolve runs; turned by 1 rad
    # it folds over itself and the resolve decides the contested pixels
    model = build_procedural_model(seed=2, n_id=4, n_exp=2, n_tex=2, grid_resolution=16)
    rng = np.random.default_rng(0)
    mesh = synthesize_geometry(model, sample_geometry_coefficients(rng, model))
    width, height = 32, 28
    pose = PoseParams(nominal_focal(mesh, height), rotation_from_euler(yaw, 0.1, 0.05),
                      np.zeros(3))
    hits = sum(rasterize(Mesh(mesh.vertices, t[None]), np.zeros(model.n_vertices),
                         pose, width, height).mask.astype(int) for t in mesh.triangles)
    assert (hits > 0).sum() > 0.4 * mesh.triangles.shape[0]
    assert (hits > 1).any() == contested
    colors = rng.uniform(size=(model.n_vertices, 3) if rgb else model.n_vertices)
    assert_matches_reference(mesh, colors, width, height, pose)
