import numpy as np
import pytest

from synthface.model import Mesh
from synthface.render import (LightingParams, PoseParams,
                              compute_vertex_normals, face_width_of, luminance,
                              nominal_focal, phong_shade, project_vertices,
                              rasterize, render_shading_image,
                              rotation_from_euler, sample_lighting,
                              sample_pose)


def quad_mesh(z=0.0, size=1.0):
    v = np.array([[-size, -size, z], [size, -size, z],
                  [size, size, z], [-size, size, z]])
    t = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(v, t)


# ---------------------------------------------------------------------------
# Pose and projection

def test_pose_validation():
    with pytest.raises(ValueError):
        PoseParams(0.0, np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        PoseParams(1.0, 2 * np.eye(3), np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        PoseParams(1.0, refl, np.zeros(3))


def _rotation_with(value):
    r = np.eye(3)
    r[1, 2] = value
    return r


@pytest.mark.parametrize("f, rotation, translation, reason", [
    (np.nan, np.eye(3), np.zeros(3), "pose scale f"),
    (np.inf, np.eye(3), np.zeros(3), "pose scale f"),
    (0.0, np.eye(3), np.zeros(3), "pose scale f"),
    (1.0, _rotation_with(np.nan), np.zeros(3), "not orthogonal"),
    (1.0, _rotation_with(np.inf), np.zeros(3), "not orthogonal"),
    (1.0, np.eye(3), np.ones(1), "translation"),
    (1.0, np.eye(3), np.ones(2), "translation"),
    (1.0, np.eye(3), np.array([0.0, np.nan, 0.0]), "translation"),
], ids=["f_nan", "f_inf", "f_0", "rotation_nan", "rotation_inf",
        "translation_1", "translation_2", "translation_nan"])
def test_pose_rejects_non_finite_and_misshapen_values(f, rotation, translation,
                                                      reason):
    with pytest.raises(ValueError, match=reason):
        PoseParams(f, rotation, translation)


@pytest.mark.parametrize("k_a, k_d, shininess, light_dir, reason", [
    (0.5, np.nan, 10.0, [0.0, 0.0, 1.0], "reflectance"),
    (np.inf, 0.7, 10.0, [0.0, 0.0, 1.0], "reflectance"),
    (0.5, 0.7, np.nan, [0.0, 0.0, 1.0], "shininess"),
    (0.5, 0.7, 10.0, [0.6, 0.8], "light_dir"),
], ids=["k_d_nan", "k_a_inf", "shininess_nan", "light_dir_2"])
def test_lighting_rejects_non_finite_and_misshapen_values(k_a, k_d, shininess,
                                                          light_dir, reason):
    with pytest.raises(ValueError, match=reason):
        LightingParams(k_a, k_d, 0.05, shininess, np.array(light_dir))


def test_projection_identity_pose():
    mesh = Mesh(np.array([[3.0, 4.0, 9.0]]), np.zeros((0, 3), dtype=np.int64))
    pts, depth = project_vertices(mesh, PoseParams.identity(), 64, 48)
    assert np.allclose(pts[0], [32 + 3, 24 - 4])
    assert depth[0] == 9.0


def test_projection_scales_linearly_in_f():
    mesh = Mesh(np.array([[3.0, 4.0, 9.0]]), np.zeros((0, 3), dtype=np.int64))
    pts, _ = project_vertices(mesh, PoseParams.identity(2.0), 64, 48)
    assert np.allclose(pts[0], [32 + 6, 24 - 8])


def test_projection_rotation_about_z():
    r = rotation_from_euler(0.0, 0.0, np.pi / 2)
    mesh = Mesh(np.array([[1.0, 0.0, 0.0]]), np.zeros((0, 3), dtype=np.int64))
    pts, _ = project_vertices(mesh, PoseParams(1.0, r, np.zeros(3)), 64, 48)
    assert np.allclose(pts[0], [32 + 0, 24 - 1], atol=1e-12)


# ---------------------------------------------------------------------------
# Normals

def test_flat_quad_normals():
    normals = compute_vertex_normals(quad_mesh())
    assert np.allclose(normals, [[0, 0, 1]] * 4, atol=1e-15)


def uv_sphere(n_lat=28, n_lon=40):
    verts = [(0.0, 0.0, 1.0)]
    for i in range(1, n_lat):
        theta = np.pi * i / n_lat
        for j in range(n_lon):
            phi = 2 * np.pi * j / n_lon
            verts.append((np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi), np.cos(theta)))
    verts.append((0.0, 0.0, -1.0))
    verts = np.array(verts)
    tris = []
    def ring(i, j):
        return 1 + (i - 1) * n_lon + (j % n_lon)
    for j in range(n_lon):
        tris.append([0, ring(1, j), ring(1, j + 1)])
        tris.append([len(verts) - 1, ring(n_lat - 1, j + 1), ring(n_lat - 1, j)])
    for i in range(1, n_lat - 1):
        for j in range(n_lon):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            tris.append([a, d, b])
            tris.append([a, c, d])
    return Mesh(verts, np.array(tris))


def test_sphere_normals_near_radial():
    mesh = uv_sphere()
    normals = compute_vertex_normals(mesh)
    radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1)[:, None]
    cos = np.abs(np.sum(normals * radial, axis=1))
    assert np.min(cos) > np.cos(np.deg2rad(2.0))


def test_degenerate_triangle_contributes_nothing():
    v = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 0]])
    base = Mesh(v, np.array([[0, 1, 2]]))
    # triangle (0, 1, 3) is collinear, zero area
    withdeg = Mesh(v, np.array([[0, 1, 2], [0, 1, 3]]))
    n1 = compute_vertex_normals(base)
    n2 = compute_vertex_normals(withdeg)
    assert np.allclose(n1[:3], n2[:3], atol=1e-15)


# ---------------------------------------------------------------------------
# Phong shading

def test_phong_mean_constants_clamp():
    lighting = LightingParams(0.5, 0.7, 0.0, 10.0, np.array([0.0, 0, 1]))
    out = phong_shade(np.ones(3), np.array([0.0, 0, 1]), lighting)
    # raw value 1.2 clamps to 1
    assert np.allclose(out, 1.0)


def test_phong_backfacing_is_dark():
    lighting = LightingParams(0.0, 0.7, 0.0, 10.0, np.array([0.0, 0, 1]))
    out = phong_shade(np.ones(3), np.array([0.0, 0, -1]), lighting)
    assert np.allclose(out, 0.0)


def test_phong_specular_lobe():
    ks = 0.04
    # a light tilted by pi/4 reflects at pi/4 from the +z view direction
    light = np.array([np.sin(np.pi / 4), 0.0, np.cos(np.pi / 4)])
    lighting = LightingParams(0.0, 0.0, ks, 10.0, light)
    out = phong_shade(np.ones(3), np.array([0.0, 0, 1]), lighting)
    expected = ks * np.cos(np.pi / 4) ** 10
    assert np.allclose(out, expected, rtol=1e-12)


def test_phong_clamps_to_unit_interval(rng):
    lighting = sample_lighting(rng)
    normals = rng.standard_normal((50, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    albedo = rng.uniform(0, 2, size=(50, 3))
    out = phong_shade(albedo, normals, lighting)
    assert out.min() >= 0.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# Shading images

def test_shading_flat_plane_is_one():
    raster = render_shading_image(quad_mesh(), PoseParams.identity(10.0), 32, 32)
    assert raster.mask.any()
    assert np.allclose(raster.image[raster.mask], 1.0)


def test_shading_tilted_plane_is_cosine():
    r = rotation_from_euler(0.0, np.deg2rad(60.0), 0.0)
    tilted = Mesh(quad_mesh().vertices @ r.T, quad_mesh().triangles)
    raster = render_shading_image(tilted, PoseParams.identity(10.0), 32, 32)
    assert raster.mask.any()
    assert np.abs(raster.image[raster.mask] - 0.5).max() < 1e-6


def test_shading_deterministic(fit_model):
    pose = PoseParams.identity(nominal_focal(fit_model.mean_mesh, 64))
    a = render_shading_image(fit_model.mean_mesh, pose, 64, 64)
    b = render_shading_image(fit_model.mean_mesh, pose, 64, 64)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.depth, b.depth)


# ---------------------------------------------------------------------------
# Randomized scene parameters

def test_sample_lighting_deterministic():
    a = sample_lighting(np.random.default_rng(3))
    b = sample_lighting(np.random.default_rng(3))
    assert (a.k_ambient, a.k_diffuse, a.k_specular) \
        == (b.k_ambient, b.k_diffuse, b.k_specular)
    assert np.array_equal(a.light_dir, b.light_dir)


def test_sample_lighting_statistics():
    r = np.random.default_rng(123)
    draws = [sample_lighting(r) for _ in range(40000)]
    ka = np.mean([d.k_ambient for d in draws])
    kd = np.mean([d.k_diffuse for d in draws])
    ks = np.mean([d.k_specular for d in draws])
    assert abs(ka - 0.5) < 0.02 * 0.5 + 0.002
    assert abs(kd - 0.7) < 0.02 * 0.7
    assert abs(ks - 0.05) < 0.02 * 0.05 + 0.001
    assert all(d.shininess == 10.0 for d in draws[:100])
    assert all(d.light_dir[2] > 0 for d in draws)


def test_sample_pose_deterministic():
    a = sample_pose(np.random.default_rng(5), 40.0, 3.0)
    b = sample_pose(np.random.default_rng(5), 40.0, 3.0)
    assert a.f == b.f
    assert np.array_equal(a.rotation, b.rotation)
    assert np.array_equal(a.translation, b.translation)


def test_sample_pose_statistics_and_orthogonality():
    r = np.random.default_rng(9)
    yaws = []
    for _ in range(30000):
        pose = sample_pose(r, 40.0, 3.0)
        rot = pose.rotation
        assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-10
        # R = Rz Rx Ry puts [-cos(p)sin(y), sin(p), cos(p)cos(y)] in row 2
        yaws.append(np.arctan2(-rot[2, 0], rot[2, 2]))
    assert abs(np.degrees(np.mean(yaws))) < 0.5


def test_nominal_focal_fills_fraction():
    mesh = quad_mesh(size=2.0)    # vertical extent 4
    f = nominal_focal(mesh, 100)
    assert np.isclose(f * 4, 80.0)
    assert face_width_of(mesh) == 4.0


def test_luminance_weights():
    rgb = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(luminance(rgb), [0.299, 0.587, 0.114])
