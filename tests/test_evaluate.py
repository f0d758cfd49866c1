import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthface.evaluate import (ErrorReport, LandmarkSet, error_colormap,
                                error_heatmap, format_report, landmark_fit,
                                load_landmarks, optimal_similarity_align,
                                pointwise_error, project_landmarks,
                                save_landmarks)
from synthface.mesh_io import load_pose, save_off, save_pose
from synthface.model import (GeometryCoefficients, Mesh,
                             sample_geometry_coefficients,
                             synthesize_geometry)
from synthface.render import (PoseParams, nominal_focal, project_vertices,
                              rotation_from_euler, sample_pose)


def random_rotation(rng):
    return rotation_from_euler(*rng.uniform(-np.pi, np.pi, 3))


# ---------------------------------------------------------------------------
# Landmark fitting

def test_landmark_fit_noiseless_roundtrip(fit_model, rng):
    size = 512   # larger focal scale keeps the tiny-ridge bias below tolerance
    f0 = nominal_focal(fit_model.mean_mesh, size)
    for _ in range(5):
        gt = sample_geometry_coefficients(rng, fit_model)
        pose = sample_pose(rng, f0, 3.0)
        lms = project_landmarks(fit_model, gt, pose, size, size,
                                fit_model.landmark_indices)
        fitted = landmark_fit(lms, pose, fit_model, size, size,
                              lambda_reg=1e-9)
        assert np.abs(fitted.vector - gt.vector).max() < 1e-5


def test_landmark_fit_mean_shape_gives_zero(fit_model):
    pose = PoseParams.identity(nominal_focal(fit_model.mean_mesh, 128))
    lms = project_landmarks(fit_model, GeometryCoefficients.zeros(30, 10),
                            pose, 128, 128, fit_model.landmark_indices)
    fitted = landmark_fit(lms, pose, fit_model, 128, 128, lambda_reg=1e-9)
    assert np.abs(fitted.vector).max() < 1e-6


def test_landmark_fit_ridge_limit(fit_model, rng):
    pose = PoseParams.identity(nominal_focal(fit_model.mean_mesh, 128))
    gt = sample_geometry_coefficients(rng, fit_model)
    lms = project_landmarks(fit_model, gt, pose, 128, 128,
                            fit_model.landmark_indices)
    fitted = landmark_fit(lms, pose, fit_model, 128, 128, lambda_reg=1e12)
    assert np.abs(fitted.vector).max() < 1e-3


def landmark_objective(model, coeffs, lms, pose, width, height):
    mesh = synthesize_geometry(model, coeffs)
    pts, _ = project_vertices(mesh, pose, width, height)
    return float(np.sum((pts[lms.vertex_indices] - lms.image_points) ** 2))


def test_landmark_fit_improves_objective(fit_model, rng):
    f0 = nominal_focal(fit_model.mean_mesh, 128)
    for _ in range(5):
        gt = sample_geometry_coefficients(rng, fit_model)
        pose = sample_pose(rng, f0, 3.0)
        lms = project_landmarks(fit_model, gt, pose, 128, 128,
                                fit_model.landmark_indices)
        fitted = landmark_fit(lms, pose, fit_model, 128, 128)
        at_fit = landmark_objective(fit_model, fitted, lms, pose, 128, 128)
        at_zero = landmark_objective(fit_model, GeometryCoefficients.zeros(30, 10),
                                     lms, pose, 128, 128)
        assert at_fit <= at_zero + 1e-9


def test_landmark_set_validation():
    with pytest.raises(ValueError):
        LandmarkSet(np.array([1, 2]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        LandmarkSet(np.array([1, 2, 3]), np.zeros((2, 2)))


@pytest.mark.parametrize("indices, points, reason", [
    ([-1, 2, 3], np.zeros((3, 2)), "indices must be >= 0"),
    ([1, 2, 3], np.array([[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]]), "finite"),
], ids=["index_negative", "point_nan"])
def test_landmark_set_rejects_bad_values(indices, points, reason):
    with pytest.raises(ValueError, match=reason):
        LandmarkSet(np.array(indices), points)


@pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
def test_landmark_fit_rejects_bad_penalty(fit_model, lam):
    lms = project_landmarks(fit_model, GeometryCoefficients.zeros(30, 10),
                            PoseParams.identity(40.0), 64, 64,
                            fit_model.landmark_indices)
    with pytest.raises(ValueError, match="lambda_reg must be finite and > 0"):
        landmark_fit(lms, PoseParams.identity(40.0), fit_model, 64, 64,
                     lambda_reg=lam)


# ---------------------------------------------------------------------------
# Procrustes alignment

def test_alignment_exact_recovery(fit_model, rng):
    src = fit_model.mean_mesh
    for _ in range(5):
        s = 1.7
        r = random_rotation(rng)
        t = rng.standard_normal(3) * 4
        target = Mesh(s * src.vertices @ r.T + t, src.triangles)
        transform, aligned = optimal_similarity_align(src, target)
        resid = np.linalg.norm(aligned.vertices - target.vertices, axis=1)
        assert np.sqrt(np.mean(resid**2)) < 1e-9
        assert abs(transform.scale - s) < 1e-9
        assert np.abs(transform.rotation - r).max() < 1e-9
        assert np.abs(transform.translation - t).max() < 1e-9


def test_alignment_identity(fit_model):
    src = fit_model.mean_mesh
    transform, aligned = optimal_similarity_align(src, src)
    assert abs(transform.scale - 1.0) < 1e-12
    assert np.abs(transform.rotation - np.eye(3)).max() < 1e-9
    assert np.abs(transform.translation).max() < 1e-9
    assert np.allclose(aligned.vertices, src.vertices)


def test_alignment_beats_identity_transform(rng):
    for _ in range(10):
        a = rng.standard_normal((30, 3))
        b = a + 0.3 * rng.standard_normal((30, 3))
        _, aligned = optimal_similarity_align(Mesh(a, np.zeros((0, 3), int)),
                                              Mesh(b, np.zeros((0, 3), int)))
        aligned_resid = np.sum((aligned.vertices - b) ** 2)
        raw_resid = np.sum((a - b) ** 2)
        assert aligned_resid <= raw_resid + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_alignment_quotient_invariance(seed):
    r = np.random.default_rng(seed)
    a = r.standard_normal((25, 3))
    b = r.standard_normal((25, 3))
    s = float(r.uniform(0.2, 3.0))
    rot = rotation_from_euler(*r.uniform(-np.pi, np.pi, 3))
    t = r.standard_normal(3)
    pre = Mesh(s * a @ rot.T + t, np.zeros((0, 3), int))
    _, aligned_direct = optimal_similarity_align(Mesh(a, np.zeros((0, 3), int)),
                                                 Mesh(b, np.zeros((0, 3), int)))
    _, aligned_pre = optimal_similarity_align(pre, Mesh(b, np.zeros((0, 3), int)))
    assert np.abs(aligned_direct.vertices - aligned_pre.vertices).max() < 1e-8


def test_alignment_rejects_degenerate():
    line = Mesh(np.outer(np.arange(5.0), [1.0, 0, 0]), np.zeros((0, 3), int))
    cloud = Mesh(np.random.default_rng(0).standard_normal((5, 3)),
                 np.zeros((0, 3), int))
    with pytest.raises(ValueError):
        optimal_similarity_align(line, cloud)
    point = Mesh(np.ones((5, 3)), np.zeros((0, 3), int))
    with pytest.raises(ValueError):
        optimal_similarity_align(point, cloud)


# ---------------------------------------------------------------------------
# Pointwise errors and reports

def test_pointwise_error_trivial(fit_model):
    mesh = fit_model.mean_mesh
    report = pointwise_error(mesh, mesh)
    assert report.mean == report.max == 0.0
    shifted = Mesh(mesh.vertices + [0.25, 0.0, 0.0], mesh.triangles)
    report = pointwise_error(shifted, mesh)
    assert np.allclose(report.distances, 0.25)
    assert np.isclose(report.median, 0.25) and np.isclose(report.rms, 0.25)


def test_pointwise_error_matches_brute_force(rng):
    a = rng.standard_normal((40, 3))
    b = rng.standard_normal((40, 3))
    report = pointwise_error(Mesh(a, np.zeros((0, 3), int)),
                             Mesh(b, np.zeros((0, 3), int)))
    d = np.array([np.sqrt(((a[i] - b[i]) ** 2).sum()) for i in range(40)])
    assert np.abs(report.distances - d).max() < 1e-12
    assert abs(report.mean - d.mean()) < 1e-12
    assert abs(report.rms - np.sqrt((d**2).mean())) < 1e-12


def test_colormap_endpoints():
    errors = np.array([0.0, 0.5, 1.0])
    colors = error_colormap(errors)
    assert np.array_equal(colors[0], [0.0, 0.0, 1.0])
    assert np.array_equal(colors[2], [1.0, 0.0, 0.0])


def test_heatmap_zero_errors_blue(fit_model):
    pose = PoseParams.identity(nominal_focal(fit_model.mean_mesh, 64))
    report = ErrorReport(np.zeros(fit_model.n_vertices))
    img = error_heatmap(fit_model.mean_mesh, report, pose, 64, 64)
    covered = img.sum(axis=2) > 0
    assert covered.any()
    assert np.allclose(img[covered], [0.0, 0.0, 1.0])


def test_heatmap_hot_vertex_local_red(fit_model):
    pose = PoseParams.identity(nominal_focal(fit_model.mean_mesh, 64))
    errors = np.zeros(fit_model.n_vertices)
    hot = int(fit_model.landmark_indices[30])   # near the face center
    errors[hot] = 1.0
    img = error_heatmap(fit_model.mean_mesh, ErrorReport(errors), pose, 64, 64)
    pts, _ = project_vertices(fit_model.mean_mesh, pose, 64, 64)
    px, py = int(pts[hot, 0]), int(pts[hot, 1])
    patch = img[max(py - 2, 0):py + 3, max(px - 2, 0):px + 3]
    assert patch[..., 0].max() > 0.5


# ---------------------------------------------------------------------------
# File formats

def test_landmark_file_roundtrip(tmp_path, rng):
    lms = LandmarkSet(np.array([3, 9, 27]), rng.uniform(0, 64, (3, 2)))
    path = tmp_path / "lms.txt"
    save_landmarks(path, lms)
    loaded = load_landmarks(path, 28)
    assert np.array_equal(loaded.vertex_indices, lms.vertex_indices)
    assert np.array_equal(loaded.image_points, lms.image_points)


def test_report_file(rng):
    report = ErrorReport(np.abs(rng.standard_normal(50)))
    text = format_report(report, label="unit")
    assert text.startswith("# error report unit\n")
    assert f"mean={report.mean!r}" in text
    assert "count=50" in format_report(report)


def test_off_roundtrip(tmp_path, fit_model):
    mesh = fit_model.mean_mesh
    path = tmp_path / "m.off"
    save_off(path, mesh)
    lines = path.read_text().splitlines()
    nv, nf = len(mesh.vertices), len(mesh.triangles)
    assert lines[0] == "OFF" and lines[1] == f"{nv} {nf} 0"
    assert len(lines) == 2 + nv + nf
    verts = np.array([ln.split() for ln in lines[2:2 + nv]], dtype=np.float64)
    faces = np.array([ln.split() for ln in lines[2 + nv:]], dtype=np.int64)
    assert np.array_equal(verts, mesh.vertices)
    assert np.all(faces[:, 0] == 3)
    assert np.array_equal(faces[:, 1:], mesh.triangles)


def test_pose_file_roundtrip(tmp_path, rng):
    pose = sample_pose(rng, 40.0, 3.0)
    path = tmp_path / "pose.txt"
    save_pose(path, pose, 48, 32)
    loaded, size = load_pose(path)
    assert size == (48, 32)
    assert loaded.f == pose.f
    assert np.array_equal(loaded.rotation, pose.rotation)
    assert np.array_equal(loaded.translation, pose.translation)


def test_pose_file_size_must_be_positive(tmp_path, rng):
    path = tmp_path / "pose.txt"
    save_pose(path, sample_pose(rng, 40.0, 3.0), 0, 64)
    with pytest.raises(ValueError, match="image size 0x64 is not positive"):
        load_pose(path)


def test_pose_file_size_must_be_indexable(tmp_path, rng):
    path = tmp_path / "pose.txt"
    pose = sample_pose(rng, 40.0, 3.0)
    save_pose(path, pose, 2**32 - 1, 1)
    assert load_pose(path)[1] == (2**32 - 1, 1)
    save_pose(path, pose, 2**32 - 1, 2**32 - 1)
    with pytest.raises(ValueError, match="more pixels than numpy can index"):
        load_pose(path)


def test_pose_file_rejects_garbage(tmp_path):
    path = tmp_path / "pose.txt"
    path.write_text("f 2.0\nq 1 2 3\n")
    with pytest.raises(ValueError):
        load_pose(path)
