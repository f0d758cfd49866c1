import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthface import model as model_module
from synthface.model import (GeometryCoefficients, TextureCoefficients,
                             build_procedural_model, geometry_loss,
                             project_texture, sample_geometry_coefficients,
                             synthesize_geometry, synthesize_texture)

from test_acceptance import readme_block


# ---------------------------------------------------------------------------
# Builder

def test_readme_library_snippet_runs():
    namespace = {}
    exec(readme_block("Library use", "python"), namespace)
    assert namespace["mesh"].vertices.shape == (48 * 48, 3)


def test_builder_dimensions(small_model):
    m = small_model
    assert m.n_vertices == 32 * 32
    assert m.mu_shape.shape == (3 * 1024,)
    assert m.basis_id.shape == (3 * 1024, 10)
    assert m.basis_exp.shape == (3 * 1024, 5)
    assert m.basis_tex.shape == (3 * 1024, 8)
    assert m.triangles.shape == (2 * 31 * 31, 3)
    assert m.landmark_indices.shape == (68,)
    assert len(set(m.landmark_indices.tolist())) == 68


def test_builder_deterministic():
    a = build_procedural_model(3, 6, 4, 5, 16)
    b = build_procedural_model(3, 6, 4, 5, 16)
    for name in ("mu_shape", "basis_id", "basis_exp", "mu_tex", "basis_tex"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = build_procedural_model(4, 6, 4, 5, 16)
    assert not np.array_equal(a.basis_id, c.basis_id)


def test_builder_rejects_oversized_basis():
    with pytest.raises(ValueError):
        build_procedural_model(1, 2000, 84, 5, 16)


def test_builder_rejects_grid_with_fewer_vertices_than_landmarks():
    with pytest.raises(ValueError, match="fewer than the 68 landmarks"):
        build_procedural_model(1, 3, 2, 2, 8)
    assert build_procedural_model(1, 3, 2, 2, 9).landmark_indices.max() < 81


# Transient memory of a paper-size build, as a multiple of its shape basis:
# 1.98 when `_orthonormal_smooth_basis` keeps its input across a sign-flip copy
# and the builder copies each basis to column-major again, 1.58 without them.
BUILD_TRANSIENT_BOUND = 1.75


def test_paper_size_build_keeps_no_spare_basis_copy(monkeypatch):
    bases = []
    build_basis = model_module._orthonormal_smooth_basis
    monkeypatch.setattr(model_module, "_orthonormal_smooth_basis",
                        lambda *args: bases.append(build_basis(*args)) or bases[-1])
    tracemalloc.start()
    try:
        m = build_procedural_model(1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < BUILD_TRANSIENT_BOUND * m.shape_basis.nbytes
    assert [b.flags.f_contiguous for b in bases] == [True, True]
    assert bases[0] is m.shape_basis and bases[1] is m.basis_tex


def test_combined_basis_orthonormal(small_model):
    b = small_model.shape_basis
    gram = b.T @ b
    assert np.abs(gram - np.eye(b.shape[1])).max() < 1e-10
    bt = small_model.basis_tex
    assert np.abs(bt.T @ bt - np.eye(bt.shape[1])).max() < 1e-10


# ---------------------------------------------------------------------------
# Synthesis

def test_synthesize_zero_is_mean(small_model):
    mesh = synthesize_geometry(small_model,
                               GeometryCoefficients.zeros(10, 5))
    assert np.array_equal(mesh.vertices.reshape(-1), small_model.mu_shape)


def test_synthesize_unit_coefficient_adds_basis_column(small_model):
    e1 = np.zeros(15)
    e1[0] = 1.0
    mesh = synthesize_geometry(
        small_model, GeometryCoefficients.from_vector(e1, 10))
    expected = small_model.mu_shape + small_model.basis_id[:, 0]
    assert np.allclose(mesh.vertices.reshape(-1), expected, rtol=0, atol=1e-15)


def test_synthesize_dim_mismatch(small_model):
    with pytest.raises(ValueError):
        synthesize_geometry(small_model,
                            GeometryCoefficients.zeros(9, 5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-3, 3))
def test_synthesis_is_affine(small_model, seed, scale):
    r = np.random.default_rng(seed)
    a = r.standard_normal(15)
    b = r.standard_normal(15)
    mu = small_model.mu_shape

    def synth(vec):
        return synthesize_geometry(
            small_model, GeometryCoefficients.from_vector(vec, 10)
        ).vertices.reshape(-1)

    lhs = synth(a) + synth(b) - mu
    rhs = synth(a + b)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    assert np.allclose(synth(scale * a) - mu, scale * (synth(a) - mu),
                       rtol=1e-12, atol=1e-12)


def test_texture_synthesis_trivial_and_linear(small_model):
    m = small_model
    t0 = synthesize_texture(m, TextureCoefficients(np.zeros(8)))
    assert np.array_equal(t0.reshape(-1), m.mu_tex)
    ek = np.zeros(8)
    ek[3] = 1.0
    tk = synthesize_texture(m, TextureCoefficients(ek))
    assert np.allclose(tk.reshape(-1), m.mu_tex + m.basis_tex[:, 3],
                       atol=1e-15)
    r = np.random.default_rng(0)
    a, b = r.standard_normal(8), r.standard_normal(8)
    lhs = (synthesize_texture(m, TextureCoefficients(a))
           + synthesize_texture(m, TextureCoefficients(b))
           - m.mu_tex.reshape(-1, 3))
    rhs = synthesize_texture(m, TextureCoefficients(a + b))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="texture coefficient length 3 != 4"):
        synthesize_texture(build_procedural_model(1, 3, 2, 4, 9),
                           TextureCoefficients(np.zeros(3)))


# ---------------------------------------------------------------------------
# Geometry loss

def brute_force_loss(model, x, y):
    vx = synthesize_geometry(model, x).vertices
    vy = synthesize_geometry(model, y).vertices
    return float(np.sum((vx - vy) ** 2))


def test_loss_zero_for_equal(small_model, rng):
    x = sample_geometry_coefficients(rng, small_model)
    assert geometry_loss(small_model, x, x) == 0.0


def test_loss_matches_brute_force_and_coeff_norm(small_model, rng):
    for _ in range(20):
        x = sample_geometry_coefficients(rng, small_model)
        y = sample_geometry_coefficients(rng, small_model)
        loss = geometry_loss(small_model, x, y)
        oracle = brute_force_loss(small_model, x, y)
        assert abs(loss - oracle) <= 1e-10 * max(oracle, 1.0)
        # orthonormal combined basis: loss equals coefficient squared error
        coeff = float(np.sum((x.vector - y.vector) ** 2))
        assert abs(loss - coeff) <= 1e-10 * max(coeff, 1.0)


def test_loss_symmetric_nonnegative(small_model, rng):
    x = sample_geometry_coefficients(rng, small_model)
    y = sample_geometry_coefficients(rng, small_model)
    assert geometry_loss(small_model, x, y) >= 0.0
    assert np.isclose(geometry_loss(small_model, x, y),
                      geometry_loss(small_model, y, x), rtol=1e-12)


# ---------------------------------------------------------------------------
# Coefficient sampling

def test_sampling_deterministic(small_model):
    a = sample_geometry_coefficients(np.random.default_rng(5), small_model)
    b = sample_geometry_coefficients(np.random.default_rng(5), small_model)
    assert np.array_equal(a.vector, b.vector)


def test_sampling_statistics(small_model):
    r = np.random.default_rng(11)
    draws = np.stack([sample_geometry_coefficients(r, small_model).vector
                      for _ in range(7000)])
    # 7000 draws x 15 coords = 105000 scalar samples of N(0, 1)
    flat = draws.reshape(-1)
    assert abs(flat.mean()) < 0.02
    assert abs(flat.var() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# Texture projection

def test_project_texture_full_visibility_roundtrip(small_model, rng):
    beta = rng.standard_normal(8)
    observed = synthesize_texture(small_model, TextureCoefficients(beta))
    vis = np.ones(small_model.n_vertices, dtype=bool)
    coeffs, combined = project_texture(small_model, observed, vis,
                                       lambda_tex=1e-9)
    assert np.abs(coeffs.alpha_tex - beta).max() < 1e-6
    assert np.allclose(combined, observed, atol=1e-9)


def test_project_texture_mean_gives_zero(small_model):
    observed = small_model.mu_tex.reshape(-1, 3).copy()
    vis = np.ones(small_model.n_vertices, dtype=bool)
    coeffs, _ = project_texture(small_model, observed, vis)
    assert np.abs(coeffs.alpha_tex).max() < 1e-9


def test_project_texture_half_occluded_roundtrip(small_model, rng):
    beta = rng.standard_normal(8)
    observed = synthesize_texture(small_model, TextureCoefficients(beta))
    vis = rng.uniform(size=small_model.n_vertices) < 0.5
    coeffs, combined = project_texture(small_model, observed, vis)
    assert np.abs(coeffs.alpha_tex - beta).max() < 1e-4
    # visible vertices keep the observed colors exactly
    assert np.array_equal(combined[vis], observed[vis])


def test_project_texture_idempotent_on_subspace(small_model, rng):
    beta = rng.standard_normal(8)
    vis = rng.uniform(size=small_model.n_vertices) < 0.6
    observed = synthesize_texture(small_model, TextureCoefficients(beta))
    coeffs1, combined1 = project_texture(small_model, observed, vis)
    coeffs2, _ = project_texture(small_model, combined1, vis)
    assert np.abs(coeffs1.alpha_tex - coeffs2.alpha_tex).max() < 1e-9


def test_project_texture_rejects_empty_mask(small_model):
    observed = small_model.mu_tex.reshape(-1, 3).copy()
    with pytest.raises(ValueError):
        project_texture(small_model, observed,
                        np.zeros(small_model.n_vertices, dtype=bool))
    with pytest.raises(ValueError, match="visibility mask length must equal "
                                         "the vertex count"):
        project_texture(small_model, observed,
                        np.ones(small_model.n_vertices - 1, dtype=bool))
