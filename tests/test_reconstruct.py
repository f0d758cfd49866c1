import dataclasses

import numpy as np
import pytest

from synthface import defaults
from synthface.datagen import generate_sample, rng_for_sample
from synthface.model import (GeometryCoefficients, geometry_loss,
                             synthesize_geometry)
from synthface.model_io import model_digest
from synthface.reconstruct import (IEFConfig, LinearPredictor,
                                   extract_features, ief_reconstruct,
                                   load_predictor, save_predictor,
                                   train_linear_predictor)
from synthface.render import RasterOutput, render_shading_image


@pytest.fixture(scope="module")
def corpus(fit_model):
    return [generate_sample(rng_for_sample(1, i), fit_model, 64, 64,
                            sample_id=i) for i in range(200)]


@pytest.fixture(scope="module")
def cfg64():
    return IEFConfig(width=64, height=64)


# ---------------------------------------------------------------------------
# Config and features

def test_config_validation():
    # the loop's length is fixed: a constant of the class, not a field
    assert IEFConfig(width=64, height=64).iterations == defaults.IEF_ITERATIONS
    assert [f.name for f in dataclasses.fields(IEFConfig)] == ["width", "height"]
    for width, height in ((100, 100), (64, 60), (0, 64)):
        with pytest.raises(ValueError, match=f"image size {width}x{height} is "
                           "not a positive multiple of the 8-pixel pooling"):
            IEFConfig(width=width, height=height)
    assert IEFConfig(width=200, height=200).feature_dim == 2 * 25 * 25


def test_features_constant_image(cfg64):
    face = np.full((64, 64), 0.25)
    shading = np.full((64, 64), 0.75)
    f = extract_features(face, shading, cfg64)
    blocks = (64 // 8) ** 2
    assert f.shape == (2 * blocks,)      # pooled values only, no constant
    assert np.allclose(f[:blocks], 0.25)
    assert np.allclose(f[blocks:], 0.75)


def test_features_checkerboard(cfg64):
    tile = np.kron(np.indices((8, 8)).sum(axis=0) % 2, np.ones((8, 8)))
    f = extract_features(tile, np.zeros((64, 64)), cfg64)
    # within each 8x8 pooling block the pattern is constant 0 or 1; pooling
    # pairs of blocks at half resolution gives exact 0/1 values per entry
    assert set(np.unique(f[:64])) == {0.0, 1.0}
    finer = extract_features(
        np.kron(np.indices((16, 16)).sum(axis=0) % 2, np.ones((4, 4))),
        np.zeros((64, 64)), cfg64)
    assert np.allclose(finer[:64], 0.5)


@pytest.mark.parametrize("width, height", [(16, 8), (64, 56), (64, 64),
                                           (200, 200)])
def test_features_equal_numpy_block_mean_bit_for_bit(rng, width, height):
    """The pooled features are numpy's 4-D block mean to the last bit, signed
    zeros and overflow included."""
    shape = (height, width)
    face = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    face[rng.random(shape) < 0.3] = -0.0
    face[:8, :8] = -0.0                 # a block of -0.0 alone pools to +0.0
    shading = np.round(rng.random(shape) * 255) / 255     # a quantized render
    shading[-8:, -8:] = -1.7e308        # a block whose sum overflows
    with np.errstate(over="ignore"):
        expected = np.concatenate([
            img.reshape(height // 8, 8, width // 8, 8).mean(axis=(1, 3)).reshape(-1)
            for img in (face, shading)])
        got = extract_features(face, shading, IEFConfig(width=width, height=height))
    assert got.tobytes() == expected.tobytes()
    assert got[0] == 0.0 and not np.signbit(got[0])
    assert got[-1] == -np.inf


def test_features_shape_mismatch(cfg64):
    with pytest.raises(ValueError):
        extract_features(np.zeros((32, 32)), np.zeros((64, 64)), cfg64)


# ---------------------------------------------------------------------------
# Training

def test_identity_dataset_learns_passthrough(fit_model, corpus, cfg64):
    from dataclasses import replace
    ident = [replace(s, alpha_t=s.alpha_gt) for s in corpus]
    pred = train_linear_predictor(ident, fit_model, cfg64, ridge_lambda=1e-8)
    losses = []
    for s in ident[:50]:
        feats = extract_features(s.face_image, s.shading_image, cfg64)
        out = pred(feats, s.alpha_t.vector)
        losses.append(geometry_loss(
            fit_model, GeometryCoefficients.from_vector(out, fit_model.n_id),
            s.alpha_gt))
    assert np.mean(losses) < 1e-6


def test_huge_ridge_predicts_mean(fit_model, corpus, cfg64):
    pred = train_linear_predictor(corpus, fit_model, cfg64, ridge_lambda=1e12)
    gt = np.stack([s.alpha_gt.vector for s in corpus])
    feats = extract_features(corpus[0].face_image, corpus[0].shading_image,
                             cfg64)
    out = pred(feats, corpus[0].alpha_t.vector)
    assert np.abs(out).max() < 0.1 * np.abs(gt.mean(axis=0)).max() + 0.05


def test_training_beats_zero_predictor(fit_model, corpus, cfg64):
    pred = train_linear_predictor(corpus, fit_model, cfg64, ridge_lambda=1e-1)
    total = 0.0
    zero_total = 0.0
    for s in corpus:
        feats = extract_features(s.face_image, s.shading_image, cfg64)
        out = GeometryCoefficients.from_vector(
            pred(feats, s.alpha_t.vector), fit_model.n_id)
        total += geometry_loss(fit_model, out, s.alpha_gt)
        zero_total += geometry_loss(
            fit_model, GeometryCoefficients.zeros(30, 10), s.alpha_gt)
    assert total < zero_total


def test_training_input_validation(fit_model, corpus, cfg64):
    with pytest.raises(ValueError, match="training set is empty"):
        train_linear_predictor([], fit_model, cfg64)
    for lam in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="ridge_lambda must be finite and > 0"):
            train_linear_predictor(corpus[:5], fit_model, cfg64, ridge_lambda=lam)


def _design(samples, cfg):
    x = np.stack([np.concatenate([
        extract_features(s.face_image, s.shading_image, cfg),
        s.alpha_t.vector, [1.0]]) for s in samples])
    return x, np.stack([s.alpha_gt.vector for s in samples])


def test_fewer_samples_than_inputs_matches_lstsq(fit_model, corpus, cfg64):
    lam = 0.1
    x, y = _design(corpus[:40], cfg64)
    n, d = x.shape
    assert n < d == cfg64.feature_dim + 40 + 1
    # ridge as least squares on [X; sqrt(lam) I], the bias penalised too
    ref = np.linalg.lstsq(np.vstack([x, np.sqrt(lam) * np.eye(d)]),
                          np.vstack([y, np.zeros((d, y.shape[1]))]),
                          rcond=None)[0].T
    pred = train_linear_predictor(corpus[:40], fit_model, cfg64, ridge_lambda=lam)
    got = np.column_stack([pred.weight, pred.bias])
    # relative to the largest weight: inputs that are zero in every sample
    # (pixels no face covers) get weights of 0 here and ~1e-17 from lstsq
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_at_least_as_many_samples_as_inputs_solves_normal_equations(
        fit_model, corpus, cfg64):
    lam = 0.1
    x, y = _design(corpus, cfg64)
    assert x.shape[0] >= x.shape[1]
    params = np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y).T
    pred = train_linear_predictor(corpus, fit_model, cfg64, ridge_lambda=lam)
    assert pred.weight.tobytes() == params[:, :-1].tobytes()
    assert pred.bias.tobytes() == params[:, -1].tobytes()


# ---------------------------------------------------------------------------
# The feedback loop

def test_ideal_predictor_converges_in_one_step(fit_model, corpus, cfg64):
    s = corpus[0]
    target = s.alpha_gt.vector

    def oracle(features, alpha):
        return target

    res = ief_reconstruct(s.face_image, s.pose, oracle, fit_model, cfg64)
    assert len(res.iterates) == cfg64.iterations + 1
    assert np.array_equal(res.iterates[0], np.zeros(40))
    got = GeometryCoefficients.from_vector(res.iterates[1], 30)
    assert geometry_loss(fit_model, got, s.alpha_gt) == 0.0


def test_zero_predictor_stays_at_mean(fit_model, corpus, cfg64):
    s = corpus[0]
    zero = LinearPredictor(np.zeros((40, cfg64.feature_dim + 40)),
                           np.zeros(40), cfg64.width, cfg64.height,
                           model_digest(fit_model))
    res = ief_reconstruct(s.face_image, s.pose, zero, fit_model, cfg64)
    for it in res.iterates:
        assert np.array_equal(it, np.zeros(40))
    final = synthesize_geometry(fit_model, res.final_coefficients(fit_model))
    assert np.array_equal(final.vertices, fit_model.mean_mesh.vertices)


def test_loop_masks_input_by_estimate(fit_model, corpus, cfg64):
    s = corpus[0]
    seen = []

    def spy(features, alpha):
        seen.append(features.copy())
        return np.zeros(40)

    ief_reconstruct(s.face_image, s.pose, spy, fit_model, cfg64)
    mean_raster = render_shading_image(fit_model.mean_mesh, s.pose, 64, 64)
    masked = np.where(mean_raster.mask, s.face_image, 0.0)
    shading = np.where(mean_raster.mask, mean_raster.image, 0.0)
    expected = extract_features(masked, shading, cfg64)
    assert np.array_equal(seen[0], expected)


def test_loop_renders_once_per_iterate(fit_model, corpus, cfg64, monkeypatch):
    from synthface import reconstruct
    renders = []

    def counting_render(*args):
        renders.append(args[0])
        return render_shading_image(*args)

    monkeypatch.setattr(reconstruct, "render_shading_image", counting_render)
    s = corpus[0]
    res = ief_reconstruct(s.face_image, s.pose, lambda f, a: a + 0.1,
                          fit_model, cfg64)
    assert len(renders) == cfg64.iterations + 1
    assert renders[-1] is res.final_mesh
    assert np.array_equal(res.final_mesh.vertices, synthesize_geometry(
        fit_model, res.final_coefficients(fit_model)).vertices)


def test_empty_estimate_render_gives_zero_features(fit_model, corpus, cfg64,
                                                   monkeypatch):
    from synthface import reconstruct
    renders = []

    def render(mesh, pose, width, height):
        out = render_shading_image(mesh, pose, width, height)
        renders.append(mesh)
        if len(renders) == 2:       # the estimate after one step covers no pixel
            return RasterOutput(np.zeros_like(out.image),
                                np.zeros_like(out.mask),
                                np.full_like(out.depth, -np.inf))
        return out

    monkeypatch.setattr(reconstruct, "render_shading_image", render)
    seen = []

    def spy(features, alpha):
        seen.append(features.copy())
        return alpha + 0.1

    s = corpus[0]
    res = ief_reconstruct(s.face_image, s.pose, spy, fit_model, cfg64)
    assert len(res.iterates) == len(renders) == cfg64.iterations + 1
    assert seen[0].any() and seen[2].any()
    assert np.array_equal(seen[1], np.zeros(cfg64.feature_dim))
    assert np.allclose(res.iterates[-1], 0.1 * cfg64.iterations)


def test_wrong_predictor_output_rejected(fit_model, corpus, cfg64):
    s = corpus[0]
    with pytest.raises(ValueError):
        ief_reconstruct(s.face_image, s.pose,
                        lambda f, a: np.zeros(7), fit_model, cfg64)


# ---------------------------------------------------------------------------
# Predictor file format

def test_predictor_roundtrip_bit_exact(tmp_path, rng, small_model):
    # 16x8 pooled by 8: 2 * 2 * 1 = 4 features
    pred = LinearPredictor(rng.standard_normal((12, 4 + 12)),
                           rng.standard_normal(12), 16, 8,
                           model_digest(small_model))
    path = tmp_path / "p.prd"
    save_predictor(path, pred)
    loaded = load_predictor(path)
    assert np.array_equal(loaded.weight, pred.weight)
    assert np.array_equal(loaded.bias, pred.bias)
    assert (loaded.width, loaded.height) == (16, 8)
    # the header is the magic, three u32 and the 32-byte digest
    assert path.stat().st_size == 48 + 8 * (12 * 16 + 12)
    assert loaded.model_digest == model_digest(small_model)
    assert loaded.n_coeffs == 12


def test_trained_predictor_records_config_and_model(fit_model, corpus, cfg64):
    pred = train_linear_predictor(corpus, fit_model, cfg64)
    assert (pred.width, pred.height) == (cfg64.width, cfg64.height)
    assert pred.model_digest == model_digest(fit_model)


def test_predictor_bad_magic(tmp_path):
    path = tmp_path / "bad.prd"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_predictor(path)
