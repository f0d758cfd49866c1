import dataclasses

import numpy as np
import pytest

from synthface import defaults
from synthface.datagen import TrainingSample, generate_sample, rng_for_sample
from synthface.image_io import to_pixels
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
    face = np.full((64, 64), 51, dtype=np.uint8)
    shading = np.full((64, 64), 204, dtype=np.uint8)
    f = extract_features(face, shading, cfg64)
    blocks = (64 // 8) ** 2
    assert f.shape == (2 * blocks,)      # pooled values only, no constant
    assert np.all(f[:blocks] == 51 / 255)
    assert np.all(f[blocks:] == 204 / 255)


def test_features_checkerboard(cfg64):
    def board(cells, size):
        return (np.kron(np.indices((cells, cells)).sum(axis=0) % 2,
                        np.ones((size, size))) * 255).astype(np.uint8)

    black = np.zeros((64, 64), dtype=np.uint8)
    f = extract_features(board(8, 8), black, cfg64)
    # within each 8x8 pooling block the pattern is constant 0 or 255
    assert set(np.unique(f[:64])) == {0.0, 1.0}
    finer = extract_features(board(16, 4), black, cfg64)
    assert np.all(finer[:64] == 0.5)


def _random_pixels(width, height):
    return lambda rng: rng.integers(0, 256, (height, width), dtype=np.uint8)


def _every_pixel_pair():
    """256 x 512 pixels whose 65,536 adjacent pairs (k0, k1) are every pair."""
    k0, k1 = np.meshgrid(np.arange(256), np.arange(256))
    return np.stack([k0, k1], axis=-1).reshape(256, 512).astype(np.uint8)


def _every_pixel_pair_alone():
    """2048 x 2048 pixels, each 8 x 8 block zero but for one pair (k0, k1):
    its mean is exactly the pair's sum / 64, so no rounding hides a wrong sum."""
    blocks = np.zeros((256, 8, 256, 8), dtype=np.uint8)
    blocks[:, 0, :, :2] = _every_pixel_pair().reshape(256, 256, 2)
    return blocks.reshape(2048, 2048)


def _unaligned(pixels):
    """The pixels at an odd address, as `read_pgm` returns them after an
    odd-length header."""
    return np.frombuffer(b"\0" + pixels.tobytes(), dtype=np.uint8,
                         offset=1).reshape(pixels.shape)


@pytest.mark.parametrize("make", [
    _random_pixels(16, 8),
    _random_pixels(64, 56),
    _random_pixels(64, 64),
    _random_pixels(200, 200),
    lambda rng: _every_pixel_pair(),
    lambda rng: _every_pixel_pair_alone(),
    _random_pixels(8, 16),
    _random_pixels(16, 8),
    lambda rng: _unaligned(rng.integers(0, 256, (24, 40), dtype=np.uint8)),
    lambda rng: np.full((16, 24), 255, dtype=np.uint8),
], ids=["16-8", "64-56", "64-64", "200-200", "every_pair_256x512",
        "every_pair_alone", "8_wide", "16_wide", "unaligned_buffer", "all_255"])
def test_features_equal_numpy_block_mean_bit_for_bit(rng, make):
    """Each feature is its block's integer pixel sum over 64 x 255, rounded
    once: numpy's 4-D block sum of the pixels, divided, to the last bit."""
    face = make(rng)
    shading = face[::-1]            # rows reversed: another pixel layout
    h, w = face.shape
    expected = np.concatenate([
        p.astype(np.int64).reshape(h // 8, 8, w // 8, 8).sum(axis=(1, 3)).reshape(-1)
        for p in (face, shading)]) / (64 * 255)
    got = extract_features(face, shading, IEFConfig(width=w, height=h))
    assert got.tobytes() == expected.tobytes()
    if face.min() == 255:           # 64 x 255 fits the accumulator exactly
        assert np.all(got == 1.0)


@pytest.mark.parametrize("channel, dtype", [
    ("face", np.float64), ("shading", np.float32), ("face", np.uint16)])
def test_features_reject_other_than_uint8(cfg64, channel, dtype):
    # a float image is refused, not pooled as if it held k/255
    images = {"face": np.zeros((64, 64), dtype=np.uint8),
              "shading": np.zeros((64, 64), dtype=np.uint8)}
    images[channel] = images[channel].astype(dtype)
    with pytest.raises(ValueError, match=f"{channel} pixels have dtype "
                       f"{np.dtype(dtype)}, not uint8"):
        extract_features(images["face"], images["shading"], cfg64)


def test_features_shape_mismatch(cfg64):
    with pytest.raises(ValueError):
        extract_features(np.zeros((32, 32), dtype=np.uint8),
                         np.zeros((64, 64), dtype=np.uint8), cfg64)


# ---------------------------------------------------------------------------
# Training

def test_identity_dataset_learns_passthrough(fit_model, corpus, cfg64):
    from dataclasses import replace
    ident = [replace(s, alpha_t=s.alpha_gt) for s in corpus]
    pred = train_linear_predictor(ident, fit_model, cfg64, ridge_lambda=1e-8)
    losses = []
    for s in ident[:50]:
        feats = extract_features(s.face_pixels, s.shading_pixels, cfg64)
        out = pred(feats, s.alpha_t.vector)
        losses.append(geometry_loss(
            fit_model, GeometryCoefficients.from_vector(out, fit_model.n_id),
            s.alpha_gt))
    assert np.mean(losses) < 1e-6


def test_huge_ridge_predicts_mean(fit_model, corpus, cfg64):
    pred = train_linear_predictor(corpus, fit_model, cfg64, ridge_lambda=1e12)
    gt = np.stack([s.alpha_gt.vector for s in corpus])
    feats = extract_features(corpus[0].face_pixels, corpus[0].shading_pixels,
                             cfg64)
    out = pred(feats, corpus[0].alpha_t.vector)
    assert np.abs(out).max() < 0.1 * np.abs(gt.mean(axis=0)).max() + 0.05


def test_training_beats_zero_predictor(fit_model, corpus, cfg64):
    pred = train_linear_predictor(corpus, fit_model, cfg64, ridge_lambda=1e-1)
    total = 0.0
    zero_total = 0.0
    for s in corpus:
        feats = extract_features(s.face_pixels, s.shading_pixels, cfg64)
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
        extract_features(s.face_pixels, s.shading_pixels, cfg),
        s.alpha_t.vector, [1.0]]) for s in samples])
    return x, np.stack([s.alpha_gt.vector for s in samples])


@pytest.mark.parametrize("count", [40, 200])     # n < d and n >= d
def test_training_pools_pixels_without_float_images(fit_model, corpus, cfg64,
                                                    monkeypatch, count):
    lam = 0.1
    x, y = _design(corpus[:count], cfg64)
    n, d = x.shape
    if n < d:
        ref = (x.T @ np.linalg.solve(x @ x.T + lam * np.eye(n), y)).T
    else:
        ref = np.linalg.solve(x.T @ x + lam * np.eye(d), x.T @ y).T

    def no_floats(sample):
        raise AssertionError("training converted a sample's pixels to floats")

    monkeypatch.setattr(TrainingSample, "face_image", property(no_floats))
    monkeypatch.setattr(TrainingSample, "shading_image", property(no_floats))
    pred = train_linear_predictor(corpus[:count], fit_model, cfg64,
                                  ridge_lambda=lam)
    assert pred.weight.tobytes() == ref[:, :-1].tobytes()
    assert pred.bias.tobytes() == ref[:, -1].tobytes()


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

    res = ief_reconstruct(s.face_pixels, s.pose, oracle, fit_model, cfg64)
    assert len(res.iterates) == cfg64.iterations + 1
    assert np.array_equal(res.iterates[0], np.zeros(40))
    got = GeometryCoefficients.from_vector(res.iterates[1], 30)
    assert geometry_loss(fit_model, got, s.alpha_gt) == 0.0


def test_zero_predictor_stays_at_mean(fit_model, corpus, cfg64):
    s = corpus[0]
    zero = LinearPredictor(np.zeros((40, cfg64.feature_dim + 40)),
                           np.zeros(40), cfg64.width, cfg64.height,
                           model_digest(fit_model))
    res = ief_reconstruct(s.face_pixels, s.pose, zero, fit_model, cfg64)
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

    ief_reconstruct(s.face_pixels, s.pose, spy, fit_model, cfg64)
    mean_raster = render_shading_image(fit_model.mean_mesh, s.pose, 64, 64)
    masked = np.where(mean_raster.mask, s.face_pixels, 0)
    expected = extract_features(masked, to_pixels(mean_raster.image), cfg64)
    assert np.array_equal(seen[0], expected)


def test_loop_features_at_a_sample_estimate_are_its_training_row(
        fit_model, corpus, cfg64):
    """At a sample's own alpha_t the loop pools what training pooled for it:
    the dataset's 8-bit face and shading pixels."""
    for s in corpus[:5]:
        seen = []

        def spy(features, alpha):
            seen.append(features.copy())
            return s.alpha_t.vector

        ief_reconstruct(s.face_pixels, s.pose, spy, fit_model, cfg64)
        row = extract_features(s.face_pixels, s.shading_pixels, cfg64)
        assert seen[1].tobytes() == row.tobytes()


def test_loop_renders_once_per_iterate(fit_model, corpus, cfg64, monkeypatch):
    from synthface import reconstruct
    renders = []

    def counting_render(*args):
        renders.append(args[0])
        return render_shading_image(*args)

    monkeypatch.setattr(reconstruct, "render_shading_image", counting_render)
    s = corpus[0]
    res = ief_reconstruct(s.face_pixels, s.pose, lambda f, a: a + 0.1,
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
    res = ief_reconstruct(s.face_pixels, s.pose, spy, fit_model, cfg64)
    assert len(res.iterates) == len(renders) == cfg64.iterations + 1
    assert seen[0].any() and seen[2].any()
    assert np.array_equal(seen[1], np.zeros(cfg64.feature_dim))
    assert np.allclose(res.iterates[-1], 0.1 * cfg64.iterations)


def test_wrong_predictor_output_rejected(fit_model, corpus, cfg64):
    s = corpus[0]
    with pytest.raises(ValueError):
        ief_reconstruct(s.face_pixels, s.pose,
                        lambda f, a: np.zeros(7), fit_model, cfg64)


def test_loop_rejects_float_face(fit_model, corpus, cfg64):
    # the loop takes 8-bit pixels, so a float image is refused, not rescaled
    s = corpus[0]
    with pytest.raises(ValueError, match="float64"):
        ief_reconstruct(s.face_image, s.pose, lambda f, a: a, fit_model, cfg64)


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
