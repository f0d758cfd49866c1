"""End-to-end acceptance suite.

Nine numbered criteria cover constant conformance, oracle equivalence for
the loss and rasterizer, round-trip fitting, alignment exactness, the scaled
learning experiment, texture recovery, dataset determinism, and the CLI
walkthrough.  Criterion 6 asserts the learning experiment's target outcomes
at their stated thresholds.  The linear predictor on pooled-pixel features
does not reach them (the README's "Testing" section gives the measured
cause), so 6a-6c are expected to fail and are kept red rather than loosened.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from synthface.cli import main
from synthface.datagen import generate_sample, rng_for_sample
from synthface.evaluate import (landmark_fit, optimal_similarity_align,
                                project_landmarks, score)
from synthface.model import (GeometryCoefficients, Mesh, TextureCoefficients,
                             build_procedural_model, geometry_loss,
                             geometry_loss_grad, project_texture,
                             sample_geometry_coefficients, synthesize_geometry,
                             synthesize_texture)
from synthface.reconstruct import (IEFConfig, ief_reconstruct,
                                   train_linear_predictor)
from synthface.render import (PoseParams, face_width_of, nominal_focal,
                              rasterize, sample_pose)

from test_rasterizer import reference_rasterize


@pytest.fixture(scope="module")
def model_30_10():
    return build_procedural_model(1, 30, 10, 30, 48)


# ---------------------------------------------------------------------------
# Criterion 1: default-constant conformance via the machine-readable dump

def test_criterion_1_default_constants(capsys):
    assert main(["defaults"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["n_id"] == 200
    assert cfg["n_exp"] == 84
    assert cfg["n_coeffs_total"] == 284
    assert cfg["n_tex"] == 200
    assert cfg["image_width"] == 200 and cfg["image_height"] == 200
    assert cfg["input_channels"] == 2
    assert cfg["ief_iterations"] == 3
    assert cfg["phong_shininess"] == 10
    assert cfg["phong_means"] == [0.5, 0.7, 0.05]


# ---------------------------------------------------------------------------
# Criterion 2: geometry loss equals brute force; gradient matches central FD

def test_criterion_2_loss_oracle(model_30_10):
    start = time.monotonic()
    m = model_30_10
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = sample_geometry_coefficients(rng, m)
        y = sample_geometry_coefficients(rng, m)
        vx = synthesize_geometry(m, x).vertices
        vy = synthesize_geometry(m, y).vertices
        oracle = float(np.sum((vx - vy) ** 2))
        loss = geometry_loss(m, x, y)
        assert abs(loss - oracle) <= 1e-10 * max(abs(oracle), 1.0)

    h = 1e-6
    for _ in range(10):
        x = sample_geometry_coefficients(rng, m)
        y = sample_geometry_coefficients(rng, m)
        grad = geometry_loss_grad(m, x, y)
        fd = np.empty(40)
        for k in range(40):
            up, dn = x.vector.copy(), x.vector.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (geometry_loss(m, GeometryCoefficients.from_vector(up, 30), y)
                     - geometry_loss(m, GeometryCoefficients.from_vector(dn, 30), y)
                     ) / (2 * h)
        scale = max(np.abs(grad).max(), 1.0)
        assert np.abs(grad - fd).max() <= 1e-5 * scale
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# Criterion 3: rasterizer equals a brute-force per-pixel oracle

def test_criterion_3_rasterizer_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(3)
    for _ in range(50):
        nv = int(rng.integers(4, 60))
        nt = int(rng.integers(1, 501))
        verts = rng.standard_normal((nv, 3)) * rng.uniform(0.3, 2.5)
        tris = rng.integers(0, nv, size=(nt, 3))
        colors = rng.uniform(size=(nv, 3))
        pose = PoseParams.identity(float(rng.uniform(2.0, 16.0)))
        got = rasterize(Mesh(verts, tris), colors, pose, 64, 64)
        ref_img, ref_mask, ref_depth = reference_rasterize(
            Mesh(verts, tris), colors, pose, 64, 64)
        assert np.array_equal(got.mask, ref_mask)
        # depth winners must agree; depths are equal up to summation order
        if ref_mask.any():
            assert np.abs(got.depth[ref_mask] - ref_depth[ref_mask]).max() <= 1e-9
        assert np.all(np.isneginf(got.depth[~ref_mask]))
        assert np.abs(got.image - ref_img).max() <= 1e-9
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# Criterion 4: noiseless landmark fitting recovers ground truth

def test_criterion_4_landmark_roundtrip(model_30_10):
    start = time.monotonic()
    m = model_30_10
    size = 512
    f0 = nominal_focal(m.mean_mesh, size)
    rng = np.random.default_rng(4)
    for _ in range(20):
        gt = sample_geometry_coefficients(rng, m)
        pose = sample_pose(rng, f0, face_width_of(m.mean_mesh))
        lms = project_landmarks(m, gt, pose, size, size, m.landmark_indices)
        fitted = landmark_fit(lms, pose, m, size, size, lambda_reg=1e-9)
        assert np.abs(fitted.vector - gt.vector).max() < 1e-5
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# Criterion 5: Procrustes alignment is exact on transformed copies

def test_criterion_5_procrustes_exactness(model_30_10):
    from synthface.render import rotation_from_euler
    m = model_30_10
    rng = np.random.default_rng(5)
    src = m.mean_mesh
    for _ in range(20):
        s = float(rng.uniform(0.3, 3.0))
        r = rotation_from_euler(*rng.uniform(-np.pi, np.pi, 3))
        t = rng.standard_normal(3) * 5.0
        target = Mesh(s * src.vertices @ r.T + t, src.triangles)
        transform, aligned = optimal_similarity_align(src, target)
        resid = aligned.vertices - target.vertices
        assert np.sqrt(np.mean(np.sum(resid ** 2, axis=1))) < 1e-9
        assert abs(transform.scale - s) < 1e-9
        assert np.abs(transform.rotation - r).max() < 1e-9
        assert np.abs(transform.translation - t).max() < 1e-9


# ---------------------------------------------------------------------------
# Criterion 6: scaled learning experiment.  6a-6c are EXPECTED RED; the
# measured cause is in the README's "Testing" section.

N_TRAIN = 5000
N_HELD = 500
RIDGE_GRID = (1e-2, 1e-1, 1.0)


@pytest.fixture(scope="module")
def learning_experiment(model_30_10):
    m = model_30_10
    start = time.monotonic()
    cfg = IEFConfig()
    train = [generate_sample(rng_for_sample(0, i), m, sample_id=i)
             for i in range(N_TRAIN)]
    held = [generate_sample(rng_for_sample(1, i), m, sample_id=i)
            for i in range(N_HELD)]
    fit_set, val_set = train[:4500], train[4500:]

    def iterate_losses(pred, samples):
        """Mean loss of each iterate, and each sample's final coefficients."""
        losses = np.zeros(cfg.iterations + 1)
        finals = []
        for s in samples:
            res = ief_reconstruct(s.face_pixels, s.pose, pred, m, cfg)
            for t, alpha in enumerate(res.iterates):
                losses[t] += geometry_loss(
                    m, GeometryCoefficients.from_vector(alpha, m.n_id),
                    s.alpha_gt)
            finals.append(res.final_coefficients(m))
        return losses / len(samples), finals

    best = (np.inf, None, None)
    for lam in RIDGE_GRID:
        pred = train_linear_predictor(fit_set, m, cfg, ridge_lambda=lam)
        val, _ = iterate_losses(pred, val_set)
        if val[-1] < best[0]:
            best = (val[-1], lam, pred)
    ridge, predictor = best[1], best[2]
    held_losses, finals = iterate_losses(predictor, held)

    # pointwise vertex error of the final iterate vs the 10-landmark baseline
    ief_errors, lmk_errors = [], []
    for s, final in zip(held[:100], finals):
        (_, _, ief), (_, _, lmk) = score(m, final, s.alpha_gt, s.pose,
                                         cfg.width, cfg.height)
        ief_errors.append(ief.mean)
        lmk_errors.append(lmk.mean)

    elapsed = time.monotonic() - start
    summary = {"ridge": ridge, "held_losses": held_losses,
               "ief_error": float(np.mean(ief_errors)),
               "landmark_error": float(np.mean(lmk_errors)),
               "elapsed": elapsed}
    print(f"\nlearning experiment: ridge={ridge} "
          f"held-out iterate losses={np.round(held_losses, 3).tolist()} "
          f"ief_err={summary['ief_error']:.4f} "
          f"lmk10_err={summary['landmark_error']:.4f} "
          f"elapsed={elapsed:.0f}s "
          # KB on Linux; the weekly slow-tier log records it, with no bound
          f"peak_rss={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}MB")
    # the same values at full precision, so two runs can be compared bit for bit
    print(f"held-out iterate losses={held_losses.tolist()!r} "
          f"ief_err={summary['ief_error']!r} "
          f"lmk10_err={summary['landmark_error']!r}")
    return summary


@pytest.mark.slow
def test_criterion_6_runtime(learning_experiment):
    assert learning_experiment["elapsed"] < 600.0


@pytest.mark.slow
def test_criterion_6a_losses_non_increasing(learning_experiment):
    losses = learning_experiment["held_losses"]
    assert np.all(np.diff(losses) <= 1e-9), \
        f"held-out iterate losses increase: {losses.tolist()}"


@pytest.mark.slow
def test_criterion_6b_final_beats_half_baseline(learning_experiment):
    losses = learning_experiment["held_losses"]
    assert losses[-1] < 0.5 * losses[0], \
        f"final loss {losses[-1]:.3f} not below half of baseline {losses[0]:.3f}"


@pytest.mark.slow
def test_criterion_6c_beats_sparse_landmark_baseline(learning_experiment):
    assert learning_experiment["ief_error"] \
        <= learning_experiment["landmark_error"], \
        (f"ief error {learning_experiment['ief_error']:.4f} exceeds "
         f"10-landmark baseline {learning_experiment['landmark_error']:.4f}")


# ---------------------------------------------------------------------------
# Criterion 7: texture recovery under 50% occlusion

def test_criterion_7_texture_roundtrip(model_30_10):
    m = model_30_10
    rng = np.random.default_rng(7)
    for _ in range(5):
        beta = rng.standard_normal(m.n_tex)
        observed = synthesize_texture(m, TextureCoefficients(beta))
        visibility = rng.uniform(size=m.n_vertices) < 0.5
        coeffs, _ = project_texture(m, observed, visibility)
        assert np.abs(coeffs.alpha_tex - beta).max() < 1e-4


# ---------------------------------------------------------------------------
# Criterion 8: dataset generation is deterministic and worker-independent

def dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def test_criterion_8_determinism(tmp_path):
    mfile = tmp_path / "m.mfm"
    assert main(["model-gen", "--seed", "1", "--n-id", "10", "--n-exp", "5",
                 "--n-tex", "6", "--grid", "32", "--out", str(mfile)]) == 0
    digests = []
    for name, workers in (("w1", "1"), ("w8", "8"), ("w8b", "8")):
        out = tmp_path / name
        assert main(["datagen", "--model", str(mfile), "--out", str(out),
                     "--seed", "11", "--count", "200",
                     "--width", "64", "--height", "64",
                     "--workers", workers]) == 0
        assert sum(n.endswith("_face.pgm") for n in os.listdir(out)) == 200
        digests.append(dir_digest(out))
    assert digests[0] == digests[1] == digests[2]


# ---------------------------------------------------------------------------
# Criterion 9: documented CLI walkthrough end to end

def test_criterion_9_walkthrough(tmp_path):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cli = [sys.executable, "-m", "synthface.cli"]
    # The steps run from tmp_path, where a relative PYTHONPATH entry such as
    # the test command's `src` no longer resolves; put the absolute source
    # directory first and keep whatever the caller had after it.
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(repo, "src")] + ([inherited] if inherited else [])))

    def run(*args):
        return subprocess.run([str(a) for a in args], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    steps = [
        (*cli, "model-gen", "--seed", 1, "--n-id", 30, "--n-exp", 10,
         "--n-tex", 10, "--grid", 32, "--out", "model.mfm"),
        (*cli, "datagen", "--model", "model.mfm", "--out", "data",
         "--seed", 0, "--count", 300, "--width", 64, "--height", 64),
        (*cli, "eval-inputs", "--model", "model.mfm", "--out", "eval_inputs",
         "--seed", 123, "--width", 64, "--height", 64),
        (*cli, "train", "--model", "model.mfm", "--dataset", "data",
         "--out", "predictor.prd", "--ridge", 1.0),
        (*cli, "reconstruct", "--model", "model.mfm",
         "--predictor", "predictor.prd", "--image", "eval_inputs/face.pgm",
         "--pose-file", "eval_inputs/pose.txt", "--out", "recon"),
        (*cli, "eval", "--model", "model.mfm",
         "--gt-coeffs", "eval_inputs/gt.bin",
         "--ief-coeffs", "recon/coefficients.bin",
         "--pose-file", "eval_inputs/pose.txt", "--out", "report"),
    ]
    for step in steps:
        proc = run(*step)
        assert proc.returncode == 0, f"{step}\n{proc.stderr}"

    for artifact in ("recon/mesh.off", "recon/shading.pgm",
                     "report/heatmap_ief.ppm", "report/heatmap_landmark.ppm",
                     "report/comparison.txt"):
        assert (tmp_path / artifact).exists(), artifact
    table = (tmp_path / "report" / "comparison.txt").read_text()
    assert "ief" in table and "landmark" in table and "mean" in table
