import os
import re

import numpy as np
import pytest

from synthface import datagen
from synthface.datagen import (MAX_POSE_RETRIES, DatasetManifest,
                               _sample_files, generate_dataset,
                               generate_sample, load_coeff_vector,
                               load_dataset, load_manifest,
                               load_sample_coeffs, rng_for_sample,
                               sample_intermediate, save_coeff_vector,
                               save_sample_coeffs)
from synthface.image_io import read_pgm, to_pixels
from synthface.model_io import model_digest
from synthface.model import (GeometryCoefficients, build_procedural_model,
                             sample_geometry_coefficients,
                             sample_texture_coefficients, synthesize_geometry,
                             synthesize_texture)
from synthface.render import (compute_vertex_normals, luminance, phong_shade,
                              rasterize, render_shading_image)

from test_acceptance import dir_digest


# ---------------------------------------------------------------------------
# Intermediate coefficient sampling

def test_intermediate_endpoints(small_model, rng):
    gt = sample_geometry_coefficients(rng, small_model)
    at = sample_intermediate(np.random.default_rng(1), gt)
    # alpha_rand, then u, from the same stream
    r = np.random.default_rng(1)
    alpha_rand = r.standard_normal(15)
    u = r.uniform(0.0, 1.0)
    assert np.array_equal(at.vector, u * gt.vector + (1.0 - u) * alpha_rand)


def test_intermediate_variance_third(small_model):
    gt = GeometryCoefficients.zeros(10, 5)
    r = np.random.default_rng(3)
    draws = np.stack([sample_intermediate(r, gt).vector for _ in range(8000)])
    # alpha_t = (1-u) * alpha_rand with u ~ U[0,1]: variance = E[(1-u)^2] = 1/3
    var = draws.reshape(-1).var()
    assert abs(var - 1 / 3) < 0.05 / 3


# ---------------------------------------------------------------------------
# Single-sample generation

def count_pose_draws(monkeypatch):
    """Record each `sample_pose` call of `generate_sample` in the list
    returned."""
    draws = []
    real = datagen.sample_pose

    def sample_pose(*args):
        draws.append(args)
        return real(*args)
    monkeypatch.setattr(datagen, "sample_pose", sample_pose)
    return draws


def test_generate_sample_deterministic(small_model, monkeypatch):
    draws = count_pose_draws(monkeypatch)
    # sample 100 of seed 0 at 2x2 takes the retry: its first pose leaves a
    # raster empty, so it draws a second
    for seed, index, size, n_draws in [(5, 2, 64, 1), (0, 100, 2, 2)]:
        draws.clear()
        a = generate_sample(rng_for_sample(seed, index), small_model, size,
                            size, sample_id=index)
        assert len(draws) == n_draws
        b = generate_sample(rng_for_sample(seed, index), small_model, size,
                            size, sample_id=index)
        assert np.array_equal(a.face_image, b.face_image)
        assert np.array_equal(a.shading_image, b.shading_image)
        assert np.array_equal(a.alpha_gt.vector, b.alpha_gt.vector)
        assert a.pose.f == b.pose.f


def test_generate_sample_gives_up_after_max_pose_retries(small_model,
                                                         monkeypatch,
                                                         empty_face_raster):
    # the retry loop's else branch: no pose of the sample covers a pixel
    draws = count_pose_draws(monkeypatch)
    with pytest.raises(RuntimeError, match=f"no non-degenerate pose found in "
                                           f"{MAX_POSE_RETRIES} attempts"):
        generate_sample(rng_for_sample(0, 0), small_model, 64, 64)
    assert len(draws) == MAX_POSE_RETRIES


def test_face_masked_by_shading_mask(small_model):
    s = generate_sample(rng_for_sample(5, 3), small_model, 64, 64)
    shading_raster = render_shading_image(
        synthesize_geometry(small_model, s.alpha_t), s.pose, 64, 64)
    assert not np.any(s.face_image[~shading_raster.mask])
    assert not np.any(s.shading_image[~shading_raster.mask])


@pytest.fixture(scope="module")
def paper_model():
    return build_procedural_model(1)


@pytest.mark.parametrize("model_name, size, index", [
    *[("small_model", 64, i) for i in range(17)],
    *[("paper_model", 200, i) for i in range(3)],
])
def test_face_image_is_luminance_of_rgb_raster(model_name, size, index, request):
    # the face is rasterized in luminance; its bytes must equal those of the
    # RGB raster's luminance, masked by the intermediate geometry's coverage
    model = request.getfixturevalue(model_name)
    s = generate_sample(rng_for_sample(3, index), model, size, size)
    rng = rng_for_sample(3, index)
    sample_geometry_coefficients(rng, model)
    tcoeffs = sample_texture_coefficients(rng, model)
    mesh_gt = synthesize_geometry(model, s.alpha_gt)
    albedo = np.clip(synthesize_texture(model, tcoeffs), 0.0, 1.0)
    rgb = phong_shade(albedo, compute_vertex_normals(mesh_gt), s.lighting)
    raster = rasterize(mesh_gt, rgb, s.pose, size, size)
    expected = to_pixels(luminance(raster.image)) / 255.0
    expected[~render_shading_image(synthesize_geometry(model, s.alpha_t),
                                   s.pose, size, size).mask] = 0.0
    assert expected.any()
    assert s.face_image.tobytes() == expected.tobytes()


@pytest.mark.parametrize("source", ["generated", "loaded"])
def test_images_are_stored_as_pixels(tmp_path, small_model, source):
    # 1 byte per pixel; the floats k/255 on each access are the PGM's
    h, w = 32, 48
    d = tmp_path / "ds"
    generate_dataset(8, small_model, 3, d, width=w, height=h)
    samples = (load_dataset(d, small_model) if source == "loaded" else
               [generate_sample(rng_for_sample(8, i), small_model, w, h,
                                sample_id=i) for i in range(3)])
    assert sum(s.face_pixels.nbytes + s.shading_pixels.nbytes
               for s in samples) == 3 * 2 * h * w
    for s in samples:
        face_f, shade_f, _ = _sample_files(s.sample_id)
        for pixels, image, name in ((s.face_pixels, s.face_image, face_f),
                                    (s.shading_pixels, s.shading_image, shade_f)):
            assert pixels.dtype == np.uint8 and pixels.shape == (h, w)
            assert image.tobytes() == (pixels / 255.0).tobytes()
            assert pixels.tobytes() == read_pgm(d / name).tobytes()
        with pytest.raises(AttributeError):
            s.face_image = s.face_image


# ---------------------------------------------------------------------------
# Coefficient files

def test_coeff_vector_roundtrip(tmp_path, rng):
    vec = rng.standard_normal(17)
    path = tmp_path / "c.bin"
    save_coeff_vector(path, vec)
    assert np.array_equal(load_coeff_vector(path), vec)


def test_sample_coeffs_roundtrip(tmp_path, small_model):
    s = generate_sample(rng_for_sample(5, 7), small_model, 64, 64)
    path = tmp_path / "s.bin"
    save_sample_coeffs(path, s)
    at, agt, pose, lighting = load_sample_coeffs(path, small_model.n_id)
    assert np.array_equal(at.vector, s.alpha_t.vector)
    assert np.array_equal(agt.vector, s.alpha_gt.vector)
    assert pose.f == s.pose.f
    assert np.array_equal(pose.rotation, s.pose.rotation)
    assert np.array_equal(pose.translation, s.pose.translation)
    assert lighting.k_diffuse == s.lighting.k_diffuse
    assert np.array_equal(lighting.light_dir, s.lighting.light_dir)


# ---------------------------------------------------------------------------
# Dataset directories

class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs jobs in-process."""
    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("count, workers, pool_size", [(2, 8, 2), (5, 3, 3),
                                                       (1, 4, None)])
def test_dataset_pool_is_sized_to_its_jobs(tmp_path, small_model, monkeypatch,
                                           count, workers, pool_size):
    from synthface import datagen
    monkeypatch.setattr(datagen, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(datagen, "_worker_model", None)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    generate_dataset(4, small_model, count, pooled, width=16, height=16,
                     workers=workers)
    assert RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    generate_dataset(4, small_model, count, serial, width=16, height=16)
    assert dir_digest(pooled) == dir_digest(serial)


def test_dataset_roundtrip_and_seed_sensitivity(tmp_path, small_model):
    d = tmp_path / "ds"
    manifest = generate_dataset(8, small_model, 3, d, width=64, height=64)
    assert manifest.count == 3
    samples = load_dataset(d, small_model)
    assert len(samples) == 3
    direct = generate_sample(rng_for_sample(8, 1), small_model, 64, 64,
                             sample_id=1)
    assert np.array_equal(samples[1].face_image, direct.face_image)
    assert np.array_equal(samples[1].alpha_gt.vector, direct.alpha_gt.vector)

    d2 = tmp_path / "ds2"
    generate_dataset(9, small_model, 3, d2, width=64, height=64)
    other = load_dataset(d2, small_model)
    assert not np.array_equal(other[0].alpha_gt.vector,
                              samples[0].alpha_gt.vector)


def test_manifest_is_its_header(tmp_path, small_model):
    d = tmp_path / "ds"
    manifest = generate_dataset(8, small_model, 3, d, width=16, height=8)
    assert (d / "manifest.txt").read_text() == (
        f"model_hash={model_digest(small_model)}\ncount=3\nwidth=16\n"
        "height=8\nmaster_seed=8\n")
    assert load_manifest(d / "manifest.txt") == manifest
    assert manifest.entries == [(i, *_sample_files(i)) for i in range(3)]
    assert _sample_files(2) == ("sample_000002_face.pgm",
                                "sample_000002_shading.pgm",
                                "sample_000002_coeffs.bin")
    assert [s.sample_id for s in load_dataset(d, small_model)] == [0, 1, 2]


@pytest.mark.parametrize("edit", [
    # manifests before the five-line header also listed every sample's files
    lambda text: text + "\n0 sample_000000_face.pgm sample_000000_shading.pgm "
                        "sample_000000_coeffs.bin\n",
    lambda text: text.replace("count=2\n", "count=0\n"),
    lambda text: text.replace("count=2\n", "count=2\ncount=2\n"),
    lambda text: text.replace("width=", "size="),
], ids=["parent_format", "count_0", "repeated_key", "unknown_key"])
def test_manifest_rejects_other_lines(tmp_path, small_model, edit):
    d = tmp_path / "ds"
    generate_dataset(8, small_model, 2, d, width=16, height=8)
    path = d / "manifest.txt"
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        load_manifest(path)


def test_manifest_reads_only_the_header(tmp_path, small_model):
    d = tmp_path / "ds"
    written = generate_dataset(8, small_model, 2, d, width=64, height=64)
    for name in os.listdir(d):
        if name != "manifest.txt":
            os.remove(d / name)
    assert load_manifest(d / "manifest.txt") == written


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["face", "shading", "coeffs"])
def test_load_dataset_names_missing_file(tmp_path, small_model, kind):
    d = tmp_path / "ds"
    generate_dataset(8, small_model, 2, d, width=64, height=64)
    missing = os.path.join(d, _sample_files(1)[kind])
    os.remove(missing)
    with pytest.raises(ValueError) as exc:
        load_dataset(d, small_model)
    assert str(exc.value) == (f"{os.path.join(d, 'manifest.txt')}: "
                              f"references missing file {missing}")


def test_load_dataset_rejects_wrong_model(tmp_path, small_model, fit_model):
    d = tmp_path / "ds"
    generate_dataset(8, small_model, 2, d, width=64, height=64)
    with pytest.raises(ValueError):
        load_dataset(d, fit_model)


def test_generate_dataset_rejects_bad_count(tmp_path, small_model):
    with pytest.raises(ValueError):
        generate_dataset(1, small_model, 0, tmp_path / "x")


@pytest.mark.parametrize("count, width, reason", [
    (0, 16, "count must be >= 1"),
    (2, 0, "image size 0x16 must be at least 1x1"),
], ids=["count_0", "width_0"])
def test_manifest_rejects_empty_dataset(count, width, reason):
    with pytest.raises(ValueError, match=reason):
        DatasetManifest("0" * 64, count, width, 16, 0)
