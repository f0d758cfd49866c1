import hashlib
import json
import os
import shutil
import struct
from dataclasses import replace

import numpy as np
import pytest

from synthface.cli import main
from synthface.datagen import (MAX_POSE_RETRIES, generate_sample,
                               load_coeff_vector, rng_for_sample,
                               save_coeff_vector)
from synthface.evaluate import (landmark_fit, optimal_similarity_align,
                                pointwise_error, project_landmarks)
from synthface.image_io import write_pgm
from synthface.mesh_io import load_pose, save_off, save_pose
from synthface.model import GeometryCoefficients, synthesize_geometry
from synthface.model_io import (load_model, model_chunks, model_digest,
                               model_from_bytes, save_model)
from synthface.reconstruct import LinearPredictor, save_predictor
from synthface.render import render_shading_image


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.mfm"
    assert run("model-gen", "--seed", 1, "--n-id", 10, "--n-exp", 5,
               "--n-tex", 6, "--grid", 32, "--out", path) == 0
    return path


def test_model_gen_roundtrip_and_digest(tmp_path, model_file):
    model = load_model(model_file)
    assert (model.n_id, model.n_exp, model.n_tex) == (10, 5, 6)
    again = tmp_path / "m2.mfm"
    assert run("model-gen", "--seed", 1, "--n-id", 10, "--n-exp", 5,
               "--n-tex", 6, "--grid", 32, "--out", again) == 0
    assert file_digest(model_file) == file_digest(again)


def test_model_gen_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        run("model-gen", "--seed", 1)
    assert exc.value.code != 0


def test_model_gen_bad_dims(tmp_path, capsys):
    out = tmp_path / "x.mfm"
    # one input for each dimension check of build_procedural_model
    for args, message in [
            (["--n-id", 9999, "--grid", 8],
             "n_id + n_exp = 10083 exceeds 3N = 192; increase grid_resolution"),
            (["--n-id", 0], "all dimensions must be >= 1"),
            (["--n-tex", 99999, "--grid", 16],
             "n_tex = 99999 exceeds 3N = 768")]:
        rc = run("model-gen", *args, "--out", out)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, model_file):
    """A 12-sample dataset, a predictor trained on it, and one held-out face
    with its pose and ground-truth coefficients."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run("datagen", "--model", model_file, "--out", root / "data",
               "--seed", 5, "--count", 12, "--width", 64, "--height", 64) == 0
    assert run("train", "--model", model_file, "--dataset", root / "data",
               "--out", root / "p.prd", "--ridge", 1.0) == 0
    assert run("eval-inputs", "--model", model_file, "--out", root,
               "--seed", 99, "--width", 64, "--height", 64) == 0
    return root


def reconstruct(model_file, pipeline, out, predictor=None):
    return run("reconstruct", "--model", model_file,
               "--predictor", predictor or pipeline / "p.prd",
               "--image", pipeline / "face.pgm",
               "--pose-file", pipeline / "pose.txt", "--out", out)


def assert_one_line_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_datagen_deterministic_and_counted(tmp_path, model_file):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run("datagen", "--model", model_file, "--out", d, "--seed", 3,
                   "--count", 3, "--width", 64, "--height", 64) == 0
    names = sorted(os.listdir(d1))
    assert sorted(os.listdir(d2)) == names
    assert sum(n.endswith("_face.pgm") for n in names) == 3
    for n in names:
        assert file_digest(d1 / n) == file_digest(d2 / n)


def test_datagen_missing_model(tmp_path, capsys):
    rc = run("datagen", "--model", tmp_path / "nope.mfm",
             "--out", tmp_path / "d", "--count", 1)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("width, height", [(0, 0), (0, 64), (64, -3)])
def test_datagen_rejects_bad_size_before_writing(tmp_path, model_file, capsys,
                                                 width, height):
    out = tmp_path / "d"
    rc = run("datagen", "--model", model_file, "--out", out, "--count", 1,
             "--width", width, "--height", height)
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: image size {width}x{height} must be at least 1x1\n"
    assert not out.exists()


# the arguments besides --model and --out that make each command render one sample
ONE_SAMPLE = {"datagen": ["--count", 1], "eval-inputs": []}


@pytest.mark.parametrize("command", ONE_SAMPLE)
@pytest.mark.parametrize("width, height, reason", [
    (0, 64, "must be at least 1x1"),
    (64, -5, "must be at least 1x1"),
    (10**20, 64, "is above 2**32 - 1"),
    (2**63 - 1, 2, "is above 2**32 - 1"),
    (2**32 - 1, 2**32 - 1, "has more pixels than numpy can index"),
], ids=["width_0", "height_negative", "width_huge", "width_int64", "pixels_huge"])
def test_size_rule_is_one_line_before_writing(tmp_path, model_file, capsys,
                                              command, width, height, reason):
    out = tmp_path / "d"
    rc = run(command, "--model", model_file, "--out", out, *ONE_SAMPLE[command],
             "--width", width, "--height", height)
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: image size {width}x{height} {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_datagen_rejects_bad_workers_before_writing(tmp_path, model_file, capsys,
                                                    workers):
    out = tmp_path / "d"
    rc = run("datagen", "--model", model_file, "--out", out, "--count", 2,
             "--workers", workers)
    assert rc == 1
    assert capsys.readouterr().err == "error: workers must be >= 1\n"
    assert not out.exists()


def _non_orthonormal(data):
    model = model_from_bytes(data)
    return b"".join(model_chunks(replace(model, shape_basis=2.0 * model.shape_basis)))


def _nan_at(offset):
    """Corrupt a binary file by writing a float64 NaN at byte `offset`."""
    return lambda data: data[:offset] + struct.pack("<d", np.nan) + data[offset + 8:]


def _first_triangle_index_n(data):
    """Set the first triangle's first vertex index to N, one past the last
    vertex; the triangle block ends where the landmark trailer starts, and
    every other check of the file still passes."""
    n, m = struct.unpack_from("<2I", data, 4)
    off = data.index(b"LMK1") - 12 * m
    return data[:off] + struct.pack("<I", n) + data[off + 4:]


@pytest.mark.parametrize("corrupt", [
    lambda data: b"JUNK" + b"\x00" * 100,
    lambda data: data[:200],
    lambda data: data[:10],
    _non_orthonormal,
    lambda data: data[:-4] + struct.pack("<I", 5000),
    lambda data: data + b"\x00" * 8,
    _nan_at(24),                        # the first mu_shape value
    _first_triangle_index_n,
], ids=["junk", "truncated", "short", "non_orthonormal", "landmark_5000",
        "trailing", "nan_mu_shape", "triangle_index_n"])
def test_datagen_corrupt_model_names_file(tmp_path, model_file, capsys, corrupt):
    bad = tmp_path / "corrupt.mfm"
    bad.write_bytes(corrupt(model_file.read_bytes()))
    rc = run("datagen", "--model", bad, "--out", tmp_path / "d", "--count", 1)
    assert rc == 1
    assert_one_line_error(capsys, bad)


def test_train_empty_dataset(tmp_path, model_file, capsys):
    data = tmp_path / "data"
    assert run("datagen", "--model", model_file, "--out", data, "--count", 1,
               "--width", 64, "--height", 64) == 0
    manifest = data / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("count=1\n", "count=0\n"))
    rc = run("train", "--model", model_file, "--dataset", data,
             "--out", tmp_path / "p.prd")
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: {manifest}: count must be >= 1\n"


def test_train_missing_sample_file_names_manifest(tmp_path, model_file, pipeline,
                                                  capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    os.remove(data / "sample_000007_face.pgm")
    rc = run("train", "--model", model_file, "--dataset", data,
             "--out", tmp_path / "p.prd")
    assert rc == 1
    assert_one_line_error(capsys, data / "manifest.txt")


@pytest.mark.parametrize("ridge", ["nan", "inf", "0"])
def test_train_rejects_bad_ridge_before_writing(tmp_path, model_file, pipeline,
                                                capsys, ridge):
    out = tmp_path / "p.prd"
    rc = run("train", "--model", model_file, "--dataset", pipeline / "data",
             "--out", out, "--ridge", ridge)
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: ridge_lambda must be finite and > 0, got {float(ridge)}\n"
    assert not out.exists()


def test_train_rejects_size_off_the_pooling_grid(tmp_path, model_file, capsys):
    data, out = tmp_path / "data", tmp_path / "p.prd"
    assert run("datagen", "--model", model_file, "--out", data, "--count", 2,
               "--width", 60, "--height", 60) == 0
    capsys.readouterr()
    rc = run("train", "--model", model_file, "--dataset", data, "--out", out)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'manifest.txt'}: image size 60x60 is not a positive "
        "multiple of the 8-pixel pooling\n")
    assert not out.exists()


@pytest.mark.parametrize("own_digest", [False, True],
                         ids=["other_digest", "model_digest_wrong_count"])
def test_reconstruct_dim_mismatch(tmp_path, model_file, capsys, own_digest):
    # 12 coefficients; the model file has 15
    digest = model_digest(load_model(model_file)) if own_digest else "0" * 64
    wrong = LinearPredictor(np.zeros((12, 128 + 12)), np.zeros(12), 64, 64,
                            digest)
    ppath = tmp_path / "wrong.prd"
    save_predictor(ppath, wrong)
    img = tmp_path / "img.pgm"
    write_pgm(img, np.zeros((64, 64)))
    pose_path = tmp_path / "pose.txt"
    from synthface.render import PoseParams
    save_pose(pose_path, PoseParams.identity(20.0), 64, 64)
    rc = run("reconstruct", "--model", model_file, "--predictor", ppath,
             "--image", img, "--pose-file", pose_path,
             "--out", tmp_path / "out")
    assert rc == 1
    assert_one_line_error(capsys, ppath)


def test_defaults_dump_is_json(capsys):
    assert run("defaults") == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["n_id"] == 200 and cfg["ief_iterations"] == 3


def test_full_pipeline_smoke(tmp_path, model_file, pipeline):
    out = tmp_path / "recon"
    assert reconstruct(model_file, pipeline, out) == 0
    model = load_model(model_file)
    coeffs = load_coeff_vector(out / "coefficients.bin")
    assert coeffs.shape == (15,)
    # mesh.off and shading.pgm are the geometry of coefficients.bin and its
    # render under the input pose
    mesh = synthesize_geometry(model, GeometryCoefficients.from_vector(coeffs,
                                                                       model.n_id))
    pose, (width, height) = load_pose(pipeline / "pose.txt")
    raster = render_shading_image(mesh, pose, width, height)
    assert raster.mask.any()
    save_off(tmp_path / "mesh.off", mesh)
    write_pgm(tmp_path / "shading.pgm", raster.image)
    for name in ("mesh.off", "shading.pgm"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    ev = tmp_path / "eval"
    assert run("eval", "--model", model_file, "--gt-coeffs", pipeline / "gt.bin",
               "--ief-coeffs", out / "coefficients.bin",
               "--pose-file", pipeline / "pose.txt", "--out", ev) == 0
    assert (ev / "heatmap_ief.ppm").exists()
    assert (ev / "heatmap_landmark.ppm").exists()
    table = (ev / "comparison.txt").read_text()
    assert "ief" in table and "landmark" in table


def test_reconstruct_rejects_another_model(tmp_path, pipeline, capsys):
    other = tmp_path / "other.mfm"
    assert run("model-gen", "--seed", 2, "--n-id", 10, "--n-exp", 5,
               "--n-tex", 6, "--grid", 32, "--out", other) == 0
    capsys.readouterr()
    assert reconstruct(other, pipeline, tmp_path / "out") == 1
    assert_one_line_error(capsys, pipeline / "p.prd")


def test_eval_reads_image_size_from_pose(tmp_path, model_file, pipeline):
    ev = tmp_path / "ev"
    assert eval_gt(model_file, pipeline, ev) == 0
    # the landmark row is the 10-landmark baseline, projected and fitted at the
    # face's own 64x64 size
    model = load_model(model_file)
    pose, _ = load_pose(pipeline / "pose.txt")
    gt = GeometryCoefficients.from_vector(load_coeff_vector(pipeline / "gt.bin"),
                                          model.n_id)
    lms = project_landmarks(model, gt, pose, 64, 64,
                            model.landmark_indices[::7][:10])
    fit = landmark_fit(lms, pose, model, 64, 64)
    gt_mesh = synthesize_geometry(model, gt)
    _, aligned = optimal_similarity_align(synthesize_geometry(model, fit), gt_mesh)
    report = pointwise_error(aligned, gt_mesh)
    row = (ev / "comparison.txt").read_text().splitlines()[2].split()
    assert row == ["landmark"] + [f"{v:.6g}" for v in
                                  (report.mean, report.median, report.rms)]


def _parent_layout(data):
    """The same predictor as a PRD3 file: its pooling factor 8 after the height."""
    return b"PRD3" + data[4:12] + struct.pack("<I", 8) + data[12:]


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:100],
    lambda data: data[:6],
    lambda data: data + b"\x00" * 8,
    _nan_at(48),                        # the first weight, after the header
    _parent_layout,
], ids=["truncated", "short", "trailing", "nan_weight", "parent_layout"])
def test_reconstruct_corrupt_predictor_names_file(tmp_path, model_file, pipeline,
                                                  capsys, corrupt):
    bad = tmp_path / "corrupt.prd"
    bad.write_bytes(corrupt((pipeline / "p.prd").read_bytes()))
    assert reconstruct(model_file, pipeline, tmp_path / "out", bad) == 1
    assert_one_line_error(capsys, bad)


def _text_lines(edit):
    """Corrupt a text file by editing its list of lines."""
    return lambda data: ("\n".join(edit(data.decode().splitlines())) + "\n").encode()


@pytest.mark.parametrize("name, corrupt", [
    ("face.pgm", lambda data: data[:1000]),
    ("face.pgm", lambda data: data + b"\x00\x00"),
    ("pose.txt", _text_lines(lambda ls: ["f abc"] + ls[1:])),
    ("pose.txt", _text_lines(lambda ls: [ls[0] + " 1.0"] + ls[1:])),
    ("pose.txt", _text_lines(
        lambda ls: ls[:1] + ["R " + " ".join(str(2 * float(v)) for v in ls[1].split()[1:])]
        + ls[2:])),
    ("pose.txt", _text_lines(lambda ls: ls[:1] + [" ".join(ls[1].split()[:3])] + ls[2:])),
    ("pose.txt", _text_lines(lambda ls: ls[:-2] + [ls[-2] + " 1.0"] + ls[-1:])),
    ("pose.txt", _text_lines(lambda ls: ls[:-1])),
    ("pose.txt", _text_lines(lambda ls: ls + ls[-1:])),
    ("pose.txt", _text_lines(lambda ls: ls[:-1] + ["size 64.0 64"])),
    ("pose.txt", _text_lines(lambda ls: ["f nan"] + ls[1:])),
    ("pose.txt", _text_lines(lambda ls: ls[:-2] + ["t inf 0 0"] + ls[-1:])),
    ("pose.txt", _text_lines(lambda ls: ls[:1] + ["R inf 0 0"] + ls[2:])),
    ("pose.txt", _text_lines(lambda ls: ls[:-1] + ["size 99999999999999999999 64"])),
    # a valid image or pose made for another size than the 64x64 predictor's
    ("face.pgm", lambda data: b"P5\n128 128\n255\n" + bytes(128 * 128)),
    ("pose.txt", _text_lines(lambda ls: ls[:-1] + ["size 200 200"])),
], ids=["pgm_cut_1000", "pgm_trailing", "pose_f_abc", "pose_f_two_values",
        "pose_R_scaled", "pose_R_two_values", "pose_t_four_values",
        "pose_no_size", "pose_two_sizes", "pose_size_float", "pose_f_nan",
        "pose_t_inf", "pose_R_inf", "pose_size_huge", "pgm_128x128",
        "pose_size_200"])
@pytest.mark.filterwarnings("error")    # a warning would be a second stderr line
def test_reconstruct_corrupt_input_names_file(tmp_path, model_file, pipeline,
                                              capsys, name, corrupt):
    for f in ("p.prd", "face.pgm", "pose.txt"):
        shutil.copy(pipeline / f, tmp_path)
    bad = tmp_path / name
    bad.write_bytes(corrupt(bad.read_bytes()))
    assert reconstruct(model_file, tmp_path, tmp_path / "out") == 1
    assert_one_line_error(capsys, bad)


@pytest.mark.parametrize("edit", [
    lambda ln: None if ln.startswith("model_hash=") else ln,
    lambda ln: "width=wide" if ln.startswith("width=") else ln,
    lambda ln: "count=25" if ln.startswith("count=") else ln,
    # must stop at the first missing file, not list 10**12 samples first
    lambda ln: "count=1000000000000" if ln.startswith("count=") else ln,
    lambda ln: "width=0" if ln.startswith("width=") else ln,
    lambda ln: "height=-64" if ln.startswith("height=") else ln,
    # a size no PRD4 file's u32 fields could record
    lambda ln: "width=4294967296" if ln.startswith("width=") else ln,
    # the file list that manifests before the five-line header carried
    lambda ln: ln + "\n\n0 sample_000000_face.pgm sample_000000_shading.pgm "
               "sample_000000_coeffs.bin" if ln.startswith("master_seed=") else ln,
], ids=["missing_key", "non_integer", "count_over", "count_huge", "width_0",
        "height_negative", "width_2_32", "parent_entry_line"])
def test_train_corrupt_manifest_names_file(tmp_path, model_file, pipeline,
                                           capsys, edit):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    manifest = data / "manifest.txt"
    lines = [edit(ln) for ln in manifest.read_text().splitlines()]
    manifest.write_text("\n".join(ln for ln in lines if ln is not None) + "\n")
    rc = run("train", "--model", model_file, "--dataset", data,
             "--out", tmp_path / "p.prd")
    assert rc == 1
    assert_one_line_error(capsys, manifest)


def _negative_shininess(data):
    # the lighting array, last in the file, is ka kd ks shininess dir[3]
    shininess = len(data) - 4 * 8
    return data[:shininess] + struct.pack("<d", -1.0) + data[shininess + 8:]


def _short_alphas(data):
    # alpha_t and alpha_gt, the first two arrays, each lose their last value
    out, pos = b"", 0
    for k in range(4):
        n = struct.unpack_from("<I", data, pos)[0]
        keep = n - 1 if k < 2 else n
        out += struct.pack("<I", keep) + data[pos + 4:pos + 4 + 8 * keep]
        pos += 4 + 8 * n
    return out


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:200],
    lambda data: data + data[-60:],
    _negative_shininess,
    _short_alphas,
    # the pose's f: 13 pose values, the lighting's length prefix and 7 values
    lambda data: _nan_at(len(data) - 8 * 13 - 4 - 8 * 7)(data),
], ids=["truncated", "extra_array", "negative_shininess", "short_alphas",
        "nan_pose"])
def test_train_corrupt_sample_coeffs_names_file(tmp_path, model_file, pipeline,
                                                capsys, corrupt):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    bad = data / "sample_000000_coeffs.bin"
    bad.write_bytes(corrupt(bad.read_bytes()))
    rc = run("train", "--model", model_file, "--dataset", data,
             "--out", tmp_path / "p.prd")
    assert rc == 1
    assert_one_line_error(capsys, bad)


def _long_alpha_gt(data):
    # alpha_gt, the second array, gains one value
    n = struct.unpack_from("<I", data, 0)[0]
    gt = 4 + 8 * n
    m = struct.unpack_from("<I", data, gt)[0]
    end = gt + 4 + 8 * m
    return data[:gt] + struct.pack("<I", m + 1) + data[gt + 4:end] + \
        struct.pack("<d", 0.5) + data[end:]


@pytest.mark.parametrize("corrupt, reason", [
    (_nan_at(4), "geometry coefficients must be finite"),          # alpha_t[0]
    (_nan_at(4 + 8 * 15 + 4 + 8 * 14), "geometry coefficients must be finite"),
    (_long_alpha_gt, "16 geometry coefficients, expected 15 for the model"),
    # the pose's f, then the lighting's first light_dir value, from the end
    (lambda data: _nan_at(len(data) - 8 * 13 - 4 - 8 * 7)(data),
     "pose scale f must be finite and > 0"),
    (lambda data: _nan_at(len(data) - 8 * 3)(data), "light_dir must be a unit 3-vector"),
], ids=["nan_alpha_t", "nan_alpha_gt_last", "long_alpha_gt", "nan_pose_f",
        "nan_light_dir"])
def test_train_bad_coefficient_gives_its_reason(tmp_path, model_file, pipeline,
                                                capsys, corrupt, reason):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    bad = data / "sample_000007_coeffs.bin"
    bad.write_bytes(corrupt(bad.read_bytes()))
    rc = run("train", "--model", model_file, "--dataset", data,
             "--out", tmp_path / "p.prd")
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    assert not (tmp_path / "p.prd").exists()


@pytest.mark.parametrize("name", ["sample_000003_face.pgm",
                                  "sample_000003_shading.pgm"])
def test_train_wrong_image_size_names_file(tmp_path, model_file, pipeline,
                                           capsys, name):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    write_pgm(data / name, np.zeros((32, 32)))    # the manifest says 64x64
    rc = run("train", "--model", model_file, "--dataset", data,
             "--out", tmp_path / "p.prd")
    assert rc == 1
    assert_one_line_error(capsys, data / name)


@pytest.mark.parametrize("corrupt", [
    lambda data: data[:92],
    lambda data: data[:91],
    lambda data: data + b"\x00" * 8,
    _nan_at(4),                         # the first value
], ids=["truncated_92", "truncated_91", "trailing", "nan"])
def test_eval_corrupt_coeffs_names_file(tmp_path, model_file, pipeline, capsys,
                                        corrupt):
    bad = tmp_path / "gt.bin"
    bad.write_bytes(corrupt((pipeline / "gt.bin").read_bytes()))
    rc = run("eval", "--model", model_file, "--gt-coeffs", bad,
             "--ief-coeffs", pipeline / "gt.bin",
             "--pose-file", pipeline / "pose.txt", "--out", tmp_path / "ev")
    assert rc == 1
    assert_one_line_error(capsys, bad)


@pytest.mark.parametrize("flag", ["--gt-coeffs", "--ief-coeffs"])
def test_eval_wrong_length_coeffs_names_file(tmp_path, model_file, pipeline,
                                             capsys, flag):
    bad = tmp_path / "short.bin"      # 14 values; the model has 10 + 5
    save_coeff_vector(bad, load_coeff_vector(pipeline / "gt.bin")[:-1])
    gt, ief = (bad if f == flag else pipeline / "gt.bin"
               for f in ("--gt-coeffs", "--ief-coeffs"))
    rc = run("eval", "--model", model_file, "--gt-coeffs", gt,
             "--ief-coeffs", ief,
             "--pose-file", pipeline / "pose.txt", "--out", tmp_path / "ev")
    assert rc == 1
    assert_one_line_error(capsys, bad)


def eval_gt(model_file, pipeline, out):
    """`eval` of the held-out face's ground truth as its own reconstruction."""
    return run("eval", "--model", model_file, "--gt-coeffs", pipeline / "gt.bin",
               "--ief-coeffs", pipeline / "gt.bin",
               "--pose-file", pipeline / "pose.txt", "--out", out)


def test_eval_rejects_model_with_too_few_landmarks(tmp_path, model_file, pipeline,
                                                   capsys):
    # 10 landmarks load, but every 7th of them leaves the baseline only 2
    few = tmp_path / "few.mfm"
    model = load_model(model_file)
    save_model(replace(model, landmark_indices=model.landmark_indices[:10]), few)
    assert eval_gt(few, pipeline, tmp_path / "ev") == 1
    assert capsys.readouterr().err == \
        f"error: {few}: 10 landmarks, too few for the baseline\n"
    assert not (tmp_path / "ev").exists()


def test_eval_pose_size_beyond_numpy_names_pose_file(tmp_path, model_file,
                                                     pipeline, capsys):
    # 4294967295² pixels are more than numpy can index, so reading the pose
    # fails before eval writes a report or allocates an image
    pose = tmp_path / "pose.txt"
    lines = (pipeline / "pose.txt").read_text().splitlines()
    pose.write_text("\n".join(lines[:-1] + ["size 4294967295 4294967295"]) + "\n")
    rc = run("eval", "--model", model_file, "--gt-coeffs", pipeline / "gt.bin",
             "--ief-coeffs", pipeline / "gt.bin", "--pose-file", pose,
             "--out", tmp_path / "ev")
    assert rc == 1
    assert_one_line_error(capsys, pose)
    assert not (tmp_path / "ev").exists()


NUMPY_MESSAGE = ("Unable to allocate 2.00 TiB for an array with shape "
                 "(274877906944,) and data type float64")
ALLOCATION_FAILURES = [(MemoryError(NUMPY_MESSAGE), NUMPY_MESSAGE),
                       (MemoryError(), "out of memory")]


def fail_to_allocate(monkeypatch, exc):
    """Make the first raster of a sample raise `exc` instead of allocating a
    buffer as large as the image size asks for."""
    from synthface import datagen

    def rasterize(*args):
        raise exc
    monkeypatch.setattr(datagen, "rasterize", rasterize)


@pytest.mark.parametrize("command, exc, message", [
    (command, exc, message) for command in ONE_SAMPLE
    for exc, message in ALLOCATION_FAILURES],
    ids=["numpy", "bare", "eval_inputs_numpy", "eval_inputs_bare"])
def test_datagen_out_of_memory_is_one_line(tmp_path, model_file, capsys,
                                           monkeypatch, command, exc, message):
    fail_to_allocate(monkeypatch, exc)
    out = tmp_path / "d"
    rc = run(command, "--model", model_file, "--out", out, *ONE_SAMPLE[command],
             "--width", 524288, "--height", 524288)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_datagen_without_a_covering_pose_is_one_line(tmp_path, model_file,
                                                    capsys, empty_face_raster):
    # generate_sample's RuntimeError once every pose draw is rejected
    out = tmp_path / "d"
    rc = run("datagen", "--model", model_file, "--out", out, "--count", 1,
             "--width", 16, "--height", 16)
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: no non-degenerate pose found in {MAX_POSE_RETRIES} attempts\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_datagen_failure_removes_the_directory_it_made(tmp_path, model_file,
                                                       capsys, monkeypatch,
                                                       workers):
    fail_to_allocate(monkeypatch, MemoryError())
    for out, kept in ((tmp_path / "new", False), (tmp_path / "empty", True)):
        if kept:
            out.mkdir()
        rc = run("datagen", "--model", model_file, "--out", out, "--count", 2,
                 "--width", 16, "--height", 16, "--workers", workers)
        assert rc == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        # an empty directory that was there before is the caller's to keep
        assert out.exists() == kept
        assert not kept or not any(out.iterdir())


def test_eval_failing_heatmap_writes_no_output(tmp_path, model_file, pipeline,
                                               capsys, monkeypatch):
    from synthface import evaluate
    original, rasters = evaluate.rasterize, []

    def rasterize(*args):
        rasters.append(args)    # the IEF heatmap renders, the landmark one fails
        if len(rasters) == 2:
            raise MemoryError()
        return original(*args)
    monkeypatch.setattr(evaluate, "rasterize", rasterize)
    rc = run("eval", "--model", model_file, "--gt-coeffs", pipeline / "gt.bin",
             "--ief-coeffs", pipeline / "gt.bin",
             "--pose-file", pipeline / "pose.txt", "--out", tmp_path / "ev")
    assert rc == 1 and len(rasters) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not (tmp_path / "ev").exists()


def test_eval_inputs_writes_the_sample_of_its_seed(tmp_path, model_file):
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert run("eval-inputs", "--model", model_file, "--out", out,
               "--seed", 99, "--width", 48, "--height", 32) == 0
    model = load_model(model_file)
    s = generate_sample(rng_for_sample(99, 0), model, 48, 32)
    ref.mkdir()
    write_pgm(ref / "face.pgm", s.face_image)
    save_pose(ref / "pose.txt", s.pose, 48, 32)
    save_coeff_vector(ref / "gt.bin", s.alpha_gt.vector)
    assert sorted(os.listdir(out)) == sorted(os.listdir(ref))
    for name in os.listdir(ref):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_eval_inputs_writes_pose_size(tmp_path, model_file):
    assert run("eval-inputs", "--model", model_file, "--out", tmp_path,
               "--width", 48, "--height", 32) == 0
    assert load_pose(tmp_path / "pose.txt")[1] == (48, 32)


def test_eval_inputs_corrupt_model_names_file(tmp_path, model_file, capsys):
    bad = tmp_path / "corrupt.mfm"
    bad.write_bytes(model_file.read_bytes()[:-4] + struct.pack("<I", 5000))
    assert run("eval-inputs", "--model", bad, "--out", tmp_path / "out") == 1
    assert_one_line_error(capsys, bad)


def test_eval_inputs_rejects_model_without_landmarks(tmp_path, model_file, capsys):
    bare = tmp_path / "bare.mfm"
    data = model_file.read_bytes()
    bare.write_bytes(data[:data.rfind(b"LMK1")])
    assert run("eval-inputs", "--model", bare, "--out", tmp_path / "out") == 1
    assert_one_line_error(capsys, bare)
    assert not (tmp_path / "out").exists()


def test_train_has_no_iterations_flag(capsys):
    """Values a file records or the pipeline fixes are not command-line options."""
    for sub, flags in (("train", ["--iterations", "--downsample"]),
                       ("reconstruct", ["--iterations", "--downsample"]),
                       ("eval", ["--width", "--height", "--ridge",
                                 "--landmarks-file"])):
        with pytest.raises(SystemExit):
            run(sub, "--help")
        out = capsys.readouterr().out
        assert not [flag for flag in flags if flag in out], sub


def test_help_lists_flags(capsys):
    for sub in ("model-gen", "datagen", "eval-inputs", "train", "reconstruct",
                "eval"):
        with pytest.raises(SystemExit) as exc:
            run(sub, "--help")
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out
