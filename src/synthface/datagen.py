"""Synthetic training corpus generation.

Each sample pairs a rendered, masked grayscale face image (ground-truth
geometry alpha_gt) with the shading image of an intermediate geometry alpha_t
drawn between a random geometry and alpha_gt, both projected with the same
pose.  A sample holds both images as the 8-bit pixels its PGM files store.
Sample i uses an RNG stream derived from (master_seed, i), so the output
bytes are independent of generation order and worker count, and its files
are named by i, so a dataset's manifest lists no files.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import defaults
from .image_io import (check_image_size, check_size, names_file,
                       read_pgm, to_pixels, write_pgm)
from .model import (GeometryCoefficients, MorphableModel,
                    sample_geometry_coefficients, sample_texture_coefficients,
                    synthesize_geometry, synthesize_texture)
from .model_io import check_coeffs, check_model, model_digest
from .render import (LightingParams, PoseParams, compute_vertex_normals,
                     face_width_of, luminance, nominal_focal, phong_shade,
                     rasterize, render_shading_image, sample_lighting,
                     sample_pose)

MAX_POSE_RETRIES = 8


@dataclass
class TrainingSample:
    """One sample, its images held as (H, W) uint8 pixels.  `face_image` and
    `shading_image` give them as floats k/255, computed on each access."""
    face_pixels: np.ndarray     # zero outside the alpha_t mask
    shading_pixels: np.ndarray  # the alpha_t geometry's shading render
    alpha_t: GeometryCoefficients
    alpha_gt: GeometryCoefficients
    pose: PoseParams
    lighting: LightingParams
    sample_id: int

    face_image = property(lambda self: self.face_pixels / 255.0)
    shading_image = property(lambda self: self.shading_pixels / 255.0)


@dataclass
class DatasetManifest:
    """The five `key=value` lines of `manifest.txt`, in this order."""
    model_hash: str
    count: int
    width: int
    height: int
    master_seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        check_image_size(self.width, self.height)

    @property
    def entries(self) -> list:
        """(sample_id, face_file, shading_file, coeff_file) for each sample."""
        return [(i, *_sample_files(i)) for i in range(self.count)]


MANIFEST_KEYS = tuple(f.name for f in fields(DatasetManifest))


def sample_intermediate(rng: np.random.Generator,
                        alpha_gt: GeometryCoefficients) -> GeometryCoefficients:
    """alpha_t = u * alpha_gt + (1-u) * alpha_rand, u ~ Uniform[0,1]."""
    gt = alpha_gt.vector
    alpha_rand = rng.standard_normal(gt.shape[0])
    u = rng.uniform(0.0, 1.0)
    vec = u * gt + (1.0 - u) * alpha_rand
    return GeometryCoefficients.from_vector(vec, alpha_gt.alpha_id.shape[0])


def generate_sample(rng: np.random.Generator,
                    model: MorphableModel,
                    width: int = defaults.IMAGE_WIDTH,
                    height: int = defaults.IMAGE_HEIGHT,
                    sample_id: int = 0) -> TrainingSample:
    alpha_gt = sample_geometry_coefficients(rng, model)
    tcoeffs = sample_texture_coefficients(rng, model)
    alpha_t = sample_intermediate(rng, alpha_gt)
    lighting = sample_lighting(rng)

    mean_mesh = model.mean_mesh
    f0 = nominal_focal(mean_mesh, height)
    fw = face_width_of(mean_mesh)
    # the Phong-shaded face does not depend on the pose: only rasterize retries
    mesh_gt = synthesize_geometry(model, alpha_gt)
    albedo = np.clip(synthesize_texture(model, tcoeffs), 0.0, 1.0)
    # luminance is linear, so its raster is the RGB raster's luminance to the ulp
    face_gray = luminance(phong_shade(albedo, compute_vertex_normals(mesh_gt), lighting))
    mesh_t = synthesize_geometry(model, alpha_t)

    for _ in range(MAX_POSE_RETRIES):
        pose = sample_pose(rng, f0, fw)
        face_raster = rasterize(mesh_gt, face_gray, pose, width, height)
        shading_raster = render_shading_image(mesh_t, pose, width, height)
        if face_raster.mask.any() and shading_raster.mask.any():
            break
    else:
        raise RuntimeError(
            f"no non-degenerate pose found in {MAX_POSE_RETRIES} attempts")

    face = to_pixels(face_raster.image)
    face[~shading_raster.mask] = 0
    return TrainingSample(face, to_pixels(shading_raster.image), alpha_t,
                          alpha_gt, pose, lighting, sample_id)


def rng_for_sample(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, index]))


# ---------------------------------------------------------------------------
# Coefficient file: sequence of u32-length-prefixed float64 arrays
# (alpha_t, alpha_gt, pose [f, R row-major, t], lighting [ka kd ks shin, dir]).

def _write_arrays(path, arrays) -> None:
    with open(path, "wb") as f:
        for arr in arrays:
            arr = np.asarray(arr, dtype=np.float64).reshape(-1)
            f.write(struct.pack("<I", arr.shape[0]))
            f.write(arr.astype("<f8").tobytes())


def _read_arrays(path):
    with open(path, "rb") as f:
        data = f.read()
    arrays = []
    pos = 0
    while pos < len(data):
        if len(data) - pos < 4:
            raise ValueError(f"truncated length prefix at byte {pos}")
        n = struct.unpack_from("<I", data, pos)[0]
        pos += 4
        if len(data) - pos < 8 * n:
            raise ValueError(f"array {len(arrays)} declares {n} values "
                             f"({8 * n} bytes) but {len(data) - pos} bytes remain")
        arrays.append(np.frombuffer(data, dtype="<f8", count=n, offset=pos).copy())
        pos += 8 * n
    return arrays


def save_coeff_vector(path, vec: np.ndarray) -> None:
    """Single coefficient vector in the length-prefixed float64 format."""
    _write_arrays(path, [vec])


@names_file
def load_coeff_vector(path) -> np.ndarray:
    arrays = _read_arrays(path)
    if len(arrays) != 1:
        raise ValueError(f"expected one coefficient array, found {len(arrays)}")
    if not np.isfinite(arrays[0]).all():    # no type checks a bare array
        raise ValueError("coefficients contain non-finite values")
    return arrays[0]


def save_sample_coeffs(path, sample: TrainingSample) -> None:
    pose_vec = np.concatenate([[sample.pose.f],
                               sample.pose.rotation.reshape(-1),
                               sample.pose.translation])
    light = sample.lighting
    light_vec = np.concatenate([[light.k_ambient, light.k_diffuse,
                                 light.k_specular, light.shininess],
                                light.light_dir])
    _write_arrays(path, [sample.alpha_t.vector, sample.alpha_gt.vector,
                         pose_vec, light_vec])


@names_file
def load_sample_coeffs(path, n_id: int):
    arrays = _read_arrays(path)
    sizes = [a.shape[0] for a in arrays]
    if len(sizes) != 4 or sizes[2:] != [13, 7]:
        raise ValueError(f"expected 4 arrays (alpha_t, alpha_gt, 13 pose "
                         f"and 7 lighting values), found lengths {sizes}")
    at, agt, pose_vec, light_vec = arrays
    pose = PoseParams(float(pose_vec[0]), pose_vec[1:10].reshape(3, 3), pose_vec[10:])
    lighting = LightingParams(*map(float, light_vec[:4]), light_vec[4:])
    return (GeometryCoefficients.from_vector(at, n_id),
            GeometryCoefficients.from_vector(agt, n_id),
            pose, lighting)


# ---------------------------------------------------------------------------
# Dataset directory

def _sample_files(i: int):
    return (f"sample_{i:06d}_face.pgm",
            f"sample_{i:06d}_shading.pgm",
            f"sample_{i:06d}_coeffs.bin")


def _generate_range(job, model=None):
    master_seed, indices, out_dir, width, height = job
    model = _worker_model if model is None else model
    for i in indices:
        sample = generate_sample(rng_for_sample(master_seed, i), model,
                                 width, height, sample_id=i)
        face_f, shade_f, coeff_f = _sample_files(i)
        write_pgm(os.path.join(out_dir, face_f), sample.face_pixels)
        write_pgm(os.path.join(out_dir, shade_f), sample.shading_pixels)
        save_sample_coeffs(os.path.join(out_dir, coeff_f), sample)


# Set only in pool workers, as each starts.  A forked worker inherits the model
# instead of unpickling it from its job, so the parent pickles no model.
_worker_model = None


def _init_worker(model) -> None:
    global _worker_model
    _worker_model = model


def generate_dataset(master_seed: int,
                     model: MorphableModel,
                     count: int,
                     out_dir,
                     width: int = defaults.IMAGE_WIDTH,
                     height: int = defaults.IMAGE_HEIGHT,
                     workers: int = 1) -> DatasetManifest:
    """Write `count` samples plus a manifest; bytes independent of `workers`."""
    manifest = DatasetManifest(model_digest(model), count, width, height,
                               master_seed)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    created = not os.path.exists(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    n_jobs = min(workers, count)    # a forked pool starts all workers up front
    jobs = [(master_seed, range(k, count, n_jobs), out_dir, width, height)
            for k in range(n_jobs)]
    try:
        if n_jobs > 1:
            with ProcessPoolExecutor(max_workers=n_jobs, initializer=_init_worker,
                                     initargs=(model,)) as pool:
                list(pool.map(_generate_range, jobs))
        else:
            _generate_range(jobs[0], model)
    except BaseException:   # a run that fails before its first file leaves none
        if created and not os.listdir(out_dir):
            os.rmdir(out_dir)
        raise

    save_manifest(os.path.join(out_dir, "manifest.txt"), manifest)
    return manifest


def save_manifest(path, manifest: DatasetManifest) -> None:
    with open(path, "w") as f:
        f.writelines(f"{key}={getattr(manifest, key)}\n"
                     for key in MANIFEST_KEYS)


@names_file
def load_manifest(path) -> DatasetManifest:
    """The header only; sample i's files are `_sample_files(i)` beside `path`,
    and `load_dataset` finds a missing one as it opens them."""
    header = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            key, sep, val = line.rstrip("\n").partition("=")
            if not sep or key not in MANIFEST_KEYS or key in header:
                raise ValueError(f"line {n} {line.rstrip()!r} is not one of "
                                 f"{', '.join(MANIFEST_KEYS)}, each once")
            header[key] = val
    missing = [key for key in MANIFEST_KEYS if key not in header]
    if missing:
        raise ValueError(f"missing header keys {', '.join(missing)}")
    return DatasetManifest(header["model_hash"],
                           *(int(header[key]) for key in MANIFEST_KEYS[1:]))


def load_dataset(dataset_dir, model: MorphableModel) -> list[TrainingSample]:
    path = os.path.join(dataset_dir, "manifest.txt")
    manifest = load_manifest(path)
    check_model(path, manifest.model_hash, model)
    samples = []
    for sid in range(manifest.count):   # lazily: a huge count stops at a gap
        face_f, shade_f, coeff_f = (os.path.join(dataset_dir, f)
                                    for f in _sample_files(sid))
        try:
            face, shading = read_pgm(face_f), read_pgm(shade_f)
            at, agt, pose, lighting = load_sample_coeffs(coeff_f, model.n_id)
        except FileNotFoundError as exc:
            raise ValueError(f"{path}: references missing file {exc.filename}") from None
        for f, image in ((face_f, face), (shade_f, shading)):
            check_size(f, image.shape[::-1], (manifest.width, manifest.height), path)
        for alpha in (at, agt):
            check_coeffs(coeff_f, alpha.alpha_id.size + alpha.alpha_exp.size, model)
        samples.append(TrainingSample(face, shading, at, agt, pose,
                                      lighting, sid))
    return samples
