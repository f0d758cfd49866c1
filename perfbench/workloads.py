"""The three benchmark workloads, their output checks and their trace layout.

Each workload is a closed loop from one client: the next operation starts
when the previous one has returned.  Inputs are made from the seed in
set-up; the timed loop only calls the library.  An *item* is what
`error_rate` counts: one sample (datagen), one train pass (train) or one
image (ief).  An *op* is what one latency measures: one `generate_dataset`
call of `Sizes.batch` samples, one train pass, or one image.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import statistics
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# The timed loops call the library through its modules (`datagen.generate_dataset`),
# so that the traced run reaches the stand-ins that `instrument` patches in.
from synthface import datagen, evaluate, image_io, model, model_io, reconstruct, render
from synthface.datagen import generate_dataset, load_manifest, rng_for_sample
from synthface.evaluate import project_landmarks
from synthface.model import GeometryCoefficients, build_procedural_model, geometry_loss
from synthface.model_io import model_digest
from synthface.reconstruct import IEFConfig, load_predictor, train_linear_predictor

from tracer import net_durations, self_times

NPROC = len(os.sched_getaffinity(0))
# The model is the system's configuration, not an input: one fixed model keeps
# its random basis from adding seed-to-seed spread.  --seed makes the samples.
MODEL_SEED = 1


# The dataset sizes follow the README's pipeline, which generates 300
# samples (`synthface datagen --count 300`) and trains on them.
README_COUNT = 300


@dataclass(frozen=True)
class Sizes:
    size: int = 200                      # image width and height
    model: tuple = (200, 84, 200, 48)    # n_id, n_exp, n_tex, grid: datagen, train
    ief_model: tuple = (30, 10, 30, 48)
    batch: int = README_COUNT            # samples per generate_dataset call
    train_count: int = README_COUNT      # samples in the train-200 dataset
    held_out: int = 500                  # ief-200 images
    ief_train: int = README_COUNT        # samples the ief-200 predictor learns from
    quality_images: int = 100            # ief images the quality numbers average
    builds: int = 3                      # model builds in set-up; setup_s takes the median
    workers: int = NPROC


@dataclass
class Outcome:
    latencies: list          # seconds per op, checks excluded
    items: int
    failed: int
    build_s: float           # median model build
    setup_s: float           # median build plus the rest of set-up
    workers: int = 1         # processes the timed loop ran on
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)


def derive_seed(seed: int, tag: str, k: int = 0) -> int:
    """Independent master seed for input set `tag`, number `k`."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode()), k])
    return int(ss.generate_state(1)[0])


def build_model(dims, builds: int):
    times = []
    for _ in range(builds):
        t0 = time.perf_counter()
        m = build_procedural_model(MODEL_SEED, *dims)
        times.append(time.perf_counter() - t0)
    return m, statistics.median(times)


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _fail(what: str, exc: BaseException) -> None:
    print(f"perfbench: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Instrumentation: every layer the workloads drive, patched from outside

def candidate_pixels(mesh, pose, width: int, height: int) -> int:
    """Pixels in the clipped bounding boxes of the non-degenerate triangles."""
    pts, _ = render.project_vertices(mesh, pose, width, height)
    x = pts[mesh.triangles, 0]
    y = pts[mesh.triangles, 1]
    area2 = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) \
        - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0])
    ix0 = np.clip(np.ceil(x.min(axis=1) - 0.5), 0, width)
    ix1 = np.clip(np.floor(x.max(axis=1) - 0.5), -1, width - 1)
    iy0 = np.clip(np.ceil(y.min(axis=1) - 0.5), 0, height)
    iy1 = np.clip(np.floor(y.max(axis=1) - 0.5), -1, height - 1)
    boxes = np.maximum(ix1 - ix0 + 1, 0) * np.maximum(iy1 - iy0 + 1, 0)
    return int(boxes[area2 != 0].sum())


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def instrument(tracer) -> None:
    """Patch every traced library function; `tracer.unpatch()` undoes it."""
    ief_state = {"renders": 0, "iterations": 0}

    def raster_name(args, kwargs):
        colors = _arg(args, kwargs, 1, "colors")
        return "render.rasterize_rgb" if np.ndim(colors) == 2 \
            else "render.rasterize_gray"

    def after_raster(args, kwargs, out):
        mesh, colors, pose = (_arg(args, kwargs, i, n)
                              for i, n in enumerate(("mesh", "colors", "pose")))
        width, height = _arg(args, kwargs, 3, "width"), _arg(args, kwargs, 4, "height")
        tracer.count("render.rasterize.calls")
        tracer.count("render.rasterize.bbox_px",
                     candidate_pixels(mesh, pose, width, height))
        tracer.count("render.rasterize.covered_px", int(out.mask.sum()))
        if np.ndim(colors) == 1 and tracer.inside("reconstruct.ief_reconstruct"):
            ief_state["renders"] += 1
            tracer.count("reconstruct.ief_renders")
            # renders 1..iterations feed the loop; the last one is the final render
            if ief_state["renders"] <= ief_state["iterations"] and not out.mask.any():
                tracer.count("reconstruct.empty_mask_renders")

    def file_bytes(counter):
        def after(args, kwargs, _):
            tracer.count(counter, os.path.getsize(args[0]))
        return after

    traced_ief = tracer.wrap(reconstruct.ief_reconstruct, "reconstruct.ief_reconstruct")

    def ief_entry(*args, **kwargs):
        config = _arg(args, kwargs, 4, "config") or IEFConfig()
        ief_state.update(renders=0, iterations=config.iterations)
        return traced_ief(*args, **kwargs)

    original_pose = render.sample_pose

    def counted_pose(*args, **kwargs):
        tracer.count("datagen.pose_attempts")
        return original_pose(*args, **kwargs)

    plain = {
        render.compute_vertex_normals: "render.compute_vertex_normals",
        render.phong_shade: "render.phong_shade",
        model.synthesize_geometry: "model.synthesize_geometry",
        model.synthesize_texture: "model.synthesize_texture",
        datagen.generate_sample: "datagen.generate_sample",
        datagen.generate_dataset: "datagen.generate_dataset",
        datagen.load_dataset: "datagen.load_dataset",
        datagen.load_manifest: "datagen.load_manifest",
        model_io.model_digest: "model_io.model_digest",
        reconstruct.train_linear_predictor: "reconstruct.train_linear_predictor",
        reconstruct.extract_features: "reconstruct.extract_features",
        reconstruct.save_predictor: "reconstruct.save_predictor",
        evaluate.landmark_fit: "evaluate.landmark_fit",
        evaluate.optimal_similarity_align: "evaluate.optimal_similarity_align",
        evaluate.pointwise_error: "evaluate.pointwise_error",
    }
    for fn, name in plain.items():
        tracer.patch(fn, tracer.wrap(fn, name))
    tracer.patch(render.rasterize,
                 tracer.wrap(render.rasterize, raster_name, after_raster))
    tracer.patch(image_io.write_pgm, tracer.wrap(
        image_io.write_pgm, "image_io.write_pgm", file_bytes("datagen.bytes_written")))
    tracer.patch(datagen.save_sample_coeffs, tracer.wrap(
        datagen.save_sample_coeffs, "datagen.save_sample_coeffs",
        file_bytes("datagen.bytes_written")))
    tracer.patch(image_io.read_pgm, tracer.wrap(
        image_io.read_pgm, "image_io.read_pgm", file_bytes("datagen.bytes_read")))
    tracer.patch(datagen.load_sample_coeffs, tracer.wrap(
        datagen.load_sample_coeffs, "datagen.load_sample_coeffs",
        file_bytes("datagen.bytes_read")))
    tracer.patch(render.sample_pose, counted_pose)
    tracer.patch(reconstruct.ief_reconstruct, ief_entry)
    tracer.patch_attr(reconstruct.LinearPredictor, "__call__", tracer.wrap(
        reconstruct.LinearPredictor.__call__, "reconstruct.predict"))


@contextmanager
def traced(tracer):
    if tracer is None:
        yield
        return
    instrument(tracer)
    try:
        yield
    finally:
        tracer.unpatch()
        tracer.collect()


def timed_loop(seconds: float, tracer=None, min_ops: int = 1):
    """Yield op numbers until `seconds` have passed and `min_ops` ops ran."""
    start = time.perf_counter()
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = k
        yield k
        k += 1


# ---------------------------------------------------------------------------
# datagen-200: the write path

def run_datagen(seed: int, seconds: float, sizes: Sizes, tmp: str,
                tracer=None) -> Outcome:
    if tracer is not None and multiprocessing.get_start_method() != "fork":
        # Only forked workers inherit the patched library and the tracer.
        raise RuntimeError("traced datagen needs the fork start method")
    m, build_s = build_model(sizes.model, sizes.builds)
    t0 = time.perf_counter()
    warm = os.path.join(tmp, "warm")
    generate_dataset(derive_seed(seed, "warm"), m, sizes.workers, warm,
                     sizes.size, sizes.size, workers=sizes.workers)
    shutil.rmtree(warm)
    out = Outcome([], 0, 0, build_s, build_s + time.perf_counter() - t0,
                  workers=sizes.workers)
    calls = []
    with traced(tracer):
        for k in timed_loop(seconds, tracer):
            master, path = derive_seed(seed, "datagen", k), os.path.join(tmp, f"call{k}")
            t0 = time.perf_counter()
            try:
                datagen.generate_dataset(master, m, sizes.batch, path, sizes.size,
                                         sizes.size, workers=sizes.workers)
            except Exception as exc:        # counted, and the loop goes on
                _fail(f"generate_dataset call {k}", exc)
                out.failed += sizes.batch
            else:
                calls.append((master, path))
            out.latencies.append(time.perf_counter() - t0)
            out.items += sizes.batch

    digest = model_digest(m)
    for master, path in calls:
        try:
            samples = datagen.load_dataset(path, m)
            manifest = load_manifest(os.path.join(path, "manifest.txt"))
            good = (len(samples) == sizes.batch == manifest.count
                    and manifest.model_hash == digest)
        except Exception as exc:
            _fail(f"reloading {os.path.basename(path)}", exc)
            good = False
        if not good:
            out.failed += sizes.batch
    if calls:
        master, path = calls[0]
        out.failed += _regenerate_mismatches(m, master, path, sizes,
                                             os.path.join(tmp, "regen"))
        out.digests["dataset"] = dir_digest(path)
    return out


def _regenerate_mismatches(m, master: int, path: str, sizes: Sizes,
                           scratch: str, count: int = 3) -> int:
    """Samples the pool wrote that differ from an in-process regeneration."""
    os.makedirs(scratch, exist_ok=True)
    bad = 0
    entries = load_manifest(os.path.join(path, "manifest.txt")).entries
    for i, *names in entries[:count]:
        sample = datagen.generate_sample(rng_for_sample(master, i), m, sizes.size,
                                         sizes.size, sample_id=i)
        image_io.write_pgm(os.path.join(scratch, names[0]), sample.face_image)
        image_io.write_pgm(os.path.join(scratch, names[1]), sample.shading_image)
        datagen.save_sample_coeffs(os.path.join(scratch, names[2]), sample)
        for name in names:
            with open(os.path.join(path, name), "rb") as a, \
                    open(os.path.join(scratch, name), "rb") as b:
                if a.read() != b.read():
                    print(f"perfbench: {name} differs from its regeneration",
                          file=sys.stderr)
                    bad += 1
                    break
    return bad


# ---------------------------------------------------------------------------
# train-200: the read path, no rendering

def run_train(seed: int, seconds: float, sizes: Sizes, tmp: str,
              tracer=None) -> Outcome:
    m, build_s = build_model(sizes.model, sizes.builds)
    t0 = time.perf_counter()
    data = os.path.join(tmp, "data")
    generate_dataset(derive_seed(seed, "train"), m, sizes.train_count, data,
                     sizes.size, sizes.size, workers=sizes.workers)
    out = Outcome([], 0, 0, build_s, build_s + time.perf_counter() - t0)
    config = IEFConfig(width=sizes.size, height=sizes.size)
    path = os.path.join(tmp, "predictor.prd")

    with traced(tracer):
        for k in timed_loop(seconds, tracer):
            out.items += 1
            t0 = time.perf_counter()
            try:
                samples = datagen.load_dataset(data, m)
                predictor = reconstruct.train_linear_predictor(samples, m, config)
                reconstruct.save_predictor(path, predictor)
            except Exception as exc:        # counted, and the loop goes on
                _fail(f"train pass {k}", exc)
                predictor = None
            out.latencies.append(time.perf_counter() - t0)
            samples = None
            if predictor is None or not _round_trips(predictor, path, out.digests):
                out.failed += 1
    return out


def _round_trips(predictor, path: str, digests: dict) -> bool:
    """The saved predictor loads back bit-identically, the same every pass."""
    back = load_predictor(path)
    same = all(a.shape == b.shape and a.dtype == b.dtype
               and a.tobytes() == b.tobytes()
               for a, b in ((predictor.weight, back.weight),
                            (predictor.bias, back.bias)))
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    first = digests.setdefault("predictor", digest)
    if not same or digest != first:
        print("perfbench: predictor does not round-trip bit-identically",
              file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# ief-200: held-out reconstruction and evaluation, gray renders, no file I/O

def run_ief(seed: int, seconds: float, sizes: Sizes, tmp: str,
            tracer=None) -> Outcome:
    m, build_s = build_model(sizes.ief_model, sizes.builds)
    t0 = time.perf_counter()
    held_dir, fit_dir = os.path.join(tmp, "held"), os.path.join(tmp, "fit")
    generate_dataset(derive_seed(seed, "held"), m, sizes.held_out, held_dir,
                     sizes.size, sizes.size, workers=sizes.workers)
    generate_dataset(derive_seed(seed, "fit"), m, sizes.ief_train, fit_dir,
                     sizes.size, sizes.size, workers=sizes.workers)
    held = _held_out(held_dir, m)
    config = IEFConfig(width=sizes.size, height=sizes.size)
    predictor = train_linear_predictor(datagen.load_dataset(fit_dir, m), m, config)
    lmk10 = m.landmark_indices[::7][:10]
    landmarks = [project_landmarks(m, alpha_gt, pose, sizes.size, sizes.size, lmk10)
                 for _, pose, alpha_gt in held]
    out = Outcome([], 0, 0, build_s, build_s + time.perf_counter() - t0)

    losses, errors, baseline = [], [], []
    iterate_hash = hashlib.sha256()
    with traced(tracer):
        for k in timed_loop(seconds, tracer, min_ops=sizes.quality_images):
            i = k % len(held)
            face, pose, alpha_gt = held[i]
            out.items += 1
            t0 = time.perf_counter()
            try:
                res = reconstruct.ief_reconstruct(face, pose, predictor, m, config)
                gt = model.synthesize_geometry(m, alpha_gt)
                final = model.synthesize_geometry(m, res.final_coefficients(m))
                error = evaluate.pointwise_error(
                    evaluate.optimal_similarity_align(final, gt)[1], gt).mean
                fit = evaluate.landmark_fit(landmarks[i], pose, m, sizes.size, sizes.size)
                base = evaluate.pointwise_error(evaluate.optimal_similarity_align(
                    model.synthesize_geometry(m, fit), gt)[1], gt).mean
            except Exception as exc:        # counted, and the loop goes on
                _fail(f"image {i}", exc)
                res = None
            out.latencies.append(time.perf_counter() - t0)
            if res is None:
                out.failed += 1
                continue
            iterates = np.stack(res.iterates)
            if not np.isfinite(iterates).all():
                print(f"perfbench: image {i} has a non-finite iterate",
                      file=sys.stderr)
                out.failed += 1
                continue
            if k < sizes.quality_images:
                iterate_hash.update(iterates.tobytes())
                losses.append(geometry_loss(
                    m, GeometryCoefficients.from_vector(iterates[-1], m.n_id),
                    alpha_gt))
                errors.append(error)
                baseline.append(base)
    out.digests["iterates"] = iterate_hash.hexdigest()
    if losses:
        out.quality = {"ief_loss_final": float(np.mean(losses)),
                       "ief_vertex_err_mean": float(np.mean(errors)),
                       "landmark10_vertex_err_mean": float(np.mean(baseline)),
                       "images": len(losses)}
    return out


def _held_out(path: str, m) -> list:
    """(face image, pose, alpha_gt) per sample; the shading images are not kept."""
    held = []
    for _, face_f, _, coeff_f in load_manifest(os.path.join(path, "manifest.txt")).entries:
        _, alpha_gt, pose, _ = datagen.load_sample_coeffs(os.path.join(path, coeff_f),
                                                          m.n_id)
        held.append((image_io.read_pgm(os.path.join(path, face_f)), pose, alpha_gt))
    return held


WORKLOADS = {"datagen-200": run_datagen, "train-200": run_train, "ief-200": run_ief}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans and counters of one traced run

def layer_metrics(tracer, out: Outcome) -> dict:
    """Every per-layer metric; a layer the workload does not drive reads 0.

    Times and counts are per item (sample, train pass or image) so that runs
    of different length compare; `ms_p50` is the median single call.  The
    tracer's own time is left out of every span (see `tracer.net_durations`).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    net = net_durations(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    items = max(out.items, 1)
    c = tracer.counters

    def calls(name):
        return len(by_name.get(name, ())) / items

    def self_ms(*names):
        return 1e3 * sum(selfs[s["id"]] for n in names
                         for s in by_name.get(n, ())) / items

    def p50_ms(name):
        durs = [net[s["id"]] for s in by_name.get(name, ())]
        return 1e3 * statistics.median(durs) if durs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    train_ids = {s["id"] for s in by_name.get("reconstruct.train_linear_predictor", ())}
    features_in_train = sum(net[s["id"]]
                            for s in by_name.get("reconstruct.extract_features", ())
                            if s["parent"] in train_ids)
    # Worker time in spans, and the tracer's own time in the workers, which
    # an untraced run would not spend at all.
    busy = hidden = slots = 0.0
    for g in by_name.get("datagen.generate_dataset", ()):
        slots += out.workers * (g["end"] - g["start"])
        for s in spans:
            if s["parent"] == g["id"] and s["pid"] != g["pid"]:
                busy += net[s["id"]]
                hidden += (s["end"] - s["start"]) - net[s["id"]] + s["tail_s"]
    rasters = c["render.rasterize.calls"]
    ief_calls = len(by_name.get("reconstruct.ief_reconstruct", ()))

    metrics = {
        "render.rasterize_rgb.calls": calls("render.rasterize_rgb"),
        "render.rasterize_rgb.self_ms": self_ms("render.rasterize_rgb"),
        "render.rasterize_rgb.ms_p50": p50_ms("render.rasterize_rgb"),
        "render.rasterize_gray.calls": calls("render.rasterize_gray"),
        "render.rasterize_gray.self_ms": self_ms("render.rasterize_gray"),
        "render.rasterize_gray.ms_p50": p50_ms("render.rasterize_gray"),
        "render.rasterize.bbox_px": ratio(c["render.rasterize.bbox_px"], rasters),
        "render.rasterize.covered_px": ratio(c["render.rasterize.covered_px"], rasters),
        "render.rasterize.coverage_ratio": ratio(c["render.rasterize.covered_px"],
                                                 c["render.rasterize.bbox_px"]),
        "render.compute_vertex_normals.self_ms": self_ms("render.compute_vertex_normals"),
        "render.phong_shade.self_ms": self_ms("render.phong_shade"),
        "model.synthesize_geometry.calls": calls("model.synthesize_geometry"),
        "model.synthesize_geometry.self_ms": self_ms("model.synthesize_geometry"),
        "model.synthesize_texture.self_ms": self_ms("model.synthesize_texture"),
        "model.build_s": out.build_s,
        "datagen.generate_sample.calls": calls("datagen.generate_sample"),
        "datagen.generate_sample.ms_p50": p50_ms("datagen.generate_sample"),
        "datagen.pose_attempts": c["datagen.pose_attempts"] / items,
        "datagen.pose_accept_ratio": ratio(len(by_name.get("datagen.generate_sample", ())),
                                           c["datagen.pose_attempts"]),
        "datagen.write.self_ms": self_ms("image_io.write_pgm", "datagen.save_sample_coeffs"),
        "datagen.bytes_written": c["datagen.bytes_written"] / items,
        "datagen.pool.wait_frac": ratio(slots - hidden - busy, slots - hidden),
        "datagen.load_manifest.self_ms": self_ms("datagen.load_manifest"),
        "datagen.load_sample_coeffs.self_ms": self_ms("datagen.load_sample_coeffs"),
        "image_io.read_pgm.self_ms": self_ms("image_io.read_pgm"),
        "datagen.bytes_read": c["datagen.bytes_read"] / items,
        "model_io.model_digest.self_ms": self_ms("model_io.model_digest"),
        "reconstruct.train.features_ms": 1e3 * features_in_train / items,
        "reconstruct.train.solve_ms": self_ms("reconstruct.train_linear_predictor"),
        "reconstruct.ief_reconstruct.ms_p50": p50_ms("reconstruct.ief_reconstruct"),
        "reconstruct.renders_per_image": ratio(c["reconstruct.ief_renders"], ief_calls),
        "reconstruct.empty_mask_renders": ratio(c["reconstruct.empty_mask_renders"],
                                                ief_calls),
        "reconstruct.extract_features.self_ms": self_ms("reconstruct.extract_features"),
        "reconstruct.predict.self_ms": self_ms("reconstruct.predict"),
        "evaluate.landmark_fit.ms_p50": p50_ms("evaluate.landmark_fit"),
        "evaluate.optimal_similarity_align.ms_p50": p50_ms("evaluate.optimal_similarity_align"),
        "evaluate.pointwise_error.ms_p50": p50_ms("evaluate.pointwise_error"),
        "quality.ief_loss_final": out.quality.get("ief_loss_final", 0.0),
        "quality.ief_vertex_err_mean": out.quality.get("ief_vertex_err_mean", 0.0),
        "trace.overhead_frac": ratio(tracer.overhead_s, sum(out.latencies) * out.workers),
    }
    return metrics
