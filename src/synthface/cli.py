"""Command-line front-end for the synthesis / reconstruction pipeline.

Subcommands: model-gen, datagen, train, reconstruct, eval, defaults.
Every seeded command is bytewise reproducible; all subcommands exit 0 on
success and nonzero with a one-line diagnostic on failure.  Every malformed
input file ends in ``error: <file>: <reason>`` and exit 1 (`image_io.names_file`).
`reconstruct` takes the image size from the predictor and rejects an image,
pose or model other than its own; `eval` takes the size from the pose.
Pooling and the iteration count are fixed (`defaults`), not options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import defaults
from .datagen import (generate_dataset, load_coeff_vector, load_dataset,
                      save_coeff_vector)
from .evaluate import (format_report, landmark_fit, load_landmarks,
                       error_heatmap, optimal_similarity_align, pointwise_error)
from .image_io import check_size, read_pgm, write_pgm, write_ppm
from .mesh_io import load_pose, save_off
from .model import (GeometryCoefficients, build_procedural_model,
                    synthesize_geometry)
from .model_io import check_coeffs, check_model, load_model, save_model
from .reconstruct import (IEFConfig, ief_reconstruct, load_predictor,
                          pooled_config, save_predictor, train_linear_predictor)


def _cmd_model_gen(args) -> int:
    model = build_procedural_model(args.seed, args.n_id, args.n_exp,
                                   args.n_tex, args.grid)
    save_model(model, args.out)
    print(f"wrote {args.out}: N={model.n_vertices} M={model.triangles.shape[0]} "
          f"n_id={model.n_id} n_exp={model.n_exp} n_tex={model.n_tex}")
    return 0


def _cmd_datagen(args) -> int:
    model = load_model(args.model)
    manifest = generate_dataset(args.seed, model, args.count, args.out,
                                width=args.width, height=args.height,
                                workers=args.workers)
    print(f"wrote {manifest.count} samples to {args.out} "
          f"(manifest: {os.path.join(args.out, 'manifest.txt')})")
    return 0


def _cmd_train(args) -> int:
    model = load_model(args.model)
    samples = load_dataset(args.dataset, model)
    h, w = samples[0].face_image.shape
    config = pooled_config(os.path.join(args.dataset, "manifest.txt"), w, h)
    predictor = train_linear_predictor(samples, model, config,
                                       ridge_lambda=args.ridge)
    save_predictor(args.out, predictor)
    print(f"wrote {args.out}: feature_dim={config.feature_dim} "
          f"n_coeffs={predictor.n_coeffs} ridge={args.ridge}")
    return 0


def _cmd_reconstruct(args) -> int:
    model = load_model(args.model)
    predictor = load_predictor(args.predictor)
    check_model(args.predictor, predictor.model_digest, model)
    check_coeffs(args.predictor, predictor.n_coeffs, model)
    image = read_pgm(args.image)
    size = image.shape[::-1]
    check_size(args.image, size, (predictor.width, predictor.height),
               args.predictor)
    pose, pose_size = load_pose(args.pose_file)
    check_size(args.pose_file, pose_size, size, args.image)
    config = IEFConfig(width=predictor.width, height=predictor.height)
    result = ief_reconstruct(image, pose, predictor, model, config)
    os.makedirs(args.out, exist_ok=True)
    save_coeff_vector(os.path.join(args.out, "coefficients.bin"),
                      result.iterates[-1])
    save_off(os.path.join(args.out, "mesh.off"), result.final_mesh)
    write_pgm(os.path.join(args.out, "shading.pgm"), result.final_shading)
    print(f"wrote coefficients.bin, mesh.off, shading.pgm to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    pose, (width, height) = load_pose(args.pose_file)
    landmarks = load_landmarks(args.landmarks_file, model.n_vertices)
    paths = (args.gt_coeffs, args.ief_coeffs)
    gt, ief = (GeometryCoefficients.from_vector(load_coeff_vector(path), model.n_id)
               for path in paths)
    for path, coeffs in zip(paths, (gt, ief)):
        check_coeffs(path, coeffs.vector.size, model)
    baseline = landmark_fit(landmarks, pose, model, width, height)

    # every report and heatmap is made before --out, so a failure writes nothing
    gt_mesh = synthesize_geometry(model, gt)
    rows = []
    for label, coeffs in (("ief", ief), ("landmark", baseline)):
        mesh = synthesize_geometry(model, coeffs)
        _, aligned = optimal_similarity_align(mesh, gt_mesh)
        report = pointwise_error(aligned, gt_mesh)
        rows.append((label, report, error_heatmap(mesh, report, pose, width, height)))

    os.makedirs(args.out, exist_ok=True)
    table = f"{'method':<12} {'mean':>12} {'median':>12} {'rms':>12}\n"
    for label, report, heat in rows:
        with open(os.path.join(args.out, f"report_{label}.txt"), "w") as f:
            f.write(format_report(report, label))
        write_ppm(os.path.join(args.out, f"heatmap_{label}.ppm"), heat)
        table += (f"{label:<12} {report.mean:>12.6g} "
                  f"{report.median:>12.6g} {report.rms:>12.6g}\n")
    with open(os.path.join(args.out, "comparison.txt"), "w") as f:
        f.write(table)
    print(table, end="")
    print(f"wrote reports and heatmaps to {args.out}")
    return 0


def _cmd_defaults(args) -> int:
    print(json.dumps(defaults.default_config(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthface",
        description="Synthetic face data generation, iterative reconstruction "
                    "and evaluation on a linear morphable model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model-gen", help="build a procedural morphable model")
    p.add_argument("--seed", type=int, default=0, help="builder seed (default 0)")
    p.add_argument("--n-id", type=int, default=defaults.N_ID, dest="n_id",
                   help=f"identity basis size (default {defaults.N_ID})")
    p.add_argument("--n-exp", type=int, default=defaults.N_EXP, dest="n_exp",
                   help=f"expression basis size (default {defaults.N_EXP})")
    p.add_argument("--n-tex", type=int, default=defaults.N_TEX, dest="n_tex",
                   help=f"texture basis size (default {defaults.N_TEX})")
    p.add_argument("--grid", type=int, default=defaults.GRID_RESOLUTION,
                   help=f"grid resolution (default {defaults.GRID_RESOLUTION})")
    p.add_argument("--out", required=True, help="output MFM1 model file")
    p.set_defaults(func=_cmd_model_gen)

    p = sub.add_parser("datagen", help="generate a training dataset")
    p.add_argument("--model", required=True, help="MFM1 model file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--width", type=int, default=defaults.IMAGE_WIDTH,
                   help=f"image width (default {defaults.IMAGE_WIDTH})")
    p.add_argument("--height", type=int, default=defaults.IMAGE_HEIGHT,
                   help=f"image height (default {defaults.IMAGE_HEIGHT})")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers; output bytes are identical for any "
                        "worker count (default 1)")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("train", help="train the linear predictor on a dataset")
    p.add_argument("--model", required=True, help="MFM1 model file")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output PRD4 predictor file")
    p.add_argument("--ridge", type=float, default=defaults.RIDGE_LAMBDA,
                   help=f"ridge strength (default {defaults.RIDGE_LAMBDA})")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("reconstruct",
                       help="iterative reconstruction of one image")
    p.add_argument("--model", required=True, help="MFM1 model file")
    p.add_argument("--predictor", required=True, help="PRD4 predictor file")
    p.add_argument("--image", required=True, help="input face image (PGM)")
    p.add_argument("--pose-file", required=True, dest="pose_file",
                   help="pose parameter text file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("eval",
                       help="compare a reconstruction against ground truth "
                            "and a landmark baseline")
    p.add_argument("--model", required=True, help="MFM1 model file")
    p.add_argument("--gt-coeffs", required=True, dest="gt_coeffs",
                   help="ground-truth coefficient file")
    p.add_argument("--ief-coeffs", required=True, dest="ief_coeffs",
                   help="reconstructed coefficient file")
    p.add_argument("--landmarks-file", required=True, dest="landmarks_file",
                   help="landmark annotation file (index x y per line)")
    p.add_argument("--pose-file", required=True, dest="pose_file",
                   help="pose parameter text file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("defaults",
                       help="print the default configuration as JSON")
    p.set_defaults(func=_cmd_defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
