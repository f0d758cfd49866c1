"""Prepare the inputs the `reconstruct` and `eval` commands need.

Synthesizes one held-out test face from a model file and writes:
  face.pgm        masked grayscale face image
  pose.txt        the ground-truth pose used to render it, with the image size
  landmarks.txt   projected ground-truth landmark annotations
  gt.bin          ground-truth geometry coefficients

Usage:
  python demos/make_eval_inputs.py --model model.mfm --out eval_inputs \
      --seed 123 --width 64 --height 64

A malformed input prints one `error: <file>: <reason>` line and exits 1,
as the `synthface` commands do.
"""

import argparse
import os
import sys

from synthface import defaults
from synthface.datagen import generate_sample, rng_for_sample, save_coeff_vector
from synthface.evaluate import project_landmarks, save_landmarks
from synthface.image_io import write_pgm
from synthface.mesh_io import save_pose
from synthface.model_io import load_model


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--width", type=int, default=defaults.IMAGE_WIDTH)
    parser.add_argument("--height", type=int, default=defaults.IMAGE_HEIGHT)
    args = parser.parse_args()

    model = load_model(args.model)
    sample = generate_sample(rng_for_sample(args.seed, 0), model,
                             args.width, args.height)
    os.makedirs(args.out, exist_ok=True)
    write_pgm(os.path.join(args.out, "face.pgm"), sample.face_image)
    save_pose(os.path.join(args.out, "pose.txt"), sample.pose,
              args.width, args.height)
    save_coeff_vector(os.path.join(args.out, "gt.bin"),
                      sample.alpha_gt.vector)
    landmarks = project_landmarks(model, sample.alpha_gt, sample.pose,
                                  args.width, args.height,
                                  model.landmark_indices)
    save_landmarks(os.path.join(args.out, "landmarks.txt"), landmarks)
    print(f"wrote face.pgm, pose.txt, gt.bin, landmarks.txt to {args.out}")


if __name__ == "__main__":
    try:
        main()
    except (ValueError, OSError, RuntimeError) as exc:
        sys.exit(f"error: {exc}")
