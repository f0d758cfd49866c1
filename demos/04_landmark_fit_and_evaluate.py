"""Landmark-based fitting, Procrustes alignment and error heatmaps.

Fits geometry coefficients to projected 2D landmarks of a synthetic face,
aligns the result to the ground-truth mesh with the optimal similarity
transform, and renders a blue-to-red error heatmap.  With all 68 landmarks
the fit is nearly exact; restricted to 10 landmarks it can only recover
what those few constraints span.
"""

import os

import numpy as np

from synthface import (build_procedural_model, landmark_fit,
                       optimal_similarity_align, pointwise_error,
                       project_landmarks, sample_geometry_coefficients,
                       synthesize_geometry)
from synthface.evaluate import baseline_indices, error_heatmap
from synthface.image_io import write_ppm
from synthface.render import PoseParams, nominal_focal

OUT = "demo_output"
SIZE = 256

os.makedirs(OUT, exist_ok=True)
model = build_procedural_model(seed=1, n_id=30, n_exp=10, n_tex=20,
                               grid_resolution=48)
rng = np.random.default_rng(5)
gt = sample_geometry_coefficients(rng, model)
gt_mesh = synthesize_geometry(model, gt)
pose = PoseParams.identity(nominal_focal(model.mean_mesh, SIZE))

landmarks = project_landmarks(model, gt, pose, SIZE, SIZE,
                              model.landmark_indices)

for label, lms in (
        ("all 68 landmarks", landmarks),
        ("10 landmarks", project_landmarks(model, gt, pose, SIZE, SIZE,
                                           baseline_indices(model)))):
    fitted = landmark_fit(lms, pose, model, SIZE, SIZE)
    mesh = synthesize_geometry(model, fitted)
    _, aligned = optimal_similarity_align(mesh, gt_mesh)
    report = pointwise_error(aligned, gt_mesh)
    print(f"{label}: mean vertex error {report.mean:.5f}, "
          f"max {report.max:.5f}")
    heat = error_heatmap(mesh, report, pose, SIZE, SIZE)
    name = f"heatmap_{lms.vertex_indices.shape[0]}_landmarks.ppm"
    write_ppm(os.path.join(OUT, name), heat)
    print(f"  wrote {OUT}/{name}")
