"""Build a procedural morphable model and render a few faces.

Walks through the geometry pipeline: the model is a mean face plus an
orthonormal basis of smooth displacement fields, so a standard-normal
coefficient vector gives a plausible random face.  Outputs land in
demo_output/: the mean face shading image, a random face shading image,
and a Phong-shaded color render of the same random face.
"""

import os

import numpy as np

from synthface import (LightingParams, PoseParams, build_procedural_model,
                       compute_vertex_normals, nominal_focal, phong_shade,
                       rasterize, render_shading_image,
                       sample_geometry_coefficients, synthesize_geometry,
                       synthesize_texture)
from synthface.image_io import write_pgm, write_ppm
from synthface.model import TextureCoefficients

OUT = "demo_output"
SIZE = 256

os.makedirs(OUT, exist_ok=True)
model = build_procedural_model(seed=1, n_id=30, n_exp=10, n_tex=20,
                               grid_resolution=48)
print(f"model: {model.n_vertices} vertices, {model.triangles.shape[0]} "
      f"triangles, {model.n_id}+{model.n_exp} shape coefficients")

pose = PoseParams.identity(nominal_focal(model.mean_mesh, SIZE))

# 1. the mean face as a frontal-light shading image
mean_raster = render_shading_image(model.mean_mesh, pose, SIZE, SIZE)
write_pgm(os.path.join(OUT, "mean_shading.pgm"), mean_raster.image)

# 2. a random identity/expression draw
rng = np.random.default_rng(42)
coeffs = sample_geometry_coefficients(rng, model)
mesh = synthesize_geometry(model, coeffs)
raster = render_shading_image(mesh, pose, SIZE, SIZE)
write_pgm(os.path.join(OUT, "random_shading.pgm"), raster.image)

# 3. full Phong color render of the same face with a random texture
albedo = np.clip(synthesize_texture(model, TextureCoefficients(
    0.5 * rng.standard_normal(model.n_tex))), 0.0, 1.0)
lighting = LightingParams(0.5, 0.7, 0.05, 10.0,
                          np.array([0.3, 0.2, 1.0]) / np.linalg.norm([0.3, 0.2, 1.0]))
colors = phong_shade(albedo, compute_vertex_normals(mesh), lighting)
color_raster = rasterize(mesh, colors, pose, SIZE, SIZE)
write_ppm(os.path.join(OUT, "random_face.ppm"), color_raster.image)

print(f"wrote mean_shading.pgm, random_shading.pgm, random_face.ppm to {OUT}/")
