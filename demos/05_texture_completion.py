"""Recover texture coefficients from a partially occluded observation.

Plants known texture coefficients, hides half of the vertices, and
projects the visible colors back onto the texture basis.  The recovered
coefficients complete the occluded region; the combined texture keeps the
observed colors where they exist and the model reconstruction elsewhere.
"""

import numpy as np

from synthface import build_procedural_model, project_texture, synthesize_texture
from synthface.model import TextureCoefficients

model = build_procedural_model(seed=1, n_id=10, n_exp=5, n_tex=20,
                               grid_resolution=32)
rng = np.random.default_rng(11)
beta = rng.standard_normal(model.n_tex)
observed = synthesize_texture(model, TextureCoefficients(beta))

visibility = rng.uniform(size=model.n_vertices) < 0.5
print(f"visible vertices: {visibility.sum()} of {model.n_vertices}")

coeffs, combined = project_texture(model, observed, visibility)
err = np.abs(coeffs.alpha_tex - beta).max()
print(f"max coefficient recovery error: {err:.2e}")

occluded = ~visibility
color_err = np.abs(combined[occluded] - observed[occluded]).max()
print(f"max completed-color error on occluded vertices: {color_err:.2e}")
