"""Train the linear predictor and run the iterative feedback loop.

Trains a ridge-regression predictor mapping (pooled image features,
current coefficients) to new coefficients, then reconstructs held-out
synthetic faces starting from the mean face and reports the geometry
loss of every iterate.  At this desk scale the linear predictor on
pooled pixels recovers only part of the signal; the per-iterate losses
printed below make its behavior easy to inspect.
"""

import numpy as np

from synthface import (GeometryCoefficients, IEFConfig,
                       build_procedural_model, geometry_loss, ief_reconstruct,
                       train_linear_predictor)
from synthface.datagen import generate_sample, rng_for_sample

SIZE = 64
N_TRAIN = 400
N_TEST = 40

model = build_procedural_model(seed=1, n_id=30, n_exp=10, n_tex=20,
                               grid_resolution=32)
config = IEFConfig(width=SIZE, height=SIZE)

print(f"generating {N_TRAIN} training and {N_TEST} test samples ...")
train = [generate_sample(rng_for_sample(0, i), model, SIZE, SIZE, sample_id=i)
         for i in range(N_TRAIN)]
test = [generate_sample(rng_for_sample(1, i), model, SIZE, SIZE, sample_id=i)
        for i in range(N_TEST)]

predictor = train_linear_predictor(train, model, config, ridge_lambda=1.0)
print(f"trained predictor: {config.feature_dim} features -> "
      f"{predictor.n_coeffs} coefficients")

losses = np.zeros(config.iterations + 1)
for s in test:
    result = ief_reconstruct(s.face_pixels, s.pose, predictor, model, config)
    for t, alpha in enumerate(result.iterates):
        losses[t] += geometry_loss(
            model, GeometryCoefficients.from_vector(alpha, model.n_id),
            s.alpha_gt)
losses /= len(test)

print("mean geometry loss per iterate (iterate 0 is the mean face):")
for t, loss in enumerate(losses):
    print(f"  t={t}: {loss:8.3f}")
print(f"baseline (zero coefficients): {losses[0]:.3f}")
