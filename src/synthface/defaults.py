"""Pipeline constants, one source for the CLI, the library and the checks.

The tunable defaults and the fixed IEF_ITERATIONS and FEATURE_DOWNSAMPLE, which
no option changes.  `default_config()` dumps every upper-case name defined
here, lower-cased and in order, as a dict.
"""

# Model dimensions
N_ID = 200
N_EXP = 84
N_COEFFS_TOTAL = N_ID + N_EXP
N_TEX = 200
GRID_RESOLUTION = 48

# Image geometry
IMAGE_WIDTH = 200
IMAGE_HEIGHT = 200
INPUT_CHANNELS = 2  # masked face image + shading image

# Iterative reconstruction
IEF_ITERATIONS = 3
FEATURE_DOWNSAMPLE = 8

# Phong reflectance: (ambient, diffuse, specular) means and sigmas
PHONG_SHININESS = 10.0
PHONG_MEANS = (0.5, 0.7, 0.05)
PHONG_SIGMAS = (0.1, 0.1, 0.02)

# Pose sampling
POSE_ROTATION_SIGMA_DEG = 15.0
POSE_TRANSLATION_FRAC = 0.03   # of the face width
POSE_SCALE_FRAC = 0.1          # of the nominal focal scale
POSE_FILL_FRAC = 0.8           # mean face spans this fraction of image height

# Regularization
LAMBDA_TEXTURE = 1e-6
LAMBDA_LANDMARK = 1e-4
RIDGE_LAMBDA = 1e-1


def default_config() -> dict:
    """Machine-readable dump of every default constant."""
    return {name.lower(): value for name, value in globals().items()
            if name.isupper()}
