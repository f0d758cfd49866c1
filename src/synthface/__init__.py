"""Synthetic face image generation, iterative error-feedback reconstruction
and geometric evaluation on a linear morphable model."""

from .model import (GeometryCoefficients, MorphableModel, Mesh,
                    TextureCoefficients, build_procedural_model,
                    geometry_loss, geometry_loss_grad, project_texture,
                    sample_geometry_coefficients, sample_texture_coefficients,
                    synthesize_geometry, synthesize_texture)
from .model_io import load_model, model_digest, save_model
from .render import (LightingParams, PoseParams, RasterOutput,
                     compute_vertex_normals, nominal_focal, phong_shade,
                     project_vertices, rasterize, render_shading_image,
                     sample_lighting, sample_pose)
from .datagen import (DatasetManifest, TrainingSample, generate_dataset,
                      generate_sample, load_dataset, sample_intermediate)
from .reconstruct import (IEFConfig, LinearPredictor, ReconstructionResult,
                          extract_features, ief_reconstruct, load_predictor,
                          save_predictor, train_linear_predictor)
from .evaluate import (ErrorReport, LandmarkSet, SimilarityTransform,
                       error_heatmap, landmark_fit, optimal_similarity_align,
                       pointwise_error, project_landmarks)
from .defaults import default_config

__version__ = "0.1.0"
