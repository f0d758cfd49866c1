from dataclasses import replace

import numpy as np
import pytest

from synthface import datagen
from synthface.model import build_procedural_model


@pytest.fixture(scope="session")
def small_model():
    """10 identity + 5 expression + 8 texture coefficients on a 32x32 grid."""
    return build_procedural_model(1, 10, 5, 8, 32)


@pytest.fixture(scope="session")
def fit_model():
    """30 + 10 coefficient model used by the fitting and loop tests."""
    return build_procedural_model(1, 30, 10, 20, 32)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def empty_face_raster(monkeypatch):
    """Make datagen's face raster cover no pixel under any pose, so that every
    pose draw of a sample is rejected."""
    real = datagen.rasterize

    def rasterize(*args):
        out = real(*args)
        return replace(out, mask=np.zeros_like(out.mask))
    monkeypatch.setattr(datagen, "rasterize", rasterize)
