"""Each demo script runs to completion from a fresh directory.

The demos call the library the way a reader would, so a renamed or removed
name they use fails here rather than only when someone runs them by hand.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(REPO, "demos")

# the files a demo reports writing, under demo_output/
WRITTEN = {
    "01_build_and_render.py": ["mean_shading.pgm", "random_shading.pgm",
                               "random_face.ppm"],
    "02_generate_dataset.py": ["dataset/manifest.txt",
                               "dataset/sample_000007_coeffs.bin"],
    "04_landmark_fit_and_evaluate.py": ["heatmap_68_landmarks.ppm",
                                        "heatmap_10_landmarks.ppm"],
}


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DEMOS)
                                         if n[:2].isdigit()))
def test_demo_runs(tmp_path, name):
    # run from tmp_path, where a relative PYTHONPATH entry no longer
    # resolves: the absolute source directory goes first
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(REPO, "src")] + ([inherited] if inherited else [])))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for f in WRITTEN.get(name, []):
        assert (tmp_path / "demo_output" / f).is_file(), f
