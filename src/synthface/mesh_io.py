"""Text formats: OFF mesh output and pose parameter files."""

from __future__ import annotations

import numpy as np

from .image_io import names_file
from .model import Mesh
from .render import PoseParams


def save_off(path, mesh: Mesh) -> None:
    with open(path, "w") as f:
        f.write("OFF\n")
        f.write(f"{mesh.vertices.shape[0]} {mesh.triangles.shape[0]} 0\n")
        for v in mesh.vertices:
            f.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            f.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def save_pose(path, pose: PoseParams) -> None:
    """Line-oriented text: f, then three rotation rows, then translation."""
    r = pose.rotation
    t = pose.translation
    with open(path, "w") as f:
        f.write(f"f {float(pose.f)!r}\n")
        for row in r:
            f.write(f"R {float(row[0])!r} {float(row[1])!r} {float(row[2])!r}\n")
        f.write(f"t {float(t[0])!r} {float(t[1])!r} {float(t[2])!r}\n")


@names_file
def load_pose(path) -> PoseParams:
    """Needs one `f` line of 1 value, three `R` rows and one `t` line of 3."""
    lines = {"f": [], "R": [], "t": []}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            key = parts[0]
            if key not in lines:
                raise ValueError(f"unrecognized pose file line: {line.strip()!r}")
            values = [float(x) for x in parts[1:]]
            width = 1 if key == "f" else 3
            if len(values) != width:
                raise ValueError(f"pose line {line.strip()!r} has {len(values)} "
                                 f"values, expected {width}")
            lines[key].append(values)
    if [len(lines[key]) for key in "fRt"] != [1, 3, 1]:
        raise ValueError("pose file must contain f, three R rows and t")
    return PoseParams(lines["f"][0][0], np.array(lines["R"]), np.array(lines["t"][0]))
