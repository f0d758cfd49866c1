"""Text formats: OFF mesh output and pose parameter files."""

from __future__ import annotations

import numpy as np

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


def load_pose(path) -> PoseParams:
    f_val = None
    rows = []
    t = None
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "f":
                f_val = float(parts[1])
            elif parts[0] == "R":
                rows.append([float(x) for x in parts[1:4]])
            elif parts[0] == "t":
                t = np.array([float(x) for x in parts[1:4]])
            else:
                raise ValueError(f"unrecognized pose file line: {line.strip()!r}")
    if f_val is None or len(rows) != 3 or t is None:
        raise ValueError("pose file must contain f, three R rows and t")
    return PoseParams(f_val, np.array(rows), t)
