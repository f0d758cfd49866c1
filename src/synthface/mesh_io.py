"""Text formats: OFF mesh output and pose files, which record their image size."""

from __future__ import annotations

import numpy as np

from .image_io import names_file
from .model import Mesh
from .render import PoseParams

POSE_LINES = {"f": (float, 1), "R": (float, 3), "t": (float, 3), "size": (int, 2)}


def save_off(path, mesh: Mesh) -> None:
    with open(path, "w") as f:
        f.write("OFF\n")
        f.write(f"{mesh.vertices.shape[0]} {mesh.triangles.shape[0]} 0\n")
        for v in mesh.vertices:
            f.write(f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            f.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def save_pose(path, pose: PoseParams, width: int, height: int) -> None:
    """Line-oriented text: f, three rotation rows, translation, image size."""
    r = pose.rotation
    t = pose.translation
    with open(path, "w") as f:
        f.write(f"f {float(pose.f)!r}\n")
        for row in r:
            f.write(f"R {float(row[0])!r} {float(row[1])!r} {float(row[2])!r}\n")
        f.write(f"t {float(t[0])!r} {float(t[1])!r} {float(t[2])!r}\n")
        f.write(f"size {width} {height}\n")


@names_file
def load_pose(path) -> tuple[PoseParams, tuple[int, int]]:
    """Pose and (width, height) from one `f` line of 1 value, three `R` rows,
    one `t` line of 3 and one `size` line of 2 integers in [1, 2**32), the
    range of a predictor file's u32 size fields, whose product numpy can
    index."""
    lines = {key: [] for key in POSE_LINES}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            key = parts[0]
            if key not in lines:
                raise ValueError(f"unrecognized pose file line: {line.strip()!r}")
            parse, n = POSE_LINES[key]
            values = [parse(x) for x in parts[1:]]
            if len(values) != n:
                raise ValueError(f"pose line {line.strip()!r} has {len(values)} "
                                 f"values, expected {n}")
            lines[key].append(values)
    if [len(lines[key]) for key in lines] != [1, 3, 1, 1]:
        raise ValueError("pose file must contain f, three R rows, t and size")
    width, height = lines["size"][0]
    if width < 1 or height < 1:
        raise ValueError(f"image size {width}x{height} is not positive")
    if max(width, height) >= 2**32:
        raise ValueError(f"image size {width}x{height} is above 2**32 - 1")
    if width * height > np.iinfo(np.intp).max:
        raise ValueError(f"image size {width}x{height} has more pixels than "
                         f"numpy can index")
    pose = PoseParams(lines["f"][0][0], np.array(lines["R"]), np.array(lines["t"][0]))
    return pose, (width, height)
