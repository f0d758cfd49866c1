"""Binary 8-bit PGM (read and written) and PPM (written) files, and `names_file`."""

from __future__ import annotations

import functools
import struct

import numpy as np


def names_file(reader):
    """Every file reader's one way to fail: ``ValueError("<path>: <reason>")``."""
    @functools.wraps(reader)
    def read(path, *args):
        try:
            return reader(path, *args)
        except (ValueError, struct.error) as exc:
            raise ValueError(f"{path}: {exc}") from None
    return read


@names_file
def check_size(path, size: tuple, expected: tuple, source) -> None:
    """Reject the file at `path` if its (width, height) is not `source`'s."""
    if size != expected:
        raise ValueError(f"image size {size[0]}x{size[1]} differs from "
                         f"{expected[0]}x{expected[1]} of {source}")


def _to_u8(img: np.ndarray) -> np.ndarray:
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def quantize(img: np.ndarray) -> np.ndarray:
    """Snap float image values in [0,1] to the 8-bit grid (k/255)."""
    return _to_u8(img) / 255.0


def _write_pnm(path, magic: str, img: np.ndarray, channels: tuple) -> None:
    """Binary PNM of an (H, W) + `channels` image with float values in [0,1]."""
    data = _to_u8(img)
    h, w = data.shape[:2]
    if data.shape[2:] != channels:
        raise ValueError(f"{magic} image shape {data.shape} is not (H, W) + {channels}")
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def write_pgm(path, img: np.ndarray) -> None:
    """Single-channel image (H, W) with float values in [0,1]."""
    _write_pnm(path, "P5", img, ())


def write_ppm(path, img: np.ndarray) -> None:
    """RGB image (H, W, 3) with float values in [0,1]."""
    _write_pnm(path, "P6", img, (3,))


@names_file
def read_pgm(path) -> np.ndarray:
    """Returns float image (H, W) with values k/255."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P5":
            raise ValueError(f"not a binary PGM file: magic {magic!r}")
        fields = []
        while len(fields) < 3:
            line = f.readline()
            if not line:
                raise ValueError("truncated PGM header")
            fields += line.split(b"#")[0].split()
        w, h, maxval = (int(x) for x in fields[:3])
        if maxval != 255:
            raise ValueError(f"unsupported PGM maxval {maxval}")
        data = f.read()
    if len(data) != w * h:
        raise ValueError(f"{len(data)} pixel bytes, expected {w * h} for {w}x{h}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w) / 255.0
