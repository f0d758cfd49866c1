"""Binary 8-bit PGM (read as its uint8 pixels, and written) and PPM (written)
files, the image-size rule, and `names_file`."""

from __future__ import annotations

import functools
import re
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


def check_image_size(width: int, height: int) -> None:
    """Each side in [1, 2**32), the range of a predictor file's u32 size
    fields, and a pixel count numpy can index."""
    if min(width, height) < 1:
        raise ValueError(f"image size {width}x{height} must be at least 1x1")
    if max(width, height) >= 2**32:
        raise ValueError(f"image size {width}x{height} is above 2**32 - 1")
    if width * height > np.iinfo(np.intp).max:
        raise ValueError(f"image size {width}x{height} has more pixels than "
                         f"numpy can index")


def to_pixels(img: np.ndarray) -> np.ndarray:
    """8-bit pixels k = round(255 x) of float image values x in [0,1]."""
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def _write_pnm(path, magic: str, img: np.ndarray, channels: tuple) -> None:
    """Binary PNM of an (H, W) + `channels` image of uint8 pixels, written as
    they are, or of float values in [0,1]."""
    data = img if img.dtype == np.uint8 else to_pixels(img)
    h, w = data.shape[:2]
    if data.shape[2:] != channels:
        raise ValueError(f"{magic} image shape {data.shape} is not (H, W) + {channels}")
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def write_pgm(path, img: np.ndarray) -> None:
    """Single-channel image (H, W): uint8 pixels or float values in [0,1]."""
    _write_pnm(path, "P5", img, ())


def write_ppm(path, img: np.ndarray) -> None:
    """RGB image (H, W, 3) with float values in [0,1]."""
    _write_pnm(path, "P6", img, (3,))


# P5, width, height and maxval, each after any whitespace and `#` comments
_PGM_HEADER = re.compile(4 * rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


@names_file
def read_pgm(path) -> np.ndarray:
    """Returns the (H, W) uint8 pixels of a binary PGM with maxval 255."""
    with open(path, "rb") as f:
        data = f.read()
    header = _PGM_HEADER.match(data)
    magic, *fields = header.groups()
    end = header.end()      # the one whitespace byte that ends the header
    if magic != b"P5":
        raise ValueError(f"not a binary PGM file: magic {magic!r}")
    if end == len(data):    # a token cut short, or no byte after maxval
        raise ValueError("truncated PGM header")
    if not all(x.isdigit() for x in fields) or not data[end:end + 1].isspace():
        raise ValueError(f"malformed PGM header {b' '.join(fields)!r}")
    w, h, maxval = map(int, fields)
    if maxval != 255:
        raise ValueError(f"unsupported PGM maxval {maxval}")
    n = len(data) - end - 1
    if n != w * h:
        raise ValueError(f"{n} pixel bytes, expected {w * h} for {w}x{h}")
    return np.frombuffer(data, dtype=np.uint8, offset=end + 1).reshape(h, w)
