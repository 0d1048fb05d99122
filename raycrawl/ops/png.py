"""REAL PNG codec — stdlib ``zlib``/``struct`` + numpy, no PIL.

Upgrades the multimodal image path from the declared deterministic
stand-in (multimodal.py FakeImageCodec/FakeImageDecoder) to a genuine
encode/decode for PNG, the same way audio got a real raw-PCM decode:
the sandbox has no imaging library, but PNG's container (chunks + CRC32)
and its DEFLATE-compressed, per-scanline-filtered pixel stream are fully
implementable with ``zlib`` + numpy. Reference behavior anchored:
``FileUtils.encode_image`` (reference services/converters/
file_utils.py:38-75) re-encodes images under a KB budget — with this
module the PNG leg of that path is real end-to-end.

Scope (documented contract): 8-bit depth, color types 0 (grayscale),
2 (RGB), 6 (RGBA); no interlace; ancillary chunks ignored on decode.
All five scanline filters (None/Sub/Up/Average/Paeth, PNG spec §6.2)
are implemented on both sides; the encoder's filters are fully
vectorized across the image, the decoder vectorizes None/Sub/Up and
walks Average/Paeth per pixel group (their reconstruction is inherently
sequential along the row).

Public papers/specs only: PNG (RFC 2083 / ISO 15948), zlib (RFC 1950).
"""

from __future__ import annotations

import struct
import zlib
from binascii import crc32

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"

_CHANNELS = {0: 1, 2: 3, 6: 4}
_COLOR_TYPE = {1: 0, 3: 2, 4: 6}


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", crc32(tag + payload) & 0xFFFFFFFF))


def _shift_right(a: np.ndarray, bpp: int) -> np.ndarray:
    """Rows shifted right by one pixel group (zeros enter on the left)."""
    out = np.zeros_like(a)
    out[:, bpp:] = a[:, :-bpp]
    return out


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor, elementwise (PNG spec §6.6); int16 inputs."""
    p = a + b - c
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out


def png_encode(img: np.ndarray, filter_type: "int | str" = "adaptive",
               compress_level: int = 6) -> bytes:
    """uint8 array (H,W) / (H,W,1) / (H,W,3) / (H,W,4) → PNG bytes.

    ``filter_type``: 0–4 fixed for every scanline, or ``'adaptive'`` for
    the standard minimum-sum-of-absolute-differences heuristic (still
    deterministic). All filter math is vectorized over the whole image.
    """
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, ch = img.shape
    if ch not in _COLOR_TYPE:
        raise ValueError(f"unsupported channel count {ch}")
    color_type = _COLOR_TYPE[ch]
    bpp = ch
    raw = img.reshape(h, w * ch).astype(np.int16)
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    left = _shift_right(raw, bpp)
    upleft = _shift_right(up, bpp)

    candidates = {
        0: raw,
        1: raw - left,
        2: raw - up,
        3: raw - ((left + up) >> 1),
        4: raw - _paeth(left, up, upleft),
    }
    if filter_type == "adaptive":
        # MSAD heuristic: per row, pick the filter whose output minimizes
        # the sum of |signed byte| (the libpng default strategy)
        scores = np.stack([
            np.abs(((candidates[f] & 0xFF) + 128) % 256 - 128).sum(axis=1)
            for f in range(5)])
        chosen = scores.argmin(axis=0)
    else:
        f = int(filter_type)
        if f not in candidates:
            raise ValueError(f"bad filter {filter_type}")
        chosen = np.full(h, f, dtype=np.int64)

    stacked = np.stack([candidates[f] & 0xFF for f in range(5)])
    filtered = stacked[chosen, np.arange(h)].astype(np.uint8)
    stream = np.concatenate(
        [chosen.astype(np.uint8)[:, None], filtered], axis=1).tobytes()

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (PNG_SIG
            + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(stream, compress_level))
            + _chunk(b"IEND", b""))


def png_decode(data: bytes) -> np.ndarray:
    """PNG bytes → uint8 array (H,W) for grayscale, (H,W,3/4) otherwise."""
    if data[:8] != PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    pos = 8
    idat = bytearray()
    w = h = None
    color_type = None
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        tag = data[pos + 4:pos + 8]
        payload = data[pos + 8:pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload)
            if depth != 8 or color_type not in _CHANNELS:
                raise ValueError(
                    f"unsupported PNG (depth={depth} color={color_type})")
            if interlace:
                raise ValueError("interlaced PNG not supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    ch = _CHANNELS[color_type]
    bpp = ch
    stride = w * ch
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    if raw.size != h * (stride + 1):
        raise ValueError("corrupt IDAT payload size")
    raw = raw.reshape(h, stride + 1)
    filters = raw[:, 0]
    rows = raw[:, 1:]
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        f = int(filters[y])
        row = rows[y]
        if f == 0:
            rec = row.copy()
        elif f == 1:
            rec = np.cumsum(row.reshape(w, bpp), axis=0,
                            dtype=np.uint8).reshape(stride)
        elif f == 2:
            rec = row + prev  # uint8 wraparound
        elif f == 3:
            # sequential x-recurrence — plain-int Python beats per-pixel
            # numpy micro-ops ~10× here (tiny-vector dispatch overhead)
            rl = row.tolist()
            pl = prev.tolist()
            for x in range(stride):
                a = rl[x - bpp] if x >= bpp else 0
                rl[x] = (rl[x] + ((a + pl[x]) >> 1)) & 0xFF
            rec = np.array(rl, dtype=np.uint8)
        elif f == 4:
            rl = row.tolist()
            pl = prev.tolist()
            for x in range(stride):
                a = rl[x - bpp] if x >= bpp else 0
                b = pl[x]
                c = pl[x - bpp] if x >= bpp else 0
                p = a + b - c
                pa = p - a if p >= a else a - p
                pb = p - b if p >= b else b - p
                pc = p - c if p >= c else c - p
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
                rl[x] = (rl[x] + pred) & 0xFF
            rec = np.array(rl, dtype=np.uint8)
        else:
            raise ValueError(f"bad scanline filter {f}")
        out[y] = rec
        prev = rec
    img = out.reshape(h, w, ch)
    return img[:, :, 0] if ch == 1 else img


class PngCodec:
    """Real-codec drop-in for multimodal.FakeImageCodec: PNG encodes are
    genuine; JPEG delegates to the real baseline codec (ops/jpeg.py —
    the round-4 upgrade that closed the last codec stand-in); anything
    else (WEBP etc.) falls back to the deterministic stand-in."""

    def __init__(self, filter_type: "int | str" = "adaptive") -> None:
        from .multimodal import FakeImageCodec
        self.filter_type = filter_type
        self._fallback = FakeImageCodec()

    def encode(self, img: np.ndarray, format: str = "PNG") -> bytes:
        if format.upper() == "PNG":
            return png_encode(img, filter_type=self.filter_type)
        if format.upper() in ("JPEG", "JPG"):
            # quality=85 matches the reference hook (file_utils.py:64)
            from .jpeg import jpeg_encode
            return jpeg_encode(img, quality=85)
        return self._fallback.encode(img, format)


class PngDecoder:
    """Real-decoder drop-in for multimodal.FakeImageDecoder (same call
    signature; the width/height hints are ignored — PNG is
    self-describing — but validated when provided). ``stats`` gives the
    integer features of ``image_png_features``."""

    def __call__(self, payload: bytes, width: "int | None" = None,
                 height: "int | None" = None) -> np.ndarray:
        img = png_decode(payload)
        if width is not None and img.shape[1] != width:
            raise ValueError(f"width hint {width} != decoded {img.shape[1]}")
        if height is not None and img.shape[0] != height:
            raise ValueError(f"height hint {height} != decoded {img.shape[0]}")
        return img

    @staticmethod
    def stats(images: list) -> dict:
        """width/height as decoded, per-channel RGB pixel sums, max."""
        sums = np.array([im.sum(axis=(0, 1), dtype=np.int64)
                         for im in images], np.int64).reshape(-1, 3)
        return {"width": [im.shape[1] for im in images],
                "height": [im.shape[0] for im in images],
                "sum_r": sums[:, 0], "sum_g": sums[:, 1], "sum_b": sums[:, 2],
                "max_px": [int(im.max()) for im in images]}


class RawPixelDecoder:
    """Decoder hook for payloads that are ALREADY raw 8-bit pixels (e.g.
    a PDF FlateDecode image XObject after inflation): reshape to
    (H,W[,C]), inferring the channel count from the payload size."""

    def __call__(self, payload: bytes, width: int,
                 height: int) -> np.ndarray:
        n = len(payload)
        for c in (3, 1, 4):
            if n == width * height * c:
                a = np.frombuffer(payload, dtype=np.uint8)
                return (a.reshape(height, width, c) if c > 1
                        else a.reshape(height, width))
        raise ValueError(
            f"payload size {n} does not match {width}x{height} pixels")
