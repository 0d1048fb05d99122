"""Media decode → features: one task stage over binary payload columns.

``media_features(ds, decode, stats, id_col)`` is the one decode+features
stage. Each format brings a ``decode(payload, *hints)`` and a
``stats(decoded)`` function that maps a batch's decoded arrays to named
int64 columns; the stage runs the payload loop. Payloads are REAL: PNG
(``png.PngDecoder``, stdlib zlib codec), baseline JPEG
(``jpeg.JpegDecoder``, stdlib DCT entropy codec) and raw int16 PCM audio
(``PcmDecoder`` below), none of which needs an external library.

Binary columns stay in ``batch_format="pyarrow"`` (never round-trip
binary through pandas object dtype), batches are small (payloads can be
MBs, and the batch bounds a worker's heap), and the decoders are
stateless, so the stage runs on reused Ray tasks, not an actor pool.

``encode_image`` is the reference's KB-budget re-encode hook (M26). Its
deterministic fakes stand in where PIL is absent and for formats whose
codecs are impossible offline (WEBP, MP3); the PNG/JPEG codecs are
drop-ins for them.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional

import numpy as np
import pyarrow as pa

# rows per decode batch: payloads can be MBs, and a batch bounds the heap
# of the worker that decodes it
_BATCH_SIZE = 64
# metadata columns passed to ``decode`` after the payload, when present
_HINTS = ("width", "height")


class FakeImageDecoder:
    """Deterministic stand-in for a real decoder: bytes → (H, W, 3) uint8.
    Replace with PIL in production; signature and output shape are the
    contract."""

    def __call__(self, payload: bytes, width: int, height: int) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha1(payload).digest()[:4], "big")
        rng = np.random.RandomState(seed)
        return rng.randint(0, 256, size=(height, width, 3), dtype=np.uint8)


class FakeImageCodec:
    """Deterministic encode stand-in with a realistic size model (bytes ≈
    pixels × bits-per-pixel by format) so the KB-budget arithmetic in
    ``encode_image`` is exercised for real. Swap for PIL's ``Image.save``
    in production; ``encode(array, format) -> bytes`` is the contract."""

    _BPP = {"PNG": 1.0, "JPEG": 0.35, "WEBP": 0.30}

    def encode(self, img: np.ndarray, format: str = "PNG") -> bytes:
        h, w = img.shape[:2]
        size = max(16, int(h * w * self._BPP.get(format.upper(), 1.0)))
        sig = hashlib.sha1(img.tobytes() + format.encode()).digest()
        reps = (size + len(sig) - 1) // len(sig)
        return (sig * reps)[:size]


def _resize_nearest(img: np.ndarray, new_w: int, new_h: int) -> np.ndarray:
    h, w = img.shape[:2]
    yi = (np.arange(max(1, new_h)) * h // max(1, new_h)).clip(0, h - 1)
    xi = (np.arange(max(1, new_w)) * w // max(1, new_w)).clip(0, w - 1)
    return img[yi][:, xi]


def encode_image(image_data: bytes, width: int, height: int,
                 format: str = "PNG", max_size_kb: int = 500,
                 decoder: Optional[object] = None,
                 codec: Optional[object] = None) -> Optional[str]:
    """M26 — the reference's resize-to-KB-budget + base64 data-URI encode
    (file_utils.py:38-75), arithmetic replicated exactly:

    - current_size = len(image_data) / 1024 KB; when over ``max_size_kb``,
      scale_factor = (max_size_kb / current_size) ** 0.5 and the image is
      resized ONCE to (int(w*s), int(h*s)) — the reference is single-shot,
      not a loop, so the output may still exceed the budget slightly;
    - re-encode in ``format`` and return ``data:image/<fmt>;base64,...``;
    - any codec failure returns None (reference parity).

    decoder/codec default to the deterministic fakes (PIL absent); the
    budget/resize arithmetic is the real, tested part."""
    import base64

    try:
        decoder = decoder or FakeImageDecoder()
        codec = codec or FakeImageCodec()
        img = decoder(image_data, width, height)
        current_size = len(image_data) / 1024
        if current_size > max_size_kb:
            scale_factor = (max_size_kb / current_size) ** 0.5
            new_width = int(img.shape[1] * scale_factor)
            new_height = int(img.shape[0] * scale_factor)
            img = _resize_nearest(img, new_width, new_height)
        encoded = base64.b64encode(codec.encode(img, format)).decode("utf-8")
        mime_type = f"image/{format.lower()}"
        return f"data:{mime_type};base64,{encoded}"
    except Exception:
        return None




class PcmDecoder:
    """Raw little-endian int16 mono PCM → int64 samples (a real decode:
    PCM needs no codec). ``stats`` gives n_samples, energy Σ s², strict
    sign-change zero crossings and peak |s|."""

    def __call__(self, payload: bytes) -> np.ndarray:
        return np.frombuffer(payload, dtype="<i2").astype(np.int64)

    @staticmethod
    def stats(clips: list) -> dict:
        return {
            "n_samples": [len(s) for s in clips],
            "energy": [int((s * s).sum()) for s in clips],
            "zero_crossings": [int((s[:-1] * s[1:] < 0).sum())
                               for s in clips],
            "peak": [int(np.abs(s).max()) if len(s) else 0 for s in clips],
        }


def _media_batch(batch: pa.Table, decode: Callable, stats: Callable,
                 id_col: str) -> pa.Table:
    """Decode every ``payload`` of ``batch`` (with its ``_HINTS``
    columns) and return ``id_col`` plus ``stats``' columns as int64."""
    hints = [batch.column(c).to_pylist() for c in _HINTS
             if c in batch.column_names]
    decoded = [decode(p, *h) for p, *h in
               zip(batch.column("payload").to_pylist(), *hints)]
    cols = {id_col: batch.column(id_col).cast(pa.int64())}
    for name, values in stats(decoded).items():
        cols[name] = pa.array(values, pa.int64())
    return pa.table(cols)


def media_features(ds, decode: Callable, stats: Callable, id_col: str):
    """Decode each row's ``payload`` with ``decode(payload, *hints)`` and
    return ``id_col`` plus the int64 columns of ``stats(decoded)``, on
    reused Ray tasks in batches of ``_BATCH_SIZE`` rows."""
    return ds.map_batches(_media_batch, batch_format="pyarrow",
                          batch_size=_BATCH_SIZE,
                          fn_kwargs={"decode": decode, "stats": stats,
                                     "id_col": id_col})
