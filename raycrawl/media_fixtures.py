"""Deterministic media payloads for the ``audio_features``,
``image_png_features`` and ``image_jpeg_features`` queries: raw int16 PCM
clips and REAL PNG / baseline-JPEG images whose samples and pixels are
closed-form functions of the row id, so a SQL engine can regenerate every
decoded value and check the decode+features stage exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .ops.jpeg import jpeg_encode
from .ops.png import png_encode

AUDIO_META = pa.schema([
    ("audio_id", pa.int64()),
    ("payload", pa.binary()),      # raw little-endian int16 mono PCM
    ("sample_rate", pa.int32()),
])


def synth_audio_table(n: int) -> pa.Table:
    """Raw-PCM 'audio' rows: sample k of clip i is
    ((i*31 + k*17) % 65536) - 32768, clip length 1000 + i % 500."""
    ids, blobs = [], []
    for i in range(n):
        n_samples = 1000 + i % 500
        k = np.arange(n_samples, dtype=np.int64)
        s = ((i * 31 + k * 17) % 65536 - 32768).astype(np.int16)
        ids.append(i)
        blobs.append(s.tobytes())
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64()), pa.array(blobs, pa.binary()),
         pa.array([16000] * n, pa.int32())], schema=AUDIO_META)


def _image_table(ids, payloads, ws, hs, fmt: str) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array(ids, pa.int64()), pa.array(payloads, pa.binary()),
         pa.array([fmt] * len(ids), pa.string()),
         pa.array(ws, pa.int32()), pa.array(hs, pa.int32())],
        names=["image_id", "payload", "format", "width", "height"])


def _synth_pixels(i: int, w: int, h: int) -> np.ndarray:
    """Closed-form RGB pixels:
    value(i,y,x,c) = (i*7 + y*13 + x*17 + c*29) % 256."""
    y = np.arange(h, dtype=np.int64)[:, None, None]
    x = np.arange(w, dtype=np.int64)[None, :, None]
    c = np.arange(3, dtype=np.int64)[None, None, :]
    return ((i * 7 + y * 13 + x * 17 + c * 29) % 256).astype(np.uint8)


def synth_png_batch(ids) -> pa.Table:
    """REAL PNG rows for the given image ids: ``_synth_pixels`` at
    w = 16 + (i*5) % 48, h = 16 + (i*3) % 40. The scanline filter cycles
    i % 5, and every 6th image uses the adaptive MSAD choice, so every
    decode path (None/Sub/Up/Average/Paeth) is exercised."""
    ids = [int(i) for i in ids]
    ws = [16 + (i * 5) % 48 for i in ids]
    hs = [16 + (i * 3) % 40 for i in ids]
    payloads = [png_encode(_synth_pixels(i, w, h),
                           filter_type="adaptive" if i % 6 == 5 else i % 5)
                for i, w, h in zip(ids, ws, hs)]
    return _image_table(ids, payloads, ws, hs, "png")


def _synth_block_gray(i: int, bw: int, bh: int) -> np.ndarray:
    """Piecewise-constant grayscale pixels, one value per 8×8 block:
    c(i,bx,by) = (i*7 + bx*31 + by*57) % 256. Constant blocks make the
    lossy DCT round-trip exactly computable: only the integer-quantized
    DC survives."""
    by = np.arange(bh, dtype=np.int64)[:, None]
    bx = np.arange(bw, dtype=np.int64)[None, :]
    c = ((i * 7 + bx * 31 + by * 57) % 256).astype(np.uint8)
    return np.repeat(np.repeat(c, 8, axis=0), 8, axis=1)


def synth_jpeg_batch(ids) -> pa.Table:
    """REAL JPEG rows: block grid bw = 2 + (i*3) % 6, bh = 2 + (i*5) % 5
    (w = 8·bw, h = 8·bh) of ``_synth_block_gray``, encoded at quality 50
    (identity IJG scaling → Annex K tables verbatim, Q00 = 16)."""
    ids = [int(i) for i in ids]
    bws = [2 + (i * 3) % 6 for i in ids]
    bhs = [2 + (i * 5) % 5 for i in ids]
    payloads = [jpeg_encode(_synth_block_gray(i, bw, bh), quality=50)
                for i, bw, bh in zip(ids, bws, bhs)]
    return _image_table(ids, payloads, [8 * b for b in bws],
                        [8 * b for b in bhs], "jpeg")


def synth_media_dataset(batch_fn, n: int, n_blocks: int):
    """Distributed fixture build: id range → ``batch_fn(ids)`` per batch,
    so the encode runs on the cluster, not on the driver."""
    import ray.data as rd

    return rd.range(n, override_num_blocks=n_blocks).map_batches(
        lambda b: batch_fn(b["id"]), batch_format="numpy")
