"""Multimodal column plumbing: opaque binary payloads + typed metadata.

PIL/ffmpeg/torchaudio are not in this container, but the image and audio
paths are REAL anyway: PNG (ops/png.py, stdlib zlib codec), baseline JPEG
(ops/jpeg.py, stdlib DCT entropy codec) and raw int16 PCM audio need no
external library. The deterministic fakes below remain only as (a) the
hook contract documentation and (b) the stand-in for formats whose codecs
are genuinely impossible offline (WEBP, MP3). The
Ray-side plumbing is sized for 100 TB either way: binary columns stay in
``batch_format="pyarrow"`` (zero-copy; never round-trip binary through
pandas object dtype), stages are actor pools with small ``batch_size``
(large payloads × concurrency must fit worker heaps, SURVEY.md R5), and
outputs are fixed-width feature columns.

Swap ``FakeImageDecoder`` for ``png.PngDecoder`` / ``jpeg.JpegDecoder``
(or PIL in production) in ``__init__`` of the same actor class and
nothing else changes.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa

IMAGE_META = pa.schema([
    ("image_id", pa.int64()),
    ("payload", pa.binary()),
    ("format", pa.string()),
    ("width", pa.int32()),
    ("height", pa.int32()),
])


def synth_image_table(n: int, seed: int = 42) -> pa.Table:
    """Deterministic fake 'image' rows: payload = seeded bytes; metadata
    columns as a real corpus would carry them."""
    rng = np.random.RandomState(seed)
    payloads, fmts, ws, hs = [], [], [], []
    for i in range(n):
        w = int(rng.randint(16, 257))
        h = int(rng.randint(16, 257))
        payloads.append(hashlib.sha256(f"img{i}".encode()).digest() * (1 + i % 7))
        fmts.append(("png", "jpeg", "webp")[i % 3])
        ws.append(w)
        hs.append(h)
    return pa.Table.from_arrays(
        [pa.array(range(n), pa.int64()), pa.array(payloads, pa.binary()),
         pa.array(fmts), pa.array(ws, pa.int32()), pa.array(hs, pa.int32())],
        schema=IMAGE_META)


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


class ImageFeatureStage:
    """Actor-pool stage: decode → resize (nearest-neighbor, pure numpy) →
    per-channel mean/std features. batch_size MUST stay small (payloads are
    MBs; batch × concurrency bounds worker heap)."""

    def __init__(self, target: int = 32,
                 decoder: Optional[object] = None) -> None:
        self.target = target
        self.decoder = decoder or FakeImageDecoder()

    def _resize(self, img: np.ndarray) -> np.ndarray:
        h, w = img.shape[:2]
        yi = (np.arange(self.target) * h // self.target).clip(0, h - 1)
        xi = (np.arange(self.target) * w // self.target).clip(0, w - 1)
        return img[yi][:, xi]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        payloads = batch.column("payload").to_pylist()
        ws = batch.column("width").to_pylist()
        hs = batch.column("height").to_pylist()
        means, stds, thumbs = [], [], []
        for p, w, h in zip(payloads, ws, hs):
            img = self.decoder(p, w, h)
            small = self._resize(img)
            means.append([float(small[..., c].mean()) for c in range(3)])
            stds.append([float(small[..., c].std()) for c in range(3)])
            thumbs.append(small.tobytes())
        return pa.table({
            "image_id": pa.array(ids, pa.int64()),
            "channel_mean": pa.array(means, pa.list_(pa.float32())),
            "channel_std": pa.array(stds, pa.list_(pa.float32())),
            "thumbnail": pa.array(thumbs, pa.binary()),
        })


def image_features(ds, target: int = 32, concurrency: int = 4,
                   batch_size: int = 16):
    """The multimodal pipeline shape: small batches, pyarrow format,
    actor pool (decoder state loaded once per actor)."""
    return ds.map_batches(ImageFeatureStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency,
                          fn_constructor_kwargs={"target": target})


AUDIO_META = pa.schema([
    ("audio_id", pa.int64()),
    ("pcm", pa.binary()),          # raw little-endian int16 mono PCM
    ("sample_rate", pa.int32()),
])


def synth_audio_table(n: int) -> pa.Table:
    """Deterministic raw-PCM 'audio' rows: sample k of clip i is
    ((i*31 + k*17) % 65536) - 32768, clip length 1000 + i % 500 — a
    closed form a SQL engine can regenerate, so the decode+feature path
    is EXACTLY oracle-checkable (unlike the compressed-codec stages,
    raw PCM needs no external library: this decode is real)."""
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


class AudioFeatureStage:
    """REAL audio decode + vectorized feature extraction over raw int16
    PCM binary columns (the audio analogue of ImageFeatureStage, with no
    codec stub): n_samples, integer energy Σ s², zero-crossing count
    (strict sign change), peak |s|. Integer outputs → exact SQL oracle.
    For compressed formats swap the frombuffer decode for an ffmpeg/
    soundfile call in __init__-configured form; batch sizing rules are
    the same as images (payload × concurrency bounds worker heaps)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("audio_id").to_pylist()
        blobs = batch.column("pcm").to_pylist()
        ns, energy, zc, peak = [], [], [], []
        for blob in blobs:
            s = np.frombuffer(blob, dtype="<i2").astype(np.int64)
            ns.append(len(s))
            energy.append(int((s * s).sum()))
            zc.append(int(((s[:-1] * s[1:]) < 0).sum()) if len(s) > 1 else 0)
            peak.append(int(np.abs(s).max()) if len(s) else 0)
        return pa.table({
            "audio_id": pa.array(ids, pa.int64()),
            "n_samples": pa.array(ns, pa.int64()),
            "energy": pa.array(energy, pa.int64()),
            "zero_crossings": pa.array(zc, pa.int64()),
            "peak": pa.array(peak, pa.int64()),
        })


def audio_features(ds, concurrency: int = 4, batch_size: int = 64):
    return ds.map_batches(AudioFeatureStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=concurrency)
