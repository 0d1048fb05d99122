"""Tests for the REAL stdlib PNG codec (raycrawl/ops/png.py): round-trip
across every scanline filter and channel count, closed-form synth-table
equality, the ``media_features`` task stage, and the encode_image
integration (real PNG leg of the reference's KB-budget re-encode,
reference services/converters/file_utils.py:38-75)."""

import numpy as np
import pytest

from raycrawl.media_fixtures import _synth_pixels, synth_png_batch
from raycrawl.ops.multimodal import _media_batch, media_features
from raycrawl.ops.png import PngCodec, PngDecoder, png_decode, png_encode


def _features(t):
    return _media_batch(t, PngDecoder(), PngDecoder.stats, "image_id")


@pytest.mark.parametrize("channels", [1, 3, 4])
@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4, "adaptive"])
def test_roundtrip_every_filter(channels, filter_type):
    rng = np.random.RandomState(channels * 10 + 1)
    shape = (19, 23) if channels == 1 else (19, 23, channels)
    img = rng.randint(0, 256, size=shape, dtype=np.uint8)
    out = png_decode(png_encode(img, filter_type=filter_type))
    assert out.shape == img.shape
    assert (out == img).all()


def test_roundtrip_edge_shapes():
    for shape in [(1, 1, 3), (1, 64, 3), (64, 1, 3), (2, 2), (3, 3, 4)]:
        img = (np.arange(np.prod(shape), dtype=np.int64) * 37 % 256
               ).astype(np.uint8).reshape(shape)
        assert (png_decode(png_encode(img)) == img).all()


def test_gradient_compresses_well():
    # a smooth gradient should compress far below raw size via Sub/Up
    y = np.arange(128, dtype=np.uint8)[:, None, None]
    img = np.broadcast_to(y, (128, 128, 3)).copy()
    data = png_encode(img, filter_type="adaptive")
    assert len(data) < img.nbytes // 20


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        png_decode(b"not a png at all")
    # valid signature, truncated body
    with pytest.raises(Exception):
        png_decode(b"\x89PNG\r\n\x1a\n" + b"\x00" * 8)


def test_synth_table_matches_closed_form():
    t = synth_png_batch(range(13))
    dec = PngDecoder()
    for i in range(13):
        w = t.column("width")[i].as_py()
        h = t.column("height")[i].as_py()
        img = dec(t.column("payload")[i].as_py(), w, h)
        assert (img == _synth_pixels(i, w, h)).all()


def test_decoder_validates_dimension_hints():
    t = synth_png_batch(range(1))
    payload = t.column("payload")[0].as_py()
    with pytest.raises(ValueError):
        PngDecoder()(payload, width=9999)


def test_feature_stage_exact():
    t = synth_png_batch(range(7))
    out = _features(t).to_pandas().set_index("image_id")
    for i in range(7):
        w = 16 + (i * 5) % 48
        h = 16 + (i * 3) % 40
        px = _synth_pixels(i, w, h).astype(np.int64)
        row = out.loc[i]
        assert row["width"] == w and row["height"] == h
        assert row["sum_r"] == px[..., 0].sum()
        assert row["sum_g"] == px[..., 1].sum()
        assert row["sum_b"] == px[..., 2].sum()
        assert row["max_px"] == px.max()


def test_png_features_ray_pipeline():
    import ray.data as rd

    t = synth_png_batch(range(40))
    ds = rd.from_arrow(t).repartition(4)
    got = (media_features(ds, PngDecoder(), PngDecoder.stats, "image_id")
           .to_pandas().sort_values("image_id").reset_index(drop=True))
    assert len(got) == 40
    exp = _features(t).to_pandas()
    assert got.equals(exp)


def test_width_hint_mismatch_raises_through_stage():
    import pyarrow as pa

    t = synth_png_batch(range(3))
    bad = t.set_column(t.schema.get_field_index("width"), "width",
                       pa.array([9999, 9999, 9999], pa.int32()))
    with pytest.raises(ValueError, match="width hint 9999"):
        _features(bad)


def test_encode_image_real_png_codec():
    from raycrawl.ops.multimodal import encode_image

    img = _synth_pixels(3, 40, 30)
    payload = png_encode(img)
    uri = encode_image(payload, 40, 30, format="PNG",
                       decoder=PngDecoder(), codec=PngCodec())
    assert uri is not None and uri.startswith("data:image/png;base64,")
    import base64

    decoded = png_decode(base64.b64decode(uri.split(",", 1)[1]))
    # under budget → no resize → lossless round-trip through the real leg
    assert (decoded == img).all()


def test_encode_image_budget_resizes_real_codec():
    from raycrawl.ops.multimodal import encode_image

    img = _synth_pixels(1, 200, 150)
    payload = png_encode(img, filter_type=0, compress_level=0)  # big
    kb = len(payload) / 1024
    budget = max(1, int(kb // 4))
    uri = encode_image(payload, 200, 150, max_size_kb=budget,
                       format="PNG", decoder=PngDecoder(), codec=PngCodec())
    assert uri is not None
    import base64

    decoded = png_decode(base64.b64decode(uri.split(",", 1)[1]))
    scale = (budget / kb) ** 0.5
    assert decoded.shape == (int(150 * scale), int(200 * scale), 3)
