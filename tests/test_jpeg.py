"""Baseline-JPEG codec tests.

The strongest check is transparency of the entropy layer: the test
recomputes quantize->dequantize->IDCT with its own scalar-loop math
(independent of the codec's einsum path) and requires the decoder's
output to match BIT-EXACTLY for gray/4:4:4 -- any Huffman/bitstream/
DC-prediction slip shows up as an integer mismatch, not a PSNR dip."""

import numpy as np
import pytest

from equi7grid_ray.codec import decode_image, encode_image
from image_metrics import psnr
from equi7grid_ray.jpeg import (
    _DCT_M,
    AC_LUMA_SPEC,
    DC_LUMA_SPEC,
    Q_LUMA,
    ZIGZAG,
    _canonical_codes,
    _quality_scale,
    decode_jpeg,
    encode_jpeg_baseline,
    jpeg_info,
)


def _smooth(h, w, seed=0):
    x = np.linspace(0, 4 * np.pi, w)
    y = np.linspace(0, 3 * np.pi, h)
    img = (np.sin(y)[:, None] * np.cos(x * 0.7)[None, :]) * 100 + 128
    rng = np.random.default_rng(seed)
    return np.clip(img + rng.normal(0, 3, (h, w)), 0, 255).astype(np.uint8)


def test_dct_matrix_orthonormal():
    assert np.allclose(_DCT_M @ _DCT_M.T, np.eye(8), atol=1e-12)


def test_huffman_codes_prefix_free():
    for spec in (DC_LUMA_SPEC, AC_LUMA_SPEC):
        codes = _canonical_codes(spec[0])
        assert len(codes) == len(spec[1])
        as_bits = [format(c, f"0{ln}b") for c, ln in codes]
        for i, a in enumerate(as_bits):
            for b in as_bits[i + 1:]:
                assert not b.startswith(a) and not a.startswith(b)


def _reference_reconstruct(img: np.ndarray, quality: int) -> np.ndarray:
    """Independent scalar-loop reconstruction of what a transparent
    encode->decode must produce for a grayscale image with dimensions
    that are multiples of 8 (no padding)."""
    q = _quality_scale(Q_LUMA, quality).astype(np.float64)
    h, w = img.shape
    out = np.empty((h, w))
    for by in range(h // 8):
        for bx in range(w // 8):
            blk = img[8 * by: 8 * by + 8, 8 * bx: 8 * bx + 8].astype(
                np.float64) - 128.0
            # scalar DCT-II
            coef = np.zeros((8, 8))
            for u in range(8):
                for v in range(8):
                    cu = (1 / np.sqrt(2)) if u == 0 else 1.0
                    cv = (1 / np.sqrt(2)) if v == 0 else 1.0
                    s = 0.0
                    for x in range(8):
                        for y in range(8):
                            s += blk[x, y] \
                                * np.cos((2 * x + 1) * u * np.pi / 16) \
                                * np.cos((2 * y + 1) * v * np.pi / 16)
                    coef[u, v] = 0.25 * cu * cv * s
            qz = np.rint(coef / q) * q
            # scalar IDCT
            rec = np.zeros((8, 8))
            for x in range(8):
                for y in range(8):
                    s = 0.0
                    for u in range(8):
                        for v in range(8):
                            cu = (1 / np.sqrt(2)) if u == 0 else 1.0
                            cv = (1 / np.sqrt(2)) if v == 0 else 1.0
                            s += cu * cv * qz[u, v] \
                                * np.cos((2 * x + 1) * u * np.pi / 16) \
                                * np.cos((2 * y + 1) * v * np.pi / 16)
                    rec[x, y] = 0.25 * s + 128.0
            out[8 * by: 8 * by + 8, 8 * bx: 8 * bx + 8] = rec
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def test_entropy_layer_transparent_vs_scalar_oracle():
    img = _smooth(24, 32, seed=5)
    got = decode_jpeg(encode_jpeg_baseline(img, quality=75))
    want = _reference_reconstruct(img, 75)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("quality,bound", [(95, 42), (75, 35), (50, 30)])
def test_gray_roundtrip_psnr(quality, bound):
    img = _smooth(96, 80)
    d = decode_jpeg(encode_jpeg_baseline(img, quality=quality))
    assert d.shape == img.shape and d.dtype == np.uint8
    assert psnr(img, d) > bound


def test_flat_image_exact():
    flat = np.full((40, 56), 77, np.uint8)
    assert np.array_equal(decode_jpeg(encode_jpeg_baseline(flat, 95)), flat)


@pytest.mark.parametrize("sub", ["444", "420"])
@pytest.mark.parametrize("shape", [(64, 64), (93, 90), (17, 31)])
def test_rgb_roundtrip(sub, shape):
    h, w = shape
    base = _smooth(h, w)
    rgb = np.stack([base,
                    np.roll(base, 3, axis=0),
                    np.roll(base, 5, axis=1)], axis=-1)
    d = decode_jpeg(encode_jpeg_baseline(rgb, quality=90, subsampling=sub))
    assert d.shape == rgb.shape
    # small odd shapes lose proportionally more at block/subsample edges
    small = h * w < 1024
    assert psnr(rgb, d) > ((32 if small else 35) if sub == "444"
                           else (22 if small else 25))


def test_restart_markers_do_not_change_pixels():
    # identical quantized coefficients either way -> identical decode
    img = _smooth(96, 96, seed=2)
    plain = decode_jpeg(encode_jpeg_baseline(img, quality=80))
    for ri in (1, 3, 11):
        with_rst = decode_jpeg(
            encode_jpeg_baseline(img, quality=80, restart_interval=ri))
        assert np.array_equal(plain, with_rst)
    rgb = np.stack([img] * 3, -1)
    p = decode_jpeg(encode_jpeg_baseline(rgb, 80, subsampling="420"))
    r = decode_jpeg(encode_jpeg_baseline(rgb, 80, subsampling="420",
                                         restart_interval=2))
    assert np.array_equal(p, r)


def test_jpeg_info_header_only():
    img = _smooth(50, 70)
    rgb = np.stack([img] * 3, -1)
    i1 = jpeg_info(encode_jpeg_baseline(img, 80))
    assert (i1["width"], i1["height"], i1["components"]) == (70, 50, 1)
    i2 = jpeg_info(encode_jpeg_baseline(rgb, 80, subsampling="420"))
    assert i2["components"] == 3
    assert i2["sampling"][0] == (2, 2) and i2["sampling"][1] == (1, 1)


def test_errors():
    img = _smooth(16, 16)
    buf = encode_jpeg_baseline(img, 80)
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"\x00\x01" + buf[2:])
    # progressive (SOF2) must be an explicit NotImplementedError
    prog = bytearray(buf)
    sof = prog.find(b"\xff\xc0")
    prog[sof + 1] = 0xC2
    with pytest.raises(NotImplementedError, match="non-baseline"):
        decode_jpeg(bytes(prog))
    with pytest.raises(NotImplementedError, match="non-baseline"):
        jpeg_info(bytes(prog))
    with pytest.raises(ValueError):
        encode_jpeg_baseline(img.astype(np.int16))
    with pytest.raises(ValueError):
        encode_jpeg_baseline(img, subsampling="411")  # 4:1:1 unsupported


def test_codec_dispatch_jpeg():
    img = _smooth(32, 48)
    buf = encode_image(img, "jpeg")
    d = decode_image(buf, "jpeg", 48, 32)
    assert d.shape == (32, 48)
    assert psnr(img, d) > 35


def test_image_stats_stage_accepts_jpeg(ray_session):
    """The multimodal DecodeImages stage ingests fmt='jpeg' rows via the
    shared decode_image dispatch (the former codec gate is gone)."""
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.multimodal import DecodeImages

    imgs = [_smooth(32, 32, seed=s) for s in range(6)]
    t = pa.table({
        "image_id": pa.array([f"j{i}" for i in range(6)]),
        "bytes": pa.array([encode_jpeg_baseline(im, 90) for im in imgs],
                          pa.binary()),
        "w": pa.array([32] * 6, pa.int32()),
        "h": pa.array([32] * 6, pa.int32()),
        "fmt": pa.array(["jpeg"] * 6),
    })
    out = rd.from_arrow(t).map_batches(
        DecodeImages, batch_format="pyarrow", concurrency=(1, 2),
        num_cpus=1,
    ).to_pandas()
    assert len(out) == 6
    for i, im in enumerate(imgs):
        got = out[out["image_id"] == f"j{i}"]["px_mean"].iloc[0]
        assert abs(got - im.mean()) < 3.0  # q90 shifts the mean only a hair


@pytest.mark.parametrize("sub,want", [("422", (2, 1)), ("440", (1, 2))])
def test_422_440_subsampling(sub, want):
    base = _smooth(93, 90)
    rgb = np.stack([base, np.roll(base, 3, 0), np.roll(base, 5, 1)], -1)
    buf = encode_jpeg_baseline(rgb, 90, subsampling=sub, restart_interval=3)
    assert jpeg_info(buf)["sampling"][0] == want
    d = decode_jpeg(buf)
    assert d.shape == rgb.shape
    assert psnr(rgb, d) > 25
    # restart markers don't change pixels in the generic MCU loop either
    plain = decode_jpeg(encode_jpeg_baseline(rgb, 90, subsampling=sub))
    assert np.array_equal(plain, d)


def test_decompression_bomb_guard_and_fuzz():
    img = _smooth(32, 32)
    buf = bytearray(encode_jpeg_baseline(img, 80))
    # inflate the SOF dims: must refuse BEFORE allocating
    sof = bytes(buf).find(b"\xff\xc0")
    big = bytearray(buf)
    big[sof + 5: sof + 9] = (65_500).to_bytes(2, "big") * 2
    with pytest.raises(ValueError, match="max_pixels"):
        decode_jpeg(bytes(big))
    # corruption fuzz: random byte flips + truncation must error or
    # produce a bounded result -- never hang, never allocate unbounded
    rng = np.random.default_rng(0)
    for _ in range(40):
        b = bytearray(buf)
        for _ in range(3):
            b[int(rng.integers(2, len(b)))] ^= int(rng.integers(1, 255))
        for cand in (bytes(b), bytes(b[: int(rng.integers(4, len(b)))])):
            try:
                out = decode_jpeg(cand)
                assert out.shape[0] <= 64 and out.shape[1] <= 64
            except (ValueError, NotImplementedError, IndexError,
                    struct.error, KeyError):
                pass


import struct  # noqa: E402  (used by the fuzz test)
