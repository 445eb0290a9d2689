"""The SQL pixel sources of the image oracles (sqlgen.pixels_sql and
sqlgen.pcm_samples_sql) against codec.decode_image over the same
synthetic rows (sources/images.make_batch).  Every image oracle reads
its pixels through these CTEs, so this pins the SQL side of the whole
image-operator family to the engine's decode."""

from __future__ import annotations

import duckdb
import numpy as np

from equi7grid_ray import sqlgen
from equi7grid_ray.arrowutil import binary_view
from equi7grid_ray.codec import decode_image
from equi7grid_ray.sources.images import make_batch

N = 12  # rows 0..8 cover all 9 (w, h) sizes; raw and png rows alternate


def _decoded(n: int):
    batch = make_batch(0, n)
    data, offs = binary_view(batch.column("bytes"))
    fmts = batch.column("fmt").to_pylist()
    ws = batch.column("w").to_numpy()
    hs = batch.column("h").to_numpy()
    return [decode_image(data[offs[j] : offs[j + 1]], fmts[j],
                         int(ws[j]), int(hs[j]))
            for j in range(n)], set(fmts)


def test_pixels_sql_matches_decoded_frames():
    px = duckdb.sql(f"WITH {sqlgen.pixels_sql(N)} "
                    "SELECT i, w, h, r, c, v FROM px ORDER BY i, r, c").fetchnumpy()
    imgs, fmts = _decoded(N)
    assert fmts == {"raw", "png"}
    assert {img.shape for img in imgs} == {(h, w) for h in (32, 64, 128)
                                           for w in (32, 64, 128)}
    assert len(px["i"]) == sum(img.size for img in imgs)
    for j, img in enumerate(imgs):
        sel = px["i"] == j
        h, w = img.shape
        assert (px["w"][sel] == w).all() and (px["h"][sel] == h).all()
        np.testing.assert_array_equal(px["r"][sel], np.repeat(np.arange(h), w))
        np.testing.assert_array_equal(px["c"][sel], np.tile(np.arange(w), h))
        np.testing.assert_array_equal(px["v"][sel].reshape(h, w), img)


def test_pcm_samples_sql_matches_payload_pixel_bytes():
    sv = duckdb.sql(f"WITH {sqlgen.pcm_samples_sql(N)} "
                    "SELECT i, k, v FROM sv ORDER BY i, k").fetchnumpy()
    imgs, _ = _decoded(N)
    for j, img in enumerate(imgs):
        body = img.tobytes()
        expect = np.frombuffer(body[: len(body) // 2 * 2], "<i2")
        sel = sv["i"] == j
        np.testing.assert_array_equal(sv["k"][sel], np.arange(len(expect)))
        np.testing.assert_array_equal(sv["v"][sel], expect)
