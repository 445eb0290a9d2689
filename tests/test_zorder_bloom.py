"""Z-order locality keys (stages/zorder.py) and Bloom semi-join
(stages/bloom.py) vs naive references."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _naive_morton(x: int, y: int) -> int:
    out = 0
    for i in range(16):
        out |= ((x >> i) & 1) << (2 * i)
        out |= ((y >> i) & 1) << (2 * i + 1)
    return out


def test_morton_matches_naive_and_roundtrips():
    from equi7grid_ray.stages.zorder import morton_decode, morton_key

    rng = np.random.default_rng(3)
    cx = rng.integers(0, 1 << 16, 300)
    cy = rng.integers(0, 1 << 16, 300)
    k = morton_key(cx, cy)
    ref = np.array([_naive_morton(int(a), int(b)) for a, b in zip(cx, cy)])
    assert (k == ref).all()
    dx, dy = morton_decode(k)
    assert (dx == cx).all() and (dy == cy).all()
    # locality sanity: neighbours in the same 2x2 block are adjacent keys
    assert morton_key(np.array([7]), np.array([4]))[0] in range(
        int(morton_key(np.array([6]), np.array([4]))[0]) - 3,
        int(morton_key(np.array([6]), np.array([4]))[0]) + 4)


def test_zorder_ranges_cover_rect_exactly():
    from equi7grid_ray.stages.zorder import morton_key, zorder_ranges

    bits = 5
    side = 1 << bits
    gx, gy = np.meshgrid(np.arange(side), np.arange(side))
    keys = morton_key(gx.ravel(), gy.ravel())
    rng = np.random.default_rng(9)
    for _ in range(60):
        x0, x1 = sorted(int(v) for v in rng.integers(0, side, 2))
        y0, y1 = sorted(int(v) for v in rng.integers(0, side, 2))
        covered = np.zeros(len(keys), bool)
        for lo, hi in zorder_ranges(x0, y0, x1, y1, bits=bits,
                                    max_ranges=10_000):
            covered |= (keys >= lo) & (keys <= hi)
        inrect = ((gx.ravel() >= x0) & (gx.ravel() <= x1)
                  & (gy.ravel() >= y0) & (gy.ravel() <= y1))
        assert (covered == inrect).all()
    # capped decomposition over-covers but never under-covers
    capped = zorder_ranges(3, 2, 27, 30, bits=bits, max_ranges=6)
    covered = np.zeros(len(keys), bool)
    for lo, hi in capped:
        covered |= (keys >= lo) & (keys <= hi)
    inrect = ((gx.ravel() >= 3) & (gx.ravel() <= 27)
              & (gy.ravel() >= 2) & (gy.ravel() <= 30))
    assert covered[inrect].all()


def test_filter_bbox_via_zorder_matches_plain_filter(ray_session):
    import ray

    from equi7grid_ray.stages.zorder import (add_zorder_column,
                                             filter_bbox_via_zorder)

    rng = np.random.default_rng(17)
    n = 20_000
    x = rng.uniform(0, 1000, n)
    y = rng.uniform(0, 800, n)
    ds = ray.data.from_arrow(pa.table({
        "rid": pa.array(np.arange(n), pa.int64()),
        "x": pa.array(x), "y": pa.array(y),
    }))
    keyed = add_zorder_column(ds, x_range=(0, 1000), y_range=(0, 800),
                              bits=10)
    bbox = (123.4, 77.7, 456.7, 600.2)
    got = filter_bbox_via_zorder(
        keyed, bbox, x_range=(0, 1000), y_range=(0, 800), bits=10
    ).to_pandas()
    want = ((x >= bbox[0]) & (x <= bbox[2])
            & (y >= bbox[1]) & (y <= bbox[3]))
    assert sorted(got["rid"]) == sorted(np.flatnonzero(want).tolist())


def test_bloom_filter_no_false_negatives_and_fpp():
    from equi7grid_ray.stages.bloom import BloomFilter

    rng = np.random.default_rng(1)
    keys = rng.choice(10_000_000, size=5000, replace=False).astype(np.int64)
    m, k = BloomFilter.params(len(keys), 0.01)
    bf = BloomFilter(np.zeros(m // 64, np.uint64), m, k)
    pos = np.unique(bf.positions(keys).ravel())
    np.bitwise_or.at(bf.words, (pos >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (pos & np.uint64(63)))
    assert bf.contains(keys).all()  # no false negatives, ever
    probe = rng.choice(10_000_000, size=20_000).astype(np.int64)
    novel = probe[~np.isin(probe, keys)]
    fpp = bf.contains(novel).mean()
    assert fpp < 0.03  # target 0.01 with headroom


def test_bloom_semi_join_matches_pandas(ray_session, assert_shared_partition):
    import ray

    from equi7grid_ray.stages.bloom import bloom_semi_join

    rng = np.random.default_rng(23)
    big = pd.DataFrame({
        "key": rng.integers(0, 400, 3000).astype(np.int64),
        "payload": rng.integers(0, 1000, 3000).astype(np.int64),
    })
    small = pd.DataFrame({
        "key": rng.choice(400, size=90, replace=False).astype(np.int64),
        "extra": np.arange(90, dtype=np.int64),
    })
    assert_shared_partition(32, key=big["key"])
    out = bloom_semi_join(
        ray.data.from_pandas(big), ray.data.from_pandas(small),
        on="key", fpp=0.05,
    ).to_pandas()
    want = big[big["key"].isin(set(small["key"]))]
    lcanon = out.sort_values(["key", "payload"]).reset_index(drop=True)
    rcanon = want.sort_values(["key", "payload"]).reset_index(drop=True)
    assert (lcanon[["key", "payload"]].to_numpy(np.int64)
            == rcanon[["key", "payload"]].to_numpy(np.int64)).all()
    assert set(out.columns) == {"key", "payload"}


def test_bloom_anti_join_matches_pandas(ray_session, assert_shared_partition):
    import ray

    from equi7grid_ray.stages.bloom import bloom_anti_join

    rng = np.random.default_rng(29)
    big = pd.DataFrame({
        "key": rng.integers(0, 300, 2500).astype(np.int64),
        "payload": rng.integers(0, 1000, 2500).astype(np.int64),
    })
    small = pd.DataFrame({
        "key": rng.choice(300, size=60, replace=False).astype(np.int64),
    })
    # duplicate keys on the small side must not duplicate output rows
    small = pd.concat([small, small.head(10)], ignore_index=True)
    assert_shared_partition(32, key=big["key"])
    out = bloom_anti_join(
        ray.data.from_pandas(big), ray.data.from_pandas(small),
        on="key", fpp=0.05,
    ).to_pandas()
    want = big[~big["key"].isin(set(small["key"]))]
    lc = out.sort_values(["key", "payload"]).reset_index(drop=True)
    rc = want.sort_values(["key", "payload"]).reset_index(drop=True)
    assert len(lc) == len(rc)
    assert (lc[["key", "payload"]].to_numpy(np.int64)
            == rc[["key", "payload"]].to_numpy(np.int64)).all()
    assert set(out.columns) == {"key", "payload"}


def test_neighbor_pairs_matches_brute_force(ray_session,
                                            assert_shared_partition):
    import ray

    from equi7grid_ray.stages.neighbors import neighbor_pairs

    rng = np.random.default_rng(7)
    n = 600
    x = rng.uniform(-500, 1500, n)   # negative coords exercise floor
    y = rng.uniform(-300, 900, n)
    ids = rng.permutation(10_000)[:n].astype(np.int64)
    R = 60.0
    ds = ray.data.from_arrow(pa.table({
        "id": pa.array(ids), "x": pa.array(x), "y": pa.array(y)}))
    # home cells (the cogroup key) share neighbor_pairs' 32 partitions
    assert_shared_partition(
        32, ck=np.floor(x / R).astype(np.int64) * (1 << 31)
        + np.floor(y / R).astype(np.int64))
    out = neighbor_pairs(ds, radius=R).to_pandas()
    got = set(zip(out["id_a"].astype(np.int64), out["id_b"].astype(np.int64)))
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    within = (dx * dx + dy * dy) <= R * R
    ia, ib = np.nonzero(within)
    want = {(int(min(ids[a], ids[b])), int(max(ids[a], ids[b])))
            for a, b in zip(ia, ib) if a < b}
    assert got == want
    assert len(out) == len(got)  # no duplicate emissions
    # larger cells than the radius are also exact
    out2 = neighbor_pairs(ds, radius=R, cell_size=150.0).to_pandas()
    got2 = set(zip(out2["id_a"].astype(np.int64),
                   out2["id_b"].astype(np.int64)))
    assert got2 == want


def test_write_zordered_prunes_row_groups(ray_session, tmp_path):
    """The zkey-sorted parquet layout actually prunes: row groups whose
    zkey min/max misses every query interval are skipped, and the
    pruned scan returns exactly the bbox rows."""
    import glob

    import pyarrow.parquet as pq
    import ray

    from equi7grid_ray.stages.zorder import (morton_key, write_zordered,
                                             zorder_ranges)

    rng = np.random.default_rng(43)
    n = 40_000
    x = rng.uniform(0, 1024, n)
    y = rng.uniform(0, 1024, n)
    ds = ray.data.from_arrow(pa.table({
        "rid": pa.array(np.arange(n), pa.int64()),
        "x": pa.array(x), "y": pa.array(y)}))
    out = str(tmp_path / "zsorted")
    write_zordered(ds, out, x_range=(0, 1024), y_range=(0, 1024),
                   bits=10, row_group_rows=2048)

    bbox = (100.0, 100.0, 228.0, 228.0)  # 1/64 of the area
    cells = [int(v * 1024 / 1024) for v in bbox]
    ranges = zorder_ranges(cells[0], cells[1], cells[2], cells[3], bits=10)

    total_rg, touched_rg, kept = 0, 0, []
    for f in glob.glob(f"{out}/*.parquet"):
        pf = pq.ParquetFile(f)
        for rg in range(pf.metadata.num_row_groups):
            total_rg += 1
            col = pf.metadata.row_group(rg).column(
                pf.schema_arrow.names.index("zkey"))
            lo, hi = col.statistics.min, col.statistics.max
            if any(r_lo <= hi and lo <= r_hi for r_lo, r_hi in ranges):
                touched_rg += 1
                kept.append(pf.read_row_group(rg))
    # the sorted layout must skip the large majority of row groups for
    # a small rectangle
    assert total_rg >= 15
    assert touched_rg <= total_rg // 3
    # exactness: the pruned scan plus the predicate equals brute force
    t = pa.concat_tables(kept)
    xx = t.column("x").to_numpy()
    yy = t.column("y").to_numpy()
    m = ((xx >= bbox[0]) & (xx <= bbox[2])
         & (yy >= bbox[1]) & (yy <= bbox[3]))
    want = ((x >= bbox[0]) & (x <= bbox[2])
            & (y >= bbox[1]) & (y <= bbox[3])).sum()
    assert m.sum() == want


def test_hll_distinct_by(ray_session):
    """Keyed HLL: per-key estimates within the expected error band and
    exact agreement with the global sketch on a single-key input."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.sketch import hll_distinct, hll_distinct_by

    rng = np.random.default_rng(9)
    keys, vals = [], []
    true = {"a": 5000, "b": 800, "c": 60}
    for k, n in true.items():
        ids = rng.choice(n * 10, n, replace=False).astype(np.int64)
        reps = np.concatenate([ids, rng.choice(ids, 2 * n)])  # duplicates
        keys.extend([k] * len(reps))
        vals.extend(reps.tolist())
    t = pa.table({"k": pa.array(keys, pa.string()),
                  "v": pa.array(vals, pa.int64())})
    out = hll_distinct_by(rd.from_arrow(t), key_col="k", col="v",
                          p=8).to_pandas()
    got = dict(zip(out["k"], out["est"]))
    for k, n in true.items():
        assert abs(got[k] - n) / n < 0.25, (k, got[k], n)
    # single-key input == the global sketch, register for register
    sub = t.filter(pa.compute.equal(t.column("k"), "b"))
    g = hll_distinct(rd.from_arrow(sub), col="v", p=8).to_pandas()
    assert int(g["est"][0]) == int(got["b"])


def test_hilbert_key_matches_scalar_reference():
    from equi7grid_ray.stages.zorder import hilbert_key

    def xy2d(order, x, y):
        n = 1 << order
        d = 0
        s = n // 2
        while s > 0:
            rx = 1 if (x & s) > 0 else 0
            ry = 1 if (y & s) > 0 else 0
            d += s * s * ((3 * rx) ^ ry)
            if ry == 0:
                if rx == 1:
                    x, y = n - 1 - x, n - 1 - y
                x, y = y, x
            s //= 2
        return d

    rng = np.random.default_rng(5)
    for bits in (4, 8, 13):
        n = 1 << bits
        xs = rng.integers(0, n, 200)
        ys = rng.integers(0, n, 200)
        got = hilbert_key(xs, ys, bits)
        ref = [xy2d(bits, int(a), int(b)) for a, b in zip(xs, ys)]
        assert got.tolist() == ref


def test_hilbert_bijection_and_adjacency():
    # the defining property: consecutive curve positions are
    # grid-adjacent (Manhattan step 1), and the map is a bijection
    from equi7grid_ray.stages.zorder import hilbert_key

    bits = 4
    n = 1 << bits
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    d = hilbert_key(xs.ravel(), ys.ravel(), bits)
    assert len(set(d.tolist())) == n * n
    order = np.argsort(d)
    xo, yo = xs.ravel()[order], ys.ravel()[order]
    steps = np.abs(np.diff(xo)) + np.abs(np.diff(yo))
    assert (steps == 1).all()


def test_geohash_reference_values():
    """4-char prefixes of textbook geohashes: the engine's integer bit
    build reproduces the canonical encoder (57.64911,10.40744 ->
    'u4pr...'; -25.382708,-49.265506 -> '6gkz...')."""
    alpha = "0123456789bcdefghjkmnpqrstuvwxyz"

    def encode4(lon_deg, lat_deg):
        lon_u = int(round(lon_deg * 1e6))
        lat_u = int(round(lat_deg * 1e6))
        ix = (lon_u + 180_000_000) * 1024 // 360_000_000
        iy = (lat_u + 90_000_000) * 1024 // 180_000_000
        z = 0
        for k in range(10):
            z |= ((ix >> (9 - k)) & 1) << (19 - 2 * k)
            z |= ((iy >> (9 - k)) & 1) << (18 - 2 * k)
        return "".join(alpha[(z >> (15 - 5 * j)) & 31] for j in range(4))

    assert encode4(10.40744, 57.64911) == "u4pr"
    assert encode4(-49.265506, -25.382708) == "6gkz"
    assert encode4(-5.6, 42.6) == "ezs4"[:4]
    assert encode4(0.0, 0.0) == "s000"


def test_quadtree_leaves_crafted(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.zorder import quadtree_leaves

    # bits=4 domain [0,16)^2, max_depth 2, cap 3.
    # 5 points in the (0,0) depth-1 quadrant (all in its (0,0) depth-2
    # child) -> root 6 > 3 -> split; (0,0)@d1 has 5 > 3 -> split ->
    # forced-leaf? no: depth-2 child (0,0) has 5 > 3 but 2 == max_depth
    # -> forced leaf.  1 point at (12,12) -> its d1 quadrant (1,1) has
    # 1 <= 3 -> leaf at depth 1.
    xs = [0, 1, 2, 3, 1, 12]
    ys = [0, 1, 0, 1, 2, 12]
    tbl = pa.table({"x": pa.array(xs, pa.int64()),
                    "y": pa.array(ys, pa.int64())})
    got = quadtree_leaves(rd.from_arrow(tbl), bits=4, max_depth=2,
                          cap=3).to_pandas() \
        .sort_values(["depth", "qx", "qy"]).reset_index(drop=True)
    assert list(map(tuple, got.to_numpy())) == [
        (1, 1, 1, 1),      # sparse quadrant leaf
        (2, 0, 0, 5),      # forced max-depth leaf
    ]


def test_quadtree_leaves_root_fits(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.zorder import quadtree_leaves

    tbl = pa.table({"x": pa.array([1, 2], pa.int64()),
                    "y": pa.array([3, 4], pa.int64())})
    got = quadtree_leaves(rd.from_arrow(tbl), bits=4, max_depth=2,
                          cap=10).to_pandas()
    assert got.to_dict("records") == [
        {"depth": 0, "qx": 0, "qy": 0, "n_points": 2}]
