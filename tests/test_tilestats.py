"""Grid-level tile statistics (stages/tilestats.py) + PII scrub
(stages/text.py): hand-computed Moran's I on crafted lattices, revisit
cadence vs a pandas reference, RE2 scrub semantics."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from equi7grid_ray.stages.text import pii_scrub
from equi7grid_ray.stages.tilestats import tile_moran, tile_revisit


def _assigned(tiles: list[str], per_tile: list[int]):
    """Fake assignment Dataset: per_tile[k] rows for tiles[k], with
    sequential scene ids."""
    import ray.data as rd

    rows_t, rows_i = [], []
    i = 0
    for t, n in zip(tiles, per_tile):
        for _ in range(n):
            rows_t.append(t)
            rows_i.append(i)
            i += 1
    return rd.from_arrow(pa.table({
        "image_id": pa.array([f"img{v:012d}" for v in rows_i], pa.string()),
        "tile": pa.array(rows_t, pa.string()),
    }))


def _moran_ref(cells: dict[tuple[int, int], int]) -> Fraction:
    """Textbook Moran's I with rook weights over a dict
    {(te, tn): count} (all same continent)."""
    xs = list(cells.values())
    n = len(xs)
    mean = Fraction(sum(xs), n)
    den = sum((Fraction(x) - mean) ** 2 for x in xs)
    num = Fraction(0)
    w = 0
    for (te, tn), x in cells.items():
        for dte, dtn in ((6, 0), (-6, 0), (0, 6), (0, -6)):
            nb = cells.get((te + dte, tn + dtn))
            if nb is not None:
                w += 1
                num += (Fraction(x) - mean) * (Fraction(nb) - mean)
    return Fraction(n, w) * num / den


def test_moran_matches_fraction_reference(ray_session):
    # 3x2 lattice, clustered counts (left high, right low) -> I > 0
    cells = {(0, 0): 9, (0, 6): 8, (6, 0): 7, (6, 6): 9,
             (12, 0): 1, (12, 6): 2}
    tiles = [f"EU_E{te:03d}N{tn:03d}T6" for (te, tn) in cells]
    ds = _assigned(tiles, list(cells.values()))
    out = tile_moran(ds).to_pandas().iloc[0]
    ref = _moran_ref(cells)
    assert out.n_tiles == 6
    assert out.w_pairs == 14
    # engine i_q9 = trunc(1e9 * I)
    expect = int(Fraction(10**9) * ref)  # int() truncates toward zero
    assert out.i_q9 == expect
    assert out.i_q9 > 0


def test_moran_checkerboard_negative(ray_session):
    cells = {(te, tn): (9 if (te // 6 + tn // 6) % 2 == 0 else 1)
             for te in (0, 6, 12) for tn in (0, 6, 12)}
    tiles = [f"AF_E{te:03d}N{tn:03d}T6" for (te, tn) in cells]
    out = tile_moran(_assigned(tiles, list(cells.values()))) \
        .to_pandas().iloc[0]
    ref = _moran_ref(cells)
    assert out.i_q9 < 0
    assert out.i_q9 == int(Fraction(10**9) * ref)


def test_moran_south_tiles_and_continents(ray_session):
    # S northing parses signed; different continents never adjacent
    tiles = ["EU_E000N000T6", "EU_E000S006T6",
             "AS_E000N006T6"]  # AS tile is NOT a neighbour of EU N000
    out = tile_moran(_assigned(tiles, [5, 1, 3])).to_pandas().iloc[0]
    assert out.w_pairs == 2  # only the EU pair, counted both ways


def test_revisit_matches_pandas(ray_session, assert_shared_partition):
    rng = np.random.default_rng(3)
    # 40 tiles over tile_revisit's 32 partitions: tiles share them
    tiles = [f"EU_E{6 * int(k):03d}N000T6" for k in rng.integers(0, 40, 200)]
    assert_shared_partition(32, tile=tiles)
    ds = _assigned_scatter(tiles)
    got = tile_revisit(ds).to_pandas() \
        .sort_values("tile").reset_index(drop=True)
    df = pd.DataFrame({"tile": tiles, "i": np.arange(len(tiles))})
    ref = df.groupby("tile", as_index=False).agg(
        n_sc=("i", "size"), i_min=("i", "min"), i_max=("i", "max"),
        max_gap=("i", lambda s: int(np.diff(np.sort(s)).max())
                 if len(s) > 1 else 0))
    ref = ref.sort_values("tile").reset_index(drop=True)
    for col in ("n_sc", "i_min", "i_max", "max_gap"):
        assert (got[col].to_numpy() == ref[col].to_numpy()).all(), col


def _assigned_scatter(tiles: list[str]):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "image_id": pa.array([f"img{v:012d}" for v in range(len(tiles))],
                             pa.string()),
        "tile": pa.array(tiles, pa.string()),
    }))


def test_revisit_singleton_gap_zero(ray_session):
    got = tile_revisit(_assigned_scatter(["EU_E000N000T6"])).to_pandas()
    assert got.iloc[0].n_sc == 1 and got.iloc[0].max_gap == 0


def test_pii_scrub_crafted():
    batch = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "write a@b.co and c.d+x@sub.example.org today",
            "call +1 555 000 1234 or +49 123 456 7890 now",
            "clean text no pii",
        ]),
    })
    out = pii_scrub(batch)
    assert out.column("n_email").to_pylist() == [2, 0, 0]
    assert out.column("n_phone").to_pylist() == [0, 2, 0]
    assert out.column("red_text").to_pylist() == [
        "write <EMAIL> and <EMAIL> today",
        "call <PHONE> or <PHONE> now",
        "clean text no pii",
    ]


def test_tile_clusters_crafted(ray_session):
    from equi7grid_ray.stages.tilestats import tile_clusters

    # cluster A: L-shaped 3 tiles; cluster B: single far tile;
    # cluster C: 2 tiles in another continent at same coordinates
    tiles = ["EU_E006N000T6", "EU_E000N000T6", "EU_E000N006T6",
             "EU_E060N060T6",
             "AF_E000N000T6", "AF_E006N000T6"]
    per = [2, 1, 1, 5, 1, 1]
    got = tile_clusters(_assigned(tiles, per)).to_pandas() \
        .sort_values("comp_tile").reset_index(drop=True)
    assert got["comp_tile"].tolist() == [
        "AF_E000N000T6", "EU_E000N000T6", "EU_E060N060T6"]
    assert got["n_tiles"].tolist() == [2, 3, 1]
    assert got["n_scenes"].tolist() == [2, 4, 5]


def test_tile_node_codec_roundtrip():
    from equi7grid_ray.grid import tile_lattice
    from equi7grid_ray.stages.tilestats import _node_to_tile, _tile_node_ids

    names = ["EU_E048N012T6", "AS_E066S018T6", "AF_E000N000T6",
             "SA_E090N090T6", "OC_E132S006T6"]
    nodes = _tile_node_ids(*tile_lattice(names))
    assert _node_to_tile(nodes) == names
    # order-isomorphism: int order == name lexicographic order
    by_node = [n for _, n in sorted(zip(nodes, names))]
    assert by_node == sorted(names)


def test_doc_chunks_matches_scalar():
    """Overlapping windows vs a per-doc Python reference, including the
    new-token chunk-existence rule and empty-token preservation."""
    from equi7grid_ray.stages.text import doc_chunks

    texts = [
        "a bb ccc",                      # 3 tokens, 1 chunk
        " ".join(f"t{k}" for k in range(9)),   # 9 toks: W=4,S=3 -> 3 chunks
        " ".join(f"t{k}" for k in range(10)),  # 10 toks -> 3 chunks
        " ".join(f"t{k}" for k in range(11)),  # 11 toks -> 4 chunks (tail)
        "x  y",                          # double space: empty token kept
        "",                              # one empty token
    ]
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })
    W, S = 4, 3
    out = doc_chunks(batch, window=W, stride=S)
    got = list(zip(*(out[c].to_pylist() for c in
                     ("doc_id", "chunk_idx", "tok_start", "n_toks",
                      "n_chars"))))
    exp = []
    for d, text in enumerate(texts):
        toks = text.split(" ")
        n = len(toks)
        s = 0
        ci = 0
        while ci == 0 or ci * S + W - S < n:
            st = ci * S
            nt = min(W, n - st)
            piece = " ".join(toks[st:st + nt])
            exp.append((d, ci, st, nt, len(piece)))
            ci += 1
    assert got == exp


def test_doc_chunks_rejects_bad_params():
    from equi7grid_ray.stages.text import doc_chunks

    batch = pa.table({"doc_id": pa.array([1], pa.int64()),
                      "text": pa.array(["a b"])})
    with pytest.raises(ValueError):
        doc_chunks(batch, window=4, stride=4)
    with pytest.raises(ValueError):
        doc_chunks(batch, window=4, stride=0)


def test_cost_distance_hand_lattice(ray_session, assert_shared_partition):
    """3x1 strip + detached tiles: hand-checked Bellman-Ford."""
    import ray.data as rd

    from equi7grid_ray.stages.tilestats import tile_cost_distance

    # scene counts: A=4 (seed, w=1), B=1 (w=2), C=2 (w=3); D and E
    # detached (E shares A's partition of the per-tile count)
    rows = (["EU_E036N012T6"] * 4 + ["EU_E042N012T6"] * 1
            + ["EU_E048N012T6"] * 2 + ["EU_E090N090T6"] * 1
            + ["AS_E066N030T6"] * 3 + ["EU_E006N096T6"] * 1)
    assert_shared_partition(32, tile=rows)
    t = pa.table({"tile": pa.array(rows, pa.string())})
    out = tile_cost_distance(rd.from_arrow(t), rounds=8).to_pandas()
    got = {r.tile: (r.w, r.dist) for r in out.itertuples()}
    assert got == {
        "EU_E036N012T6": (1, 0),     # continent max -> seed
        "EU_E042N012T6": (2, 2),     # seed + enter w=2
        "EU_E048N012T6": (3, 5),     # 2 + enter w=3
        "EU_E090N090T6": (2, -1),    # detached, unreached
        "AS_E066N030T6": (4, 0),     # AS continent max -> its own seed
        "EU_E006N096T6": (2, -1),    # detached, unreached
    }


def test_cost_distance_round_cap(ray_session, assert_shared_partition):
    """rounds bounds the reachable horizon: with rounds=1 the two-step
    tile stays unreached."""
    import ray.data as rd

    from equi7grid_ray.stages.tilestats import tile_cost_distance

    # EU_E006N072T6 (detached) shares EU_E042N012T6's partition
    rows = (["EU_E036N012T6"] * 4 + ["EU_E042N012T6"] * 1
            + ["EU_E048N012T6"] * 2 + ["EU_E006N072T6"])
    assert_shared_partition(32, tile=rows)
    t = pa.table({"tile": pa.array(rows, pa.string())})
    out = tile_cost_distance(rd.from_arrow(t), rounds=1).to_pandas()
    got = {r.tile: r.dist for r in out.itertuples()}
    assert got == {"EU_E036N012T6": 0, "EU_E042N012T6": 2,
                   "EU_E048N012T6": -1, "EU_E006N072T6": -1}


def test_coverage_gini_hand_values(ray_session):
    """Gini closed form pinned on hand-computed continents: equal
    counts -> 0; EU counts (1, 3) -> num 2, den 8, pm 250."""
    import ray.data as rd

    from equi7grid_ray.stages.tilestats import coverage_gini

    rows = (["AF_E036N012T6"] * 2 + ["AF_E042N012T6"] * 2
            + ["EU_E048N012T6"] * 1 + ["EU_E054N012T6"] * 3)
    t = pa.table({"tile": pa.array(rows, pa.string())})
    out = coverage_gini(rd.from_arrow(t)).to_pandas() \
        .set_index("cont").sort_index()
    af, eu = out.loc["AF"], out.loc["EU"]
    assert (af.n_tiles, af.total, af.gini_num, af.gini_den,
            af.gini_pm) == (2, 4, 0, 8, 0)
    assert (eu.n_tiles, eu.total, eu.gini_num, eu.gini_den,
            eu.gini_pm) == (2, 4, 2, 8, 250)


def test_coverage_gini_permutation_invariant(ray_session):
    """Equal counts under any tie order give the same statistic; a
    random multiset matches the scalar closed form."""
    import ray.data as rd

    from equi7grid_ray.stages.tilestats import coverage_gini

    rng = np.random.default_rng(3)
    counts = rng.integers(1, 9, 12)
    rows = []
    for k, c in enumerate(counts):
        rows += [f"AS_E{k * 6:03d}N012T6"] * int(c)
    t = pa.table({"tile": pa.array(rows, pa.string())})
    out = coverage_gini(rd.from_arrow(t)).to_pandas().iloc[0]
    c = np.sort(counts.astype(np.int64))
    n, tot = len(c), int(c.sum())
    num = int(2 * (np.arange(1, n + 1) * c).sum()) - (n + 1) * tot
    assert (out.n_tiles, out.total, out.gini_num, out.gini_den,
            out.gini_pm) == (n, tot, num, n * tot,
                             1000 * num // (n * tot))


def test_zone_shape_metrics_plus_lattice(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.tilestats import zone_shape_metrics

    # plus-shaped 5-tile lattice: center has 4 rook neighbours
    # (interior), each arm has 1 -> perimeter = 5*4 - 2*4 = 12
    names = ["EU_E012N012T6", "EU_E018N012T6", "EU_E006N012T6",
             "EU_E012N018T6", "EU_E012N006T6",
             # a lone AS tile: perimeter 4, no interior
             "AS_E030S006T6"]
    tbl = pa.table({"tile": pa.array(names, pa.string())})
    got = zone_shape_metrics(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("continent").reset_index(drop=True)
    eu = got[got["continent"] == "EU"].iloc[0]
    assert (eu["n_tiles"], eu["perimeter_edges"], eu["n_interior"]) \
        == (5, 12, 1)
    a = got[got["continent"] == "AS"].iloc[0]
    assert (a["n_tiles"], a["perimeter_edges"], a["n_interior"]) == (1, 4, 0)


def test_land_regions_crafted_lattice(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.tilestats import land_regions

    # EU: an L-domino pair + a far singleton -> 2 regions, largest 3;
    # a diagonal-only pair does NOT connect (rook adjacency)
    tbl = pa.table({
        "tile": pa.array([
            "EU_E012N012T6", "EU_E018N012T6", "EU_E018N018T6",
            "EU_E090N090T6",
            "AS_E030N030T6", "AS_E036N036T6",
        ], pa.string()),
        "covers_land": pa.array([True] * 6),
    })
    got = land_regions(rd.from_arrow(tbl)).to_pandas() \
        .sort_values("continent").reset_index(drop=True)
    eu = got[got["continent"] == "EU"].iloc[0]
    assert (eu["n_regions"], eu["largest_region"],
            eu["n_land_tiles"]) == (2, 3, 4)
    a = got[got["continent"] == "AS"].iloc[0]
    assert (a["n_regions"], a["largest_region"]) == (2, 1)
