"""Grid-level statistics over the per-tile scene stack: spatial
autocorrelation (Moran's I with rook adjacency on the T6 lattice) and
revisit cadence (acquisition-gap stats per tile).

Both ride the tile-assignment output (reference-side analogue: the
per-tile file inventory a resample_to_equi7_tiles archive produces,
reference warp.py:424-578).  Scale shape: the per-tile COUNT aggregate
(:func:`tile_counts`) is the only thing that ever shuffles; the lattice
folds then run over the bounded tile table (<= ~27k T6 tiles globally
-- the same bounded materialization as the flagship tile histogram)
built by :func:`_observed_tiles`, with every neighbour lookup going
through :func:`_neighbour_index` (offsets -> row index, -1 where
absent).  Moran arithmetic is in exact Python bigints so the SQL
mirror is bit-identical (division truncates toward zero, DuckDB's
``//`` rule).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from equi7grid_ray.grid import (CONTINENT_CODES, full_names, lattice_key,
                                tile_lattice)
from equi7grid_ray.stages.aggregate import hash_aggregate

__all__ = ["tile_counts", "tile_moran", "tile_revisit", "tile_clusters",
           "tile_kring", "tile_erosion_depth", "tile_cost_distance",
           "coverage_gini"]


def _tdiv(a: int, b: int) -> int:
    """Truncate-toward-zero integer division (DuckDB ``//``)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def tile_counts(ds, *, name: str = "x"):
    """Per-tile row count of a Dataset with a ``tile`` column: per-batch
    ``value_counts`` partials, then one keyed sum.  Returns (tile,
    ``name``) rows with tile as a plain string."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column("tile"))
        return pa.table({"tile": vc.field("values").cast(pa.string()),
                         "pn": vc.field("counts").cast(pa.int64())})

    return hash_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["tile"], aggs={name: ("pn", "sum")})


def _lattice_frame(tiles) -> pd.DataFrame:
    """The bounded tile table on the lattice: tile, continent index
    ``cidx``, easting ``te`` and signed northing ``tn``."""
    tiles = np.asarray(tiles, dtype=object)
    cidx, te, tn = tile_lattice(tiles.astype(str))
    return pd.DataFrame({"tile": tiles, "cidx": cidx, "te": te, "tn": tn})


def _observed_tiles(assigned) -> pd.DataFrame:
    """:func:`_lattice_frame` of the observed tiles plus their scene
    count ``x`` -- collected to the driver (bounded: one row per
    observed tile)."""
    df = tile_counts(assigned).to_pandas()
    return _lattice_frame(df["tile"]).assign(x=df["x"].to_numpy(np.int64))


def _neighbour_index(par: pd.DataFrame, offsets) -> list[np.ndarray]:
    """Per (de, dn) lattice offset: for every row of ``par`` the row
    index of the same-continent tile at (te + de, tn + dn), or -1 where
    there is none."""
    cidx, te, tn = (par[c].to_numpy(np.int64) for c in ("cidx", "te", "tn"))
    if not len(par):
        return [np.zeros(0, np.int64) for _ in offsets]
    key = lattice_key(cidx, te, tn)
    order = np.argsort(key)
    skey = key[order]
    out = []
    for de, dn in offsets:
        want = lattice_key(cidx, te + de, tn + dn)
        pos = np.minimum(np.searchsorted(skey, want), len(skey) - 1)
        out.append(np.where(skey[pos] == want, order[pos], -1))
    return out


def _ring_offsets(radius: int, step: int):
    """(de, dn) offsets of the (2r+1)^2 Chebyshev neighbourhood."""
    return [(dx * step, dy * step) for dx in range(-radius, radius + 1)
            for dy in range(-radius, radius + 1)]


def tile_moran(assigned, *, step: int = 6, q: int = 10**9):
    """Moran's I of the per-tile scene count over rook-adjacent tiles
    (same continent, +/-``step`` in easting XOR northing; binary
    weights; universe = observed tiles).

        d_i = N*x_i - S   (N-scaled deviation, exact)
        I   = (N * sum_adj d_i d_j) / (W * sum d_i^2)

    reported as ``i_q9`` = trunc(1e9 * I).  Emits one row with the
    exact intermediates (n_tiles, w_pairs, num, den) so the oracle
    pins the whole computation, not just the quotient."""
    import ray.data as rd

    par = _observed_tiles(assigned)
    n = len(par)
    x = par["x"].to_numpy(dtype=object)
    s = int(x.sum())
    d = n * x - s
    den = int(sum(int(v) * int(v) for v in d))
    # rook pairs via the east and north neighbour maps (each unordered
    # pair found once -> doubled by symmetry)
    w = num = 0
    for nb in _neighbour_index(par, [(step, 0), (0, step)]):
        has = np.flatnonzero(nb >= 0)
        w += 2 * len(has)
        num += 2 * sum(int(a) * int(b) for a, b in zip(d[has], d[nb[has]]))
    i_q9 = _tdiv(q * n * num, w * den) if w and den else 0
    return rd.from_arrow(pa.table({
        "n_tiles": pa.array([n], pa.int64()),
        "w_pairs": pa.array([w], pa.int64()),
        "num": pa.array([num], pa.int64()),
        "den": pa.array([den], pa.int64()),
        "i_q9": pa.array([i_q9], pa.int64()),
    }))


def tile_revisit(assigned):
    """Per-tile revisit cadence over the scene index (the acquisition
    -time stand-in): scene count, first/last index, and the largest
    gap between consecutive acquisitions (0 for single-scene tiles).

    One hash partition on tile, then ONE lexsort + reduceat pass per
    partition -- no per-group Python."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.aggregate import cogroup

    def prep(batch: pa.Table) -> pa.Table:
        idx = pc.cast(
            pc.utf8_slice_codeunits(batch.column("image_id"), 3, 32),
            pa.int64(),
        )
        return pa.table({"tile": pc.cast(batch.column("tile"), pa.string()),
                         "i": idx})

    def cadence(g: pd.DataFrame) -> pd.DataFrame:
        tcode, tuniq = pd.factorize(g["tile"], sort=False)
        i = g["i"].to_numpy()
        order = np.lexsort((i, tcode))
        tc, i = tcode[order], i[order]
        new = np.empty(len(i), bool)
        new[0] = True
        new[1:] = tc[1:] != tc[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, len(i)))
        gaps = np.empty(len(i), np.int64)
        gaps[0] = 0
        gaps[1:] = i[1:] - i[:-1]
        gaps[new] = 0  # boundary slots carry no gap
        return pd.DataFrame({
            "tile": tuniq.take(tc[starts]),
            "n_sc": counts.astype(np.int64),
            "i_min": i[starts],
            "i_max": i[starts + counts - 1],
            "max_gap": np.maximum.reduceat(gaps, starts),
        })

    return cogroup(assigned.map_batches(prep, batch_format="pyarrow"),
                   ["tile"], cadence, n_partitions=32)


def _tile_node_ids(cidx, te, tn) -> np.ndarray:
    """Order-isomorphic int64 encoding of tile lattice points (continent
    index in name order, easting, hemisphere N<S, |northing| digits) --
    the min node id of a component decodes back to the
    lexicographically-min tile name."""
    hemi = (tn < 0).astype(np.int64)
    return ((cidx * 1000 + te) * 2 + hemi) * 1000 + np.abs(tn)


def _node_to_tile(node: np.ndarray) -> list[str]:
    digits = node % 1000
    node = node // 1000
    tn = np.where(node % 2 == 1, -digits, digits)
    node = node // 2
    cont = np.asarray(CONTINENT_CODES)[node // 1000]
    return full_names(cont, node % 1000 * 1e5, tn * 1e5, "T6").tolist()


def tile_clusters(assigned, *, step: int = 6):
    """Connected clusters of observed tiles (rook adjacency on the T6
    lattice): the contiguous-coverage regions of an archive sweep.
    Emits per cluster: the lexicographically-min member tile as the
    cluster id, member-tile count, and total scene count.

    Shape: per-tile COUNT is the only row shuffle; adjacency edges are
    built over the bounded tile table (same bounded fold as tile_moran)
    and resolved by stages.graph.connected_components (numpy min-label
    fixpoint on this edge scale)."""
    import ray.data as rd

    from equi7grid_ray.stages.graph import connected_components

    par = _observed_tiles(assigned)
    node = _tile_node_ids(*(par[c].to_numpy(np.int64)
                            for c in ("cidx", "te", "tn")))
    # rook edges from the east/north neighbour maps + self-loops
    # (self-loops keep isolated tiles as singleton components)
    id_a, id_b = [node], [node]
    for nb in _neighbour_index(par, [(step, 0), (0, step)]):
        has = nb >= 0
        id_a.append(node[has])
        id_b.append(node[nb[has]])
    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array(np.concatenate(id_a), pa.int64()),
        "id_b": pa.array(np.concatenate(id_b), pa.int64()),
    }))
    comp = connected_components(pairs).to_pandas()
    lab = dict(zip(comp["node"], comp["component"]))
    par["node"] = node
    par["comp"] = par["node"].map(lab)
    agg = par.groupby("comp", as_index=False).agg(
        n_tiles=("node", "size"), n_scenes=("x", "sum"))
    return rd.from_arrow(pa.table({
        "comp_tile": pa.array(
            _node_to_tile(agg["comp"].to_numpy(np.int64)), pa.string()),
        "n_tiles": pa.array(agg["n_tiles"].to_numpy(np.int64), pa.int64()),
        "n_scenes": pa.array(agg["n_scenes"].to_numpy(np.int64), pa.int64()),
    }))


def tile_kring(assigned, *, radius_steps: int = 2, step: int = 6):
    """K-ring neighborhood density on the T6 lattice: for every
    observed tile, how many observed same-continent tiles (and how
    many scenes) sit within Chebyshev distance ``radius_steps`` —
    itself included.  The halo-planning / coverage-density statistic
    (which tiles can run stencils without remote reads; where the
    archive is thin).

    Shape: the per-tile COUNT is the only row shuffle; the k-ring
    fold runs over the bounded tile table as (2r+1)^2 neighbour-index
    gathers.  Emits (tile, n_nbrs, nbr_scenes)."""
    import ray.data as rd

    par = _observed_tiles(assigned)
    x = par["x"].to_numpy(np.int64)
    n_nbrs = np.zeros(len(par), np.int64)
    nbr_sc = np.zeros(len(par), np.int64)
    for nb in _neighbour_index(par, _ring_offsets(radius_steps, step)):
        n_nbrs += nb >= 0
        nbr_sc += np.where(nb >= 0, x[nb], 0)
    return rd.from_arrow(pa.table({
        "tile": pa.array(par["tile"].to_numpy(), pa.string()),
        "n_nbrs": pa.array(n_nbrs, pa.int64()),
        "nbr_scenes": pa.array(nbr_sc, pa.int64()),
    }))


_COST_BIG = 1 << 40


def tile_cost_distance(assigned, *, rounds: int = 8, step: int = 6):
    """Least-cost distance over the observed T6 lattice (bounded
    Bellman-Ford -- the cost-distance / accessibility surface of
    raster GIS, run on tile granularity): seeds are each continent's
    busiest tiles (scene count == the continent max, dist 0); stepping
    INTO tile t over a rook edge costs

        w(t) = 1 + scene_count(t) % 4

    and dist relaxes for ``rounds`` synchronous rounds:

        d_k(t) = min(d_{k-1}(t), min over rook nbrs n of
                     d_{k-1}(n) + w(t))

    Tiles not reached within ``rounds`` report dist = -1.  All exact
    integers.

    Shape: the per-tile COUNT is the only row shuffle; the relaxation
    runs over the bounded observed-tile table with the 4 neighbor
    index maps precomputed once, so each round is four numpy gathers.  The SQL mirror unrolls the same rounds as
    chained materialized CTEs with four LEFT JOINs each.  Emits
    (tile, w, dist)."""
    import ray.data as rd

    par = _observed_tiles(assigned)
    x = par["x"].to_numpy(np.int64)
    w = 1 + x % 4
    cont_max = par.groupby("cidx")["x"].transform("max").to_numpy(np.int64)
    dist = np.where(x == cont_max, 0, _COST_BIG).astype(np.int64)
    nbrs = _neighbour_index(
        par, [(step, 0), (-step, 0), (0, step), (0, -step)])
    for _ in range(rounds):
        nd = dist.copy()
        for nb in nbrs:
            cand = np.where(nb >= 0, dist[nb] + w, _COST_BIG)
            nd = np.minimum(nd, cand)
        dist = nd
    out = np.where(dist >= _COST_BIG, -1, dist)
    return rd.from_arrow(pa.table({
        "tile": pa.array(par["tile"].to_numpy(), pa.string()),
        "w": pa.array(w, pa.int64()),
        "dist": pa.array(out, pa.int64()),
    }))


def tile_erosion_depth(tiles, *, step: int = 6, max_depth: int = 3):
    """Interior depth of the zone-tile lattice: the smallest Chebyshev
    ring d at which a tile's (2d+1)^2 same-continent neighborhood is
    no longer fully zone tiles (capped at ``max_depth`` + 1) — the
    morphological-erosion depth map of each continent's zone, which
    tells a scheduler how far from the projection boundary a stencil
    can run without edge handling.

    ``tiles``: the bounded zone inventory (export.tiles_table —
    O(thousands) rows planet-wide), folded with (2r+1)^2
    neighbour-index maps.  Emits (tile, n1, n2, n3, depth) where n_d counts zone
    tiles within Chebyshev d (self included)."""
    import ray.data as rd

    par = _lattice_frame(tiles.to_pandas()["tile"])  # bounded: zone inventory
    counts = {d: np.zeros(len(par), np.int64)
              for d in range(1, max_depth + 1)}
    offsets = _ring_offsets(max_depth, step)
    for (de, dn), nb in zip(offsets, _neighbour_index(par, offsets)):
        ring = max(abs(de), abs(dn)) // step
        for d in range(max(1, ring), max_depth + 1):
            counts[d] += nb >= 0
    full = {d: (2 * d + 1) ** 2 for d in counts}
    depth = np.full(len(par), max_depth + 1, np.int64)
    for d in range(max_depth, 0, -1):
        depth = np.where(counts[d] < full[d], d, depth)
    cols = {"tile": pa.array(par["tile"].to_numpy(), pa.string())}
    for d in counts:
        cols[f"n{d}"] = pa.array(counts[d], pa.int64())
    cols["depth"] = pa.array(depth, pa.int64())
    return rd.from_arrow(pa.table(cols))


def coverage_gini(assigned):
    """Per-continent GINI COEFFICIENT of the per-tile scene counts --
    the coverage-equity statistic (0 = every observed tile revisited
    equally, ->1 = acquisitions piled on few tiles) that drives
    tasking/rebalancing decisions in EO mission planning.

    Exact integers, ascending-rank closed form over counts x_1<=...<=x_n:

        gini_num = 2 * sum(r * x_r) - (n + 1) * sum(x)
        gini_den = n * sum(x)
        gini_pm  = 1000 * gini_num // gini_den     (per mille, trunc)

    Equal counts may take any rank order: their contribution to
    sum(r * x_r) is permutation-invariant, so the statistic is
    deterministic without a tie rule.

    Shape: the ONLY shuffle is the per-tile COUNT (metadata);
    the fold runs per continent over the bounded tile table."""
    import pyarrow.compute as pc

    counts = tile_counts(assigned, name="c")

    def with_cont(b: pa.Table) -> pa.Table:
        return b.append_column(
            "cont", pc.utf8_slice_codeunits(b.column("tile"), 0, 2))

    def gini(g: pd.DataFrame) -> pd.DataFrame:
        c = np.sort(g["c"].to_numpy(np.int64))
        n = len(c)
        tot = int(c.sum())
        r = np.arange(1, n + 1, dtype=np.int64)
        num = int(2 * (r * c).sum()) - (n + 1) * tot
        den = n * tot
        return pd.DataFrame({
            "cont": [g["cont"].iloc[0]],
            "n_tiles": np.array([n], np.int64),
            "total": np.array([tot], np.int64),
            "gini_num": np.array([num], np.int64),
            "gini_den": np.array([den], np.int64),
            "gini_pm": np.array([_tdiv(1000 * num, den)], np.int64),
        })

    return (
        counts.map_batches(with_cont, batch_format="pyarrow")
        .groupby("cont")
        .map_groups(gini, batch_format="pandas")
    )


def zone_shape_metrics(tiles):
    """Lattice shape metrics of each continent's T6 projection zone:
    area (tile count), perimeter (count of tile edges facing non-zone
    -- ``sum(4 - n4)`` over the 4-neighborhood), and interior count
    (tiles with all four rook neighbours in-zone).  The discrete
    isoperimetric inputs a partitioner uses to predict halo-exchange
    cost per continent (perimeter/area = fraction of stencil work
    needing edge handling).

    ``tiles``: the bounded zone inventory (export.tiles_table); four
    neighbour-index maps, one rollup.  SQL mirrors with a rook-neighbour self-join on tile-name
    arithmetic over the pinned tiles_t6 golden."""
    import ray.data as rd

    par = _lattice_frame(tiles.to_pandas()["tile"])  # bounded: zone inventory
    n4 = sum((nb >= 0).astype(np.int64) for nb in _neighbour_index(
        par, [(6, 0), (-6, 0), (0, 6), (0, -6)]))
    g = par.assign(n4=n4).groupby("cidx", as_index=False).agg(
        n_tiles=("tile", "size"),
        perimeter_edges=("n4", lambda s: int((4 - s).sum())),
        n_interior=("n4", lambda s: int((s == 4).sum())),
    )
    return rd.from_arrow(pa.table({
        "continent": pa.array(
            np.asarray(CONTINENT_CODES)[g["cidx"].to_numpy()], pa.string()),
        "n_tiles": pa.array(g["n_tiles"].to_numpy(np.int64), pa.int64()),
        "perimeter_edges": pa.array(
            g["perimeter_edges"].to_numpy(np.int64), pa.int64()),
        "n_interior": pa.array(
            g["n_interior"].to_numpy(np.int64), pa.int64()),
    }))


def land_regions(tiles):
    """Connected land regions of the T6 lattice per continent (rook
    adjacency over ``covers_land`` tiles): region count, largest
    region size and land-tile count -- the archipelago census that
    sizes per-region work units (a region is the natural halo-exchange
    closure for land-only processing).

    Bounded fold over the zone inventory: 2 neighbour-index maps build
    the adjacency, then the numpy min-label fixpoint of
    ``graph._local_min_labels`` over the tile indices (a tile with no
    land neighbour keeps its own index).  SQL mirrors reachability with
    a recursive CTE over the pinned tiles_t6 golden."""
    import ray.data as rd

    from equi7grid_ray.stages.graph import _local_min_labels

    df = tiles.to_pandas()
    par = _lattice_frame(df["tile"][df["covers_land"].astype(bool)])
    label = np.arange(len(par), dtype=np.int64)
    nbs = _neighbour_index(par, [(6, 0), (0, 6)])
    nodes, comp = _local_min_labels(
        np.concatenate([np.flatnonzero(nb >= 0) for nb in nbs]),
        np.concatenate([nb[nb >= 0] for nb in nbs]))
    label[nodes] = comp
    out = par.assign(root=label).groupby("cidx")
    rows = []
    for c, g in out:
        sizes = g.groupby("root").size()
        rows.append((CONTINENT_CODES[c], int(sizes.size), int(sizes.max()),
                     int(len(g))))
    rows.sort()
    return rd.from_arrow(pa.table({
        "continent": pa.array([r[0] for r in rows], pa.string()),
        "n_regions": pa.array([r[1] for r in rows], pa.int64()),
        "largest_region": pa.array([r[2] for r in rows], pa.int64()),
        "n_land_tiles": pa.array([r[3] for r in rows], pa.int64()),
    }))


def coverage_churn(assigned):
    """Two-epoch coverage churn per continent: which T6 tiles were
    observed in epoch 0 (even scene index) vs epoch 1 (odd), rolled up
    as kept / gained / lost tile counts -- the acquisition-coverage
    delta an EO operations dashboard tracks between collection cycles.

    One conditional-max keyed aggregate per (tile) with parity
    sentinels (the tile_change_detect trick on presence instead of
    value), then a bounded per-continent rollup."""
    import pyarrow.compute as pc

    from equi7grid_ray.stages.aggregate import hash_aggregate

    def parity(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id")
        if pa.types.is_dictionary(ids.type):
            ids = ids.cast(pa.string())
        i = pc.utf8_slice_codeunits(ids, 3, 15).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ep = (i % 2).astype(np.int64)
        tile = batch.column("tile")
        if pa.types.is_dictionary(tile.type):
            tile = tile.cast(pa.string())
        return pa.table({
            "tile": tile,
            "e0": pa.array((ep == 0).astype(np.int64), pa.int64()),
            "e1": pa.array((ep == 1).astype(np.int64), pa.int64()),
        })

    per_tile = hash_aggregate(
        assigned.map_batches(parity, batch_format="pyarrow"),
        keys=["tile"], aggs={"h0": ("e0", "max"), "h1": ("e1", "max")},
        n_partitions=16)

    def states(batch: pa.Table) -> pa.Table:
        h0 = batch.column("h0").to_numpy()
        h1 = batch.column("h1").to_numpy()
        return pa.table({
            "continent": pc.utf8_slice_codeunits(batch.column("tile"),
                                                 0, 2),
            "n_e0": pa.array(h0.astype(np.int64), pa.int64()),
            "n_e1": pa.array(h1.astype(np.int64), pa.int64()),
            "kept": pa.array((h0 & h1).astype(np.int64), pa.int64()),
            "gained": pa.array((~h0.astype(bool) & h1.astype(bool))
                               .astype(np.int64), pa.int64()),
            "lost": pa.array((h0.astype(bool) & ~h1.astype(bool))
                             .astype(np.int64), pa.int64()),
        })

    return hash_aggregate(
        per_tile.map_batches(states, batch_format="pyarrow"),
        keys=["continent"],
        aggs={c: (c, "sum") for c in ("n_e0", "n_e1", "kept", "gained",
                                      "lost")},
        n_partitions=4)
