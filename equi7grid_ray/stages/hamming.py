"""Generic banded Hamming-distance near-duplicate pairing.

One shared implementation of the 4x16 banding trick used by image
dHash (stages/multimodal.dhash_near_dup) and text SimHash: a 64-bit
fingerprint splits into 4 bands of 16 bits, and by PIGEONHOLE any two
fingerprints within Hamming distance <= 3 agree on at least one full
band -- so banding is an EXACT pre-filter (recall 1.0 by construction
when no bucket is dropped), not an approximation.

Scale shape: band rows cogroup by (band, band key) so one vectorized
self-merge + popcount handles many buckets per partition (never
Python-per-bucket); uncapped, each pair is emitted only by its FIRST
matching band (earlier-band xor segments checked vectorized) so the
output is globally unique with no cross-band dedupe shuffle; with a
finite ``max_bucket`` oversized buckets are dropped (the mega-bucket
valve for spam clusters whose true pair set is itself quadratic) and
surviving pairs dedupe through a result-sized shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

__all__ = ["banded_hamming_pairs"]


def banded_hamming_pairs(hashed, *, hash_col: str, id_col: str,
                         max_dist: int = 3,
                         max_bucket: int | None = 2000):
    """``(id_col, hash_col)`` Dataset -> distinct pairs (id_a < id_b)
    with Hamming(hash_a, hash_b) <= ``max_dist`` (exact for
    max_dist <= 3; see module docstring).  Ids may be strings or
    integers; the dtype is preserved in the output."""
    if not 0 <= max_dist <= 3:
        raise ValueError("max_dist must be in [0, 3] for exact 4-band recall")

    def band_expand(batch: pa.Table) -> pa.Table:
        dh = batch.column(hash_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64).view(np.uint64)
        n = len(dh)
        band = np.tile(np.arange(4, dtype=np.int32), n)
        shifts = (48 - 16 * band).astype(np.uint64)
        key = ((np.repeat(dh, 4) >> shifts) & np.uint64(0xFFFF)) \
            .astype(np.int64)
        ids = batch.column(id_col).take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), 4)))
        return pa.table({
            id_col: ids,
            "__h": pa.array(np.repeat(dh.view(np.int64), 4), pa.int64()),
            "band": pa.array(band, pa.int32()),
            "band_key": pa.array(key, pa.int64()),
        })

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        if ids.dtype == object:
            ids = ids.astype(str)  # '<U': vectorized compares
        empty = pd.DataFrame({"id_a": pd.Series([], dtype=ids.dtype),
                              "id_b": pd.Series([], dtype=ids.dtype)})
        sizes = g.groupby(["band", "band_key"])[id_col].transform("size")
        mask = sizes >= 2
        if max_bucket is not None:
            mask &= sizes <= max_bucket
        # integer-only frame for the wide self-merge (no id payload)
        g2 = pd.DataFrame({
            "band": g["band"].to_numpy(),
            "band_key": g["band_key"].to_numpy(),
            "__h": g["__h"].to_numpy(),
            "ix": np.arange(len(g), dtype=np.int64),
        })[mask.to_numpy()]
        if g2.empty:
            return empty
        m = g2.merge(g2, on=["band", "band_key"], suffixes=("_a", "_b"))
        m = m[m["ix_a"].to_numpy() < m["ix_b"].to_numpy()]
        x = m["__h_a"].to_numpy().astype(np.int64).view(np.uint64) ^ \
            m["__h_b"].to_numpy().astype(np.int64).view(np.uint64)
        ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1) \
            .sum(axis=1)
        keep = ham <= max_dist
        if max_bucket is None:
            # first-matching-band rule: emit a multi-band collision
            # only at its lowest matching band -> globally unique with
            # NO dedupe shuffle (valid only when no bucket is dropped)
            band = m["band"].to_numpy()
            prior = np.zeros(len(x), dtype=bool)
            for k in range(3):
                segk = ((x >> np.uint64(48 - 16 * k))
                        & np.uint64(0xFFFF)) == 0
                prior |= segk & (band > k)
            keep &= ~prior
        ia = m["ix_a"].to_numpy()[keep]
        ib = m["ix_b"].to_numpy()[keep]
        a, b = ids[ia], ids[ib]
        lo = a <= b
        return pd.DataFrame({"id_a": np.where(lo, a, b),
                             "id_b": np.where(lo, b, a)})

    pairs = cogroup(hashed.map_batches(band_expand, batch_format="pyarrow"),
                    ["band", "band_key"], pairs_in_partition, n_partitions=64)
    if max_bucket is None:
        return pairs
    # capped path: a pair is emitted by EVERY matching surviving band,
    # then deduped -- the extra shuffle carries only result pairs.
    # hash_aggregate, not the native groupby().count(): the native
    # sort-aggregate pays ~40 ms+ of fixed operator cost per input
    # block, and map_groups hands it one (mostly tiny) block per
    # partition -- measured 13.7 s -> 0.3 s on a 64-partition sweep
    # (see stages/aggregate.py).
    return hash_aggregate(
        pairs, keys=["id_a", "id_b"], aggs={"__n": ("id_a", "count")},
    ).select_columns(["id_a", "id_b"])
