"""Bloom-filter semi-join: broadcast prefilter + exact verify.

The broadcast semi-join in stages/join.py ships the small side's EXACT
key set (8+ bytes/key); when the "small" side is merely *smaller* (say
10^9 deduped keys vs 10^12 corpus rows) the exact set no longer fits a
broadcast but a Bloom filter still does (~14 bits/key at 0.1 % fpp --
a 50x shrink). The classic two-phase shape (Bloom 1970; the Bloomjoin
of Mackert & Lohman, VLDB 1986):

1. fold the small side into a fixed-size bit array WITHOUT collecting
   its keys (per-batch partial bit positions, distinct-position merge
   -- the CMS-partials pattern from stages/sketch.py);
2. prefilter the big side with the broadcast bits (pure map stage,
   k gathers per row, zero shuffle) -- survivors = true matches plus
   an fpp-fraction of false positives;
3. exact verify: shuffle only the SURVIVORS against the deduped small
   side (partition-cogroup inner join from stages/join.py), so the
   all-to-all moves |matches| + fpp*|big| rows instead of |big|.

The output is therefore EXACTLY the semi-join (the Bloom filter only
sizes the intermediate), which keeps the SQL oracle a plain ``IN``.

Bit positions use Kirsch-Mitzenmacher double hashing over the
splitmix64 finalizer: pos_i = (h1 + i*h2) mod m, which preserves the
standard fpp bound with only two 64-bit hashes per key.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

__all__ = ["BloomFilter", "build_bloom", "bloom_semi_join", "bloom_anti_join"]

_H2SALT = np.uint64(0xA24BAED4963EE407)


class BloomFilter:
    """Immutable m-bit Bloom filter over int64 keys (uint64 words)."""

    def __init__(self, words: np.ndarray, m: int, k: int):
        self.words = words
        self.m = int(m)
        self.k = int(k)

    @staticmethod
    def params(n_keys: int, fpp: float) -> tuple[int, int]:
        """Optimal (m bits, k hashes) for n keys at the target false-
        positive rate; m rounded up to a whole 64-bit word."""
        n = max(int(n_keys), 1)
        m = max(64, int(math.ceil(-n * math.log(fpp) / (math.log(2) ** 2))))
        m = (m + 63) // 64 * 64
        k = max(1, round(m / n * math.log(2)))
        return m, k

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """(len(keys), k) bit positions via double hashing."""
        from equi7grid_ray.stages.dedup import _mix64

        u = np.asarray(keys).astype(np.int64).view(np.uint64)
        h1 = _mix64(u)
        h2 = _mix64(u ^ _H2SALT) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return ((h1[:, None] + i[None, :] * h2[:, None])
                    % np.uint64(self.m))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership probe (no false negatives)."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self.positions(keys)
        w = self.words[(pos >> np.uint64(6)).astype(np.int64)]
        bit = (w >> (pos & np.uint64(63))) & np.uint64(1)
        return bit.all(axis=1)


def build_bloom(ds, on: str, *, fpp: float = 0.001,
                n_keys: int | None = None) -> BloomFilter:
    """Fold a key Dataset into a Bloom filter without collecting keys:
    each batch emits its DISTINCT bit positions, a groupby dedupes them
    (at most m rows cross the wire), and the driver sets bits once."""
    from ray.data.aggregate import Count

    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.dedup import _mix64

    if n_keys is None:
        n_keys = ds.count()
    m, k = BloomFilter.params(n_keys, fpp)

    def partials(batch: pa.Table) -> pa.Table:
        v = batch.column(on).drop_null().to_numpy(zero_copy_only=False)
        if len(v) == 0:
            return pa.table({"pos": pa.array([], pa.int64())})
        # positions() never touches .words -- build the probe from
        # (m, k) only so the task closure ships two ints, not m/8
        # zero bytes
        probe = BloomFilter(np.empty(0, np.uint64), m, k)
        pos = np.unique(probe.positions(v).ravel()).astype(np.int64)
        return pa.table({"pos": pa.array(pos, pa.int64())})

    from equi7grid_ray.stages.aggregate import hash_aggregate

    pos_tbl = collect_tables(
        hash_aggregate(ds.map_batches(partials, batch_format="pyarrow"),
                       keys=["pos"], aggs={"c": ("pos", "count")}),
        schema=pa.schema([("pos", pa.int64()), ("c", pa.int64())]),
    )
    pos = pos_tbl.column("pos").to_numpy().view(np.uint64)
    words = np.zeros(m // 64, np.uint64)
    np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (pos & np.uint64(63)))
    return BloomFilter(words, m, k)


def bloom_semi_join(big, small, *, on: str, fpp: float = 0.001):
    """Exact semi-join of ``big`` against ``small``'s ``on`` keys using
    a Bloom prefilter to shrink the verify shuffle. Returns ``big``
    rows whose key appears in ``small`` (schema unchanged)."""
    import ray

    from ray.data.aggregate import Count

    from equi7grid_ray.stages.join import shuffle_hash_join

    bf = build_bloom(small.select_columns([on]), on, fpp=fpp)
    ref = ray.put((bf.words, bf.m, bf.k))

    def prefilter(batch: pa.Table) -> pa.Table:
        words, m, k = ray.get(ref)
        f = BloomFilter(words, m, k)
        keys = batch.column(on).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(f.contains(keys)))

    candidates = big.map_batches(prefilter, batch_format="pyarrow")
    from equi7grid_ray.stages.aggregate import hash_aggregate

    uniq = hash_aggregate(
        small.select_columns([on]), keys=[on],
        aggs={"__one": (on, "count")}).select_columns([on])
    return shuffle_hash_join(candidates, uniq, on=on, how="inner",
                             n_partitions=32)


def bloom_anti_join(big, small, *, on: str, fpp: float = 0.001):
    """Exact ANTI-join: ``big`` rows whose key does NOT appear in
    ``small``.  The Bloom filter makes the common case free: a key the
    filter rejects is DEFINITELY absent (no false negatives), so it is
    kept with zero shuffle; only the bloom-POSITIVE minority (true
    matches + fpp of the rest) is exact-verified with a partitioned
    left join + null check.

    Scale shape: two streaming map-only scans of ``big`` (one per
    branch -- both column-pruned, neither shuffles the majority) and a
    cogroup shuffle of just the bloom-positive sliver.  The
    alternative one-scan design would shuffle EVERY row; at
    anti-join selectivities near 1 (incremental ingestion: most rows
    are new) the two-scan trade wins by orders of magnitude.
    """
    import ray

    from ray.data.aggregate import Count

    from equi7grid_ray.stages.join import shuffle_hash_join

    bf = build_bloom(small.select_columns([on]), on, fpp=fpp)
    ref = ray.put((bf.words, bf.m, bf.k))

    def probe(keep_positive: bool):
        def fn(batch: pa.Table) -> pa.Table:
            words, m, k = ray.get(ref)
            f = BloomFilter(words, m, k)
            hit = f.contains(batch.column(on).to_numpy(zero_copy_only=False))
            return batch.filter(pa.array(hit if keep_positive else ~hit))
        return fn

    definite = big.map_batches(probe(False), batch_format="pyarrow")
    maybe = big.map_batches(probe(True), batch_format="pyarrow")
    from equi7grid_ray.stages.aggregate import hash_aggregate

    uniq = hash_aggregate(small.select_columns([on]), keys=[on],
                          aggs={"__m": (on, "count")})
    joined = shuffle_hash_join(maybe, uniq, on=on,
                               how="left", n_partitions=32)
    cols = list(big.schema().names)

    def unmatched(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        kept = batch.filter(pc.is_null(batch.column("__m")))
        return kept.select(cols)

    survivors = joined.map_batches(unmatched, batch_format="pyarrow")
    return definite.union(survivors)
