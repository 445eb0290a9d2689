"""Exact set-similarity self-join (AllPairs/PPJoin-style prefix filter).

The LSH pipeline (stages/dedup.py) trades recall for speed; this
operator finds EVERY pair of documents whose distinct character-n-gram
sets have Jaccard similarity >= t -- recall 1 by construction -- using
the prefix-filtering principle (Chaudhuri et al. SSJoin; Bayardo et al.
All-Pairs; Xiao et al. PPJoin): order every document's token set by a
single global total order (the token hash value) and keep only the
first ``p = m - ceil(t*m) + 1`` tokens as its *prefix*.  Any pair with
Jaccard >= t must share at least one token lying in BOTH prefixes, so
grouping by prefix token loses nothing.

Proof sketch: if A and B share no token in A's prefix, every common
token falls in A's last ``ceil(t*m_a) - 1`` tokens, so
``|A ∩ B| <= ceil(t*m_a) - 1 < t*m_a <= t*|A ∪ B| -- contradiction
with J >= t`` (symmetrically for B).

Scale shape:

- Tokens are globally ordered RARE-FIRST (ascending document
  frequency, hash tiebreak) -- the ordering that makes prefix
  filtering effective: prefixes then hold each document's rarest
  tokens, so candidate buckets stay near the true duplicate clusters
  instead of the corpus-wide vocabulary.  (Any fixed total order is
  CORRECT -- the theorem doesn't care -- but hash order was measured
  to pass 125 k/125 k pairs as candidates on a shared-vocabulary
  corpus where df order passes a few hundred.)  The df table is
  bounded by the n-gram space (<= 2^24 for 3-byte ASCII windows at ANY
  corpus size) and df-1 tokens are dropped from it, so it broadcasts
  via ray.put; lookups are one vectorized searchsorted per batch.
- Prefix emission is one vectorized pass per batch over the existing
  flat (hash, row) n-gram stream -- the shuffle carries only
  ``(token, id)`` rows for PREFIX tokens (a (1-t) fraction of each
  set), never texts.  Tokens with df = 1 are skipped outright (they
  can never produce a pair).
- Candidate generation hash-partitions by token: one pandas self-merge
  per PARTITION handles many token buckets (the lsh_candidate_pairs
  pattern); buckets over ``max_bucket`` are cut (the mega-bucket valve
  -- a token shared by everything signals a near-identical cluster
  whose true pair set is itself quadratic).
- Pair dedupe is the hash-partition cogroup aggregate
  (stages/aggregate.py), result-sized.
- Verification reuses the distributed cogroup verify shape of
  verified_near_dup_pairs: two shuffle_hash_joins ship texts onto
  pairs, one lexsort-intersection per partition -- but the threshold
  compare here is INTEGER (``c*(p+q) >= p*(m_a+m_b)`` for t = p/q), so
  the output is exact at any scale and hash-oracle-able with no float
  boundary flips.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["jaccard_similarity_join", "containment_join"]


def jaccard_similarity_join(ds, *, threshold: float = 0.8, n: int = 8,
                            id_col: str = "doc_id", text_col: str = "text",
                            max_bucket: int = 500):
    """All pairs ``(id_a < id_b)`` with distinct-char-``n``-gram Jaccard
    >= ``threshold`` (exact, recall 1 unless a token bucket exceeds
    ``max_bucket``).  ``threshold`` is snapped to a rational p/q so both
    the prefix length and the final compare are integer-exact."""
    import ray.data as rd

    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate
    from equi7grid_ray.stages.dedup import _ngram_set_per_row
    from equi7grid_ray.stages.join import (shuffle_hash_join,
                                       shuffle_join_schema)

    import ray

    frac = Fraction(threshold).limit_denominator(1_000)
    tn, td = frac.numerator, frac.denominator
    if not 0 < frac <= 1:
        raise ValueError("threshold must be in (0, 1]")

    # ---- pass A: document frequency per token (rare-first ordering) --
    # per-batch DISTINCT (token) partials -> keyed sum; the result is
    # bounded by the n-gram space, and df=1 tokens are dropped (they
    # can't pair), so the broadcast table tracks the corpus vocabulary,
    # not the corpus.
    def tok_partials(batch: pa.Table) -> pa.Table:
        h, _row, _c = _ngram_set_per_row(batch.column(text_col), n,
                                         batch.num_rows)
        u, cnt = np.unique(h, return_counts=True)
        return pa.table({"__tok": pa.array(u.view(np.int64), pa.int64()),
                         "df": pa.array(cnt, pa.int64())})

    df_tbl = collect_tables(
        hash_aggregate(
            ds.map_batches(tok_partials, batch_format="pyarrow"),
            keys=["__tok"], aggs={"df": ("df", "sum")}),
        schema=pa.schema([("__tok", pa.int64()), ("df", pa.int64())]))
    toks = df_tbl.column("__tok").to_numpy().astype(np.int64)
    dfs = df_tbl.column("df").to_numpy().astype(np.int64)
    pairable = dfs >= 2
    toks, dfs = toks[pairable], dfs[pairable]
    order = np.argsort(toks, kind="stable")
    df_ref = ray.put((toks[order], dfs[order]))

    # ---- pass B: prefix emission under the (df, hash) total order ----
    def prefix_tokens(batch: pa.Table) -> pa.Table:
        nrows = batch.num_rows
        h, row, counts = _ngram_set_per_row(batch.column(text_col), n, nrows)
        empty = pa.table({
            id_col: batch.column(id_col).slice(0, 0),
            "__tok": pa.array([], pa.int64()),
        })
        if len(h) == 0:
            return empty
        stoks, sdfs = ray.get(df_ref)
        pos = np.searchsorted(stoks, h.view(np.int64))
        pos_c = np.minimum(pos, max(len(stoks) - 1, 0))
        hit = (stoks[pos_c] == h.view(np.int64)) if len(stoks) \
            else np.zeros(len(h), bool)
        df_of = np.where(hit, sdfs[pos_c] if len(stoks) else 1, 1)
        # re-rank each row's set under the global (df, hash) order
        order = np.lexsort((h, df_of, row))
        h, row, df_of = h[order], row[order], df_of[order]
        m = counts
        p = m - (tn * m + td - 1) // td + 1  # prefix length, >= 1 for m >= 1
        starts = np.zeros(nrows, np.int64)
        np.cumsum(m[:-1], out=starts[1:])
        rank = np.arange(len(h), dtype=np.int64) - starts[row]
        keep = (rank < p[row]) & (df_of >= 2)
        rk = row[keep]
        tok = h[keep].view(np.int64)
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(rk)),
            "__tok": pa.array(tok, pa.int64()),
            "__pos": pa.array(rank[keep].astype(np.int32), pa.int32()),
            "__m": pa.array(m[rk].astype(np.int32), pa.int32()),
        })

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("__tok")[id_col].transform("size")
        g = g[(sizes >= 2) & (sizes <= max_bucket)]
        if g.empty:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64)})
        m = g.merge(g, on="__tok", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        ma = m["__m_a"].to_numpy().astype(np.int64)
        mb = m["__m_b"].to_numpy().astype(np.int64)
        # length filter (exact): J >= t needs t*max(m) <= min(m)
        ok = tn * np.maximum(ma, mb) <= td * np.minimum(ma, mb)
        # positional filter (exact, PPJoin): meeting at 0-based prefix
        # positions (i, j), the overlap is at most
        # min(m_a - i, m_b - j); J >= t needs overlap >=
        # ceil(t/(1+t) * (m_a + m_b))
        pa_ = m["__pos_a"].to_numpy().astype(np.int64)
        pb_ = m["__pos_b"].to_numpy().astype(np.int64)
        alpha = (tn * (ma + mb) + tn + td - 1) // (tn + td)
        ok &= np.minimum(ma - pa_, mb - pb_) >= alpha
        m = m[ok]
        out = m[[f"{id_col}_a", f"{id_col}_b"]].drop_duplicates()
        out.columns = ["id_a", "id_b"]
        return out

    cand = cogroup(ds.map_batches(prefix_tokens, batch_format="pyarrow"),
                   ["__tok"], pairs_in_partition, n_partitions=64)
    cand = hash_aggregate(
        cand, keys=["id_a", "id_b"], aggs={"__n": ("id_a", "count")},
    ).select_columns(["id_a", "id_b"]).materialize()
    # bounded: O(candidate mass) 16-byte rows in the object store --
    # needed twice below (empty check + first join input)

    _empty = pa.table({"id_a": pa.array([], pa.int64()),
                       "id_b": pa.array([], pa.int64())})
    if cand.count() == 0:
        return rd.from_arrow(_empty)

    def _docs_as(key: str, text_out: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                key: batch.column(id_col).cast(pa.int64()),
                text_out: batch.column(text_col),
            })
        return ds.map_batches(fn, batch_format="pyarrow")

    _pair_schema = pa.schema([("id_a", pa.int64()),
                              ("id_b", pa.int64())])
    _da = pa.schema([("id_a", pa.int64()), ("text_a", pa.string())])
    _db = pa.schema([("id_b", pa.int64()), ("text_b", pa.string())])
    _wa = shuffle_join_schema(_pair_schema, _da, on="id_a")
    with_a = shuffle_hash_join(cand, _docs_as("id_a", "text_a"),
                               on="id_a", n_partitions=32,
                               left_schema=_pair_schema, right_schema=_da)
    with_ab = shuffle_hash_join(with_a, _docs_as("id_b", "text_b"),
                                on="id_b", n_partitions=32,
                                left_schema=_wa, right_schema=_db)

    def verify(batch: pa.Table) -> pa.Table:
        nrows = batch.num_rows
        if nrows == 0:
            return _empty
        ha, ra, na = _ngram_set_per_row(batch.column("text_a"), n, nrows)
        hb, rb, nb = _ngram_set_per_row(batch.column("text_b"), n, nrows)
        rows = np.concatenate([ra, rb])
        hs = np.concatenate([ha, hb])
        order = np.lexsort((hs, rows))
        rows, hs = rows[order], hs[order]
        dup = (rows[1:] == rows[:-1]) & (hs[1:] == hs[:-1])
        ni = np.bincount(rows[:-1][dup], minlength=nrows).astype(np.int64)
        # integer compare: ni/(na+nb-ni) >= tn/td  <=>  ni*(td+tn) >= tn*(na+nb)
        keep = pa.array(ni * (td + tn) >= tn * (na + nb))
        return pa.table({
            "id_a": batch.column("id_a").cast(pa.int64()).filter(keep),
            "id_b": batch.column("id_b").cast(pa.int64()).filter(keep),
        })

    return with_ab.map_batches(verify, batch_format="pyarrow")


def containment_join(ds, *, threshold: float = 0.8, n: int = 8,
                     id_col: str = "doc_id", text_col: str = "text",
                     max_bucket: int = 500):
    """Exact set-CONTAINMENT self-join: every ORDERED pair (a, b),
    a != b, with ``|A ∩ B| / |A| >= threshold`` over distinct
    character-``n``-gram sets — the quote / subset / partial-copy
    detector the symmetric Jaccard join misses (a short doc fully
    quoted inside a long one has low Jaccard but containment 1).

    Prefix filter (probe side only — the asymmetric version of the
    AllPairs theorem): if A and B share no token among A's first
    ``p_a = m_a - ceil(t*m_a) + 1`` tokens under the global (df, hash)
    order, then ``|A ∩ B| <= ceil(t*m_a) - 1 < t*m_a`` — so probing
    with A-prefixes loses nothing.  The INDEX side has no symmetric
    bound: B must post ALL df>=2 tokens (the exact-containment price;
    the shuffle is O(total tokens) of (token, id) rows, never text).
    Exactness-preserving cuts: length (m_b >= ceil(t*m_a)), positional
    (first-meeting remainder min(m_a-i, m_b-j) >= ceil(t*m_a)),
    df=1 tokens (cannot pair), ``max_bucket`` mega-token valve (the
    one recall trade, same as jaccard_similarity_join).  Verification
    is the same distributed two-join cogroup with an integer compare
    ``ni * td >= tn * m_a``."""
    import ray
    import ray.data as rd

    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate
    from equi7grid_ray.stages.dedup import _ngram_set_per_row
    from equi7grid_ray.stages.join import (shuffle_hash_join,
                                       shuffle_join_schema)

    frac = Fraction(threshold).limit_denominator(1_000)
    tn, td = frac.numerator, frac.denominator
    if not 0 < frac <= 1:
        raise ValueError("threshold must be in (0, 1]")

    def tok_partials(batch: pa.Table) -> pa.Table:
        h, _row, _c = _ngram_set_per_row(batch.column(text_col), n,
                                         batch.num_rows)
        u, cnt = np.unique(h, return_counts=True)
        return pa.table({"__tok": pa.array(u.view(np.int64), pa.int64()),
                         "df": pa.array(cnt, pa.int64())})

    df_tbl = collect_tables(
        hash_aggregate(
            ds.map_batches(tok_partials, batch_format="pyarrow"),
            keys=["__tok"], aggs={"df": ("df", "sum")}),
        schema=pa.schema([("__tok", pa.int64()), ("df", pa.int64())]))
    toks = df_tbl.column("__tok").to_numpy().astype(np.int64)
    dfs = df_tbl.column("df").to_numpy().astype(np.int64)
    pairable = dfs >= 2
    toks, dfs = toks[pairable], dfs[pairable]
    order = np.argsort(toks, kind="stable")
    df_ref = ray.put((toks[order], dfs[order]))

    def role_tokens(batch: pa.Table) -> pa.Table:
        """All df>=2 tokens of every row (index role), with a flag on
        the probe-prefix subset; one vectorized pass."""
        nrows = batch.num_rows
        h, row, counts = _ngram_set_per_row(batch.column(text_col), n,
                                            nrows)
        empty = pa.table({
            id_col: batch.column(id_col).slice(0, 0),
            "__tok": pa.array([], pa.int64()),
            "__pos": pa.array([], pa.int32()),
            "__m": pa.array([], pa.int32()),
            "__pref": pa.array([], pa.bool_()),
        })
        if len(h) == 0:
            return empty
        stoks, sdfs = ray.get(df_ref)
        pos = np.searchsorted(stoks, h.view(np.int64))
        pos_c = np.minimum(pos, max(len(stoks) - 1, 0))
        hit = (stoks[pos_c] == h.view(np.int64)) if len(stoks) \
            else np.zeros(len(h), bool)
        df_of = np.where(hit, sdfs[pos_c] if len(stoks) else 1, 1)
        order = np.lexsort((h, df_of, row))
        h, row, df_of = h[order], row[order], df_of[order]
        m = counts
        alpha = (tn * m + td - 1) // td          # ceil(t * m)
        p = m - alpha + 1                        # probe prefix length
        starts = np.zeros(nrows, np.int64)
        np.cumsum(m[:-1], out=starts[1:])
        rank = np.arange(len(h), dtype=np.int64) - starts[row]
        keep = df_of >= 2
        rk = row[keep]
        tok = h[keep].view(np.int64)
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(rk)),
            "__tok": pa.array(tok, pa.int64()),
            "__pos": pa.array(rank[keep].astype(np.int32), pa.int32()),
            "__m": pa.array(m[rk].astype(np.int32), pa.int32()),
            "__pref": pa.array(rank[keep] < p[rk]),
        })

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("__tok")[id_col].transform("size")
        g = g[sizes <= max_bucket]
        ga = g[g["__pref"]]
        if ga.empty or g.empty:
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64)})
        m = ga.merge(g, on="__tok", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] != m[f"{id_col}_b"]]
        ma = m["__m_a"].to_numpy().astype(np.int64)
        mb = m["__m_b"].to_numpy().astype(np.int64)
        alpha = (tn * ma + td - 1) // td
        ok = mb >= alpha
        pa_ = m["__pos_a"].to_numpy().astype(np.int64)
        pb_ = m["__pos_b"].to_numpy().astype(np.int64)
        ok &= np.minimum(ma - pa_, mb - pb_) >= alpha
        m = m[ok]
        out = m[[f"{id_col}_a", f"{id_col}_b"]].drop_duplicates()
        out.columns = ["id_a", "id_b"]
        return out

    cand = cogroup(ds.map_batches(role_tokens, batch_format="pyarrow"),
                   ["__tok"], pairs_in_partition, n_partitions=64)
    cand = hash_aggregate(
        cand, keys=["id_a", "id_b"], aggs={"__n": ("id_a", "count")},
    ).select_columns(["id_a", "id_b"]).materialize()

    _empty = pa.table({"id_a": pa.array([], pa.int64()),
                       "id_b": pa.array([], pa.int64())})
    if cand.count() == 0:
        return rd.from_arrow(_empty)

    def _docs_as(key: str, text_out: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                key: batch.column(id_col).cast(pa.int64()),
                text_out: batch.column(text_col),
            })
        return ds.map_batches(fn, batch_format="pyarrow")

    _pair_schema = pa.schema([("id_a", pa.int64()),
                              ("id_b", pa.int64())])
    _da = pa.schema([("id_a", pa.int64()), ("text_a", pa.string())])
    _db = pa.schema([("id_b", pa.int64()), ("text_b", pa.string())])
    _wa = shuffle_join_schema(_pair_schema, _da, on="id_a")
    with_a = shuffle_hash_join(cand, _docs_as("id_a", "text_a"),
                               on="id_a", n_partitions=32,
                               left_schema=_pair_schema, right_schema=_da)
    with_ab = shuffle_hash_join(with_a, _docs_as("id_b", "text_b"),
                                on="id_b", n_partitions=32,
                                left_schema=_wa, right_schema=_db)

    def verify(batch: pa.Table) -> pa.Table:
        nrows = batch.num_rows
        if nrows == 0:
            return _empty
        ha, ra, na = _ngram_set_per_row(batch.column("text_a"), n, nrows)
        hb, rb, _nb = _ngram_set_per_row(batch.column("text_b"), n, nrows)
        rows = np.concatenate([ra, rb])
        hs = np.concatenate([ha, hb])
        order = np.lexsort((hs, rows))
        rows, hs = rows[order], hs[order]
        dup = (rows[1:] == rows[:-1]) & (hs[1:] == hs[:-1])
        ni = np.bincount(rows[:-1][dup], minlength=nrows).astype(np.int64)
        keep = pa.array(ni * td >= tn * na)
        return pa.table({
            "id_a": batch.column("id_a").cast(pa.int64()).filter(keep),
            "id_b": batch.column("id_b").cast(pa.int64()).filter(keep),
        })

    return with_ab.map_batches(verify, batch_format="pyarrow")
