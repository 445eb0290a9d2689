"""Data-quality constraint validation (the dbt-test / Great-
Expectations role): declarative checks evaluated distributed, one
summary row per check.

A 100-TB ingest gates on exactly these four check shapes:

- ``not_null``   -- per-batch null-count partials, keyed Sum (no rows
  move);
- ``positive``   -- same shape, predicate violations;
- ``unique``     -- violations = total - distinct; the distinct count
  shuffles only per-batch DISTINCT values (combiner-first);
- ``foreign_key``-- orphan rows counted via the broadcast anti-join
  (reference keys ship once; swap in bloom_anti_join when the
  reference side outgrows a broadcast).

Each count is a distributed aggregate reduced to one scalar; the
result table is (check, n_violations) -- O(#checks) rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["check_table", "benford_audit", "BENFORD_PM",
           "fk_orphan_audit"]


def check_table(ds, *, not_null: list[str] | None = None,
                positive: list[str] | None = None,
                unique: list[str] | None = None,
                foreign_key: dict[str, tuple] | None = None):
    """Run the declared checks; returns a pyarrow Table
    ``(check: string, n_violations: int64)`` with one row per check,
    named ``<kind>:<column>``."""
    import pyarrow.compute as pc
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.join import broadcast_join

    not_null = list(not_null or [])
    positive = list(positive or [])
    unique = list(unique or [])
    foreign_key = dict(foreign_key or {})
    names: list[str] = []
    viols: list[int] = []

    scan_cols = not_null + positive
    if scan_cols:
        def partials(batch: pa.Table) -> pa.Table:
            ck, pn = [], []
            for c in not_null:
                ck.append(f"not_null:{c}")
                pn.append(batch.column(c).null_count)
            for c in positive:
                col = batch.column(c)
                bad = pc.sum(pc.cast(
                    pc.fill_null(pc.less_equal(col, 0), True),
                    pa.int64())).as_py() or 0
                ck.append(f"positive:{c}")
                pn.append(int(bad))
            return pa.table({"check": pa.array(ck, pa.string()),
                             "pn": pa.array(pn, pa.int64())})

        from equi7grid_ray.stages.aggregate import hash_aggregate

        t = collect_tables(
            hash_aggregate(ds.map_batches(partials, batch_format="pyarrow"),
                           keys=["check"], aggs={"n": ("pn", "sum")}),
            schema=pa.schema([("check", pa.string()), ("n", pa.int64())]),
        )
        m = dict(zip(t.column("check").to_pylist(),
                     t.column("n").to_pylist()))
        for c in not_null:
            names.append(f"not_null:{c}")
            viols.append(int(m.get(f"not_null:{c}", 0)))
        for c in positive:
            names.append(f"positive:{c}")
            viols.append(int(m.get(f"positive:{c}", 0)))

    for c in unique:
        sub = ds.select_columns([c])
        total = sub.count()
        # combiner-first distinct: each batch emits its distinct values
        def dedup(batch: pa.Table, c=c) -> pa.Table:
            col = batch.column(c)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return pa.table({c: col.unique()})

        from equi7grid_ray.stages.aggregate import hash_aggregate

        n_distinct = hash_aggregate(
            sub.map_batches(dedup, batch_format="pyarrow"),
            keys=[c], aggs={"__c": (c, "count")}).count()
        names.append(f"unique:{c}")
        viols.append(int(total - n_distinct))

    for c, (ref_ds, ref_col) in foreign_key.items():
        keys = ref_ds.select_columns([ref_col])
        if ref_col != c:
            def rename(batch: pa.Table, ref_col=ref_col, c=c) -> pa.Table:
                return batch.rename_columns(
                    [c if n == ref_col else n for n in batch.column_names])
            keys = keys.map_batches(rename, batch_format="pyarrow")
        orphans = broadcast_join(ds.select_columns([c]), keys,
                                 on=c, how="anti").count()
        names.append(f"foreign_key:{c}")
        viols.append(int(orphans))

    return pa.table({"check": pa.array(names, pa.string()),
                     "n_violations": pa.array(viols, pa.int64())})


#: rounded Benford per-mille expectation for first digits 1..9 (the
#: standard table; log10(1 + 1/d) to 3 decimals, both engines share it)
BENFORD_PM = (301, 176, 125, 97, 79, 67, 58, 51, 46)


def benford_audit(ds, *, column: str):
    """First-significant-digit BENFORD audit of a currency column --
    the classic synthetic/fabricated-data screen (real transaction
    amounts follow Benford's law; generated or tampered ones rarely
    do).  Values go to exact cents (rint(x * 100), the repo currency
    idiom); the first digit is extracted by integer powers-of-ten
    searchsorted (float log10 would misbin near 10^k).

    Emits one row per digit 1..9: observed count ``n``, observed
    per-mille share (trunc), the rounded Benford expectation and the
    absolute per-mille deviation.

    Shape: per-batch 9-bin bincount partials (combiner-first); only
    the 9-row partial table ever shuffles."""
    from equi7grid_ray.arrowutil import collect_tables

    pow10 = 10 ** np.arange(19, dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column(column).to_numpy(zero_copy_only=False)
        cents = np.rint(x * 100.0).astype(np.int64)
        cents = cents[cents > 0]
        p = np.searchsorted(pow10, cents, side="right") - 1
        d = cents // pow10[p]
        counts = np.bincount(d, minlength=10)[1:10]
        return pa.table({
            "d": pa.array(np.arange(1, 10), pa.int64()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    parts = collect_tables(
        ds.map_batches(partial, batch_format="pyarrow"))
    d = parts.column("d").to_numpy(zero_copy_only=False)
    n = parts.column("n").to_numpy(zero_copy_only=False)
    tot_d = np.zeros(10, np.int64)
    np.add.at(tot_d, d, n)
    counts = tot_d[1:10]
    total = int(counts.sum())
    exp = np.array(BENFORD_PM, np.int64)
    share = 1000 * counts // max(total, 1)
    return pa.table({
        "d": pa.array(np.arange(1, 10), pa.int64()),
        "n": pa.array(counts, pa.int64()),
        "share_pm": pa.array(share, pa.int64()),
        "exp_pm": pa.array(exp, pa.int64()),
        "dev_pm": pa.array(np.abs(share - exp), pa.int64()),
    })


def fk_orphan_audit(child, parent, *, child_key: str, parent_key: str,
                    relation: str):
    """Referential-integrity audit of one foreign-key edge: counts of
    child rows whose key has no parent (orphans) and of parent keys
    with no child (childless) -- the two numbers every ingestion gate
    checks before a join-heavy pipeline is allowed to run.

    Scale shape: both sides collapse to (key, row-count) partials via
    keyed aggregates FIRST (the shuffle moves one row per distinct
    key, not the fact table), then one partition-cogroup outer merge
    emits per-partition tallies that fold to a single row.  Works for
    big-big edges (lineitem -> orders) -- nothing is broadcast.

    Output (1 row): ``relation, child_rows, distinct_child_keys,
    orphan_rows, distinct_orphan_keys, childless_parents``.
    """
    import pandas as pd

    from equi7grid_ray.arrowutil import single_group
    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

    ckeys = hash_aggregate(
        child.map_batches(
            lambda b, c=child_key: pa.table(
                {"k": b.column(c).cast(pa.int64())}),
            batch_format="pyarrow"),
        keys=["k"], aggs={"rows": ("k", "count")})
    pkeys = hash_aggregate(
        parent.map_batches(
            lambda b, c=parent_key: pa.table(
                {"k": b.column(c).cast(pa.int64())}),
            batch_format="pyarrow"),
        keys=["k"], aggs={"__c": ("k", "count")})

    def tag(kind: int):
        def f(batch: pa.Table) -> pa.Table:
            k = batch.column("k").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            rows = (batch.column("rows").to_numpy(zero_copy_only=False)
                    .astype(np.int64) if kind == 0
                    else np.zeros(len(k), np.int64))
            return pa.table({
                "k": pa.array(k, pa.int64()),
                "rows": pa.array(rows, pa.int64()),
                "kind": pa.array(np.full(len(k), kind, np.int8))})
        return f

    tagged = ckeys.map_batches(tag(0), batch_format="pyarrow") \
        .union(pkeys.map_batches(tag(1), batch_format="pyarrow"))

    def tally(g: pd.DataFrame) -> pd.DataFrame:
        kind = g["kind"].to_numpy()
        c = g.loc[kind == 0, ["k", "rows"]]
        p = g.loc[kind == 1, ["k"]]
        m = c.merge(p, on="k", how="left", indicator=True)
        orphan = m["_merge"].to_numpy() == "left_only"
        childless = int((~p["k"].isin(c["k"])).sum()) if len(p) else 0
        return pd.DataFrame({
            "child_rows": [np.int64(c["rows"].sum())],
            "distinct_child_keys": [np.int64(len(c))],
            "orphan_rows": [np.int64(m.loc[orphan, "rows"].sum())],
            "distinct_orphan_keys": [np.int64(orphan.sum())],
            "childless_parents": [np.int64(childless)],
        })

    parts = cogroup(tagged, ["k"], tally, n_partitions=32)
    cols = ["child_rows", "distinct_child_keys", "orphan_rows",
            "distinct_orphan_keys", "childless_parents"]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({c: [np.int64(g[c].sum())] for c in cols})
        out.insert(0, "relation", [relation])
        return out

    return single_group(parts, fold, ["relation"] + cols)
