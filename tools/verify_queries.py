"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry at a given sf dir, run the matching ``oracle_sql()``
in DuckDB, and compare row count + schema + order-insensitive values.

Each status line ends with ``ray=<digest> sql=<digest>``: the first 16
hex digits of a sha256 over the canonicalized frame's column names,
dtypes and values, so two sweeps (e.g. before and after a refactor) can
be diffed line by line.  The last line sums the sweep up:
``N OK, M FAIL, K ERROR``.

Usage: python tools/verify_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import duckdb
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    h = hashlib.sha256(repr([(c, str(t)) for c, t in df.dtypes.items()]).encode())
    h.update(df.to_csv(index=False).encode())
    return h.hexdigest()[:16]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data
    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql()
    failed = []
    n_ok = n_err = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:
            print(f"{name:24s} ERROR {type(ex).__name__}: {ex}")
            failed.append(name)
            n_err += 1
            continue
        ref = canon(con.sql(oracles[name]).df())
        ok_rows = len(mine) == len(ref)
        ok_cols = list(mine.columns) == list(ref.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                # The driver's value hash is dtype-sensitive (sum() over
                # HUGEINT vs int64 hash-mismatched in round 1), so be strict.
                pd.testing.assert_frame_equal(
                    mine, ref, check_dtype=True, check_exact=True
                )
                ok_vals = True
            except AssertionError as ex:
                msg = str(ex).splitlines()[:6]
                print(f"{name:24s} VALUE MISMATCH:\n  " + "\n  ".join(msg))
        status = "OK" if (ok_rows and ok_cols and ok_vals) else "FAIL"
        if status == "FAIL":
            failed.append(name)
        else:
            n_ok += 1
        print(f"{name:24s} {status} rows {len(mine)}/{len(ref)} cols {list(mine.columns)} vs {list(ref.columns)}"
              f" ray={digest(mine)} sql={digest(ref)}")
    ray.shutdown()
    print(f"{n_ok} OK, {len(failed) - n_err} FAIL, {n_err} ERROR")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
