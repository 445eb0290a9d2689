"""The keyed shuffle primitive (stages/aggregate.py): ``key_partitions``
hashes key tuples by value, ``cogroup`` delivers each key tuple's rows
to exactly one call, and nothing outside that module partitions rows
itself."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate, key_partitions

PKG = Path(__file__).resolve().parent.parent


def _calls():
    """A cogroup ``fn`` over ``k`` giving one row per (call, key): the
    call's id, the key's row count and whether the call saw the
    partition tag."""
    import uuid

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        call = uuid.uuid4().hex
        n = g.groupby("k").size()
        return pd.DataFrame({"call": call, "k": n.index.to_numpy(np.int64),
                             "n": n.to_numpy(np.int64),
                             "tagged": "__part" in g.columns})

    return fn


@pytest.mark.parametrize("n_partitions", [1, 4])
def test_cogroup_each_key_in_exactly_one_call(ray_session, n_partitions):
    import ray.data as rd

    rng = np.random.default_rng(5)
    k = rng.integers(0, 50, 2000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"k": k, "v": np.arange(len(k))})) \
        .repartition(8)
    out = cogroup(ds, ["k"], _calls(), n_partitions=n_partitions) \
        .to_pandas()
    # every key once, with all its rows
    assert sorted(out["k"]) == sorted(set(k.tolist()))
    want = pd.Series(k).value_counts()
    assert (out.set_index("k")["n"].sort_index()
            == want.sort_index().to_numpy()).all()
    assert not out["tagged"].any()
    n_calls = out["call"].nunique()
    if n_partitions == 1:
        assert n_calls == 1
    else:
        assert 1 < n_calls <= n_partitions


def test_cogroup_pyarrow_batches_hide_the_tag(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": [1, 2, 3], "v": [4, 5, 6]}))
    out = cogroup(ds, [], lambda t: pa.table({"cols": [",".join(t.column_names)],
                                              "n": [t.num_rows]}),
                  n_partitions=1, batch_format="pyarrow").to_pandas()
    assert out.to_dict("records") == [{"cols": "k,v", "n": 3}]


def _dict_chunks(values, chunk_dicts):
    """``values`` as a dictionary column of several chunks, each with
    its own dictionary."""
    chunks = []
    for vals, dictionary in zip(values, chunk_dicts):
        idx = pa.array([dictionary.index(v) for v in vals], pa.int32())
        chunks.append(pa.DictionaryArray.from_arrays(idx, pa.array(dictionary)))
    return pa.chunked_array(chunks)


def test_key_partitions_hash_equal_values_alike():
    names = ["EU_E048N012T6", "AS_E066N030T6", "EU_E048N012T6", "x", ""]
    forms = {
        "string": pa.array(names, pa.string()),
        "large_string": pa.array(names, pa.large_string()),
        "dictionary": pa.array(names).dictionary_encode(),
        "dictionary, two chunks": _dict_chunks(
            [names[:2], names[2:]],
            [["AS_E066N030T6", "EU_E048N012T6"],
             ["", "x", "EU_E048N012T6"]]),
    }
    parts = {name: key_partitions(pa.table({"k": col}), ["k"], 7)
             for name, col in forms.items()}
    for name, p in parts.items():
        assert p.tolist() == parts["string"].tolist(), name
    ints = [np.int16, np.int32, np.int64, np.uint32]
    got = [key_partitions(pa.table({"k": np.array([3, 70, 3], t)}), ["k"], 7)
           .tolist() for t in ints]
    assert all(g == got[0] for g in got)
    assert got[0][0] == got[0][2]


def test_key_partitions_key_tuples():
    t = pa.table({"a": [1, 2, 1, 2], "b": [2, 1, 2, 1]})
    p = key_partitions(t, ["a", "b"], 1 << 20)
    assert p[0] == p[2] and p[1] == p[3]
    assert p[0] != p[1]  # (1, 2) and (2, 1) are different tuples
    assert key_partitions(t, [], 5).tolist() == [0, 0, 0, 0]
    assert (key_partitions(t, ["a"], 3) < 3).all()


def test_hash_aggregate_dictionary_key_equals_string_key(ray_session):
    """TileAssigner emits dictionary-encoded tiles: aggregating over
    them equals aggregating over the same tiles as strings, with no
    rows for dictionary entries that never occur."""
    import pyarrow.compute as pc
    import ray.data as rd

    from equi7grid_ray.sources.images import make_batch
    from equi7grid_ray.stages.tile_assign import TileAssigner

    tiles = TileAssigner(emit_xy=False, emit_cell=False)(make_batch(0, 200))
    assert pa.types.is_dictionary(tiles.column("tile").type)
    aggs = {"n": ("tile", "count")}
    got = hash_aggregate(rd.from_arrow(tiles), keys=["tile"], aggs=aggs) \
        .to_pandas()
    as_str = tiles.set_column(tiles.schema.get_field_index("tile"), "tile",
                              pc.cast(tiles.column("tile"), pa.string()))
    want = hash_aggregate(rd.from_arrow(as_str), keys=["tile"], aggs=aggs) \
        .to_pandas()
    got = got.astype({"tile": str}).sort_values("tile").reset_index(drop=True)
    want = want.sort_values("tile").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert len(want) == len(set(as_str.column("tile").to_pylist()))


def _partition_sites(src: str) -> list[str]:
    """Line numbers of ``.groupby`` on a partition tag column and of
    ``% n_partitions`` expressions in one module's source."""
    found = []
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in ("part", "__part")):
            found.append(node.lineno)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and "n_partitions" in ast.unparse(node.right)):
            found.append(node.lineno)
    return found


def test_partition_hash_lives_only_in_aggregate():
    """Only stages/aggregate.py decides which partition a row goes to;
    every other keyed shuffle calls its cogroup."""
    assert _partition_sites(
        "t = t.append_column('part', h % np.uint64(n_partitions))\n"
        "out = t.groupby('part').map_groups(f)\n"
        "g = df.groupby('tile')\n") == [1, 2]
    own = PKG / "equi7grid_ray" / "stages" / "aggregate.py"
    files = sorted((PKG / "equi7grid_ray").rglob("*.py")) + [
        PKG / "__ray_entry__.py"]
    assert len(files) > 40
    found = [f"{f.relative_to(PKG)}:{line}" for f in files if f != own
             for line in _partition_sites(f.read_text())]
    assert found == []
