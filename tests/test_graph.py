"""Connected components (stages/graph.py): planted graphs vs a naive
union-find reference."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _uf_components(pairs):
    """Naive union-find reference: node -> min id of its component."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _run_cc(pairs):
    import ray

    from equi7grid_ray.stages.graph import connected_components

    ds = ray.data.from_arrow(pa.table({
        "id_a": pa.array([a for a, _ in pairs], pa.int64()),
        "id_b": pa.array([b for _, b in pairs], pa.int64()),
    }))
    out = connected_components(ds).to_pandas()
    return dict(zip(out["node"], out["component"]))


def test_cc_simple_chain_and_triangle(ray_session):
    # chain 1-2-3-4, triangle 10-11-12, isolated pair (20,21)
    pairs = [(1, 2), (2, 3), (3, 4), (10, 11), (11, 12), (10, 12), (20, 21)]
    got = _run_cc(pairs)
    assert got == _uf_components(pairs)
    assert got[4] == 1 and got[12] == 10 and got[21] == 20


def test_cc_long_path_needs_many_rounds(ray_session):
    # a 40-node path: diameter 39 exceeds one pass's reach, so the
    # fixpoint must iterate (pointer jumps) until labels stop changing
    pairs = [(i, i + 1) for i in range(100, 140)]
    got = _run_cc(pairs)
    assert set(got.values()) == {100}
    assert len(got) == 41


def test_cc_random_graph_matches_union_find(ray_session):
    rng = np.random.default_rng(7)
    nodes = rng.choice(5000, size=400, replace=False)
    pairs = [(int(min(a, b)), int(max(a, b)))
             for a, b in zip(nodes[::2], nodes[1::2])]
    # add some cross-links to merge clusters
    extra = [(int(nodes[i]), int(nodes[i + 50])) for i in range(0, 100, 7)]
    allp = [p for p in pairs + extra if p[0] != p[1]]
    assert _run_cc(allp) == _uf_components(allp)


def test_canonical_assignments_full_corpus(ray_session):
    import ray

    from equi7grid_ray.stages.graph import (canonical_assignments,
                                            connected_components)

    pairs = [(2, 5), (5, 9)]
    pairs_ds = ray.data.from_arrow(pa.table({
        "id_a": pa.array([a for a, _ in pairs], pa.int64()),
        "id_b": pa.array([b for _, b in pairs], pa.int64()),
    }))
    comp = connected_components(pairs_ds)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(12)), pa.int64()),
    }))
    out = canonical_assignments(docs, comp).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    expect = list(range(12))
    expect[5] = 2
    expect[9] = 2
    assert out["canonical"].tolist() == expect
    assert out["doc_id"].tolist() == list(range(12))


def test_triangle_count_matches_naive(ray_session, assert_shared_partition):
    import itertools

    import ray

    from equi7grid_ray.stages.graph import triangle_count

    rng = np.random.default_rng(19)
    n_nodes = 60
    edges = set()
    for _ in range(400):
        a, b = rng.integers(0, n_nodes, 2)
        if a != b:
            edges.add((int(min(a, b)), int(max(a, b))))
    adj = {i: set() for i in range(n_nodes)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    want = sum(1 for a, b, c in itertools.combinations(range(n_nodes), 3)
               if b in adj[a] and c in adj[a] and c in adj[b])
    # feed edges with duplicates and both orientations
    el = list(edges) + [(b, a) for a, b in list(edges)[:100]]
    ds = ray.data.from_arrow(pa.table({
        "id_a": pa.array([a for a, _ in el], pa.int64()),
        "id_b": pa.array([b for _, b in el], pa.int64()),
    }))
    # several wedge apexes share one of triangle_count's 32 partitions
    assert_shared_partition(32, src=[a for a, _ in edges])
    out = triangle_count(ds).to_pandas()
    assert out["n_triangles"].tolist() == [want]
    assert want > 0


def test_canonical_assignments_no_pairs(ray_session):
    """Zero candidate pairs: every doc is its own canonical id."""
    import ray

    from equi7grid_ray.stages.graph import (canonical_assignments,
                                            connected_components)

    empty = ray.data.from_arrow(pa.table({
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64()),
    }))
    comp = connected_components(empty)
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([3, 7, 11], pa.int64())}))
    out = canonical_assignments(docs, comp).to_pandas() \
        .sort_values("doc_id")
    assert out["canonical"].tolist() == [3, 7, 11]


def test_triangle_count_huge_node_ids(ray_session, assert_shared_partition):
    """Ids beyond 2^32 must not collide (regression: packed keys)."""
    import ray

    from equi7grid_ray.stages.graph import triangle_count

    base = 1 << 40
    # one real triangle among huge ids plus decoys that would collide
    # under u*(2^32)+v packing
    pairs = [(base, base + 1), (base + 1, base + 2), (base, base + 2),
             (1, 0), (0, 1 << 32), (7, base)]
    # a triangle-free path: more edges than partitions, so closure
    # probes of different pairs share a partition
    pairs += [(k, k + 1) for k in range(100, 140)]
    assert_shared_partition(32, u=[min(p) for p in pairs],
                            v=[max(p) for p in pairs])
    ds = ray.data.from_arrow(pa.table({
        "id_a": pa.array([a for a, _ in pairs], pa.int64()),
        "id_b": pa.array([b for _, b in pairs], pa.int64()),
    }))
    out = triangle_count(ds).to_pandas()
    assert out["n_triangles"].tolist() == [1]


def test_pagerank_int_hand_graph(ray_session):
    """2 exact rounds on a 3-node graph, hand-computed in integers:
    edges 1->2, 1->3, 2->3, 3->1, scale=1000, d=85/100."""
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.graph import pagerank_int

    edges = rd.from_arrow(pa.table({
        "src": pa.array([1, 1, 2, 3, 1], pa.int64()),   # dup 1->2 edge:
        "dst": pa.array([2, 3, 3, 1, 2], pa.int64()),   # must dedupe
    }))
    out = pagerank_int(edges, iters=2, scale=1000).to_pandas()
    got = dict(zip(out["node"], out["rank_q"]))
    # r_init=333, base=49; round1: r=(332,190,473); round2 below
    assert got == {1: 451, 2: 190, 3: 351}


def _pagerank_reference(edges, iters, scale, d_num=85, d_den=100):
    """Pure-Python integer PageRank, the pagerank_int docstring formula
    over the distinct edge set: node -> rank."""
    edges = set(edges)
    nodes = {n for e in edges for n in e}
    outdeg = {n: 0 for n in nodes}
    for u, _ in edges:
        outdeg[u] += 1
    r0 = scale // len(nodes)
    base = ((d_den - d_num) * r0) // d_den
    r = {n: r0 for n in nodes}
    for _ in range(iters):
        s = {n: 0 for n in nodes}
        for u, v in edges:
            s[v] += r[u] // outdeg[u]
        r = {n: base + (d_num * s[n]) // d_den for n in nodes}
    return r


def test_pagerank_int_random_graph_matches_reference(ray_session):
    """600 random edges over 80 nodes (with duplicates and self-loops)
    vs the pure-Python reference."""
    import pyarrow as pa
    import ray.data as rd

    from equi7grid_ray.stages.graph import pagerank_int

    rng = np.random.default_rng(23)
    n = 600
    src = rng.integers(0, 80, n)
    dst = rng.integers(0, 80, n)
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64())})
    out = pagerank_int(rd.from_arrow(edges), iters=3,
                       scale=10**9).to_pandas()
    got = dict(zip(out["node"], out["rank_q"]))
    want = _pagerank_reference(zip(src.tolist(), dst.tolist()), 3, 10**9)
    assert got == want and len(got) > 0


def test_canonical_by_quality_keeps_longest(ray_session):
    import ray

    from equi7grid_ray.stages.graph import (canonical_by_quality,
                                            connected_components)

    # components {2,5,9} and {3,7}; quality: 5 is longest in the first
    # (rep=5 despite min-id 2), tie 3==7 in the second (rep=min id 3)
    pairs = [(2, 5), (5, 9), (3, 7)]
    pairs_ds = ray.data.from_arrow(pa.table({
        "id_a": pa.array([a for a, _ in pairs], pa.int64()),
        "id_b": pa.array([b for _, b in pairs], pa.int64()),
    }))
    comp = connected_components(pairs_ds)
    qual = {2: 10, 5: 99, 9: 50, 3: 42, 7: 42}
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(12)), pa.int64()),
        "n_chars": pa.array([qual.get(i, 1) for i in range(12)],
                            pa.int64()),
    }))
    out = canonical_by_quality(docs, comp).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    expect = list(range(12))
    expect[2] = expect[5] = expect[9] = 5
    expect[3] = expect[7] = 3
    assert out["canonical"].tolist() == expect


def test_canonical_by_quality_no_pairs(ray_session):
    import ray

    from equi7grid_ray.stages.graph import canonical_by_quality

    comp = ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "component": pa.array([], pa.int64()),
    }))
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([4, 8], pa.int64()),
        "n_chars": pa.array([1, 2], pa.int64()),
    }))
    out = canonical_by_quality(docs, comp).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["canonical"].tolist() == [4, 8]


def test_degree_assortativity_hand_graphs(ray_session):
    import ray

    from equi7grid_ray.stages.graph import degree_assortativity

    def run(edges):
        ds = ray.data.from_arrow(pa.table({
            "id_a": pa.array([a for a, _ in edges], pa.int64()),
            "id_b": pa.array([b for _, b in edges], pa.int64()),
        }))
        return degree_assortativity(ds).to_pandas().iloc[0]

    # star K_{1,3}: perfectly disassortative (r = -1) -> cov = -var
    r = run([(0, 1), (0, 2), (0, 3)])
    assert r["n_dir"] == 6
    assert r["cov_num"] == -r["var_num"] and r["var_num"] > 0

    # triangle: all degrees equal -> var_num = 0 and cov_num = 0
    r = run([(0, 1), (1, 2), (0, 2)])
    assert (r["cov_num"], r["var_num"]) == (0, 0)

    # duplicate + self-loop edges are cleaned before the sums
    r = run([(0, 1), (1, 0), (2, 2), (0, 1)])
    assert r["n_dir"] == 2


def test_common_neighbor_pairs_square_and_path(ray_session):
    import ray.data as rd

    from equi7grid_ray.stages.graph import common_neighbor_pairs

    # square 1-2-3-4-1: (1,3) share {2,4}, (2,4) share {1,3}; both
    # non-adjacent -> cn=2.  Appended path 4-5-6: (3,5)/(1,5) share 4/
    # nothing; (4,6) share 5 -> cn=1.
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6)]
    tbl = pa.table({
        "id_a": pa.array([a for a, _ in edges], pa.int64()),
        "id_b": pa.array([b for _, b in edges], pa.int64()),
    })
    got = common_neighbor_pairs(rd.from_arrow(tbl), min_common=1) \
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    exp = {(1, 3): 2, (2, 4): 2, (1, 5): 1, (3, 5): 1, (2, 5): None,
           (4, 6): 1}
    want = sorted([(a, b, c) for (a, b), c in exp.items() if c])
    assert list(map(tuple, got[["id_a", "id_b", "cn"]].to_numpy())) == want


def test_common_neighbor_pairs_matches_naive(ray_session,
                                             assert_shared_partition):
    from itertools import combinations

    import ray.data as rd

    from equi7grid_ray.stages.graph import common_neighbor_pairs

    rng = np.random.default_rng(11)
    m = 300
    a = rng.integers(0, 60, m).astype(np.int64)
    b = rng.integers(0, 60, m).astype(np.int64)
    tbl = pa.table({"id_a": pa.array(a), "id_b": pa.array(b)})
    assert_shared_partition(32, s=np.concatenate([a, b]))
    got = common_neighbor_pairs(
        rd.from_arrow(tbl), min_common=2
    ).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)

    adj = {}
    eset = set()
    for u, v in zip(a, b):
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        eset.add((min(u, v), max(u, v)))
    exp = []
    for u, v in combinations(sorted(adj), 2):
        if (u, v) in eset:
            continue
        cn = len(adj[u] & adj[v])
        if cn >= 2:
            exp.append((u, v, cn))
    assert list(map(tuple, got[["id_a", "id_b", "cn"]].to_numpy())) \
        == sorted(exp)


def test_graph_operators_zero_rows_keep_schema(ray_session):
    """Inputs with nothing to label give zero rows with the declared
    columns and types: a one-cell mosaic (no interior cell) for the
    hydrology operators, zero pairs / edges for the graph operators."""
    import ray
    import ray.data as rd

    from equi7grid_ray.stages.graph import (canonical_assignments,
                                            connected_components,
                                            pagerank_int)
    from equi7grid_ray.stages.mosaic import tile_basins, tile_flow_accum

    def rows_and_schema(ds):
        t = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        return t.num_rows, t.schema

    cell = pa.schema([("tile", pa.string()), ("gr", pa.int32()),
                      ("gc", pa.int32())])
    i64 = pa.int64()
    one_cell = pa.table({"tile": ["EU_E036N078T6"],
                         "gr": pa.array([0], pa.int32()),
                         "gc": pa.array([0], pa.int32()),
                         "v_max": pa.array([10], i64)})
    no_pairs = pa.table({"id_a": pa.array([], i64),
                         "id_b": pa.array([], i64)})
    no_edges = pa.table({"src": pa.array([], i64),
                         "dst": pa.array([], i64)})
    comp = connected_components(rd.from_arrow(no_pairs))
    cases = [
        (tile_flow_accum(rd.from_arrow(one_cell)),
         pa.schema(list(cell) + [("acc", i64)])),
        (tile_basins(rd.from_arrow(one_cell)),
         pa.schema(list(cell) + [("v_sink", i64), ("n_cells", i64),
                                 ("sum_v", i64)])),
        (comp, pa.schema([("node", i64), ("component", i64)])),
        (pagerank_int(rd.from_arrow(no_edges)),
         pa.schema([("node", i64), ("rank_q", i64)])),
    ]
    for ds, want in cases:
        n, got = rows_and_schema(ds)
        assert n == 0 and got.equals(want), (got, want)
    docs = rd.from_arrow(pa.table({"doc_id": pa.array([4, 2], i64)}))
    out = canonical_assignments(docs, comp).to_pandas()
    assert sorted(zip(out["doc_id"], out["canonical"])) == [(2, 2), (4, 4)]
