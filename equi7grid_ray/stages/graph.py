"""Graph operators over edge-list Datasets: connected components and
the canonical-id maps built on them, triangle counts, integer
PageRank, degree assortativity and common-neighbour link prediction.

Connected components are the missing last step of every near-duplicate
pipeline: LSH / dhash / embedding stages emit *pairs*; actual
deduplication needs the transitive closure -- group pairs into
components and keep one canonical document per component.  (The
reference's spatial analogue is merging overlapping tile footprints
into contiguous regions.)

Algorithm: min-label propagation (Rastogi et al., "Finding Connected
Components in MapReduce and Beyond", the min-label variant) with a
pointer jump per pass.  Every node starts labelled with its own id;
each pass every edge carries the smaller endpoint label to the other
endpoint.  Labels are monotonically non-increasing and the fixpoint
assigns each node the minimum node id of its component.

Scale shape: the pair set is bounded by duplicate mass -- orders of
magnitude smaller than the corpus -- so it is collected once and the
fixpoint runs in one task.  On bounded inputs a single-task fixpoint
beats a per-round distributed loop, whose fixed scheduling cost is
paid once per round (McSherry et al., "Scalability! But at what
COST?", HotOS 2015); :func:`pagerank_int` follows the same shape.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["connected_components", "canonical_assignments",
           "canonical_by_quality", "pagerank_int",
           "degree_assortativity", "common_neighbor_pairs"]

def _local_min_labels(a: np.ndarray,
                      b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """In-memory min-label fixpoint over one edge block: returns
    (unique nodes, component-minimum per node), pure numpy -- iterated
    ``minimum.at`` over the edges plus a pointer jump, O(E log n)
    total.  Index order equals id order (np.unique sorts), so the
    index-space minimum IS the id-space minimum."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ua, ub = inv[: len(a)], inv[len(a):]
    lbl = np.arange(len(nodes), dtype=np.int64)
    while True:
        l2 = lbl.copy()
        np.minimum.at(l2, ua, lbl[ub])
        np.minimum.at(l2, ub, lbl[ua])
        l2 = l2[l2]  # pointer jump: halves chain lengths each pass
        if np.array_equal(l2, lbl):
            break
        lbl = l2
    return nodes, nodes[lbl]


def connected_components(pairs, *, id_a: str = "id_a", id_b: str = "id_b"):
    """Edge list ``(id_a, id_b)`` -> ``(node, component)`` Dataset where
    ``component`` is the minimum node id reachable from ``node``.

    Only nodes that appear in at least one pair are returned (isolated
    documents are trivially their own component; join back with
    :func:`canonical_assignments` for the full corpus view).

    The pair columns are collected once (near-dup pair sets are
    O(duplicate mass)) and :func:`_local_min_labels` runs the fixpoint
    in one task.  Zero pairs give zero rows of the same schema."""
    import ray.data as rd

    from equi7grid_ray.arrowutil import collect_tables

    t = collect_tables(pairs.select_columns([id_a, id_b]), schema=pa.schema(
        [(id_a, pa.int64()), (id_b, pa.int64())]))
    nodes, comp = _local_min_labels(
        t.column(id_a).to_numpy().astype(np.int64),
        t.column(id_b).to_numpy().astype(np.int64))
    return rd.from_arrow(pa.table({
        "node": pa.array(nodes, pa.int64()),
        "component": pa.array(comp, pa.int64()),
    }))


def canonical_assignments(docs, components, *, id_col: str = "doc_id"):
    """Full-corpus canonical ids: every document mapped to its
    component minimum (itself when it appears in no near-dup pair).

    The component table is the *small* side (pair-nodes only), so it is
    collected once, ``ray.put`` into the object store, and probed with
    a vectorized searchsorted inside ``map_batches`` -- the broadcast
    pattern; the corpus side streams.
    """
    import ray

    from equi7grid_ray.arrowutil import collect_tables

    comp = collect_tables(components, schema=pa.schema(
        [("node", pa.int64()), ("component", pa.int64())]))
    nodes = comp.column("node").to_numpy().astype(np.int64)
    lbls = comp.column("component").to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    ref = ray.put((nodes[order], lbls[order]))

    def assign(batch: pa.Table) -> pa.Table:
        snodes, slbls = ray.get(ref)
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        pos = np.searchsorted(snodes, ids)
        pos_c = np.minimum(pos, max(len(snodes) - 1, 0))
        hit = (len(snodes) > 0) & (snodes[pos_c] == ids) if len(snodes) \
            else np.zeros(len(ids), dtype=bool)
        canon = np.where(hit, slbls[pos_c] if len(snodes) else ids, ids)
        return pa.table({
            id_col: batch.column(id_col),
            "canonical": pa.array(canon, pa.int64()),
        })

    return docs.map_batches(assign, batch_format="pyarrow")


def canonical_by_quality(docs, components, *, id_col: str = "doc_id",
                         quality_col: str = "n_chars"):
    """Quality-keeping canonical ids: every document mapped to the
    HIGHEST-``quality_col`` member of its near-dup component (ties ->
    smallest doc_id; itself when in no pair) -- the "keep the longest
    document" representative rule curation pipelines prefer over
    min-id when near-dups are truncations of one another.

    Shape: identical to :func:`canonical_assignments` -- the component
    table is pair-nodes-only, so member qualities are harvested with
    one broadcast-probe streaming pass (bounded collect, <= |nodes|
    rows), the per-component argmax resolves driver-side in numpy, and
    the corpus streams against the broadcast node -> representative
    map."""
    import ray

    from equi7grid_ray.arrowutil import collect_tables

    comp = collect_tables(components, schema=pa.schema(
        [("node", pa.int64()), ("component", pa.int64())]))
    nodes = comp.column("node").to_numpy().astype(np.int64)
    lbls = comp.column("component").to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    nodes, lbls = nodes[order], lbls[order]
    node_ref = ray.put(nodes)

    def members(batch: pa.Table) -> pa.Table:
        snodes = ray.get(node_ref)
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        q = batch.column(quality_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(snodes):
            pos = np.minimum(np.searchsorted(snodes, ids),
                             len(snodes) - 1)
            hit = snodes[pos] == ids
        else:
            hit = np.zeros(len(ids), dtype=bool)
        return pa.table({
            "node": pa.array(ids[hit], pa.int64()),
            "q": pa.array(q[hit], pa.int64()),
        })

    mem = collect_tables(
        docs.map_batches(members, batch_format="pyarrow"),
        schema=pa.schema([("node", pa.int64()), ("q", pa.int64())]))
    mid = mem.column("node").to_numpy().astype(np.int64)
    mq = mem.column("q").to_numpy().astype(np.int64)
    # align member qualities onto the sorted node table
    pos = np.searchsorted(nodes, mid)
    qual = np.full(len(nodes), np.iinfo(np.int64).min, np.int64)
    qual[pos] = mq
    # per-component argmax(quality, tie -> min id): lexsort by
    # (component, -quality, id) and take each component's first row
    srt = np.lexsort((nodes, -qual, lbls))
    cl, cn = lbls[srt], nodes[srt]
    first = np.ones(len(cl), dtype=bool)
    first[1:] = cl[1:] != cl[:-1]
    comp_ids = cl[first]
    reps = cn[first]
    # node -> representative, through its component label
    rep_for_node = reps[np.searchsorted(comp_ids, lbls)]
    ref = ray.put((nodes, rep_for_node))

    def assign(batch: pa.Table) -> pa.Table:
        snodes, sreps = ray.get(ref)
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        if len(snodes):
            pos = np.minimum(np.searchsorted(snodes, ids),
                             len(snodes) - 1)
            hit = snodes[pos] == ids
            canon = np.where(hit, sreps[pos], ids)
        else:
            canon = ids
        return pa.table({
            id_col: batch.column(id_col),
            "canonical": pa.array(canon, pa.int64()),
        })

    return docs.map_batches(assign, batch_format="pyarrow")


def triangle_count(pairs, *, id_a: str = "id_a", id_b: str = "id_b"):
    """Count triangles in the undirected graph given as an edge list.

    The classic distributed shape (degree-oriented node-iterator,
    Schank/Wagner; the MapReduce variant of Suri & Vassilvitskii):

    1. dedupe edges and compute degrees (keyed aggregates);
    2. orient every edge from its (degree, id)-smaller endpoint to the
       larger -- out-degrees are then O(sqrt(m)), which bounds the
       wedge blowup that kills naive enumeration on skewed graphs;
    3. wedges: ONE vectorized self-merge of oriented edges per hash
       partition of source nodes (each wedge (v, w) materializes
       exactly once, at its apex);
    4. close: hash-join the wedge list against the oriented edge set
       on (v, w) -- a partition-cogroup membership probe.

    Degrees are broadcast (bounded by #edge-endpoints, the small side
    of any near-dup graph); the wedge and closure shuffles move only
    (node, node) int pairs.  Returns a 1-row Dataset ``(n_triangles)``.
    """
    import pandas as pd
    import ray
    from ray.data.aggregate import Count, Sum

    from equi7grid_ray.arrowutil import collect_tables, single_group

    def canon(batch: pa.Table) -> pa.Table:
        a = batch.column(id_a).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        b = batch.column(id_b).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        # batch-local dedupe (combiner) before the distinct shuffle --
        # lexsort-run dedupe of the PAIR, no id packing (safe for the
        # full int64 id range)
        order = np.lexsort((v, u))
        su, sv = u[order], v[order]
        first = np.empty(len(su), dtype=bool)
        if len(su):
            first[0] = True
            first[1:] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
        return pa.table({"u": pa.array(su[first], pa.int64()),
                         "v": pa.array(sv[first], pa.int64())})

    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

    edges = (
        hash_aggregate(pairs.map_batches(canon, batch_format="pyarrow"),
                       keys=["u", "v"], aggs={"__c": ("u", "count")})
        .select_columns(["u", "v"])
        .materialize()  # reused by degrees, wedges and closure
    )

    deg_tbl = collect_tables(
        hash_aggregate(
            edges.map_batches(
                lambda b: pa.table({
                    "node": pa.array(np.concatenate([
                        b.column("u").to_numpy(zero_copy_only=False),
                        b.column("v").to_numpy(zero_copy_only=False),
                    ]).astype(np.int64), pa.int64())}),
                batch_format="pyarrow"),
            keys=["node"], aggs={"deg": ("node", "count")}),
        schema=pa.schema([("node", pa.int64()), ("deg", pa.int64())]),
    )
    nodes = deg_tbl.column("node").to_numpy().astype(np.int64)
    degs = deg_tbl.column("deg").to_numpy().astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    dref = ray.put((nodes[order], degs[order]))

    def orient(batch: pa.Table) -> pa.Table:
        snodes, sdegs = ray.get(dref)
        u = batch.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False).astype(np.int64)
        du = sdegs[np.searchsorted(snodes, u)]
        dv = sdegs[np.searchsorted(snodes, v)]
        # lexicographic (degree, id) order -- a strict total order with
        # no packed-key collisions anywhere in the int64 id range
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        return pa.table({"src": pa.array(src, pa.int64()),
                         "dst": pa.array(dst, pa.int64())})

    oriented = edges.map_batches(orient, batch_format="pyarrow") \
        .materialize()

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        j = g[["src", "dst"]].merge(g[["src", "dst"]], on="src",
                                    suffixes=("_1", "_2"))
        lt = j["dst_1"].to_numpy(np.int64) < j["dst_2"].to_numpy(np.int64)
        return pd.DataFrame({
            "u": j["dst_1"].to_numpy(np.int64)[lt],
            "v": j["dst_2"].to_numpy(np.int64)[lt],
        })

    wedge_ds = cogroup(oriented, ["src"], wedges, n_partitions=32)

    # closure: does wedge (u, v) exist as an edge (in either
    # orientation)?  Tag wedges and oriented edges into one schema,
    # hash-partition on a canonical (min, max) key, one vectorized
    # membership probe per partition.
    def tag_wedge(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        return pa.table({"u": pa.array(lo, pa.int64()),
                         "v": pa.array(hi, pa.int64()),
                         "kind": pa.array(np.zeros(len(lo), np.int8))})

    def tag_edge(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False) \
            .astype(np.int64)  # already u < v
        return pa.table({"u": pa.array(u, pa.int64()),
                         "v": pa.array(v, pa.int64()),
                         "kind": pa.array(np.ones(len(u), np.int8))})

    tagged = wedge_ds.map_batches(tag_wedge, batch_format="pyarrow") \
        .union(edges.map_batches(tag_edge, batch_format="pyarrow"))

    def close(g: pd.DataFrame) -> pd.DataFrame:
        kind = g["kind"].to_numpy()
        w = g.loc[kind == 0, ["u", "v"]]
        e = g.loc[kind == 1, ["u", "v"]].drop_duplicates()
        n = len(w.merge(e, on=["u", "v"])) if len(w) and len(e) else 0
        return pd.DataFrame({"pt": [np.int64(n)]})

    parts = cogroup(tagged, ["u", "v"], close, n_partitions=32)

    def total(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({"n_triangles": pa.array(
            [pc.sum(t.column("pt")).as_py() or 0], pa.int64())})

    return single_group(parts, total, ["n_triangles"],
                        batch_format="pyarrow")


def pagerank_int(edges, *, src: str = "src", dst: str = "dst",
                 iters: int = 3, scale: int = 10**12,
                 d_num: int = 85, d_den: int = 100):
    """PageRank over a directed edge list in EXACT integer arithmetic
    (SQL-mirrorable, platform-independent): ranks are Q(scale) fixed
    point,

        r_0(v)     = scale // |V|
        contrib(u) = r_k(u) // outdeg(u)
        r_{k+1}(v) = ((d_den - d_num) * r_0) // d_den
                     + (d_num * sum_in contrib) // d_den

    over the DISTINCT edge set, for a FIXED ``iters`` rounds (the SQL
    oracle unrolls the same rounds; dangling mass is dropped rather
    than redistributed -- the standard sparse-push variant, documented
    so both sides agree).  |V| = nodes appearing in any edge.

    Shape: one hash_aggregate dedupes the edges, which bounds what is
    collected; the rounds then run in one task as numpy gathers and
    ``np.add.at`` scatters.  Zero edges give zero rows."""
    import ray.data as rd

    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.aggregate import hash_aggregate

    e = hash_aggregate(edges, keys=[src, dst], aggs={"_m": (src, "count")})
    et = collect_tables(e.select_columns([src, dst]), schema=pa.schema(
        [(src, pa.int64()), (dst, pa.int64())]))
    es = et.column(src).to_numpy().astype(np.int64)
    ed = et.column(dst).to_numpy().astype(np.int64)
    nodes = np.unique(np.concatenate([es, ed]))
    nv = len(nodes)
    si = np.searchsorted(nodes, es)
    di = np.searchsorted(nodes, ed)
    deg = np.bincount(si, minlength=nv).astype(np.int64)
    r_init = scale // max(nv, 1)
    base = ((d_den - d_num) * r_init) // d_den
    r = np.full(nv, r_init, np.int64)
    for _ in range(iters):
        s = np.zeros(nv, np.int64)
        np.add.at(s, di, r[si] // deg[si])
        r = base + (d_num * s) // d_den
    return rd.from_arrow(pa.table({
        "node": pa.array(nodes, pa.int64()),
        "rank_q": pa.array(r, pa.int64())}))


def degree_assortativity(pairs, *, id_a: str = "id_a",
                         id_b: str = "id_b"):
    """Degree assortativity of the undirected graph given as an edge
    list, in EXACT cleared integers (Newman 2002, Pearson over the
    directed edge list where both endpoints' degrees are the
    variates; by symmetry Sx = Sy and Sxx = Syy, so two numerators
    suffice):

        cov_num = n_dir * Sxy - Sx^2
        var_num = n_dir * Sxx - Sx^2      (r = cov_num / var_num)

    Shape: edges dedupe through one keyed count (the near-dup graph's
    pair set is bounded); degrees broadcast (node set = pair
    endpoints, the small side by construction -- same pattern as
    triangle_count); per-batch partial sums fold to ONE row."""
    import ray

    from equi7grid_ray.arrowutil import collect_tables
    from equi7grid_ray.stages.aggregate import hash_aggregate

    def canon(batch: pa.Table) -> pa.Table:
        a = batch.column(id_a).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        b = batch.column(id_b).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({"u": pa.array(lo, pa.int64()),
                         "v": pa.array(hi, pa.int64())})

    edges = hash_aggregate(
        pairs.map_batches(canon, batch_format="pyarrow"),
        keys=["u", "v"], aggs={"__n": ("u", "count")},
    ).select_columns(["u", "v"])

    # degrees: bounded by the pair-endpoint set; fold driver-side and
    # broadcast (the membership-probe shape shared with triangle_count)
    et = collect_tables(edges, schema=pa.schema(
        [("u", pa.int64()), ("v", pa.int64())]))
    u = et.column("u").to_numpy().astype(np.int64)
    v = et.column("v").to_numpy().astype(np.int64)
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    deg = np.bincount(inv, minlength=len(nodes)).astype(np.int64)
    ref = ray.put((nodes, deg))

    def partial(batch: pa.Table) -> pa.Table:
        snodes, sdeg = ray.get(ref)
        a = batch.column("u").to_numpy(zero_copy_only=False)
        b = batch.column("v").to_numpy(zero_copy_only=False)
        da = sdeg[np.searchsorted(snodes, a)]
        db = sdeg[np.searchsorted(snodes, b)]
        # directed edge list = both orientations of every edge
        return pa.table({
            "__k": pa.array([0], pa.int64()),
            "n_dir": pa.array([2 * len(a)], pa.int64()),
            "sx": pa.array([int(da.sum() + db.sum())], pa.int64()),
            "sxx": pa.array([int((da * da).sum() + (db * db).sum())],
                            pa.int64()),
            "sxy": pa.array([2 * int((da * db).sum())], pa.int64()),
        })

    sums = hash_aggregate(
        edges.map_batches(partial, batch_format="pyarrow"),
        keys=["__k"],
        aggs={"n_dir": ("n_dir", "sum"), "sx": ("sx", "sum"),
              "sxx": ("sxx", "sum"), "sxy": ("sxy", "sum")},
        n_partitions=1,
    )

    def finish(batch: pa.Table) -> pa.Table:
        nd = batch.column("n_dir").to_numpy(zero_copy_only=False)
        sx = batch.column("sx").to_numpy(zero_copy_only=False)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False)
        return pa.table({
            "n_dir": pa.array(nd.astype(np.int64), pa.int64()),
            "cov_num": pa.array(nd * sxy - sx * sx, pa.int64()),
            "var_num": pa.array(nd * sxx - sx * sx, pa.int64()),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


def common_neighbor_pairs(pairs, *, id_a: str = "id_a", id_b: str = "id_b",
                          min_common: int = 2):
    """Link prediction by common-neighbour count: for every NON-adjacent
    node pair of the undirected graph, the number of shared neighbours
    (the classic link-prediction baseline; Liben-Nowell & Kleinberg's
    common-neighbours score), keeping pairs with ``cn >= min_common``.

    Shape mirrors :func:`triangle_count`'s wedge machinery, but wedges
    must enumerate at their APEX over its FULL neighbour list (both
    orientations) -- the score of (u, w) is the number of apexes v with
    u-v and v-w edges, so degree-orienting would undercount.  Cost is
    therefore Theta(sum deg(v)^2), which IS the candidate-set size the
    operator exists to compute; on hub-skewed graphs cap the apex
    degree upstream (drop or sample hub adjacency) exactly as
    covisit_pairs does with max_group.  Stages:

    1. edge dedupe (keyed count) -> bounded (u < v) edge set;
    2. wedges: both orientations hash-partitioned by apex, ONE
       pandas self-merge per partition, per-partition (u, w) count
       combiner;
    3. global count: hash_aggregate sum on the pair;
    4. non-adjacency: the tagged partition-cogroup anti-probe used by
       triangle_count's closure (edges re-enter as kind=1, candidate
       pairs with a left-anti merge survive).

    Returns ``(id_a, id_b, cn)`` with id_a < id_b.
    """
    import pandas as pd

    from equi7grid_ray.stages.aggregate import cogroup, hash_aggregate

    def canon(batch: pa.Table) -> pa.Table:
        a = batch.column(id_a).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        b = batch.column(id_b).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        order = np.lexsort((v, u))
        su, sv = u[order], v[order]
        first = np.empty(len(su), dtype=bool)
        if len(su):
            first[0] = True
            first[1:] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
        return pa.table({"u": pa.array(su[first], pa.int64()),
                         "v": pa.array(sv[first], pa.int64())})

    edges = (
        hash_aggregate(pairs.map_batches(canon, batch_format="pyarrow"),
                       keys=["u", "v"], aggs={"__c": ("u", "count")})
        .select_columns(["u", "v"])
        .materialize()  # bounded pair set, reused by wedges + anti-probe
    )

    def dirs(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        s = np.concatenate([u, v]).astype(np.int64)
        t = np.concatenate([v, u]).astype(np.int64)
        return pa.table({"s": pa.array(s, pa.int64()),
                         "t": pa.array(t, pa.int64())})

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        j = g[["s", "t"]].merge(g[["s", "t"]], on="s", suffixes=("_1", "_2"))
        t1 = j["t_1"].to_numpy(np.int64)
        t2 = j["t_2"].to_numpy(np.int64)
        lt = t1 < t2
        out = pd.DataFrame({"u": t1[lt], "v": t2[lt]})
        # per-partition combiner before the pair shuffle
        return out.groupby(["u", "v"], as_index=False).size() \
            .rename(columns={"size": "c"}).astype({"c": np.int64})

    cand = hash_aggregate(
        cogroup(edges.map_batches(dirs, batch_format="pyarrow"), ["s"],
                wedges, n_partitions=32),
        keys=["u", "v"], aggs={"cn": ("c", "sum")})

    def tag_cand(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cn = batch.column("cn").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = cn >= min_common
        u, v, cn = u[keep], v[keep], cn[keep]
        return pa.table({"u": pa.array(u, pa.int64()),
                         "v": pa.array(v, pa.int64()),
                         "cn": pa.array(cn, pa.int64()),
                         "kind": pa.array(np.zeros(len(u), np.int8))})

    def tag_edge(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v = batch.column("v").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"u": pa.array(u, pa.int64()),
                         "v": pa.array(v, pa.int64()),
                         "cn": pa.array(np.zeros(len(u), np.int64)),
                         "kind": pa.array(np.ones(len(u), np.int8))})

    tagged = cand.map_batches(tag_cand, batch_format="pyarrow") \
        .union(edges.map_batches(tag_edge, batch_format="pyarrow"))

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        kind = g["kind"].to_numpy()
        c = g.loc[kind == 0, ["u", "v", "cn"]]
        e = g.loc[kind == 1, ["u", "v"]].drop_duplicates()
        if not len(c):
            return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                                 "id_b": pd.Series([], dtype=np.int64),
                                 "cn": pd.Series([], dtype=np.int64)})
        m = c.merge(e, on=["u", "v"], how="left", indicator=True)
        m = m.loc[m["_merge"] == "left_only"]
        return pd.DataFrame({"id_a": m["u"].to_numpy(np.int64),
                             "id_b": m["v"].to_numpy(np.int64),
                             "cn": m["cn"].to_numpy(np.int64)})

    return cogroup(tagged, ["u", "v"], anti, n_partitions=32)
