"""Trajectory stages (stay segments, OD matrix) vs a scalar oracle."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from equi7grid_ray.stages.trajectory import od_matrix, stay_segments


@pytest.fixture()
def track():
    """Mixed stays and jumps: 80 users (more than the 64 partitions of
    the trajectory cogroups, so users share partitions), deterministic
    integer walk."""
    rng = np.random.default_rng(42)
    n = 3000
    user = rng.integers(0, 80, n).astype(np.int64)
    ts = np.sort(rng.integers(0, 10**12, n)).astype(np.int64)
    eid = np.arange(n, dtype=np.int64)
    # small jitter around a per-user base, occasional big jump
    jump = np.where(rng.random(n) < 0.15, 1000, 0)
    x = user * 50_000 + rng.integers(0, 80, n) + jump
    y = user * 90_000 + rng.integers(0, 80, n) + jump
    return pa.table({
        "user_id": pa.array(user), "event_id": pa.array(eid),
        "ts_us": pa.array(ts), "x": pa.array(x.astype(np.int64)),
        "y": pa.array(y.astype(np.int64)),
    })


def _scalar_stays(df: pd.DataFrame, r2: int, min_dur: int) -> pd.DataFrame:
    out_rows = []
    for uid, g in df.sort_values(["user_id", "ts_us", "event_id"]).groupby(
            "user_id"):
        g = g.reset_index(drop=True)
        start = 0
        for i in range(1, len(g) + 1):
            brk = i == len(g)
            if not brk:
                dx = int(g.x[i]) - int(g.x[i - 1])
                dy = int(g.y[i]) - int(g.y[i - 1])
                brk = dx * dx + dy * dy > r2
            if brk:
                seg = g.iloc[start:i]
                dur = int(seg.ts_us.iloc[-1] - seg.ts_us.iloc[0])
                if dur >= min_dur:
                    out_rows.append({
                        "user_id": uid,
                        "seg_start": int(seg.ts_us.iloc[0]),
                        "seg_end": int(seg.ts_us.iloc[-1]),
                        "n_pts": len(seg),
                        "sum_x": int(seg.x.sum()),
                        "sum_y": int(seg.y.sum()),
                        "dur_us": dur,
                    })
                start = i
    return pd.DataFrame(out_rows)


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_stay_segments_matches_scalar(ray_session, track,
                                      assert_shared_partition):
    r2, dur = 30_000, 5 * 10**9
    assert_shared_partition(64, user_id=track.column("user_id"))
    got = stay_segments(rd.from_arrow(track), r2=r2,
                        min_dur_us=dur).to_pandas()
    exp = _scalar_stays(track.to_pandas(), r2, dur)
    pd.testing.assert_frame_equal(_canon(got), _canon(exp))


def test_stay_segments_single_point_zero_dur(ray_session):
    """A lone point is a zero-duration segment: kept only at min_dur 0."""
    t = pa.table({
        "user_id": pa.array([1], pa.int64()),
        "event_id": pa.array([0], pa.int64()),
        "ts_us": pa.array([100], pa.int64()),
        "x": pa.array([5], pa.int64()), "y": pa.array([5], pa.int64()),
    })
    kept = stay_segments(rd.from_arrow(t), r2=1, min_dur_us=0).to_pandas()
    assert len(kept) == 1 and kept.n_pts[0] == 1 and kept.dur_us[0] == 0
    dropped = stay_segments(rd.from_arrow(t), r2=1, min_dur_us=1).to_pandas()
    assert len(dropped) == 0


def test_od_matrix_matches_scalar(ray_session, track,
                                  assert_shared_partition):
    assert_shared_partition(64, user_id=track.column("user_id"))
    got = od_matrix(rd.from_arrow(track), cell_shift=6,
                    day_us=10**11).to_pandas()
    df = track.to_pandas().sort_values(["user_id", "ts_us", "event_id"])
    df["day"] = df.ts_us // 10**11
    rows = []
    for (_u, _d), g in df.groupby(["user_id", "day"]):
        rows.append({
            "o_cx": int(g.x.iloc[0]) >> 6, "o_cy": int(g.y.iloc[0]) >> 6,
            "d_cx": int(g.x.iloc[-1]) >> 6, "d_cy": int(g.y.iloc[-1]) >> 6,
        })
    exp = (pd.DataFrame(rows)
           .groupby(["o_cx", "o_cy", "d_cx", "d_cy"], as_index=False)
           .size().rename(columns={"size": "n_trips"}))
    pd.testing.assert_frame_equal(_canon(got), _canon(exp))


def test_od_matrix_negative_coords_floor(ray_session):
    """>> must behave as floor division for negative coordinates."""
    t = pa.table({
        "user_id": pa.array([1, 1], pa.int64()),
        "event_id": pa.array([0, 1], pa.int64()),
        "ts_us": pa.array([0, 10], pa.int64()),
        "x": pa.array([-1, -33], pa.int64()),
        "y": pa.array([-32, 31], pa.int64()),
    })
    got = od_matrix(rd.from_arrow(t), cell_shift=5).to_pandas()
    assert got.iloc[0].to_dict() == {
        "o_cx": -1, "o_cy": -1, "d_cx": -2, "d_cy": 0, "n_trips": 1}


def test_covisit_pairs_semantics(ray_session):
    """Planted presences pin pairing, the min_co filter and the
    max_group skew drop."""
    import ray.data as rd

    from equi7grid_ray.stages.trajectory import covisit_pairs

    H = 3_600_000_000
    rows = []
    # users 1,2 share cell (0,0) hours 0 and 1 -> pair (1,2) n=2
    for h in (0, 1):
        rows += [(1, 10, 10, h * H), (2, 20, 20, h * H)]
    # users 3,4 share only hour 0 -> below min_co, dropped
    rows += [(3, 30, 30, 0), (4, 40, 40, 0)]
    # crowded cell hour 5: 5 users with max_group=4 -> dropped entirely
    rows += [(k, 5, 5, 5 * H) for k in range(100, 105)]
    # duplicates within one hour must not double-count (DISTINCT)
    rows += [(1, 11, 11, 0), (2, 21, 21, 0)]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "x": pa.array([r[1] for r in rows], pa.int64()),
        "y": pa.array([r[2] for r in rows], pa.int64()),
        "ts_us": pa.array([r[3] for r in rows], pa.int64()),
    })
    out = covisit_pairs(
        rd.from_arrow(t), cell_shift=6, max_group=4, min_co=2
    ).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.k1, r.k2, r.n_cohours) == (1, 2, 2)


def test_trajectory_raster_crafted_dda(ray_session, assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.trajectory import trajectory_raster

    # one user, one day, two points: cells (0,0) -> (3,1)  (shift 0)
    # trunc-DDA: x = 0,1,2,3 ; y = trunc(t*1/3) = 0,0,0,1
    # second user (16: shares user 1's partition) heads negative:
    # (0,0) -> (-3,-2): x = 0,-1,-2,-3 ; y = trunc(-2t/3) = 0,0,-1,-2
    tbl = pa.table({
        "user_id": pa.array([1, 1, 16, 16], pa.int64()),
        "event_id": pa.array([1, 2, 1, 2], pa.int64()),
        "ts_us": pa.array([0, 1000, 0, 1000], pa.int64()),
        "x": pa.array([0, 3, 0, -3], pa.int64()),
        "y": pa.array([0, 1, 0, -2], pa.int64()),
    })
    assert_shared_partition(64, user_id=tbl.column("user_id"))
    got = trajectory_raster(rd.from_arrow(tbl), cell_shift=0).to_pandas()
    cells = {(r.cx, r.cy): r.n_visits for r in got.itertuples()}
    assert cells == {(0, 0): 2, (1, 0): 1, (2, 0): 1, (3, 1): 1,
                     (-1, 0): 1, (-2, -1): 1, (-3, -2): 1}


def test_trajectory_raster_single_point_trip(ray_session,
                                             assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.trajectory import trajectory_raster

    # users 5 and 99 share a partition; each trip is one point
    tbl = pa.table({
        "user_id": pa.array([5, 99], pa.int64()),
        "event_id": pa.array([1, 1], pa.int64()),
        "ts_us": pa.array([0, 0], pa.int64()),
        "x": pa.array([7, 1], pa.int64()),
        "y": pa.array([9, 2], pa.int64()),
    })
    assert_shared_partition(64, user_id=tbl.column("user_id"))
    got = trajectory_raster(rd.from_arrow(tbl), cell_shift=0).to_pandas()
    assert sorted(got.to_dict("records"), key=lambda r: r["cx"]) == [
        {"cx": 1, "cy": 2, "n_visits": 1}, {"cx": 7, "cy": 9, "n_visits": 1}]


def test_od_bearing_rose_sector_boundaries(ray_session,
                                           assert_shared_partition):
    import ray.data as rd

    from equi7grid_ray.stages.trajectory import od_bearing_rose

    # one trip per user/day; vectors chosen to hit every sector class:
    # (0,0) flat; (3,1) E; (-3,1) W; (1,3) N; (1,-3) S;
    # (2,2) NE diag; (-2,2) NW; (-2,-2) SW; (2,-2) SE
    vecs = [(0, 0), (3, 1), (-3, 1), (1, 3), (1, -3),
            (2, 2), (-2, 2), (-2, -2), (2, -2)]
    # user ids 0 and 23 share one of od_bearing_rose's 64 partitions
    users = [0, 23] + list(range(2, len(vecs)))
    rows = []
    for u, (dx, dy) in zip(users, vecs):
        rows.append((u, 1, 0, 0, 0))
        rows.append((u, 2, 1000, dx, dy))
    tbl = pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts_us": pa.array([r[2] for r in rows], pa.int64()),
        "x": pa.array([r[3] for r in rows], pa.int64()),
        "y": pa.array([r[4] for r in rows], pa.int64()),
    })
    assert_shared_partition(64, user_id=tbl.column("user_id"))
    got = od_bearing_rose(rd.from_arrow(tbl), cell_shift=0).to_pandas()
    assert dict(zip(got["sector"], got["n_trips"])) == {
        0: 1, 1: 1, 5: 1, 3: 1, 7: 1, 2: 1, 4: 1, 6: 1, 8: 1}
