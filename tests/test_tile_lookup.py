"""Dense tile index of ``ContinentTiling.lookup`` against a key-sort +
binary-search reference built here from the tile corners."""

import dataclasses

import numpy as np
import pytest

from equi7grid_ray.grid import GridSpec
from equi7grid_ray.tiling_state import get_grid_state

SPEC = GridSpec.standard()


def _key_of(ll_x, ll_y):
    return np.round(np.asarray(ll_x) / 1e5).astype(np.int64) * 4096 + (
        np.round(np.asarray(ll_y) / 1e5).astype(np.int64) + 1024
    )


def _reference_lookup(ct, ll_x, ll_y):
    keys = _key_of(ct.ll_x, ct.ll_y)
    k = _key_of(ll_x, ll_y)
    if len(keys) == 0:
        return np.full(len(k), -1)
    pos = np.clip(np.searchsorted(keys, k), 0, len(keys) - 1)
    return np.where(keys[pos] == k, pos, -1)


@pytest.mark.parametrize("tiling_id", ["T1", "T3", "T6"])
def test_dense_lookup_matches_sorted_key_search(tiling_id):
    state = get_grid_state(SPEC)
    size = SPEC.tile_size(tiling_id)
    rng = np.random.default_rng(17)
    for cont in SPEC.continents():
        ct = state.tiles(cont, SPEC.tiling_name(tiling_id))
        assert (_key_of(ct.ll_x, ct.ll_y)[1:] > _key_of(ct.ll_x, ct.ll_y)[:-1]).all()
        n = 20_000
        # aligned corners over a box past the tile set on every side
        ax = np.floor(rng.uniform(-3e6, 1.4e7, n) / size) * size
        ay = np.floor(rng.uniform(-3e6, 1.4e7, n) / size) * size
        # unaligned: off-grid by less and more than half a 100 km key
        ux = ax + rng.uniform(-2e5, 2e5, n)
        uy = ay + rng.uniform(-2e5, 2e5, n)
        far = rng.uniform(-9e7, 9e7, (2, n))
        lx = np.concatenate([ct.ll_x, ax, ux, ax, far[0]])
        ly = np.concatenate([ct.ll_y, ay, ay, uy, far[1]])
        got = ct.lookup(lx, ly)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _reference_lookup(ct, lx, ly))
        np.testing.assert_array_equal(got[: len(ct.ll_x)], np.arange(len(ct.ll_x)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dense_lookup_misses_non_finite_corners():
    ct = get_grid_state(SPEC).tiles("EU", SPEC.tiling_name("T6"))
    x0, y0 = ct.ll_x[0], ct.ll_y[0]
    bad = [np.nan, np.inf, -np.inf]
    lx = np.array([b for b in bad for _ in range(3)] + [x0] * 3 + bad)
    ly = np.array(bad * 3 + bad + [np.nan] * 3)
    np.testing.assert_array_equal(ct.lookup(lx, ly), -1)
    assert ct.lookup(np.array([x0]), np.array([y0]))[0] == 0


@pytest.mark.parametrize("ntiles", [0, 1])
def test_dense_lookup_empty_and_one_tile_tilings(ntiles):
    ct = get_grid_state(SPEC).tiles("EU", SPEC.tiling_name("T6"))
    small = dataclasses.replace(
        ct, ll_x=ct.ll_x[:ntiles], ll_y=ct.ll_y[:ntiles],
        covers_land=ct.covers_land[:ntiles],
    )
    x0, y0 = ct.ll_x[0], ct.ll_y[0]
    lx = np.array([0.0, x0, x0 + 6e5, x0, x0 - 6e5, np.nan, -1e9])
    ly = np.array([0.0, y0, y0, y0 - 6e5, y0, 0.0, 1e9])
    want = [-1, 0 if ntiles else -1, -1, -1, -1, -1, -1]
    assert small.lookup(lx, ly).tolist() == want
    fin = np.isfinite(lx)
    np.testing.assert_array_equal(
        small.lookup(lx[fin], ly[fin]), _reference_lookup(small, lx[fin], ly[fin])
    )
