"""The tile-name decoder: ``grid.parse_tile_names`` accepts exactly the
13-character ``CC_E###{N|S}###T#`` shape ``full_names`` writes, and on
well-formed names agrees with a per-name reference parse."""

import numpy as np
import pytest

from equi7grid_ray import api
from equi7grid_ray.constants import CONTINENTS
from equi7grid_ray.grid import (GridSpec, full_names, parse_tile_names,
                                tile_lattice)
from equi7grid_ray.tiling_state import get_grid_state


def _per_name_parse(names, spec=None):
    """Reference: a per-name slice parse of the fixed-width layout (no
    shape check; non-digit tokens raise)."""
    spec = spec or GridSpec.standard()
    arr = np.asarray(names, dtype="U")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    sizes = {n: s for n, s in spec.tilings.values()}
    tiling = np.array([n[-2:] for n in arr])
    ll_x = np.array([int(n[4:7]) for n in arr]) * 1e5
    ty = np.array([int(n[8:11]) for n in arr])
    ll_y = np.where(np.array([n[7] for n in arr]) == "S", -ty, ty) * 1e5
    size = np.array([sizes.get(t, np.nan) for t in tiling])
    with np.errstate(invalid="ignore"):
        valid = (np.mod(ll_x, size) == 0) & (np.mod(ll_y, size) == 0)
    out = {"continent": np.array([n[:2] for n in arr]), "tiling": tiling,
           "ll_x": ll_x, "ll_y": ll_y, "valid": valid}
    return {k: v[0] for k, v in out.items()} if scalar else out


def _all_names(tiling):
    state = get_grid_state(GridSpec.standard())
    return np.concatenate([
        full_names(c, state.tiles(c, tiling).ll_x, state.tiles(c, tiling).ll_y,
                   tiling)
        for c in CONTINENTS])


def _assert_same(got, want):
    assert set(got) == set(want)
    for k in want:
        np.testing.assert_array_equal(got[k], want[k], err_msg=k)


@pytest.mark.parametrize("tiling", ["T6", "T3"])
def test_parse_matches_per_name_reference_on_every_tile(tiling):
    names = _all_names(tiling)
    assert any(n[7] == "S" for n in names)  # S-hemisphere tiles included
    got = parse_tile_names(names)
    _assert_same(got, _per_name_parse(names))
    assert got["valid"].all()
    cidx, te, tn = tile_lattice(names)
    np.testing.assert_array_equal(te * 1e5, got["ll_x"])
    np.testing.assert_array_equal(tn * 1e5, got["ll_y"])
    np.testing.assert_array_equal(
        np.asarray(sorted(CONTINENTS))[cidx], got["continent"])


@pytest.mark.parametrize("name", [
    "EU_E048N012T6",   # on-grid T6
    "AS_E066S018T6",   # S hemisphere
    "EU_E011N023T6",   # off-grid corner for T6 -> valid False
    "EU_E048N012T2",   # tiling the spec does not define -> valid False
])
def test_parse_scalar_matches_per_name_reference(name):
    got = parse_tile_names(name)
    want = _per_name_parse(name)
    _assert_same(got, want)
    assert bool(got["valid"]) == (name in ("EU_E048N012T6", "AS_E066S018T6"))


@pytest.mark.parametrize("name", [
    "EU_X048Q012T6", "EU-E048N012T6", "EU_E048N012T6x", "EU_E48N012T6",
    "eu_E048N012T6", "EU_E048N012X6", "EU_E04aN012T6", "EU_E048N012T",
])
def test_malformed_tile_names_are_rejected(name):
    p = parse_tile_names([name])
    assert not p["valid"][0] and np.isnan(p["ll_x"][0])
    with pytest.raises(ValueError):
        api.get_tile_from_name(name)
    with pytest.raises(ValueError):
        tile_lattice([name])
