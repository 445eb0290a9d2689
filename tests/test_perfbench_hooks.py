"""The benchmark's tracer patches engine functions by name
(``perfbench.trace.SPANS``) and its cold start clears engine caches by
name (``perfbench.trace.cold_caches``); a renamed target would break
``perfbench/run.py --trace 1`` on every workload.  Resolve each one the
way the tracer does."""

import importlib

import numpy as np
import pytest

from perfbench import trace


def _resolve(mod_name, attr):
    """(owner, leaf, current value) as ``Tracer.__enter__`` looks it up:
    a class attribute from the class ``__dict__``."""
    owner = importlib.import_module(mod_name)
    *path, leaf = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    return owner, leaf, owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)


@pytest.mark.parametrize("mod_name,attr", sorted({(m, a) for m, a, _, _ in trace.SPANS}))
def test_span_target_resolves(mod_name, attr):
    assert callable(_resolve(mod_name, attr)[2])


def test_tracer_patches_and_restores():
    before = [_resolve(m, a)[2] for m, a, _, _ in trace.SPANS]
    with trace.Tracer():
        assert all(hasattr(_resolve(m, a)[2], "__wrapped__") for m, a, _, _ in trace.SPANS)
    assert [_resolve(m, a)[2] for m, a, _, _ in trace.SPANS] == before


def test_cold_caches_runs():
    trace.cold_caches()


def test_zone_spans_count_rows_once():
    """``classify`` and ``classify_bits`` share one kernel without calling
    each other's traced name, so the ``zones.classify`` span counts each
    row once."""
    from equi7grid_ray.zones import get_zone_classifier

    zc = get_zone_classifier(False)
    with trace.Tracer() as tr:
        zc.classify(np.zeros(10), np.zeros(10))
        zc.classify_bits(np.zeros(5), np.zeros(5))
    assert tr.stats["zones.classify"]["calls"] == 2
    assert tr.stats["zones.classify"]["rows"] == 15
