import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (per driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture
def assert_shared_partition():
    """``check(n_partitions, **columns)``: assert that at least two
    distinct key tuples of ``columns`` land in one of an operator's
    ``n_partitions`` cogroup partitions (``aggregate.key_partitions``),
    so the operator's per-partition code sees several keys in one
    call."""
    import numpy as np
    import pyarrow as pa

    from equi7grid_ray.stages.aggregate import key_partitions

    def check(n_partitions, **columns):
        keys = pa.table(columns).group_by(list(columns)).aggregate([])
        parts = key_partitions(keys, list(columns), n_partitions)
        assert len(np.unique(parts)) < keys.num_rows, (
            f"{keys.num_rows} keys in {n_partitions} partitions: none shared")

    return check
