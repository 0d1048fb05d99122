import os
import sys

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def exchange_placement(monkeypatch):
    """Returns ``force(placement, max_parts=None)``: every
    ``agg.exchange`` then runs on the driver ("driver") or on coarse
    partitions ("shuffle") of 1 KB each, so a tiny input still cuts
    several (at most ``max_parts`` when given)."""
    from raycrawl.ops import agg

    def force(placement, max_parts=None):
        monkeypatch.setattr(agg, "_DRIVER_BYTES",
                            1 << 62 if placement == "driver" else -1)
        monkeypatch.setattr(agg, "_PART_BYTES", 1024)
        if max_parts is not None:
            monkeypatch.setattr(agg, "_MAX_PARTS", max_parts)

    return force
