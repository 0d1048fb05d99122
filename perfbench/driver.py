"""The measured process: one Ray session driving raycrawl's public entry
points, as a user's driver program would.

Run as ``python3 perfbench/driver.py <spec.json>`` by ``perfbench/run.py``,
which builds the inputs, checks the outputs and prints the metrics. This
process only times. Keeping it separate means its peak RSS is the driver's
own, without the harness's reference computations.

Set-up (``ray.init`` through the end of one warm-up unit of work) is
repeated ``setup_reps`` times, with ``ray.shutdown`` in between; the last
session then runs timed passes until ``seconds`` have elapsed. Every pass
writes to a fresh directory, which the harness checks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads


def _ray_init(spec: dict) -> None:
    import ray
    from ray.data import DataContext

    # the load is sized for one core, but Ray gets two logical CPUs: with
    # num_cpus=1 the extractor actor holds the only CPU and ReadParquet
    # never gets scheduled
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 << 20, _temp_dir=spec["ray_tmp"])
    DataContext.get_current().enable_progress_bars = False


def _bulk_pass(spec: dict, out_dir: str, limit: int | None = None) -> dict:
    import ray.data

    from raycrawl.extract import scrape_dataset

    ds = ray.data.read_parquet(spec["corpus"],
                               columns=["url", "warc_ts", "html"])
    if limit is not None:
        ds = ds.limit(limit)
    extracted = scrape_dataset(ds, concurrency=1)
    extracted.write_parquet(out_dir)
    return {"ds_stats": extracted.stats() if spec["trace"] else ""}


def _crawl_pass(spec: dict, out_dir: str, max_pages: int | None = None) -> dict:
    from raycrawl.pipeline import crawl

    w = workloads.make(spec["workload"], spec["seed"])
    out = crawl(spec["corpus"], w.crawl_config(out_dir, max_pages))
    return {"stats": out.stats}


def _forget_pooled_actors() -> None:
    """``crawl()`` keeps its worker and shard actors in process-global pools
    across calls, and a pool entry from a shut-down session makes the next
    session's ``crawl()`` fail. A fresh session starts with empty pools."""
    import raycrawl.pipeline as pipeline

    for name in ("_WORKER_POOLS", "_SHARD_POOL"):
        pool = getattr(pipeline, name, None)
        if pool is not None:
            pool.clear()


def _warm_up(spec: dict, out_dir: str) -> None:
    """One small unit of the workload's own work: it starts the actors the
    timed passes use and imports raycrawl in them."""
    if spec["workload"] == workloads.BULK:
        _bulk_pass(spec, out_dir, limit=32)
    else:
        _crawl_pass(spec, out_dir, max_pages=16)


def main(spec_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    import ray

    setup_s = []
    for rep in range(spec["setup_reps"]):
        t0 = time.perf_counter()
        _ray_init(spec)
        _warm_up(spec, os.path.join(spec["out_dir"], f"warmup{rep}"))
        setup_s.append(time.perf_counter() - t0)
        if rep + 1 < spec["setup_reps"]:
            ray.shutdown()
            _forget_pooled_actors()

    passes = []
    t_start = time.perf_counter()
    while True:
        out_dir = os.path.join(spec["out_dir"], f"pass{len(passes)}")
        t0 = time.perf_counter()
        if spec["workload"] == workloads.BULK:
            info = _bulk_pass(spec, out_dir)
        else:
            info = _crawl_pass(spec, out_dir)
        info.update(wall_s=time.perf_counter() - t0, out_dir=out_dir)
        passes.append(info)
        # the traced run needs one pass: its per-layer numbers come from
        # that pass's stats and from replays in the harness
        if spec["trace"] or time.perf_counter() - t_start >= spec["seconds"]:
            break
    ray.shutdown()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result_path"], "w") as f:
        json.dump({"setup_s": setup_s, "passes": passes,
                   "driver_peak_rss_mb": peak_rss_mb}, f, default=str)


if __name__ == "__main__":
    main(sys.argv[1])
