"""Crawl job entrypoint — runnable standalone or via ``ray job submit``
(north_rule: "run via ray job submit on a fixed-size multi-node Ray
cluster"):

    ray job submit --working-dir . -- python scripts/crawl_job.py \\
        --corpus /data/pages --seed https://h0.example/d0/p0.html \\
        --max-depth 3 --max-pages 1000 --out /data/crawl_run --resume

Prints final stats as JSON and writes Prometheus exposition text to
``<out>/metrics.prom``. Re-running with --resume continues from the last
wave checkpoint (``<out>/checkpoint``: snapshots, waves.jsonl, manifest).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--max-pages", type=int, default=100)
    p.add_argument("--exclude", action="append", default=None)
    p.add_argument("--include", action="append", default=None)
    p.add_argument("--no-robots", action="store_true")
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--wave-budget", type=int, default=256)
    p.add_argument("--politeness-rate", type=float, default=math.inf,
                   help="pops per host per wave (default unlimited)")
    p.add_argument("--concurrency", type=int, default=8)
    p.add_argument("--priority", choices=["bfs", "url-hash"], default="bfs",
                   help="frontier pop order: bfs = (depth, seq) reference "
                        "semantics; url-hash = best-first by "
                        "gen_golden.url_priority(url)")
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="only used when this script owns ray.init")
    args = p.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 num_cpus=args.num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from raycrawl.metrics import render_prometheus
    from raycrawl.pipeline import CrawlConfig, crawl

    cfg = CrawlConfig(
        seed_url=args.seed, max_depth=args.max_depth, max_pages=args.max_pages,
        exclude_patterns=args.exclude, include_patterns=args.include,
        respect_robots=not args.no_robots, num_shards=args.shards,
        wave_budget=args.wave_budget, politeness_rate=args.politeness_rate,
        extract_concurrency=args.concurrency, out_dir=args.out,
        resume=args.resume)
    if args.priority == "url-hash":
        from raycrawl.gen_golden import url_priority

        cfg.priority_fn = url_priority
    outcome = crawl(args.corpus, cfg)
    with open(os.path.join(args.out, "metrics.prom"), "w") as f:
        f.write(render_prometheus(outcome.stats))
    print(json.dumps({k: v for k, v in outcome.stats.items() if k != "shards"}))
    ray.shutdown()


if __name__ == "__main__":
    main()
