"""Per-partition lineage counters + Prometheus-style exposition.

The reference exposes module-global Prometheus counters/histograms
(/root/reference/services/scraper/scraper.py:34-57 and the /metrics ASGI
app, main.py:20-21). In the Ray engine, counters live where the state
lives — on the frontier shards (offered/admitted/dup_hits/robots_blocked/
popped, frontier.py stats()), on the fetch workers (row groups decoded and
reused, rows decoded, pages fetched; summed into the crawl stats' ``fetch``
block; extractor calls, pages and CPU seconds: the ``extract`` block), on
the driver (pages extracted ahead of their pop: ``speculation``;
per-phase wall time: ``phase_sec``) and in the wave log — and the
driver harvests them. This module renders those harvested dicts in
Prometheus text exposition format (a public, stable format) and computes
the derived gauges the north_star names: pages/sec, frontier depth, dedup
hit-rate.
"""

from __future__ import annotations

from typing import Any


def render_prometheus(crawl_stats: dict[str, Any],
                      namespace: str = "raycrawl") -> str:
    """Crawl outcome stats → Prometheus text format."""
    lines: list[str] = []

    def emit(name: str, value, help_: str, labels: dict[str, str] | None = None,
             mtype: str = "counter") -> None:
        full = f"{namespace}_{name}"
        if not any(ln.startswith(f"# HELP {full} ") for ln in lines):
            lines.append(f"# HELP {full} {help_}")
            lines.append(f"# TYPE {full} {mtype}")
        label_s = ""
        if labels:
            inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
            label_s = "{" + inner + "}"
        lines.append(f"{full}{label_s} {value}")

    emit("pages_success_total", crawl_stats.get("pages_success", 0),
         "successfully crawled pages")
    emit("pages_failed_total", crawl_stats.get("pages_failed", 0),
         "failed page fetches/extractions")
    emit("urls_seen_total", crawl_stats.get("total_seen", 0),
         "URLs admitted to the seen set")
    emit("waves_total", crawl_stats.get("waves", 0), "crawl waves executed")
    emit("robots_blocked_total", crawl_stats.get("robots_blocked", 0),
         "candidate links vetoed by robots.txt")
    emit("pages_per_second", round(crawl_stats.get("pages_per_sec", 0.0), 3),
         "fetch+extract throughput", mtype="gauge")
    emit("dedup_hit_rate", round(crawl_stats.get("dedup_hit_rate", 0.0), 6),
         "fraction of offered links already seen", mtype="gauge")
    emit("filter_false_positives_total",
         crawl_stats.get("filter_false_positives", 0),
         "cuckoo filter false positives observed (exact-shadow mode)")
    for shard in crawl_stats.get("shards", []):
        sid = str(shard.get("shard"))
        emit("frontier_depth", shard.get("queued", 0),
             "URLs queued in a frontier shard", {"shard": sid}, "gauge")
        emit("shard_offered_total", shard.get("offered", 0),
             "candidate links offered to a shard", {"shard": sid})
        emit("shard_admitted_total", shard.get("admitted", 0),
             "links admitted by a shard", {"shard": sid})
        emit("shard_dup_hits_total", shard.get("dup_hits", 0),
             "duplicate links rejected by a shard", {"shard": sid})
    fetch = crawl_stats.get("fetch", {})
    for key, help_ in (
            ("row_groups_decoded", "corpus row groups decoded by the fetch"),
            ("row_groups_reused", "corpus row groups served from the "
                                  "previous fetch call's decode"),
            ("rows_decoded", "corpus rows decoded by the fetch"),
            ("pages_fetched", "corpus rows the fetch returned")):
        emit(f"fetch_{key}_total", fetch.get(key, 0), help_)
    extract = crawl_stats.get("extract", {})
    for key, name, help_ in (
            ("tasks", "tasks_total", "wave extractor calls on the workers"),
            ("pages", "pages_total", "pages the wave extractor returned"),
            ("cpu_s", "cpu_seconds_total",
             "worker thread CPU seconds spent in the wave extractor")):
        emit(f"extract_{name}", extract.get(key, 0), help_)
    spec = crawl_stats.get("speculation", {})
    for key, help_ in (
            ("hit_pages", "popped pages extracted ahead of their pop"),
            ("extra_pages", "popped pages fetched once their pop arrived"),
            ("wasted_pages", "pages extracted ahead but never popped")):
        emit(f"speculation_{key}_total", spec.get(key, 0), help_)
    for phase, sec in crawl_stats.get("phase_sec", {}).items():
        emit("crawl_phase_seconds", sec,
             "driver wall time of one crawl phase, summed over waves",
             {"phase": phase}, "gauge")
    return "\n".join(lines) + "\n"
