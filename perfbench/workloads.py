"""Seeded workload inputs for the benchmark.

Each workload is a pure function of ``(name, seed)``: the seed picks the
host sizes, which host is hot and the order of the crawl's seed list. The
program only ever sees the corpus path and its config.

Input sizes (fixed across seeds, so pages/s compares like with like):

- ``bulk_extract`` and ``crawl_full`` share one bench-shaped corpus: 8
  hosts, 512 pages of ``size_factor=25`` (2-12 KB of html each), one host
  holding a quarter of them, plus the hosts' robots.txt rows;
- ``crawl_polite_skew``: 16 hosts, 1,536 small pages (``size_factor=1``,
  ~1 KB each) where one hot host owns half of them, plus the private pages
  robots.txt blocks on every third host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
from typing import Any, Optional

BULK = "bulk_extract"
CRAWL_FULL = "crawl_full"
CRAWL_POLITE_SKEW = "crawl_polite_skew"
NAMES = (BULK, CRAWL_FULL, CRAWL_POLITE_SKEW)

EXCLUDE = [r"/skip/", r"\.(jpg|png)$"]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    n_hosts: int
    host_sizes: tuple[int, ...]
    hot_host: int
    size_factor: int
    with_private: bool
    seed_order: tuple[int, ...]
    # crawl settings; None for the bulk workload
    crawl: Optional[dict[str, Any]]

    @property
    def is_crawl(self) -> bool:
        return self.crawl is not None

    def corpus_kwargs(self) -> dict[str, Any]:
        return dict(n_hosts=self.n_hosts, host_sizes=list(self.host_sizes),
                    size_factor=self.size_factor,
                    with_private=self.with_private)

    def seed_urls(self) -> list[str]:
        return [f"https://h{h}.example/d0/p0.html" for h in self.seed_order]

    def crawl_kwargs(self) -> dict[str, Any]:
        """Keyword arguments shared by ``CrawlConfig`` and ``crawl_oracle``."""
        assert self.crawl is not None
        return dict(max_depth=10, max_pages=1 << 20,
                    exclude_patterns=list(EXCLUDE),
                    wave_budget=self.crawl["wave_budget"],
                    politeness_rate=self.crawl["politeness_rate"],
                    politeness_burst=self.crawl["politeness_burst"])

    def crawl_config(self, out_dir: str, max_pages: Optional[int] = None):
        """The config every crawl of this workload runs with: one core's
        load, so an extractor pool of 1 and three frontier shards."""
        from raycrawl.pipeline import CrawlConfig

        kw = self.crawl_kwargs()
        if max_pages is not None:
            kw["max_pages"] = max_pages
        return CrawlConfig(seed_url=self.seed_urls(), out_dir=out_dir,
                           num_shards=3, extract_concurrency=1, batch_size=64,
                           **kw)

    def key(self) -> str:
        """Identity of the generated input: workload params plus the
        generator's source, so a changed generator never reuses a corpus."""
        import raycrawl.fixtures as fx

        with open(fx.__file__, "rb") as f:
            src = hashlib.sha1(f.read()).hexdigest()
        ident = repr((self.corpus_kwargs(), src))
        return hashlib.sha1(ident.encode()).hexdigest()[:16]


def _split(total: int, n: int, rng: random.Random) -> list[int]:
    """``total`` pages over ``n`` hosts, each within ±30% of the mean."""
    weights = [rng.uniform(0.7, 1.3) for _ in range(n)]
    scale = total / sum(weights)
    sizes = [int(w * scale) for w in weights]
    for i in range(total - sum(sizes)):
        sizes[i % n] += 1
    return sizes


def make(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    # bulk_extract and crawl_full draw from the same stream so that, for one
    # seed, the crawl does exactly the bulk workload's pages
    family = "bench" if name in (BULK, CRAWL_FULL) else name
    rng = random.Random(f"{family}:{seed}")
    if family == "bench":
        n_hosts, total, hot_share, size_factor, private = 8, 512, 4, 25, False
        crawl = dict(wave_budget=128, politeness_rate=float("inf"),
                     politeness_burst=float("inf"))
    else:
        n_hosts, total, hot_share, size_factor, private = 16, 1536, 2, 1, True
        crawl = dict(wave_budget=256, politeness_rate=16.0,
                     politeness_burst=16.0)
    hot = rng.randrange(n_hosts)
    hot_pages = total // hot_share
    rest = _split(total - hot_pages, n_hosts - 1, rng)
    sizes = rest[:hot] + [hot_pages] + rest[hot:]
    order = list(range(n_hosts))
    rng.shuffle(order)
    return Workload(name=name, seed=seed, n_hosts=n_hosts,
                    host_sizes=tuple(sizes), hot_host=hot,
                    size_factor=size_factor, with_private=private,
                    seed_order=tuple(order),
                    crawl=crawl if name != BULK else None)


def build_corpus(w: Workload, cache_dir: str) -> str:
    """Write (once) and return the host-bucket partitioned corpus."""
    from raycrawl.fixtures import feature_corpus, write_corpus

    out = os.path.join(cache_dir, "corpus", w.key())
    if os.path.exists(os.path.join(out, "_corpus_meta.json")):
        return out
    tmp = f"{out}.tmp{os.getpid()}"
    write_corpus(feature_corpus(**w.corpus_kwargs()), tmp)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    os.rename(tmp, out)
    return out


def load_corpus(path: str):
    """The corpus as one PAGES table in generation order."""
    import pyarrow.dataset as pads

    from raycrawl.schema import PAGES

    t = pads.dataset(path, format="parquet", partitioning="hive").to_table(
        columns=PAGES.names)
    return t.sort_by([("warc_ts", "ascending")])
