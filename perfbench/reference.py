"""Serial references and the per-run correctness gate.

- ``bulk_extract``: every output row must equal, value for value, the row
  the extractor produces serially (``PageExtractor`` in this process, no
  Ray) for the same page.
- crawls: the ``(seq, depth, url)`` pop order, each page's markdown and the
  ``(canonical url, depth, seq)`` seen set must equal ``crawl_oracle``.

References are cached on disk, keyed by the input's identity plus a hash of
the ``raycrawl`` source, so a change to the program recomputes them.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from workloads import Workload, load_corpus


@dataclasses.dataclass
class Check:
    attempted: int
    ok: int
    problems: list[str]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok


def source_hash(root: str) -> str:
    h = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(root, "raycrawl", "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _ref_path(cache_dir: str, w: Workload, src: str, ext: str) -> str:
    kind = "crawl" if w.is_crawl else "bulk"
    ident = repr((w.key(), src, kind, w.seed_urls(),
                  w.crawl_kwargs() if w.is_crawl else None))
    key = hashlib.sha1(ident.encode()).hexdigest()[:16]
    return os.path.join(cache_dir, "ref", f"{w.name}-{key}.{ext}")


def _atomic_write(path: str, write) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    write(tmp)
    os.replace(tmp, path)


def bulk_reference(w: Workload, corpus: str, cache_dir: str, src: str) -> pa.Table:
    path = _ref_path(cache_dir, w, src, "parquet")
    if not os.path.exists(path):
        from raycrawl.extract import PageExtractor

        pages = load_corpus(corpus).select(["url", "warc_ts", "html"])
        expected = PageExtractor()(pages)
        _atomic_write(path, lambda p: pq.write_table(expected, p))
    return pq.read_table(path)


def crawl_reference(w: Workload, corpus: str, cache_dir: str, src: str) -> dict:
    path = _ref_path(cache_dir, w, src, "json")
    if not os.path.exists(path):
        from raycrawl.oracle import crawl_oracle
        from raycrawl.urlnorm import canonicalize

        res = crawl_oracle(load_corpus(corpus), w.seed_urls(),
                           **w.crawl_kwargs())
        ref = {"order": [[p.seq, p.depth, p.url] for p in res.pages],
               "markdown": {p.url: p.markdown for p in res.pages},
               "seen": sorted([canonicalize(u), d, s]
                              for u, d, s, _parent in res.seen)}

        def write(p: str) -> None:
            with open(p, "w") as f:
                json.dump(ref, f)
        _atomic_write(path, write)
    with open(path) as f:
        return json.load(f)


def check_bulk(expected: pa.Table, out_dir: str) -> Check:
    files = sorted(glob.glob(os.path.join(out_dir, "*.parquet")))
    got = pa.concat_tables([pq.read_table(f) for f in files]) if files else None
    want = {r["url"]: r for r in expected.to_pylist()}
    ok, problems, seen = 0, [], set()
    for row in (got.to_pylist() if got is not None else []):
        url = row["url"]
        if url in seen or url not in want:
            problems.append(f"unexpected row {url}")
            continue
        seen.add(url)
        if row != want[url]:
            diff = sorted(k for k in row if row[k] != want[url].get(k))
            problems.append(f"{url}: differs in {diff}")
        elif row["status_code"] == 200:
            ok += 1
        else:
            problems.append(f"{url}: status {row['status_code']}")
    problems.extend(f"missing row {u}" for u in sorted(set(want) - seen))
    return Check(attempted=len(want), ok=ok, problems=problems)


def check_crawl(ref: dict, out_dir: str) -> Check:
    from raycrawl.pipeline import CrawlOutcome
    from raycrawl.urlnorm import canonicalize

    outcome = CrawlOutcome(results_dir=os.path.join(out_dir, "results"),
                           seen_dir=os.path.join(out_dir, "seen"), stats={})
    # pop order: within a wave the crawl pops in seq order, but politeness
    # can defer a page to a later wave than pages admitted after it
    res = outcome.results().sort_by([("wave", "ascending"),
                                     ("seq", "ascending")])
    order = list(zip(res.column("seq").to_pylist(),
                     res.column("depth").to_pylist(),
                     res.column("url").to_pylist()))
    markdown = res.column("markdown").to_pylist()
    want = [tuple(x) for x in ref["order"]]
    ok, problems = 0, []
    for i, exp in enumerate(want):
        if i >= len(order) or order[i] != exp:
            problems.append(f"pop {i}: got {order[i] if i < len(order) else None}"
                            f", want {exp}")
        elif markdown[i] != ref["markdown"][exp[2]]:
            problems.append(f"{exp[2]}: markdown differs")
        else:
            ok += 1
    if len(order) > len(want):
        problems.append(f"{len(order) - len(want)} pages beyond the oracle's")
    seen = outcome.seen()
    got_seen = sorted([canonicalize(u), d, s] for u, d, s in zip(
        seen.column("url").to_pylist(), seen.column("depth").to_pylist(),
        seen.column("seq").to_pylist()))
    if got_seen != ref["seen"]:
        problems.append(f"seen set differs ({len(got_seen)} vs "
                        f"{len(ref['seen'])} entries)")
        ok = 0
    return Check(attempted=len(want), ok=ok, problems=problems)
