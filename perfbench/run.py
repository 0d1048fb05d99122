"""raycrawl benchmark: one-core workloads through the public entry points,
checked against the serial references.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk_extract --seed 1 --seconds 10 --trace 0

Workloads (inputs derived from ``--seed``, see ``workloads.py``).
``BENCHMARK.json`` lists ``bulk_extract`` and ``crawl_polite_skew``;
``crawl_full`` runs by name but is left out of it to keep a full sweep of
the benchmark short.

- ``bulk_extract``: ``read_parquet`` -> ``scrape_dataset`` ->
  ``write_parquet``. Extraction and Ray Data overhead do all the work; fetch
  and frontier are never called.
- ``crawl_full``: ``crawl()`` over the same corpus, seeded at every host
  root and run to completion: the bulk workload's pages plus filtered
  parquet fetch and admission, in a few large waves.
- ``crawl_polite_skew``: ``crawl()`` over small pages with a per-host
  politeness rate and one hot host owning half the URLs, so dozens of small
  waves where per-wave fixed costs and the throttled pop path dominate.

The load is one process sized to one core: Ray with two logical CPUs, an
extractor pool of 1 and three frontier shards.

``--trace 0`` prints the end-to-end metrics: ``pages_per_s`` (median over
the timed passes of checked pages per second of pass wall),
``setup_s`` (median over three ``ray.init`` + warm-up set-ups) and
``driver_peak_rss_mb``. The ratio of failed to attempted pages is printed
on the summary line and reported as ``failed``/``attempted``. ``--trace 1``
runs one pass and prints the per-layer metrics from ``tracing.py``; its
spans are written to ``.perfbench/spans/``.

Every pass is checked (``reference.py``); a run with any mismatch prints
``"correct": false`` and exits 1. The last stdout line is one JSON object.
Caches, run outputs and Ray's session files live under ``.perfbench/`` in
the repository root.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
# Ray binds unix sockets under its temp dir, and their paths must stay
# under 108 bytes; a checkout too deep for that uses a short /tmp dir
RAY_TMP_MAX = 46
DRIVER_TIMEOUT_S = 150
SETUP_REPS = 3

END_TO_END = {"pages_per_s": "pages/s", "setup_s": "s",
              "driver_peak_rss_mb": "MB"}



def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _session_pids(sid: int) -> list[int]:
    pids = []
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:  # field 6 of stat: session id
            pids.append(int(p))
    return pids


def _stop_session(sid: int) -> None:
    """Kill whatever the driver process left in its session (Ray daemons
    that outlived it) and wait until they are gone."""
    deadline = time.monotonic() + 20
    sig = signal.SIGTERM
    while True:
        pids = _session_pids(sid)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {pids} of the driver process "
                               "survived")
        time.sleep(0.2)
        sig = signal.SIGKILL


def run_driver(spec: dict, out_dir: str) -> dict:
    """Run ``driver.py`` in its own process and return its result record."""
    os.makedirs(out_dir)
    spec = dict(spec, out_dir=out_dir,
                result_path=os.path.join(out_dir, "result.json"))
    env = dict(os.environ)
    # temp files (Ray's included) stay inside the checkout
    env["TMPDIR"] = env["RAY_TMPDIR"] = spec["ray_tmp"]
    # Ray workers import raycrawl from the repository root
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, env.get("PYTHONPATH")) if p)
    spec_path = os.path.join(out_dir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "driver.py"), spec_path],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _stop_session(proc.pid)
        proc.wait()
    if code != 0:
        raise RuntimeError(f"driver process failed (exit {code})")
    with open(spec["result_path"]) as f:
        return json.load(f)


def _input_summary(pages) -> str:
    import pyarrow.compute as pc

    sizes = pc.binary_length(pages.column("html"))
    p50 = statistics.median(sizes.to_pylist())
    return (f"{pages.num_rows} pages, html p50 {p50 / 1024:.1f} KB, "
            f"max {pc.max(sizes).as_py() / 1024:.1f} KB")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "raycrawl")):
        _log(f"no raycrawl package under {ROOT}: run from a full checkout")
        return 2
    sys.path.insert(0, ROOT)

    import reference
    import tracing
    import workloads

    w = workloads.make(args.workload, args.seed)
    corpus = workloads.build_corpus(w, WORK)
    src = reference.source_hash(ROOT)
    if w.is_crawl:
        check = functools.partial(reference.check_crawl,
                                  reference.crawl_reference(w, corpus, WORK, src))
    else:
        check = functools.partial(reference.check_bulk,
                                  reference.bulk_reference(w, corpus, WORK, src))

    run_dir = os.path.join(WORK, "runs", str(os.getpid()))
    ray_tmp = os.path.join(WORK, "rt")
    if len(ray_tmp) > RAY_TMP_MAX:
        ray_tmp = f"/tmp/perfbench-rt-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(ray_tmp, exist_ok=True)
    spec = {"workload": w.name, "seed": w.seed, "corpus": corpus,
            "ray_tmp": ray_tmp, "seconds": args.seconds, "trace": args.trace}
    try:
        result = run_driver(dict(spec, setup_reps=1 if args.trace else SETUP_REPS),
                            os.path.join(run_dir, "driver"))
        setups = result["setup_s"]
        checks = [check(p["out_dir"]) for p in result["passes"]]
        if args.trace:
            metrics = tracing.layer_metrics(
                w, corpus, result["passes"][0],
                os.path.join(WORK, "spans", f"{w.name}-seed{w.seed}.jsonl"))
            units = tracing.PER_LAYER
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [p for c in checks for p in c.problems]
    for p in problems[:20]:
        _log(f"MISMATCH {p}")
    rates = [c.ok / p["wall_s"] for c, p in zip(checks, result["passes"])]
    if not args.trace:
        metrics = {"pages_per_s": statistics.median(rates),
                   "setup_s": statistics.median(setups),
                   "driver_peak_rss_mb": result["driver_peak_rss_mb"]}
        units = END_TO_END
    print(f"{w.name} seed={w.seed}: hosts {list(w.host_sizes)} (hot "
          f"h{w.hot_host}); input {_input_summary(workloads.load_corpus(corpus))}")
    print(f"  {len(rates)} pass(es), pages/s: "
          + " ".join(f"{r:.1f}" for r in rates)
          + "; setup_s: " + " ".join(f"{s:.3f}" for s in setups))
    print(f"  failed_ratio {failed / max(1, attempted):.4f} "
          f"({failed}/{attempted} pages)")
    for k, v in metrics.items():
        print(f"  {k} = {v} {units[k]}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
