import pyarrow as pa
import pytest
import ray.data as rd

from raycrawl.fixtures import feature_corpus
from raycrawl.registry import StageSpec, apply_stage, get_stage, list_stages, register_stage


def test_builtin_stages_listed():
    assert {"extract", "chunk", "convert"} <= set(list_stages())


def test_unknown_stage_raises():
    with pytest.raises(KeyError):
        get_stage("nope")


def test_apply_stage_pipeline():
    t = feature_corpus(2, 8).select(["url", "warc_ts", "html"])
    # one input block per extract task, so no task slot sits idle
    half = t.num_rows // 2
    ds = rd.from_arrow([t.slice(0, half), t.slice(half)])
    extracted = apply_stage(ds, "extract", concurrency=2)
    chunks = apply_stage(extracted.select_columns(["url", "markdown"]),
                         "chunk")
    df = chunks.to_pandas()
    assert len(df) > 0
    assert "chunk_type" in df.columns


def test_register_custom_function_stage():
    def upper_title(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.set_column(batch.schema.get_field_index("url"),
                                "url", pc.utf8_upper(batch.column("url")))

    register_stage(StageSpec("upper", upper_title, "pyarrow", None))
    ds = rd.from_items([{"url": "abc"}])
    out = apply_stage(ds, "upper").to_pandas()
    assert out["url"][0] == "ABC"


def test_function_stage_gets_concurrency_and_num_cpus():
    """A function stage's concurrency, num_cpus and options all reach
    ``map_batches``; the extract stage is scrape_dataset's function."""
    from raycrawl.extract import extract_batch

    class Recorder:
        def map_batches(self, fn, **kwargs):
            self.call = (fn, kwargs)
            return self

    def scale(batch, factor=1):
        return batch

    register_stage(StageSpec("scale", scale, "pyarrow", 8, num_cpus=0.5))
    fn, kwargs = apply_stage(Recorder(), "scale", concurrency=2,
                             factor=3).call
    assert fn is scale
    assert kwargs == {"batch_format": "pyarrow", "batch_size": 8,
                      "concurrency": 2, "num_cpus": 0.5,
                      "fn_kwargs": {"factor": 3}}
    # unset concurrency stays unbounded for a function stage
    assert "concurrency" not in apply_stage(Recorder(), "scale").call[1]

    fn, kwargs = apply_stage(Recorder(), "extract", only_main=False).call
    assert fn is extract_batch
    assert kwargs["concurrency"] == 4
    assert kwargs["fn_kwargs"] == {"only_main": False}
    # an actor stage autoscales from one actor
    assert apply_stage(Recorder(), "chunk").call[1]["concurrency"] == (1, 4)


def test_extract_full_page_mode():
    """only_main=False: boilerplate-stripped whole page (still no nav)."""
    t = feature_corpus(1, 4)
    ds = rd.from_arrow(t.select(["url", "warc_ts", "html"]))
    out = apply_stage(ds, "extract", concurrency=1, only_main=False).to_pandas()
    page = out[out["url"].str.endswith("p0.html")].iloc[0]
    # nav/header/footer boilerplate is still dropped by the cleaner
    assert "footer boilerplate" not in page["markdown"]
    assert "# Page 0 of host 0" in page["markdown"]


def test_queries_and_oracles_in_sync():
    """Every queries() entry must have a matching oracle_sql() entry (the
    driver's correctness gate compares them pairwise) and vice versa —
    drift here silently downgrades a query to the weaker rows-only check."""
    import importlib
    import sys

    sys.path.insert(0, "/root/repo")
    entry = importlib.import_module("__ray_entry__")
    q = set(entry.queries().keys())
    o = set(entry.oracle_sql().keys())
    assert q == o, (q - o, o - q)


_STAGE_CHILD = """
import os, sys, tempfile
import pyarrow as pa, pyarrow.parquet as pq
import ray, ray.data as rd
from raycrawl.registry import apply_stage

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
with tempfile.TemporaryDirectory() as d:
    if sys.argv[1] == "chunk":
        for f in range(8):
            md = [f"# Doc {f}-{i}\\n\\n" + "word " * 400 for i in range(50)]
            pq.write_table(pa.table({"url": [f"u{f}-{i}" for i in range(50)],
                                     "markdown": md}),
                           os.path.join(d, f"part-{f}.parquet"))
        ds = rd.read_parquet(d)
    else:
        for f in range(40):
            with open(os.path.join(d, f"f{f}.txt"), "w") as fh:
                fh.write(f"file {f}\\n" * 200)
        ds = rd.read_binary_files(d, include_paths=True)
    print("rows", apply_stage(ds, sys.argv[1]).count())
ray.shutdown()
"""


@pytest.mark.parametrize("stage,rows", [("chunk", 400), ("convert", 40)])
def test_actor_stage_default_pool_finishes_on_4_cpus(stage, rows):
    """The registry's actor stages at their default pool, over a
    multi-file ``read_parquet`` / ``read_binary_files`` input, finish on a
    4-CPU session: a fixed pool of 4 actors took every CPU and the read
    tasks never ran. Runs in its own process (own Ray session) under a
    timeout, so a hang fails here instead of stalling the suite."""
    import os
    import signal
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen([sys.executable, "-c", _STAGE_CHILD, stage],
                            cwd=repo, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"apply_stage(ds, {stage!r}) hung on a 4-CPU session")
    assert proc.returncode == 0, err[-2000:]
    assert out.strip().splitlines()[-1] == f"rows {rows}"
