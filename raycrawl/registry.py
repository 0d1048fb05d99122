"""Stage registry — the user-extension surface (SURVEY.md §2.11).

The reference's one real plugin API is the converter registry
(converter_factory.py:6-41, ported in convert.py) plus chunker selection by
request param (chunk_service.py:95). This generalizes both: a named registry
of pipeline stages, each described by the callable (function or actor
class), its preferred batch format, and default resources — so pipelines
can be assembled by name:

    ds = apply_stage(ds, "extract", concurrency=8)
    ds = apply_stage(ds, "chunk", chunker="sentence")
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Union


@dataclasses.dataclass
class StageSpec:
    name: str
    fn: Union[Callable, type]
    batch_format: str = "pyarrow"
    batch_size: Optional[int] = 64
    # None: a function stage runs unbounded, an actor stage on an
    # autoscaling pool of 1-4 actors (a fixed pool of 4 on a 4-CPU session
    # leaves its read tasks no CPU and hangs)
    default_concurrency: Optional[int] = None
    num_cpus: float = 1.0
    description: str = ""

    @property
    def is_actor(self) -> bool:
        return isinstance(self.fn, type)


_STAGES: dict[str, StageSpec] = {}


def register_stage(spec: StageSpec) -> None:
    _STAGES[spec.name] = spec


def get_stage(name: str) -> StageSpec:
    try:
        return _STAGES[name]
    except KeyError:
        raise KeyError(f"unknown stage '{name}'; known: {sorted(_STAGES)}")


def list_stages() -> list[str]:
    return sorted(_STAGES)


def apply_stage(ds, name: str, concurrency: Optional[int] = None,
                batch_size: Optional[int] = None, **options: Any):
    """``ds.map_batches`` with the registered stage's defaults; ``options``
    go to an actor stage's constructor or a function stage's calls."""
    spec = get_stage(name)
    kwargs: dict[str, Any] = {"batch_format": spec.batch_format}
    bs = batch_size or spec.batch_size
    if bs:
        kwargs["batch_size"] = bs
    conc = (concurrency or spec.default_concurrency
            or ((1, 4) if spec.is_actor else None))
    if conc:
        kwargs["concurrency"] = conc
    if spec.num_cpus != 1.0:
        kwargs["num_cpus"] = spec.num_cpus
    if options:
        kwargs["fn_constructor_kwargs" if spec.is_actor
               else "fn_kwargs"] = options
    return ds.map_batches(spec.fn, **kwargs)


def _register_builtins() -> None:
    from .chunker import ChunkStage
    from .convert import ConvertStage
    from .extract import extract_batch

    register_stage(StageSpec("extract", extract_batch, "pyarrow", 32, 4,
                             description="pages → ScrapeData columns (M1-M18)"))
    register_stage(StageSpec("chunk", ChunkStage, "pyarrow", 64,
                             description="markdown → chunk rows (C1-C3)"))
    register_stage(StageSpec("convert", ConvertStage, "pyarrow", 16,
                             description="binary files → markdown (S7, M20-M25)"))


_register_builtins()
