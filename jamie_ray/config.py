"""Typed pipeline configuration + stage registry (SURVEY.md §2.9).

The reference's only configuration surface is CLI flags
(/root/reference/clinical_joint.py:113-217) and its extension points
are implicit (analyzer choice, modality task, architecture). This
engine replaces that with a dataclass config plus a registry of named
``Dataset -> Dataset`` transforms, so users can (a) tune every knob in
one typed object and (b) insert their own ``map_batches`` UDFs between
stages by composing registry entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the flagship KG pipeline."""

    lang: str = "ja"                      # language filter (input_hint lang col)
    analyzer: str = "mecab"               # registered analyzer (juman|mecab choice)
    decode_errors: str = "strict"         # utf-8 policy: strict | replace
    len_limit: int = 512                  # trunk subword budget (reference 512)
    scorer_mode: str = "joint"            # "joint" | "pipeline" (§2.3 A1 vs A3-A5)
    scorer_batch_size: int = 64
    scorer_concurrency: int | None = None  # None -> cluster-sized
    scorer_use_actors: bool = False        # actors for real models, tasks for mock
    scorer_model: str = "mock"             # "mock" | "hf:<checkpoint_dir>"
    attrib_task: str | None = None         # None | cert | ttype | state
    # (reference clinical_cert.py:41 -a knob: restrict the modality
    # attribute to one task's tag family; see evalx.ATTRIB_TASK_TAGS)
    model_cost_layers: int = 0             # >0: deterministic forward-pass emulator
    link_threshold: float = 0.6            # LSH verification Jaccard
    n_shards: int = 8                      # resumable materialize shards
    extra_stages: tuple[str, ...] = field(default=())  # registry names to append


# name -> Dataset -> Dataset transform
STAGES: dict[str, Callable] = {}


def register_stage(name: str):
    """Decorator: register a named Dataset -> Dataset transform."""

    def deco(fn: Callable) -> Callable:
        if name in STAGES:
            raise ValueError(f"stage {name!r} already registered")
        STAGES[name] = fn
        return fn

    return deco


def get_stage(name: str) -> Callable:
    try:
        return STAGES[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered: {sorted(STAGES)}"
        ) from None


def build_graph_with_config(pages_path: str, config: PipelineConfig):
    """Config-driven flagship pipeline: triples -> [extra stages] ->
    link -> dedup, in graph order (as ``kg.build_graph``)."""
    from .pipelines import kg
    from .stages.dedup import dedup_triples
    from .stages.link import link_triples

    triples = kg.build_triples(
        pages_path,
        lang=config.lang,
        concurrency=config.scorer_concurrency,
        batch_size=config.scorer_batch_size,
        model_cost_layers=config.model_cost_layers,
        mode=config.scorer_mode,
        len_limit=config.len_limit,
        use_actors=config.scorer_use_actors,
        model=config.scorer_model,
        analyzer=config.analyzer,
        decode_errors=config.decode_errors,
    )
    if config.attrib_task is not None:
        from .evalx import mask_attrib_batch

        task = config.attrib_task
        triples = triples.map_batches(
            lambda b: mask_attrib_batch(
                b, task, tag_col="subj_type", mod_col="subj_mod"
            ),
            batch_format="pyarrow",
        )
    for name in config.extra_stages:
        triples = get_stage(name)(triples)
    linked = link_triples(triples, threshold=config.link_threshold)
    return dedup_triples(linked)
