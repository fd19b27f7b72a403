"""The KG stages' and ``clean_corpus``'s keyword surface, pinned (as
tests/data/cli_surface.json pins the CLI): each entry point takes only
the keywords some caller sets, so a keyword added or removed here is a deliberate test edit.
Anything else composes over the returned Dataset."""

import inspect

from jamie_ray.pipelines import kg
from jamie_ray.pipelines.clean import clean_corpus
from jamie_ray.stages.link import link_triples

SURFACE = {
    kg.read_pages: ["pages_path"],
    kg.chunk_pages: ["extracted", "analyzer"],
    kg.score_chunks: [
        "chunks", "model", "concurrency", "model_cost_layers", "analyzer",
    ],
    kg.build_triples: [
        "pages_path", "lang", "mode", "model", "model_cost_layers",
        "analyzer", "decode_errors",
    ],
    kg.build_graph: ["pages_path", "**kw"],  # build_triples' keywords
    kg.materialize_graph: [
        "pages_path", "out_dir", "lang", "n_shards", "analyzer",
        "decode_errors", "_fail_after_checkpoint",
    ],
    link_triples: [
        "triples", "threshold", "alias_table", "edge_cap", "cap_counters",
        "cache_input",
    ],
    clean_corpus: [
        "docs", "spill_dir", "text_col", "id_col", "line_clean", "gopher",
        "compress_band", "min_tokens", "max_dup3gram_micro",
        "near_dup_threshold", "url_col", "pii", "span_min_len", "lm",
        "max_ppl", "decontam_benchmark", "decontam_n", "keep_lang",
        "lang_backend", "lang_model", "keep_quality", "quality_model",
        "embeddings", "semantic_threshold", "semantic_n_centroids",
    ],
}


def _keywords(fn) -> list[str]:
    return [
        ("**" if p.kind is p.VAR_KEYWORD else "") + p.name
        for p in inspect.signature(fn).parameters.values()
    ]


def test_entry_point_keywords_are_pinned():
    for fn, params in SURFACE.items():
        assert _keywords(fn) == params, fn.__name__
