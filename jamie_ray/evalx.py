"""Distributed tuple evaluation (reference G4, SURVEY.md §2.5).

Re-implements ``TupleEvaluator`` (/root/reference/clinical_eval.py:
54-108) — per-class tps/fps/fns with multiset matching-with-removal,
micro/macro P/R/F1 — as the partial-aggregation pattern: gold and pred
rows are unioned with a side column and sorted on the sentence key
``(url, chunk_id)`` (``shuffle.sorted_reduce``). Multiset
matching-with-removal is ``tps = min(gold_n, pred_n)`` per distinct
tuple of a sentence, so each sorted block counts its tuples with one
Arrow ``group_by`` and emits per-class partial counts; the driver sums
the small (blocks x classes) partial table and runs the P/R/F1 math.
:func:`match_tuples` is the per-sentence reference of that rule.

The reference's 1e-10 smoothing initializer (clinical_eval.py:60) is a
divide-by-zero guard, not semantics; :func:`calculate_f1` reproduces the
guarded formulas of clinical_eval.py:7-11 exactly.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .shuffle import null_codes, sorted_reduce

_SKIP_CLASSES = ("N", "O", "_", "OO")  # clinical_eval.py:70,79


def calculate_f1(tps: float, fps: float, fns: float) -> tuple[float, float, float]:
    p = 0.0 if not (tps + fps) else tps / (tps + fps)
    r = 0.0 if not (tps + fns) else tps / (tps + fns)
    f1 = 0.0 if not (p + r) else 2 * p * r / (p + r)
    return p, r, f1


def match_tuples(
    gold_tuples: list[tuple], pred_tuples: list[tuple], rel_col: int = -1
) -> dict[str, list[int]]:
    """One sentence-group's multiset matching (clinical_eval.py:65-81).

    Returns {cls: [tps, fps, fns]}.
    """
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    pred_left = list(pred_tuples)
    for g in gold_tuples:
        cls = g[rel_col]
        if cls in _SKIP_CLASSES:
            continue
        if g in pred_left:
            counts[cls][0] += 1
            pred_left.remove(g)
        else:
            counts[cls][2] += 1
    for p in pred_left:
        cls = p[rel_col]
        if cls in _SKIP_CLASSES:
            continue
        counts[cls][1] += 1
    return counts


_PARTIAL_SCHEMA = pa.schema(
    [("cls", pa.string()), ("tps", pa.int64()), ("fps", pa.int64()), ("fns", pa.int64())]
)


def _block_partials(block: pa.Table, keys: list[str], cls_col: str) -> pa.Table:
    """Per-class (tps, fps, fns) of one sorted block, which holds whole
    ``(url, chunk_id)`` sentences: every distinct tuple of a sentence
    matches ``min(gold_n, pred_n)`` times (:func:`match_tuples`)."""
    codes = {k: null_codes(block.column(k)) for k in keys}
    side = block.column("__side")
    work = pa.table(
        {
            **{k: c.indices for k, c in codes.items()},
            "__g": pc.cast(pc.equal(side, 0), pa.int64()),
            "__p": pc.cast(pc.equal(side, 1), pa.int64()),
        }
    )
    per = work.group_by(keys, use_threads=False).aggregate(
        [("__g", "sum"), ("__p", "sum")]
    )
    cls = pc.cast(codes[cls_col].dictionary.take(per.column(cls_col)), pa.string())
    keep = pc.invert(pc.is_in(cls, value_set=pa.array(_SKIP_CLASSES, pa.string())))
    g = per.column("__g_sum").filter(keep)
    p = per.column("__p_sum").filter(keep)
    tps = pc.min_element_wise(g, p)
    counts = pa.table(
        {
            "cls": cls.filter(keep),
            "tps": tps,
            "fps": pc.subtract(p, tps),
            "fns": pc.subtract(g, tps),
        }
    ).group_by("cls", use_threads=False).aggregate(
        [("tps", "sum"), ("fps", "sum"), ("fns", "sum")]
    )
    return pa.table(
        [counts.column(c if c == "cls" else f"{c}_sum") for c in _PARTIAL_SCHEMA.names],
        schema=_PARTIAL_SCHEMA,
    )


def evaluate_datasets(
    gold,
    pred,
    tuple_cols: list[str],
    *,
    rel_col: int = -1,
    f1_mode: str = "micro",
) -> dict:
    """Distributed P/R/F1 of pred vs gold Datasets keyed by (url, chunk_id).

    ``tuple_cols`` defines the tuple identity (e.g. subj/pred/obj/...);
    ``rel_col`` indexes the class column within it (reference default:
    last). ``f1_mode`` ("micro" or "macro") picks which F1 is reported
    as ``"f1"``. Returns {"micro"|"macro": (p, r, f1), "per_class":
    {...}}.
    """
    if f1_mode not in ("micro", "macro"):
        raise ValueError(f"f1_mode must be 'micro' or 'macro', got {f1_mode!r}")
    keys = list(dict.fromkeys(["url", "chunk_id", *tuple_cols]))
    cls_col = tuple_cols[rel_col]

    def _side(side_val: int):
        def add(batch: pa.Table) -> pa.Table:
            return batch.select(keys).append_column(
                "__side", pa.array(np.full(batch.num_rows, side_val, np.int8))
            )

        return add

    unioned = gold.map_batches(_side(0), batch_format="pyarrow").union(
        pred.map_batches(_side(1), batch_format="pyarrow")
    )
    partials = sorted_reduce(
        unioned,
        ["url", "chunk_id"],
        lambda b: _block_partials(b, keys, cls_col),
    )
    sums: dict[str | None, list[int]] = defaultdict(lambda: [0, 0, 0])
    for b in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        for cls, *c in zip(*(b.column(n).to_pylist() for n in _PARTIAL_SCHEMA.names)):
            acc = sums[cls]
            for i in range(3):
                acc[i] += c[i]
    per_class: dict[str, tuple[float, float, float, int, int, int]] = {}
    totals = [0, 0, 0]
    # sorted class order (None last) keeps the macro float sum stable
    for cls in sorted(sums, key=lambda c: (c is None, c or "")):
        tps, fps, fns = sums[cls]
        per_class[cls] = (*calculate_f1(tps, fps, fns), tps, fps, fns)
        totals[0] += tps
        totals[1] += fps
        totals[2] += fns
    micro = calculate_f1(*totals)
    if per_class:
        macro = tuple(
            sum(v[i] for v in per_class.values()) / len(per_class) for i in range(3)
        )
    else:
        macro = (0.0, 0.0, 0.0)
    return {
        "micro": micro,
        "macro": macro,
        "per_class": per_class,
        "counts": {"tps": totals[0], "fps": totals[1], "fns": totals[2]},
        "f1": micro[2] if f1_mode == "micro" else macro[2],
    }


def evaluate_triples(gold, pred, f1_mode: str = "micro") -> dict:
    """Mention-level triple P/R (the BASELINE gate; eval_mention_rel,
    clinical_eval.py:145-149)."""
    return evaluate_datasets(
        gold, pred, ["subj", "obj", "pred"], rel_col=-1, f1_mode=f1_mode
    )


def evaluate_entities(gold, pred, f1_mode: str = "micro") -> dict:
    """Entity-mention P/R (eval_ner analogue, class = ner tag)."""
    return evaluate_datasets(
        gold, pred, ["mention", "ner_tag"], rel_col=-1, f1_mode=f1_mode
    )


# ---------------------------------------------------------------------------
# attribute-task selection (reference utils.py:1268-1281, the clinical
# attribute classifier's -a/--attrib knob in clinical_cert.py:41)
# ---------------------------------------------------------------------------

# task -> the entity-tag family whose modality attribute that task
# recognizes/evaluates. Exactly the reference's mapping
# (utils.py:1271-1277: cert -> ['D'], ttype -> ['Timex3'],
# state -> ['T-test', 'R', 'Cc']), in this engine's lowercase tag
# inventory (data_objects.py:11-25).
ATTRIB_TASK_TAGS: dict[str, tuple[str, ...]] = {
    "cert": ("d",),
    "ttype": ("TIMEX3",),
    "state": ("t-test", "r", "cc"),
}


def _task_tags(task: str) -> tuple[str, ...]:
    try:
        return ATTRIB_TASK_TAGS[task]
    except KeyError:
        raise ValueError(
            f"unknown attrib task {task!r}; expected one of "
            f"{sorted(ATTRIB_TASK_TAGS)} (reference utils.py:1279: "
            "'wrong attrib')"
        ) from None


def mask_attrib_batch(
    batch: pa.Table, task: str, *, tag_col: str = "ner_tag", mod_col: str = "mod"
) -> pa.Table:
    """Vectorized per-batch attribute-task projection: rows whose tag is
    outside the task's family get their modality masked to ``'_'``
    (the reference recognizes attributes only for the selected family —
    ner_labels_to_masks, utils.py:1268-1290)."""
    in_family = pc.is_in(
        batch.column(tag_col), value_set=pa.array(_task_tags(task), pa.string())
    )
    masked = pc.if_else(in_family, batch.column(mod_col), "_")
    return batch.set_column(
        batch.schema.get_field_index(mod_col), mod_col, masked
    )


def evaluate_mod_task(gold, pred, task: str, f1_mode: str = "micro") -> dict:
    """Modality-attribute P/R/F1 for one attribute task over entity
    tables (columns url/chunk_id/mention/ner_tag/mod): both sides are
    restricted to the task's tag family and matched on
    (mention, ner_tag, mod) with the mod value as the class — the
    distributed analogue of the reference's per-attrib accuracy loop
    (clinical_cert.py eval over the ner_masks of utils.py:1268-1290).
    Unmarked ``'_'`` rows fall under the evaluator's standard skip
    classes, as in clinical_eval.py:70."""
    tags = _task_tags(task)

    def family(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.is_in(
                batch.column("ner_tag"), value_set=pa.array(tags, pa.string())
            )
        )

    return evaluate_datasets(
        gold.map_batches(family, batch_format="pyarrow"),
        pred.map_batches(family, batch_format="pyarrow"),
        ["mention", "ner_tag", "mod"],
        rel_col=-1,
        f1_mode=f1_mode,
    )


# ---------------------------------------------------------------------------
# conlleval (the reference's shell eval hook, in-repo)
# ---------------------------------------------------------------------------

def conlleval_lines(tokens, gold, pred) -> str:
    """One sentence -> the ``token\\tgold\\tpred`` block the reference
    writes for conlleval (clinical_ner_baseline.py:174-177), blank-line
    terminated."""
    return "".join(f"{t}\t{g}\t{p}\n" for t, g, p in zip(tokens, gold, pred)) + "\n"


def _conll_chunks(labels: list[str]) -> set[tuple[int, int, str]]:
    """Span extraction with conlleval's start-of-chunk rule: ``B-`` is
    always a start; ``I-`` starts a chunk after ``O`` or after a
    different type (the lenient IOB repair conlleval.pl applies)."""
    chunks: set[tuple[int, int, str]] = set()
    start = -1
    cur = ""
    for i, lab in enumerate(labels + ["O"]):
        tag, typ = (lab[0], lab[2:]) if lab != "O" and len(lab) > 1 else ("O", "")
        begins = tag == "B" or (tag == "I" and (cur == "" or typ != cur))
        ends = cur != "" and (tag == "O" or begins)
        if ends:
            chunks.add((start, i, cur))
            cur = ""
        if tag != "O" and begins:
            start = i
            cur = typ
    return chunks


def conlleval_report(conll_text: str) -> str:
    """conlleval over ``token\\tgold\\tpred`` blocks -> the classic
    report (token accuracy + span-level precision/recall/FB1, overall
    and per type). Faithful re-implementation of conlleval.pl's default
    (exact-span) mode so the reference's eval step
    (README "python conlleval.py < outputs/...") runs in-repo with no
    perl/shell dependency."""
    n_tok = n_correct_tok = n_malformed = 0
    gold_chunks: set[tuple[int, int, int, str]] = set()
    pred_chunks: set[tuple[int, int, int, str]] = set()
    sent_gold: list[str] = []
    sent_pred: list[str] = []
    sid = 0

    def flush():
        nonlocal sid
        if sent_gold:
            for s, e, t in _conll_chunks(sent_gold):
                gold_chunks.add((sid, s, e, t))
            for s, e, t in _conll_chunks(sent_pred):
                pred_chunks.add((sid, s, e, t))
            sent_gold.clear()
            sent_pred.clear()
            sid += 1

    for line in conll_text.split("\n"):
        if not line.strip():
            flush()
            continue
        parts = line.rsplit("\t", 2)
        if len(parts) < 3:
            parts = line.rsplit(None, 2)
        if len(parts) < 3:
            # fewer than 3 fields (e.g. "token O"): skip the line —
            # conlleval.pl aborts here, but one malformed line must
            # not kill a whole distributed report
            n_malformed += 1
            continue
        _, g, p = parts[0], parts[1], parts[2]
        sent_gold.append(g)
        sent_pred.append(p)
        n_tok += 1
        n_correct_tok += int(g == p)
    flush()

    correct = gold_chunks & pred_chunks
    types = sorted({t for *_, t in gold_chunks | pred_chunks})

    def prf(tp: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
        p = 100.0 * tp / n_pred if n_pred else 0.0
        r = 100.0 * tp / n_gold if n_gold else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    p, r, f = prf(len(correct), len(pred_chunks), len(gold_chunks))
    acc = 100.0 * n_correct_tok / n_tok if n_tok else 0.0
    out = [
        f"processed {n_tok} tokens with {len(gold_chunks)} phrases; "
        f"found: {len(pred_chunks)} phrases; correct: {len(correct)}.",
        f"accuracy: {acc:6.2f}%; precision: {p:6.2f}%; "
        f"recall: {r:6.2f}%; FB1: {f:6.2f}",
    ]
    if n_malformed:
        out.append(f"skipped {n_malformed} malformed lines (fewer than 3 fields).")
    for t in types:
        tp = sum(1 for c in correct if c[3] == t)
        np_ = sum(1 for c in pred_chunks if c[3] == t)
        ng = sum(1 for c in gold_chunks if c[3] == t)
        tp_p, tp_r, tp_f = prf(tp, np_, ng)
        out.append(
            f"{t:>17}: precision: {tp_p:6.2f}%; recall: {tp_r:6.2f}%; "
            f"FB1: {tp_f:6.2f}  {np_}"
        )
    return "\n".join(out)
