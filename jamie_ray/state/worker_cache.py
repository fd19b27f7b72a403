"""Per-worker single-entry object-store caches.

Broadcast lookup state (canonical maps, as-of summaries, candidate-pair
maps) rides the object store via ``ray.put`` once; each worker process
fetches it ONCE and memoizes it here instead of re-``ray.get``-ing per
batch/group call. One entry per *namespace* by design: a new ref for
the same namespace (another run in the same session) evicts the old
one, so worker memory stays bounded by one live object per purpose no
matter how many pipelines the process serves.

This is what lets a map whose only state is a broadcast run as a plain
task ``map_batches``: an actor pool would buy the same fetch-once at
the cost of a pool start on every call.
"""

from __future__ import annotations

from typing import Any, Callable

import ray

_STATE: dict[str, tuple[str, Any]] = {}


def cached_get(ref, ns: str, build: Callable[[Any], Any] | None = None) -> Any:
    """Resolve ``ref`` (an ``ObjectRef`` or a plain value) with a
    per-worker, per-namespace single-entry memo. ``build`` (optional)
    derives the worker-side form of the fetched value (a sorted array,
    a frozenset) once per cache fill; the derived value is what gets
    memoized and returned."""
    if not isinstance(ref, ray.ObjectRef):
        return ref if build is None else build(ref)
    key = ref.hex()
    entry = _STATE.get(ns)
    if entry is None or entry[0] != key:
        value = ray.get(ref)
        entry = (key, value if build is None else build(value))
        _STATE[ns] = entry
    return entry[1]
