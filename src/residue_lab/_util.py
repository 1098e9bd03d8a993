"""Shared helpers: deterministic reductions, float formatting, worker pools."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

ENV_WORKERS = "RESIDUE_LAB_WORKERS"


class NumericError(RuntimeError):
    """Raised when a numeric precondition fails (pole guard, reach violation, ...)."""


class ConfigError(ValueError):
    """Raised on malformed run or shape configuration."""


def default_workers() -> int:
    """The worker count in ``RESIDUE_LAB_WORKERS``, 1 when unset; ConfigError
    unless it is an integer >= 1."""
    raw = os.environ.get(ENV_WORKERS, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{ENV_WORKERS} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{ENV_WORKERS} must be >= 1, got {workers}")
    return workers


def chunked_map_reduce(func, chunks, workers=None):
    """Apply ``func`` to each chunk and sum the results in fixed chunk order.

    The chunk decomposition never depends on the worker count, and the
    reduction is a fixed-order pairwise (tree) sum, so the result is
    bit-identical for any ``workers`` value. Each result is merged as it
    arrives into a binary-counter stack of partial sums: a new partial
    merges with the top one while both cover as many chunks, and the stack
    folds from the top at the end. That builds the tree of the level-wise
    sum ((p0 + p1) + (p2 + p3)) + ..., an odd tail joining last, and holds
    O(log n) partials instead of n results.
    """
    chunks = list(chunks)
    if not chunks:
        raise ValueError("chunked_map_reduce needs at least one chunk")
    workers = default_workers() if workers is None else max(1, int(workers))
    if workers == 1 or len(chunks) == 1:
        return _tree_sum(map(func, chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _tree_sum(pool.map(func, chunks))


def _tree_sum(parts):
    stack = []  # (chunks covered, partial sum); the counts fall toward the top
    for part in parts:
        count, acc = 1, part
        while stack and stack[-1][0] == count:
            below, left = stack.pop()
            count, acc = count + below, left + acc
        stack.append((count, acc))
    acc = stack.pop()[1]
    while stack:
        acc = stack.pop()[1] + acc
    return acc


def fmt_float(x: float) -> str:
    """17-significant-digit decimal representation, '.' decimal point."""
    return format(float(x), ".17g")
