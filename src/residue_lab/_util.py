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
    reduction is a fixed-order pairwise sum, so the result is bit-identical
    for any ``workers`` value.
    """
    chunks = list(chunks)
    if not chunks:
        raise ValueError("chunked_map_reduce needs at least one chunk")
    workers = default_workers() if workers is None else max(1, int(workers))
    if workers == 1 or len(chunks) == 1:
        parts = [func(c) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(func, chunks))
    return pairwise_sum(parts)


def pairwise_sum(parts):
    """Fixed-order pairwise (tree) reduction of a list of numpy-compatible values."""
    items = list(parts)
    if not items:
        raise ValueError("empty reduction")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(items[i] + items[i + 1])
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def fmt_float(x: float) -> str:
    """17-significant-digit decimal representation, '.' decimal point."""
    return format(float(x), ".17g")
