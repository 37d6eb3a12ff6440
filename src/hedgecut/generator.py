"""Seeded random connected instances, for ``generate``, ``audit --random`` and the counterexample search."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

from .graph import _MAX_VERTICES, GraphError, HedgeGraph, build_graph
from .rng import Rng

_MAX_EXTRA_EDGES = 1_000_000  # highest extra_range end: random_instance builds each extra edge


@dataclass(frozen=True, slots=True)
class GeneratorParams:
    """Ranges (inclusive) for the seeded random instance generator."""

    n_range: tuple[int, int] = (2, 8)
    extra_range: tuple[int, int] = (0, 3)
    label_range: tuple[int, int] = (1, 5)
    seed: int = 0


def _prufer_tree(n: int, seq: Sequence[int]) -> list[tuple[int, int]]:
    """Decode a Prüfer sequence into tree edges (endpoints ordered)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges: list[tuple[int, int]] = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    u = heappop(leaves)
    v = heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _repair_labels(labels: list[int], num_labels: int) -> None:
    """Reassign surplus edges of frequent labels so every label occurs."""
    counts = [0] * num_labels
    for lab in labels:
        counts[lab] += 1
    for missing in [lab for lab in range(num_labels) if counts[lab] == 0]:
        top = max(counts)
        donor = counts.index(top)  # most frequent, ties to the smallest id
        for idx in range(len(labels) - 1, -1, -1):
            if labels[idx] == donor:
                labels[idx] = missing
                break
        counts[donor] -= 1
        counts[missing] += 1


def _check_ranges(params: GeneratorParams) -> None:
    """Reject empty, out-of-domain or non-int generator ranges and seeds before any work."""
    for (lo, hi), least, what in ((params.n_range, 2, "vertex count"),
                                  (params.extra_range, 0, "extra edge"),
                                  (params.label_range, 1, "label count")):
        if not (type(lo) is int and type(hi) is int and least <= lo <= hi):  # a bool is no count
            raise GraphError(f"{what} range must satisfy {least} <= lo <= hi")
    if params.n_range[1] > _MAX_VERTICES:
        raise GraphError(f"vertex count range must not exceed {_MAX_VERTICES}")
    if params.extra_range[1] > _MAX_EXTRA_EDGES:
        raise GraphError(f"extra edge range must not exceed {_MAX_EXTRA_EDGES}")
    if type(params.seed) is not int:
        raise GraphError(f"generator seed must be an int, not {params.seed!r}")


def random_instance(params: GeneratorParams) -> HedgeGraph:
    """Seeded random connected simple instance with every label in use.

    A uniform labeled tree (random Prüfer sequence) plus distinct extra
    non-tree edges; labels drawn uniformly then repaired so each occurs.
    Deterministic given params.
    """
    _check_ranges(params)
    rng = Rng(params.seed)
    n_lo, n_hi = params.n_range
    extra_lo, extra_hi = params.extra_range
    lab_lo, lab_hi = params.label_range
    n = n_lo + rng.below(n_hi - n_lo + 1)
    extra = extra_lo + rng.below(extra_hi - extra_lo + 1)
    extra = min(extra, n * (n - 1) // 2 - (n - 1))
    m = n - 1 + extra
    if lab_lo > m:
        raise GraphError(f"infeasible params: {lab_lo} labels need at least {lab_lo} edges, have {m}")
    num_labels = lab_lo + rng.below(min(lab_hi, m) - lab_lo + 1)

    seq = [rng.below(n) for _ in range(n - 2)]
    pairs = _prufer_tree(n, seq)
    # Partial Fisher-Yates over the ranks of the non-tree pairs, in lexicographic
    # order, with a sparse swap dict; pair (u, v), u < v, has rank row[u] + v - u - 1.
    row = [u * (2 * n - u - 1) // 2 for u in range(n)]
    skip = [t - i for i, t in enumerate(sorted(row[u] + v - u - 1 for u, v in pairs))]
    swap: dict[int, int] = {}
    for k in range(extra):
        j = k + rng.below(n * (n - 1) // 2 - (n - 1) - k)
        swap[k], swap[j] = swap.get(j, j), swap.get(k, k)
        r = swap[k] + bisect_right(skip, swap[k])  # skips each tree rank at or below it
        u = bisect_right(row, r) - 1
        pairs.append((u, r - row[u] + u + 1))

    labels = [rng.below(num_labels) for _ in pairs]
    _repair_labels(labels, num_labels)
    return build_graph(n, [(u, v, f"l{lab}") for (u, v), lab in zip(pairs, labels)])
