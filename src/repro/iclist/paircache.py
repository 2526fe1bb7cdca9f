"""Persistent pair-product cache for the greedy evaluator (Figure 1).

The Figure-1 policy scores conjunct pairs by
``size(Xi & Xj) / shared_size(Xi, Xj)``, and the XICI engine runs the
whole policy again on *every* backward-fixpoint iteration.  Within one
call the evaluator's ratio heap already scores each pair once (see
:mod:`repro.iclist.evaluate`); across calls conjuncts recur — the goal
conjuncts are re-appended verbatim each step, and near the fixpoint the
whole list stabilizes — so iteration N+1 can reuse iteration N's
products, shared sizes, and abort verdicts.  That reuse is this
cache's job.

Canonicity makes the reuse exact: an edge determines its function, so a
pair of edges determines the product edge, the pair's shared size, and
whether a bounded AND with a given bound aborts.  :class:`PairCache`
memoizes all four artifact kinds keyed by canonical (smaller-edge,
larger-edge) pairs, and follows the gc_epoch contract of
:mod:`repro.bdd.manager`: any garbage collection or reorder renumbers
edges, so the whole cache flushes before the next lookup — a stale hit
is impossible by construction.

Product entries hold raw edges, *not* :class:`Function` handles, on
purpose: holding handles would root every product ever built and defeat
garbage collection.  Between collections the unique table is
append-only, so a raw edge stays valid exactly until the epoch changes
— which is when the cache flushes anyway.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..bdd.manager import BDD, EpochGuard, Function
from ..bdd.sizing import SizeMemo

__all__ = ["PairCache", "PairCacheStats"]


@dataclass
class PairCacheStats:
    """Hit/miss/eviction counters; survive flushes (cumulative)."""

    product_hits: int = 0
    product_misses: int = 0
    abort_hits: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    evictions: int = 0
    flushes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for result records and JSON."""
        return {
            "product_hits": self.product_hits,
            "product_misses": self.product_misses,
            "abort_hits": self.abort_hits,
            "shared_hits": self.shared_hits,
            "shared_misses": self.shared_misses,
            "evictions": self.evictions,
            "flushes": self.flushes,
        }


class PairCache:
    """Epoch-aware memo of pair products, shared sizes, and aborts.

    One instance is meant to live as long as its manager's run does —
    the XICI engine creates one per verification and threads it through
    every :func:`repro.iclist.evaluate.greedy_evaluate` call.  All
    lookups are keyed by :meth:`pair_key`; callers must invoke
    :meth:`note_epoch` at every safe point where a garbage collection
    may have happened before trusting any lookup.
    """

    def __init__(self, manager: BDD, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.manager = manager
        self.capacity = capacity
        self.stats = PairCacheStats()
        self.sizes = SizeMemo(manager, capacity=4 * capacity)
        self._guard = EpochGuard(manager)
        # pair -> product edge, LRU-ordered for eviction.
        self._products: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        # pair -> largest bound at which bounded_and aborted.
        self._aborts: Dict[Tuple[int, int], int] = {}
        # pair -> shared node count of the two operands.
        self._shared: Dict[Tuple[int, int], int] = {}

    # -- epoch discipline ---------------------------------------------------

    def note_epoch(self) -> bool:
        """Flush everything if the manager renumbered edges; True if so."""
        if self._guard.refresh():
            self._flush()
            return True
        return False

    def _flush(self) -> None:
        self._products.clear()
        self._aborts.clear()
        self._shared.clear()
        self.stats.flushes += 1
        self.sizes.check_epoch()

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def pair_key(x: Function, y: Function) -> Tuple[int, int]:
        """Canonical (unordered) key for a conjunct pair."""
        a, b = x.edge, y.edge
        return (a, b) if a <= b else (b, a)

    # -- pair shared size ---------------------------------------------------

    def shared_pair_size(self, x: Function, y: Function) -> int:
        """Memoized ``shared_size([x, y])`` (the ratio's denominator)."""
        key = self.pair_key(x, y)
        cached = self._shared.get(key)
        if cached is not None:
            self.stats.shared_hits += 1
            return cached
        self.stats.shared_misses += 1
        result = self.manager._count_nodes((x.edge, y.edge))
        if len(self._shared) >= self.capacity:
            self._shared.clear()
            self.stats.evictions += self.capacity
        self._shared[key] = result
        return result

    # -- products -----------------------------------------------------------

    def cached_product(self, key: Tuple[int, int]) -> Optional[Function]:
        """The memoized product for a pair, or None if absent."""
        edge = self._products.get(key)
        if edge is None:
            return None
        self._products.move_to_end(key)
        self.stats.product_hits += 1
        return Function(self.manager, edge)

    def store_product(self, key: Tuple[int, int], product: Function) -> None:
        """Record a freshly built pair product (evicting LRU if full)."""
        self.stats.product_misses += 1
        self._products[key] = product.edge
        self._products.move_to_end(key)
        while len(self._products) > self.capacity:
            self._products.popitem(last=False)
            self.stats.evictions += 1

    # -- bounded-AND abort verdicts ------------------------------------------

    def aborted_at(self, key: Tuple[int, int]) -> Optional[int]:
        """Largest bound at which this pair is known to abort, if any."""
        return self._aborts.get(key)

    def record_abort(self, key: Tuple[int, int], bound: int) -> None:
        """Record that ``bounded_and`` on this pair aborted at ``bound``.

        A future request with a bound no larger than the recorded one
        is guaranteed to abort too (the visit count is monotone in the
        bound), so it can be skipped without re-running the recursion.
        """
        if len(self._aborts) >= self.capacity:
            self._aborts.clear()
            self.stats.evictions += self.capacity
        prior = self._aborts.get(key)
        if prior is None or bound > prior:
            self._aborts[key] = bound

    # -- reporting ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._products)

    def stats_dict(self) -> Dict[str, int]:
        """Combined cache + size-memo counters for result records."""
        combined = self.stats.as_dict()
        combined["products_live"] = len(self._products)
        for name, value in self.sizes.stats().items():
            combined[f"size_{name}"] = value
        return combined

    def __repr__(self) -> str:
        return (f"PairCache(products={len(self._products)}, "
                f"aborts={len(self._aborts)}, shared={len(self._shared)}, "
                f"epoch={self._guard.epoch})")
