"""Conjunction evaluation — the greedy algorithm of Figure 1.

Given an implicitly conjoined list, decide which pairwise conjunctions
to *evaluate* (explicitly AND, shortening the list by one).  The paper
frames the exact problem as NP-hard Minimum Weight Cover, shows the
pairwise restriction is polynomial (Theorem 2, see
:mod:`repro.iclist.cover`), and then argues node sharing makes a greedy
heuristic the practical choice:

    Find the i, j (with i != j) that minimizes the ratio
    ``r = BDDSize(Pij) / BDDSize(Xi, Xj)`` where BDDSize of the pair
    takes node-sharing into account.  If ``r_min > GrowThreshold``
    (1.5), exit; otherwise replace Xi and Xj with Pij and repeat.

The paper's Section V additionally wishes for conjunctions that abort
once they exceed a known-useless size; ``use_bounded=True`` enables
exactly that via :func:`repro.bdd.bounded_and` — any pair whose product
overruns ``bound_factor * GrowThreshold * BDDSize(Xi, Xj)`` is priced
at infinity without being finished.

Each call scores every conjunct pair once.  Round 1 scores all
n(n-1)/2 pairs into a min-heap of ratios; a merge replaces one list
entry, so the next round scores only the pairs of the new product with
the survivors and pushes them.  Entries of the two merged slots
are dropped lazily: each slot carries a version that a merge bumps, and
a popped entry whose versions are stale is discarded.  Slots keep the
*rank* of their starting position (a product takes the lower slot's
rank), so the heap order ``(ratio, rank_i, rank_j)`` picks the same
winner — ties included — as a row-major scan of all pairs keeping the
first strict minimum, and products are built in the same order.

Per-pair artifacts (products, shared sizes, abort verdicts, node
counts) are memoized in a :class:`repro.iclist.paircache.PairCache`
keyed by canonical edge pairs.  Passing a persistent cache lets an
engine reuse products across fixpoint iterations: iteration N+1 pays
nothing for conjuncts that recur from iteration N.  With no cache
given, a private one is created per call.  Heap entries hold raw
product edges, valid only until the manager's epoch moves; when the
safe point at the top of a round collects or reorders, the cache
flushes and the heap is rebuilt by a full rescan.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bdd.manager import Function
from ..bdd.bounded import bounded_and
from ..obs.registry import NULL_REGISTRY
from ..obs.spans import NULL_SPANS
from ..trace import MERGE, Tracer
from .conjlist import ConjList
from .paircache import PairCache

__all__ = ["greedy_evaluate", "EvaluationStats", "GROW_THRESHOLD",
           "RATIO_RESERVOIR_CAP"]

#: The paper's "arbitrarily set" default, "with satisfactory results".
GROW_THRESHOLD = 1.5

#: Upper bound on retained ratio samples (see EvaluationStats.ratios).
RATIO_RESERVOIR_CAP = 256


@dataclass
class EvaluationStats:
    """Bookkeeping from one evaluation run (for the ablation benches).

    Engines accumulate into a single instance across all fixpoint
    iterations, so the per-merge ratio log must not grow without bound:
    ``ratios`` is a deterministic strided reservoir capped at
    :data:`RATIO_RESERVOIR_CAP` samples (once full, it is thinned to
    every second element and the sampling stride doubles), while exact
    count/min/max/sum summaries are always maintained.
    """

    pairs_built: int = 0
    pairs_aborted: int = 0
    merges: int = 0
    ratios: List[float] = field(default_factory=list)
    ratio_count: int = 0
    ratio_min: float = math.inf
    ratio_max: float = -math.inf
    ratio_sum: float = 0.0
    _ratio_stride: int = 1

    def record_ratio(self, ratio: float) -> None:
        """Log one accepted merge ratio (bounded memory)."""
        if self.ratio_count % self._ratio_stride == 0:
            if len(self.ratios) >= RATIO_RESERVOIR_CAP:
                del self.ratios[1::2]
                self._ratio_stride *= 2
            if self.ratio_count % self._ratio_stride == 0:
                self.ratios.append(ratio)
        self.ratio_count += 1
        self.ratio_sum += ratio
        if ratio < self.ratio_min:
            self.ratio_min = ratio
        if ratio > self.ratio_max:
            self.ratio_max = ratio

    def ratio_summary(self) -> Dict[str, float]:
        """Exact count/min/mean/max of all ratios ever recorded."""
        if self.ratio_count == 0:
            return {"count": 0, "min": 0.0, "mean": 0.0, "max": 0.0}
        return {"count": self.ratio_count,
                "min": self.ratio_min,
                "mean": self.ratio_sum / self.ratio_count,
                "max": self.ratio_max}


def _pair_product(x: Function, y: Function, use_bounded: bool,
                  bound: int, stats: EvaluationStats) -> Optional[Function]:
    if use_bounded:
        product = bounded_and(x, y, bound)
        if product is None:
            stats.pairs_aborted += 1
            return None
        stats.pairs_built += 1
        return product
    stats.pairs_built += 1
    return x & y


def greedy_evaluate(conjlist: ConjList,
                    grow_threshold: float = GROW_THRESHOLD,
                    use_bounded: bool = False,
                    bound_factor: float = 4.0,
                    stats: Optional[EvaluationStats] = None,
                    cache: Optional[PairCache] = None,
                    tracer: Optional[Tracer] = None,
                    metrics=NULL_REGISTRY,
                    spans=NULL_SPANS) -> EvaluationStats:
    """Run Figure 1 in place on ``conjlist``; returns statistics.

    A smaller ``grow_threshold`` "holds BDD size down, but can get
    caught in a local minimum, whereas any threshold greater than 1
    could theoretically allow us to build exponentially-sized BDDs" —
    the GrowThreshold ablation bench sweeps this knob.

    ``cache`` is an optional persistent :class:`PairCache`; results are
    edge-identical with and without one (canonicity guarantees a cached
    product equals a recomputed one), only the amount of work differs.

    An enabled ``tracer`` receives one ``merge`` event per accepted
    merge: the winning ratio, the pair's shared size, the product size,
    whether the product was not built this round (taken from the pair
    cache, or built in an earlier round of this call), and the list
    length after the merge.  Tracing never changes which merges happen.

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) likewise only
    observes: per merge-round timing, accepted merge ratios, and
    product sizes, all skipped entirely through the default null
    registry.
    """
    if stats is None:
        stats = EvaluationStats()
    if len(conjlist) < 2:
        return stats
    if cache is None:
        cache = PairCache(conjlist.manager)
    trace = tracer is not None and tracer.enabled
    if metrics is None:
        metrics = NULL_REGISTRY
    if spans is None:
        spans = NULL_SPANS
    manager = conjlist.manager
    conjuncts = conjlist.conjuncts
    # ranks[p] is the starting position of the slot now at position p;
    # versions[rank] is bumped whenever that slot's conjunct changes.
    ranks = list(range(len(conjuncts)))
    versions = [0] * len(conjuncts)
    heap: List[tuple] = []
    rescan = True
    fresh: Optional[int] = None
    current_round = 0

    def score(pi: int, pj: int) -> None:
        """Price pair (pi, pj), pi < pj, and push it unless it aborts."""
        xi = conjuncts[pi]
        xj = conjuncts[pj]
        key = cache.pair_key(xi, xj)
        pair_size = cache.shared_pair_size(xi, xj)
        bound = max(16, int(bound_factor * grow_threshold * pair_size))
        if use_bounded:
            known_abort = cache.aborted_at(key)
            if known_abort is not None and known_abort >= bound:
                # Known useless at this bound: price at infinity
                # without re-running the recursion.
                cache.stats.abort_hits += 1
                return
        product = cache.cached_product(key)
        was_cached = product is not None
        if product is None:
            product = _pair_product(xi, xj, use_bounded, bound, stats)
            if product is None:
                cache.record_abort(key, bound)
                return
            cache.store_product(key, product)
        product_size = cache.sizes.size(product)
        ri = ranks[pi]
        rj = ranks[pj]
        heapq.heappush(heap, (product_size / pair_size, ri, rj,
                              versions[ri], versions[rj], product.edge,
                              product_size, pair_size, was_cached,
                              current_round))

    while len(conjuncts) >= 2:
        current_round += 1
        round_span = spans.open_span("merge_round") \
            if spans.enabled else None
        if metrics.enabled:
            round_started = time.perf_counter()
        # Safe point: all live BDDs are held as Functions here.  A
        # collection renumbers edges, so the cache must resync and the
        # heap's raw edges be rebuilt before any lookup below.
        manager.auto_collect()
        n = len(conjuncts)
        if cache.note_epoch() or rescan:
            heap.clear()
            for i in range(n):
                for j in range(i + 1, n):
                    score(i, j)
            rescan = False
        elif fresh is not None:
            for p in range(n):
                if p < fresh:
                    score(p, fresh)
                elif p > fresh:
                    score(fresh, p)
        fresh = None
        # Drop entries whose slots were merged away since they were
        # pushed; the top is then the best live pair.
        while heap and (versions[heap[0][1]] != heap[0][3]
                        or versions[heap[0][2]] != heap[0][4]):
            heapq.heappop(heap)
        if not heap or heap[0][0] > grow_threshold:
            if metrics.enabled:
                metrics.inc("evaluate_rounds")
                metrics.observe_time("evaluate_round_seconds",
                                     time.perf_counter() - round_started)
            if round_span is not None:
                spans.close_span(round_span, merged=False,
                                 list_length=len(conjuncts))
            break
        (best_ratio, ri, rj, _, _, edge, best_product_size,
         best_pair_size, was_cached, built_round) = heapq.heappop(heap)
        stats.merges += 1
        stats.record_ratio(best_ratio)
        if metrics.enabled:
            metrics.inc("evaluate_rounds")
            metrics.inc("evaluate_merges")
            metrics.observe_time("evaluate_round_seconds",
                                 time.perf_counter() - round_started)
            metrics.observe_ratio("merge_ratio", best_ratio)
            # The size was already priced during pair selection; reusing
            # it keeps the metered run's cache counters identical to a
            # bare run's (observational-only, down to the stats).
            metrics.observe_size("merge_product_nodes",
                                 best_product_size)
        if trace:
            tracer.emit(MERGE,
                        ratio=round(best_ratio, 4),
                        pair_size=best_pair_size,
                        product_size=best_product_size,
                        cached=was_cached or built_round < current_round,
                        list_length=len(conjuncts) - 1)
        # Replace Xi and Xj with Pij in Xi's slot.  Ranks stay sorted,
        # so a bisection finds each slot's position.
        i = bisect.bisect_left(ranks, ri)
        j = bisect.bisect_left(ranks, rj)
        conjuncts[i] = Function(manager, edge)
        del conjuncts[j]
        del ranks[j]
        versions[ri] += 1
        versions[rj] += 1
        fresh = i
        if round_span is not None:
            spans.close_span(round_span, merged=True,
                             ratio=round(best_ratio, 4),
                             list_length=len(conjuncts))
    # Re-normalize (the product might have produced constants/duplicates).
    rebuilt = ConjList(conjlist.manager, conjuncts)
    conjlist.conjuncts = rebuilt.conjuncts
    return stats
