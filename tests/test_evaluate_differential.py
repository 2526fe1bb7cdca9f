"""Differential test: the heap-driven Figure 1 evaluator against a scan.

:func:`reference_evaluate` is the plain reading of Figure 1: every
merge round rescans all surviving pairs and keeps the first strict
minimum in row-major order.  The production evaluator scores each pair
once per call and picks winners from a lazy min-heap; it must make the
same merges in the same order, build products in the same order (so
node numbering — and therefore every edge — matches), and report the
same ``merge`` events.  Each side runs on its own identically built
manager, so equal edges mean equal construction histories.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd import BDD
from repro.iclist import ConjList, EvaluationStats, PairCache, \
    greedy_evaluate
from repro.iclist.evaluate import GROW_THRESHOLD, _pair_product
from repro.trace import MERGE
from repro.trace.tracer import RecordingTracer

from conftest import random_function

NAMES = [f"v{index}" for index in range(12)]


def reference_evaluate(conjlist, grow_threshold=GROW_THRESHOLD,
                       use_bounded=False, bound_factor=4.0, cache=None,
                       stats=None):
    """Figure 1 by full rescan; returns the merge event tuples."""
    stats = stats if stats is not None else EvaluationStats()
    cache = cache if cache is not None else PairCache(conjlist.manager)
    conjuncts = conjlist.conjuncts

    def scored_pairs():
        n = len(conjuncts)
        for i in range(n):
            for j in range(i + 1, n):
                xi, xj = conjuncts[i], conjuncts[j]
                key = cache.pair_key(xi, xj)
                pair_size = cache.shared_pair_size(xi, xj)
                bound = max(16, int(bound_factor * grow_threshold
                                    * pair_size))
                if use_bounded:
                    known_abort = cache.aborted_at(key)
                    if known_abort is not None and known_abort >= bound:
                        continue
                product = cache.cached_product(key)
                was_cached = product is not None
                if product is None:
                    product = _pair_product(xi, xj, use_bounded, bound,
                                            stats)
                    if product is None:
                        cache.record_abort(key, bound)
                        continue
                    cache.store_product(key, product)
                size = cache.sizes.size(product)
                yield (size / pair_size, i, j, product, size, pair_size,
                       was_cached)

    events = []
    while len(conjuncts) >= 2:
        conjlist.manager.auto_collect()
        cache.note_epoch()
        # min() keeps the first of equal ratios: row-major tie-breaking.
        # The finished generator pins no per-pair handle through the
        # next round's collection.
        best = min(scored_pairs(), key=lambda entry: entry[0], default=None)
        if best is None or best[0] > grow_threshold:
            break
        ratio, i, j, product, size, pair_size, was_cached = best
        stats.merges += 1
        events.append((round(ratio, 4), pair_size, size, was_cached,
                       len(conjuncts) - 1))
        conjuncts[i] = product
        del conjuncts[j]
    conjlist.conjuncts = ConjList(conjlist.manager, conjuncts).conjuncts
    return events


def _merge_events(tracer):
    return [(e["ratio"], e["pair_size"], e["product_size"], e["cached"],
             e["list_length"]) for e in tracer.events_of(MERGE)]


def _fresh_manager():
    manager = BDD()
    for name in NAMES:
        manager.new_var(name)
    return manager


def _random_lists(seed, count=7, num_cubes=3):
    """A fresh manager and a seeded random conjunct list on it."""
    manager = _fresh_manager()
    rng = random.Random(seed)
    fns = [random_function(manager, NAMES, rng, num_cubes=num_cubes)
           for _ in range(count)]
    return manager, fns


def _symmetric_lists(seed):
    """Clauses of one shape over disjoint variable pairs: equal ratios."""
    manager = _fresh_manager()
    fns = []
    for k in range(0, len(NAMES), 2):
        x, y = manager.var(NAMES[k]), manager.var(NAMES[k + 1])
        fns += [x | y, x | ~y]
    random.Random(seed).shuffle(fns)
    return manager, fns


def _run_both(build, calls, auto_gc=False, **kwargs):
    """Run both evaluators over ``calls`` successive list slices.

    Each side gets its own manager from ``build`` and one PairCache that
    persists across the calls (a warm cache from the second call on).
    ``auto_gc`` arms the manager's collection hook, which the evaluator
    fires at the top of every merge round.
    """
    sides = []
    for heap_side in (False, True):
        manager, fns = build()
        if auto_gc:
            manager.auto_gc_min_nodes = 64
        cache = PairCache(manager)
        stats = EvaluationStats()
        edges, events = [], []
        for lo, hi in calls:
            cl = ConjList(manager, fns[lo:hi])
            if heap_side:
                tracer = RecordingTracer()
                greedy_evaluate(cl, cache=cache, stats=stats,
                                tracer=tracer, **kwargs)
                events.append(_merge_events(tracer))
            else:
                events.append(reference_evaluate(cl, cache=cache,
                                                 stats=stats, **kwargs))
            edges.append([f.edge for f in cl])
        sides.append((edges, events, stats, cache))
    return sides


@pytest.mark.parametrize("seed", range(8))
def test_random_lists_match(seed):
    (ref_edges, ref_events, ref_stats, _), \
        (edges, events, stats, _) = _run_both(
            lambda: _random_lists(seed), [(0, 7)],
            grow_threshold=1e6 if seed % 2 else GROW_THRESHOLD)
    assert edges == ref_edges
    assert events == ref_events
    assert stats.pairs_built == ref_stats.pairs_built


@pytest.mark.parametrize("seed", range(4))
def test_equal_ratio_ties_break_identically(seed):
    (ref_edges, ref_events, _, _), (edges, events, _, _) = _run_both(
        lambda: _symmetric_lists(seed), [(0, 8)])
    ratios = [event[0] for event in events[0]]
    assert len(ratios) > len(set(ratios)), "no tie was exercised"
    assert edges == ref_edges
    assert events == ref_events


@pytest.mark.parametrize("seed", range(4))
def test_bounded_and_matches(seed):
    # The second call meets pairs the first one saw abort, so it also
    # takes the known-abort shortcut.
    (ref_edges, ref_events, ref_stats, _), \
        (edges, events, stats, cache) = _run_both(
            lambda: _random_lists(seed, count=8, num_cubes=5),
            [(0, 6), (0, 8)], use_bounded=True, bound_factor=1.0)
    assert stats.pairs_aborted > 0, "no bounded AND aborted"
    assert cache.stats.abort_hits > 0, "no known abort was reused"
    assert stats.pairs_aborted == ref_stats.pairs_aborted
    assert edges == ref_edges
    assert events == ref_events


@pytest.mark.parametrize("seed", range(4))
def test_warm_cache_across_calls_matches(seed):
    # The second call starts with every pair of the first list cached.
    (ref_edges, ref_events, _, _), (edges, events, _, cache) = _run_both(
        lambda: _random_lists(seed, count=8), [(0, 6), (0, 8)],
        grow_threshold=1e6)
    assert any(event[3] for event in events[1])
    assert edges == ref_edges
    assert events == ref_events


@pytest.mark.parametrize("seed", range(4))
def test_collection_between_rounds_rebuilds_heap(seed):
    (ref_edges, ref_events, ref_stats, ref_cache), \
        (edges, events, stats, cache) = _run_both(
            lambda: _random_lists(seed, count=9, num_cubes=4), [(0, 9)],
            auto_gc=True, grow_threshold=1e6)
    # Some rounds collected (full rescan), others stayed incremental.
    assert 1 <= cache.stats.flushes < stats.merges
    assert cache.stats.flushes == ref_cache.stats.flushes
    assert edges == ref_edges
    assert events == ref_events
    assert stats.pairs_built == ref_stats.pairs_built

