"""Deeper tests of the iclist internals: incremental pair reuse,
evaluation statistics, and multi-merge sequences."""

import random

import pytest

from repro.bdd import BDD
from repro.iclist import ConjList, EvaluationStats, PairCache, \
    greedy_evaluate

from conftest import random_function


class TestIncrementalPairReuse:
    def test_surviving_pairs_reused_across_merge_rounds(self, manager):
        """Each pair is looked up exactly once per call: the n(n-1)/2
        initial pairs, then after merge k only the n-k-1 pairs of the
        new product with the survivors — the survivors' own pairs keep
        their scores without another lookup."""
        a, b, c, d = (manager.var(n) for n in "abcd")
        # (a|b) and (a|~b) merge profitably to a; c^d and c|d survive.
        lists = [([a | b, a | ~b, c ^ d, ~c | ~d], 1.5)]
        for seed in (3, 8):
            rng = random.Random(seed)
            lists.append(([random_function(manager, "abcdef", rng)
                           for _ in range(7)], 1e6))
        for fns, threshold in lists:
            cl = ConjList(manager, fns)
            n = len(cl)
            cache = PairCache(manager)
            stats = greedy_evaluate(cl, grow_threshold=threshold,
                                    cache=cache)
            assert stats.merges >= 1
            assert cache.stats.flushes == 0
            lookups = n * (n - 1) // 2 + sum(
                n - k - 1 for k in range(1, stats.merges + 1))
            assert (cache.stats.product_hits + cache.stats.product_misses
                    == lookups)

    def test_pairs_built_bounded_by_fresh_pairs(self, manager):
        """Total products built can never exceed distinct pairs seen:
        n*(n-1)/2 initial pairs plus n-1 per merge."""
        rng = random.Random(13)
        fns = [random_function(manager, "abcdef", rng) for _ in range(6)]
        cl = ConjList(manager, fns)
        n = len(cl)
        stats = greedy_evaluate(cl, grow_threshold=1e6,
                                cache=PairCache(manager))
        ceiling = n * (n - 1) // 2 + stats.merges * (n - 1)
        assert stats.pairs_built <= ceiling


class TestMultiMergeSequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_merges_stay_consistent(self, manager, seed):
        """Force many merges and verify the table bookkeeping never
        corrupts the semantics (huge threshold merges everything)."""
        rng = random.Random(seed)
        fns = [random_function(manager, "abcdef", rng, num_cubes=2)
               for _ in range(7)]
        cl = ConjList(manager, fns)
        explicit = cl.evaluate_explicitly()
        stats = greedy_evaluate(cl, grow_threshold=1e6)
        assert len(cl) <= 1
        assert cl.evaluate_explicitly().equiv(explicit)
        assert stats.merges >= len(fns) - 2  # n-1 merges minus dedup slack

    def test_merge_count_matches_length_drop(self, manager):
        rng = random.Random(42)
        fns = [random_function(manager, "abcde", rng) for _ in range(5)]
        cl = ConjList(manager, fns)
        start = len(cl)
        stats = greedy_evaluate(cl, grow_threshold=2.0)
        # Each merge removes exactly one list entry (normalization may
        # remove more if products collapse to constants/duplicates).
        assert len(cl) <= start - stats.merges


class TestEvaluationStats:
    def test_counters_accumulate_across_calls(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        stats = EvaluationStats()
        cl1 = ConjList(manager, [a | b, a | ~b])
        greedy_evaluate(cl1, stats=stats)
        first = stats.pairs_built
        cl2 = ConjList(manager, [b | c, b | ~c])
        greedy_evaluate(cl2, stats=stats)
        assert stats.pairs_built > first
        assert stats.merges == 2

    def test_bounded_abort_counted(self):
        mgr = BDD()
        vars_ = [mgr.new_var(f"x{i}") for i in range(16)]
        # Both conjuncts span all 16 variables at distance 8, so the
        # bounded product has no early constant cut-offs to hide in.
        f = mgr.true
        g = mgr.true
        for i in range(8):
            f = f & (vars_[i] ^ vars_[i + 8])
            g = g & (vars_[i] | vars_[i + 8])
        cl = ConjList(mgr, [f, g])
        stats = greedy_evaluate(cl, use_bounded=True, bound_factor=1e-4)
        assert stats.pairs_aborted >= 1
        assert len(cl) == 2  # nothing merged; list unchanged
