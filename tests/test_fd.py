"""Tests for the functional-dependency engine and extraction."""

import importlib
import random

import pytest

from repro.bdd import BDD
from repro.expr import BitVec
from repro.fsm import Builder
from repro.core import DEPENDENCY_FAILED, Options, Problem, \
    extract_dependencies, verify
from repro.core.fd import DependencyError
from repro.explicit import explicit_check
from repro.fsm.image import ClusterFold
from repro.fsm.machine import greedy_clusters

from conftest import random_function

image_module = importlib.import_module("repro.fsm.image")


class TestExtraction:
    def test_simple_dependency(self, manager):
        a, b, p = manager.var("a"), manager.var("b"), manager.var("c")
        region = (p.iff(a ^ b)) & (a | b)
        reduced, funcs = extract_dependencies(region, ["c"])
        assert reduced.equiv(a | b)
        assert set(funcs) == {"c"}
        rebuilt = reduced & p.iff(funcs["c"])
        assert rebuilt.equiv(region)

    def test_chained_dependencies_resolved(self, manager):
        a, b, c = manager.var("a"), manager.var("b"), manager.var("c")
        # b == a, c == not b: c's definition must come out over a only.
        region = b.iff(a) & c.iff(~b)
        reduced, funcs = extract_dependencies(region, ["b", "c"])
        assert reduced.is_true
        assert funcs["b"].support() <= {"a"}
        assert funcs["c"].support() <= {"a"}
        rebuilt = reduced & b.iff(funcs["b"]) & c.iff(funcs["c"])
        assert rebuilt.equiv(region)

    def test_not_dependent_raises(self, manager):
        a, b = manager.var("a"), manager.var("b")
        region = a | b  # b free given a in part of the region
        with pytest.raises(DependencyError):
            extract_dependencies(region, ["b"])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_regions_roundtrip(self, manager, seed):
        rng = random.Random(seed)
        base = random_function(manager, "abc", rng, num_cubes=4)
        if base.is_false:
            return
        d = manager.var("d")
        definition = random_function(manager, "abc", rng)
        region = base & d.iff(definition)
        reduced, funcs = extract_dependencies(region, ["d"])
        assert (reduced & d.iff(funcs["d"])).equiv(region)


def dependent_pair_problem(bug=""):
    """Counter machine with a mirror register (clearly dependent).

    ``bug="inverted"`` keeps the mirror a *function* of the counter but
    the wrong one (property violated, dependency intact);
    ``bug="offset"`` makes the mirror lag in a way that genuinely
    breaks the functional dependency on the counter.
    """
    builder = Builder("mirror")
    enable = builder.input_bit("en")
    count = builder.registers("cnt", 3, init=0)
    mirror = builder.registers("mir", 3, init=0)
    nxt = BitVec.mux(enable, count.inc(), count)
    builder.next(count, nxt)
    if bug == "inverted":
        builder.next(mirror, ~nxt)
    elif bug == "offset":
        builder.next(mirror, nxt.inc())
    else:
        builder.next(mirror, nxt)
    machine = builder.build()
    good = [count.eq(mirror)]
    return Problem(name="mirror", machine=machine, good_conjuncts=good,
                   fd_dependent_bits=[f"mir[{i}]" for i in range(3)])


class TestFdEngine:
    def test_verifies_dependent_design(self):
        result = verify(dependent_pair_problem(), "fd")
        assert result.verified
        # The stored representation must be smaller than the full
        # reachable set over all six state bits.
        assert result.max_iterate_nodes < 40

    def test_catches_violation_with_trace(self):
        # Dependency intact (mirror == counter throughout); a separate
        # property fails at depth 6, exercising trace reconstruction.
        problem = dependent_pair_problem()
        count_bits = [problem.machine.manager.var(f"cnt[{i}]")
                      for i in range(3)]
        problem.good_conjuncts = [BitVec(count_bits).ule_const(5)]
        result = verify(problem, "fd")
        assert result.violated
        assert result.iterations == 6
        assert result.trace is not None
        assert result.trace.replay_check(problem.machine)

    @pytest.mark.parametrize("bug", ["inverted", "offset"])
    def test_broken_dependency_detected(self, bug):
        # Both bugs reach two states sharing an independent part (the
        # init state obeys mirror == counter, later states don't), so
        # the mirror is genuinely no longer a function of the counter.
        problem = dependent_pair_problem(bug=bug)
        result = verify(problem, "fd")
        assert result.outcome == DEPENDENCY_FAILED
        assert result.holds is None

    def test_agrees_with_explicit(self):
        problem = dependent_pair_problem()
        oracle = explicit_check(problem.machine, problem.good_conjuncts)
        result = verify(problem, "fd")
        assert result.verified == oracle.holds

    def test_dependency_failure_reported(self):
        # Declare the *counter* dependent on the mirror alone — false,
        # since the free-running enable decouples them... actually they
        # mirror exactly; instead declare a genuinely free bit dependent.
        builder = Builder("free")
        x = builder.input_bit("x")
        a = builder.registers("a", 1, init=0)
        b = builder.registers("b", 1, init=0)
        builder.next(a, x)
        builder.next(b, ~x)
        machine = builder.build()
        problem = Problem(name="free", machine=machine,
                          good_conjuncts=[machine.manager.true],
                          fd_dependent_bits=["a[0]"])
        # After one step a is determined by b (a == not b), so this one
        # actually works; declare both dependent to force failure.
        problem.fd_dependent_bits = ["a[0]", "b[0]"]
        result = verify(problem, "fd")
        assert result.outcome == DEPENDENCY_FAILED

    def test_unknown_bit_rejected(self):
        problem = dependent_pair_problem()
        problem.fd_dependent_bits = ["nosuch[0]"]
        with pytest.raises(ValueError):
            verify(problem, "fd")


def _edges(clusters):
    return [(relation.edge, list(members)) for relation, members in clusters]


class TestClusterFold:
    @pytest.mark.parametrize("seed", range(8))
    def test_continued_fold_equals_the_fold_of_the_concatenation(self,
                                                                 seed):
        rng = random.Random(seed)
        manager = BDD()
        names = [f"v{i}" for i in range(6)]
        for name in names:
            manager.new_var(name)
        parts = [random_function(manager, names, rng)
                 for _ in range(rng.randint(0, 7))]
        more = [random_function(manager, names, rng)
                for _ in range(rng.randint(1, 3))]
        limit = rng.choice([1, 6, 12, 10_000])
        base = greedy_clusters(parts, limit)
        before = _edges(base)
        continued = greedy_clusters(more, limit, base)
        assert _edges(continued) == _edges(greedy_clusters(parts + more,
                                                           limit))
        assert _edges(base) == before
        # Clusters the new parts did not touch are shared, not rebuilt.
        untouched = len(base) - 1 if base else 0
        assert all(continued[i] is base[i] for i in range(untouched))

        fold = ClusterFold(parts, limit)
        relations, supports = fold.extend(more).relations()
        whole, whole_supports = ClusterFold(parts + more, limit).relations()
        assert relations == whole
        assert supports == whole_supports
        assert supports == [relation.support() for relation in relations]
        assert fold.relations()[0] == [
            relation for relation, _ in greedy_clusters(parts, limit)]

    def test_one_fd_iteration_clusters_the_independent_parts_once(
            self, monkeypatch):
        problem = dependent_pair_problem()
        dependent = len(problem.fd_dependent_bits)
        independent = problem.machine.num_state_bits - dependent
        calls = []
        real = image_module.greedy_clusters

        def counting(parts, cluster_limit, start=()):
            calls.append((len(parts), len(start)))
            return real(parts, cluster_limit, start)

        monkeypatch.setattr(image_module, "greedy_clusters", counting)
        result = verify(problem, "fd")
        assert result.verified
        fresh = [call for call in calls if call[1] == 0]
        continued = [call for call in calls if call[1] > 0]
        assert fresh == [(independent, 0)] * result.iterations
        assert len(continued) == dependent * result.iterations
        assert all(parts == 1 for parts, _start in continued)
