"""Differential tests: the dict kernel's inlined recursions against a
plain reference.

The dict manager's hot recursions (``_ite``, ``_exists``,
``_and_exists``, ``_restrict_rec``, ``_constrain_rec``) read cofactors
and probe the unique table inline.  :class:`ReferenceBDD` overrides
them with the straightforward formulation through ``_cofactors_at`` /
``_cofactors`` and ``_mk``.  The two must be indistinguishable: the same
nodes allocated in the same order, the same cache entries written, the
same statistics counted, and budget errors raised at the same node.
"""

from __future__ import annotations

import gc
import random

import pytest

import repro.bdd.manager as manager_module
from repro.bdd import BDD
from repro.bdd.manager import BudgetExceededError

from conftest import random_function


class ReferenceBDD(BDD):
    """The dict kernel with its hot recursions written plainly."""

    def _ite(self, f, g, h):
        if f == 0:
            return g
        if f == 1:
            return h
        if g == h:
            return g
        if g == 0 and h == 1:
            return f
        if g == 1 and h == 0:
            return f ^ 1
        if g == f:
            g = 0
        elif g == (f ^ 1):
            g = 1
        if h == f:
            h = 1
        elif h == (f ^ 1):
            h = 0
        if g == h:
            return g
        if g == 0 and h == 1:
            return f
        if g == 1 and h == 0:
            return f ^ 1
        if f & 1:
            f, g, h = f ^ 1, h, g
        negate = False
        if g & 1:
            g, h = g ^ 1, h ^ 1
            negate = True
        key = (f, g, h)
        cache = self._ite_cache
        result = cache.get(key)
        if result is None:
            self._ite_misses += 1
            levels = self._level
            lf = levels[f >> 1]
            lg = levels[g >> 1]
            lh = levels[h >> 1]
            top = lf if lf < lg else lg
            if lh < top:
                top = lh
            f1, f0 = self._cofactors_at(f, top)
            g1, g0 = self._cofactors_at(g, top)
            h1, h0 = self._cofactors_at(h, top)
            result = self._mk(top, self._ite(f1, g1, h1),
                              self._ite(f0, g0, h0))
            cache[key] = result
        else:
            self._ite_hits += 1
        return result ^ 1 if negate else result

    def _exists(self, f, levels, levels_key, max_level):
        if f <= 1 or self._level[f >> 1] > max_level:
            return f
        key = (f, levels_key, 0)
        cached = self._quant_cache.get(key)
        if cached is not None:
            self._quant_hits += 1
            return cached
        self._quant_misses += 1
        top = self._level[f >> 1]
        f1, f0 = self._cofactors(f)
        r1 = self._exists(f1, levels, levels_key, max_level)
        if top in levels:
            if r1 == 0:
                result = 0
            else:
                r0 = self._exists(f0, levels, levels_key, max_level)
                result = self._or(r1, r0)
        else:
            r0 = self._exists(f0, levels, levels_key, max_level)
            result = self._mk(top, r1, r0)
        self._quant_cache[key] = result
        return result

    def _and_exists(self, f, g, levels, levels_key, max_level):
        if f == 1 or g == 1:
            return 1
        if f == 0 or f == g:
            return self._exists(g, levels, levels_key, max_level)
        if g == 0:
            return self._exists(f, levels, levels_key, max_level)
        if f == (g ^ 1):
            return 1
        if f > g:
            f, g = g, f
        levf = self._level[f >> 1]
        levg = self._level[g >> 1]
        top = levf if levf < levg else levg
        if top > max_level:
            return self._and(f, g)
        key = (f, g, levels_key, 0)
        cached = self._andex_cache.get(key)
        if cached is not None:
            self._andex_hits += 1
            return cached
        self._andex_misses += 1
        f1, f0 = self._cofactors_at(f, top)
        g1, g0 = self._cofactors_at(g, top)
        r1 = self._and_exists(f1, g1, levels, levels_key, max_level)
        if top in levels:
            if r1 == 0:
                result = 0
            else:
                r0 = self._and_exists(f0, g0, levels, levels_key, max_level)
                result = self._or(r1, r0)
        else:
            r0 = self._and_exists(f0, g0, levels, levels_key, max_level)
            result = self._mk(top, r1, r0)
        self._andex_cache[key] = result
        return result

    def _restrict_rec(self, f, c):
        if c <= 1 or f <= 1:
            return f
        key = (f, c)
        cached = self._restrict_cache.get(key)
        if cached is not None:
            self._restrict_hits += 1
            return cached
        self._restrict_misses += 1
        lf = self._level[f >> 1]
        lc = self._level[c >> 1]
        if lc < lf:
            c1, c0 = self._cofactors(c)
            result = self._restrict_rec(f, self._or(c1, c0))
        else:
            f1, f0 = self._cofactors(f)
            if lf < lc:
                c1 = c0 = c
            else:
                c1, c0 = self._cofactors(c)
            if c1 == 1:
                result = self._restrict_rec(f0, c0)
            elif c0 == 1:
                result = self._restrict_rec(f1, c1)
            else:
                result = self._mk(lf, self._restrict_rec(f1, c1),
                                  self._restrict_rec(f0, c0))
        self._restrict_cache[key] = result
        return result

    def _constrain_rec(self, f, c):
        if c <= 1 or f <= 1:
            return f
        if f == c:
            return 0
        if f == (c ^ 1):
            return 1
        key = (f, c)
        cached = self._constrain_cache.get(key)
        if cached is not None:
            self._constrain_hits += 1
            return cached
        self._constrain_misses += 1
        lf = self._level[f >> 1]
        lc = self._level[c >> 1]
        top = lf if lf < lc else lc
        f1, f0 = self._cofactors_at(f, top)
        c1, c0 = self._cofactors_at(c, top)
        if c1 == 1:
            result = self._constrain_rec(f0, c0)
        elif c0 == 1:
            result = self._constrain_rec(f1, c1)
        else:
            result = self._mk(top, self._constrain_rec(f1, c1),
                              self._constrain_rec(f0, c0))
        self._constrain_cache[key] = result
        return result


NAMES = [f"v{index}" for index in range(10)]
OPS = ("and", "or", "xor", "ite", "exists", "forall", "and_exists",
       "restrict", "constrain", "compose", "gc", "sift")
#: Script draws: structural events are rarer, so functions grow between
#: them.
WEIGHTED_OPS = OPS[:-2] * 4 + OPS[-2:]


def _stats(manager):
    """stats() minus the one wall-clock entry, which no replay repeats."""
    stats = manager.stats()
    del stats["reorder_time_ms"]
    return stats


def _assert_same(new, ref):
    assert new._level == ref._level
    assert new._high == ref._high
    assert new._low == ref._low
    assert new._unique == ref._unique
    assert new._level_members == ref._level_members
    assert new._ite_cache == ref._ite_cache
    assert new._quant_cache == ref._quant_cache
    assert new._andex_cache == ref._andex_cache
    assert new._restrict_cache == ref._restrict_cache
    assert new._constrain_cache == ref._constrain_cache
    assert new.var_names == ref.var_names
    assert _stats(new) == _stats(ref)


def _operand(manager, rng, pool):
    """A pool member, complemented half the time; constants included."""
    fn = rng.choice(pool)
    return ~fn if rng.random() < 0.5 else fn


def _step(manager, rng, pool, op):
    """Run one operation; returns its result (or None for gc/sift)."""
    a = _operand(manager, rng, pool)
    b = _operand(manager, rng, pool)
    c = _operand(manager, rng, pool)
    names = rng.sample(NAMES, rng.randint(1, 5))
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "ite":
        return manager.ite(a, b, c)
    if op == "exists":
        return a.exists(names)
    if op == "forall":
        return a.forall(names)
    if op == "and_exists":
        return a.and_exists(b, names)
    if op == "restrict":
        # Empty (False) and constant-True care sets are both legal.
        care = rng.choice([b, manager.false, manager.true])
        return a.restrict(care)
    if op == "constrain":
        care = rng.choice([b, manager.false, manager.true])
        return a.constrain(care)
    if op == "compose":
        return a.compose({name: _operand(manager, rng, pool)
                          for name in names[:2]})
    if op == "gc":
        # Drop every third result first so GC frees something.
        survivors = pool[:len(NAMES)] + [
            fn for index, fn in enumerate(pool[len(NAMES):]) if index % 3]
        pool[:] = survivors
        gc.collect()
        manager.garbage_collect()
        return None
    manager.sift(max_vars=4)
    return None


def _initial_pool(manager, rng):
    """Variables, constants and a few random DNFs to start from."""
    pool = [manager.new_var(name) for name in NAMES]
    pool += [manager.true, manager.false]
    pool += [random_function(manager, NAMES, rng, num_cubes=5, cube_len=4)
             for _ in range(8)]
    return pool


def _replay(manager, seed, steps):
    rng = random.Random(seed)
    pool = _initial_pool(manager, rng)
    trail = []
    for _ in range(steps):
        op = rng.choice(WEIGHTED_OPS)
        result = _step(manager, rng, pool, op)
        if result is not None:
            pool.append(result)
            trail.append(result.edge)
        else:
            trail.append(tuple(fn.edge for fn in pool))
    return trail


def _managers():
    new = BDD(kernel="dict")
    ref = ReferenceBDD(kernel="dict")
    assert type(new) is BDD and type(ref) is ReferenceBDD
    return new, ref


@pytest.mark.parametrize("seed", [3, 17, 58, 404, 2026])
def test_random_scripts_match_the_reference(seed):
    new, ref = _managers()
    assert _replay(new, seed, 300) == _replay(ref, seed, 300)
    _assert_same(new, ref)
    assert new.stats()["gc_runs"] > 0


def test_every_operation_matches_step_by_step():
    new, ref = _managers()
    rng_new, rng_ref = random.Random(9), random.Random(9)
    pools = [_initial_pool(new, rng_new), _initial_pool(ref, rng_ref)]
    for op in OPS * 12:
        got = _step(new, rng_new, pools[0], op)
        want = _step(ref, rng_ref, pools[1], op)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.edge == want.edge
            pools[0].append(got)
            pools[1].append(want)
        _assert_same(new, ref)


# ---------------------------------------------------------------------------
# Budget boundaries: both formulations stop at the same node
# ---------------------------------------------------------------------------

WIDTH = 7


def _operands(manager):
    """Operands whose combinations allocate hundreds of nodes.

    Variables are ordered ``x0..x6 y0..y6``, the bad order for bitwise
    comparison, so each operation below is exponential in ``WIDTH``.
    Everything an operation needs is built here, before it starts.
    """
    xs = [manager.new_var(f"x{i}") for i in range(WIDTH)]
    ys = [manager.new_var(f"y{i}") for i in range(WIDTH)]
    eq = manager.true
    par = manager.false
    for x, y in zip(xs, ys):
        eq = eq & x.iff(y)
        par = par ^ (x & y)
    return dict(
        eq=eq, par=par, mix=eq ^ par,
        care=~(xs[0] & ys[WIDTH - 1]),
        subst={f"y{i}": ~xs[WIDTH - 1 - i] ^ ys[i] for i in range(WIDTH)})


OPERATIONS = {
    "ite": lambda m, o: m.ite(o["par"], o["eq"], ~o["par"]),
    "exists": lambda m, o: o["mix"].exists(
        [f"x{i}" for i in range(0, WIDTH, 2)]),
    "and_exists": lambda m, o: o["eq"].and_exists(
        o["par"], [f"x{i}" for i in range(1, WIDTH, 2)]),
    "restrict": lambda m, o: o["mix"].restrict(o["care"]),
    "constrain": lambda m, o: o["mix"].constrain(o["care"]),
    "compose": lambda m, o: o["eq"].compose(o["subst"]),
}


def _prepared(cls):
    manager = cls(kernel="dict")
    operands = _operands(manager)
    return manager, operands


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_node_budget_trips_at_the_same_node(name):
    operation = OPERATIONS[name]
    probe, operands = _prepared(BDD)
    start = len(probe._level)
    operation(probe, operands)
    grown = len(probe._level) - start
    assert grown >= 40, f"{name} allocates too little to split"
    limit = start + grown // 2
    outcomes = []
    for cls in (BDD, ReferenceBDD):
        manager, operands = _prepared(cls)
        assert len(manager._level) == start
        manager.max_nodes = limit
        with pytest.raises(BudgetExceededError) as error:
            operation(manager, operands)
        assert error.value.kind == "node"
        outcomes.append((len(manager._level), manager._level,
                         manager._high, manager._low, _stats(manager)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == limit + 1


class _Clock:
    """A fake ``time.monotonic`` counting its calls; it reads past the
    deadline from call ``expire_after + 1`` on."""

    def __init__(self, expire_after=None):
        self.calls = 0
        self.expire_after = expire_after

    def __call__(self):
        self.calls += 1
        if self.expire_after is not None and self.calls > self.expire_after:
            return 2.0
        return 0.0


def _allocate_under_clock(cls, monkeypatch, clock):
    """Build a 12-bit equality in the bad order (~25k allocations)
    with a deadline of 1.0 on the fake clock; returns the manager and
    the nodes allocated (also when the deadline trips)."""
    manager = cls(kernel="dict")
    xs = [manager.new_var(f"x{i}") for i in range(12)]
    ys = [manager.new_var(f"y{i}") for i in range(12)]
    start = len(manager._level)
    manager._deadline = 1.0
    manager._time_check_countdown = 4096
    monkeypatch.setattr(manager_module.time, "monotonic", clock)
    eq = manager.true
    try:
        for x, y in zip(xs, ys):
            eq = eq & x.iff(y)
    except BudgetExceededError as error:
        assert error.kind == "time"
        return manager, len(manager._level) - start, True
    finally:
        monkeypatch.undo()
    return manager, len(manager._level) - start, False


def test_deadline_is_checked_once_per_4096_allocations(monkeypatch):
    clock = _Clock()
    manager, allocated, tripped = _allocate_under_clock(BDD, monkeypatch,
                                                        clock)
    assert not tripped
    assert allocated >= 3 * 4096
    assert clock.calls == allocated // 4096


def test_deadline_trip_point_matches_the_reference(monkeypatch):
    points = []
    for cls in (BDD, ReferenceBDD):
        clock = _Clock(expire_after=1)
        manager, allocated, tripped = _allocate_under_clock(
            cls, monkeypatch, clock)
        assert tripped
        assert clock.calls == 2
        points.append((allocated, _stats(manager)))
    assert points[0] == points[1]
    # The second check, at the 8192nd allocation, fires before the node
    # is appended.
    assert points[0][0] == 2 * 4096 - 1
