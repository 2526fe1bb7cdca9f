"""Image operators vs explicit enumeration, and Theorem 1."""

import importlib

import pytest

from repro import build_model
from repro.bdd import BDD, iter_assignments
from repro.core import Options, verify
from repro.expr import BitVec
from repro.fsm import Builder, ImageComputer, back_image, image, pre_image
from repro.fsm.image import clustered_image, resolve_back_image_mode
from repro.explicit import explicit_reachable
from repro.obs import SpanProfiler
from repro.trace import BACK_IMAGE, RecordingTracer

from conftest import random_function, random_machine, random_property
import random

# ``repro.fsm.image`` the module (the package re-exports a function of
# the same name).
image_module = importlib.import_module("repro.fsm.image")
machine_module = importlib.import_module("repro.fsm.machine")

#: A predictor bar every conjunct clears, so ``auto`` goes relational.
ALWAYS_RELATIONAL = -1


def explicit_images(machine, z_states):
    """Concrete Image/PreImage/BackImage over enumerated states."""
    names = machine.current_names
    all_states = []
    import itertools
    for values in itertools.product([False, True], repeat=len(names)):
        all_states.append(dict(zip(names, values)))
    def successors(state):
        out = []
        import itertools as it
        input_names = machine.input_names
        for ivals in it.product([False, True], repeat=len(input_names)):
            inputs = dict(zip(input_names, ivals))
            if machine.input_allowed(state, inputs):
                out.append(machine.step(state, inputs))
        return out
    def key(state):
        return tuple(state[n] for n in names)
    z_keys = {key(s) for s in z_states}
    img, pre, back = set(), set(), set()
    for state in all_states:
        succs = [key(s) for s in successors(state)]
        if key(state) in z_keys:
            img.update(succs)
        if any(s in z_keys for s in succs):
            pre.add(key(state))
        if succs and all(s in z_keys for s in succs):
            back.add(key(state))
        if not succs:
            back.add(key(state))  # vacuous: no allowed transitions
    return img, pre, back


def region_states(machine, region):
    return [dict(a) for a in iter_assignments(region, machine.current_names)]


def region_keys(machine, region):
    names = machine.current_names
    return {tuple(a[n] for n in names)
            for a in iter_assignments(region, names)}


@pytest.mark.parametrize("seed", range(8))
def test_images_match_explicit_semantics(seed):
    machine = random_machine(seed, num_state_bits=3, num_input_bits=2)
    rng = random.Random(seed + 100)
    z = random_function(machine.manager, machine.current_names, rng)
    z_states = region_states(machine, z)
    want_img, want_pre, want_back = explicit_images(machine, z_states)
    computer = ImageComputer(machine)
    got_img = region_keys(machine, computer.image(z))
    got_pre = region_keys(machine, pre_image(machine, z))
    got_back = region_keys(machine, back_image(machine, z))
    assert got_img == want_img
    assert got_pre == want_pre
    assert got_back == want_back


@pytest.mark.parametrize("seed", range(8))
def test_backimage_is_dual_of_preimage(seed):
    machine = random_machine(seed)
    rng = random.Random(seed + 55)
    z = random_function(machine.manager, machine.current_names, rng)
    dual = ~pre_image(machine, ~z)
    assert back_image(machine, z).equiv(dual)


@pytest.mark.parametrize("seed", range(10))
def test_theorem1_backimage_distributes_over_conjunction(seed, monkeypatch):
    """Theorem 1: BackImage(tau, Y and Z) ==
    BackImage(tau, Y) and BackImage(tau, Z), under ``auto`` on either
    side of the predictor's bar."""
    machine = random_machine(seed)
    rng = random.Random(seed + 7)
    y = random_function(machine.manager, machine.current_names, rng)
    z = random_function(machine.manager, machine.current_names, rng)
    for bar in (image_module.RELATIONAL_COST, ALWAYS_RELATIONAL):
        monkeypatch.setattr(image_module, "RELATIONAL_COST", bar)
        combined = back_image(machine, y & z)
        split = back_image(machine, y) & back_image(machine, z)
        assert combined.equiv(split)


@pytest.mark.parametrize("seed", range(6))
def test_image_does_not_distribute_over_conjunction(seed):
    """The dual property fails for Image in general (the paper's point
    is about conjunction and BackImage / disjunction and Image)."""
    machine = random_machine(seed)
    rng = random.Random(seed + 21)
    y = random_function(machine.manager, machine.current_names, rng)
    z = random_function(machine.manager, machine.current_names, rng)
    computer = ImageComputer(machine)
    combined = computer.image(y | z)
    split = computer.image(y) | computer.image(z)
    # Image distributes over DISjunction:
    assert combined.equiv(split)


def test_forward_reachability_matches_explicit():
    machine = random_machine(3, num_state_bits=4, num_input_bits=2)
    computer = ImageComputer(machine)
    reached = machine.init
    while True:
        successor = reached | computer.image(reached)
        if successor.equiv(reached):
            break
        reached = successor
    states, truncated = explicit_reachable(machine)
    assert not truncated
    assert region_keys(machine, reached) == states


def test_cluster_limit_variation_same_result():
    machine = random_machine(11, num_state_bits=5, num_input_bits=2)
    z = machine.init
    images = [ImageComputer(machine, cluster_limit=limit).image(z)
              for limit in (1, 50, 100000)]
    assert images[0].equiv(images[1])
    assert images[1].equiv(images[2])


def test_clustered_image_generic_helper():
    """clustered_image == plain conjoin-then-quantify-then-rename."""
    machine = random_machine(17, num_state_bits=3, num_input_bits=2)
    manager = machine.manager
    source = machine.init & machine.assumption
    parts = machine.transition_partition()
    quantify = list(machine.current_names) + list(machine.input_names)
    got = clustered_image(source, parts, quantify, machine.unprime_map(),
                          cluster_limit=10)
    naive = source
    for part in parts:
        naive = naive & part
    naive = naive.exists(quantify).rename(machine.unprime_map())
    assert got.equiv(naive)


@pytest.mark.parametrize("seed", range(8))
def test_relational_back_image_equals_compose(seed, monkeypatch):
    """compose, relational and auto agree exactly, also when ``z``
    mentions only some bits and the relational route skips clusters."""
    machine = random_machine(seed, num_state_bits=4, num_input_bits=2)
    rng = random.Random(seed + 77)
    for names in (machine.current_names, machine.current_names[:2]):
        z = random_function(machine.manager, names, rng)
        composed = back_image(machine, z, mode="compose")
        for bar in (image_module.RELATIONAL_COST, ALWAYS_RELATIONAL):
            monkeypatch.setattr(image_module, "RELATIONAL_COST", bar)
            for limit in (2500, 1):
                assert composed.equiv(
                    back_image(machine, z, "relational", limit))
                assert composed.equiv(back_image(machine, z, "auto", limit))
        assert resolve_back_image_mode(machine, z) == "relational"
    # The last z mentions two of four bits, so two one-bit clusters
    # stayed out of its relational product.
    needed = {machine.prime_map()[name] for name in z.support()}
    used = [cluster for cluster in machine.clusters(1)
            if cluster.primed & needed]
    assert len(used) <= 2 < len(machine.clusters(1))


def test_predictor_compares_compose_cost_with_the_bar(monkeypatch):
    """auto goes relational iff |z| * sum(|delta_v|, v in supp z) > bar."""
    machine = random_machine(3, num_state_bits=4)
    sizes, total = machine.delta_sizes()
    assert sizes == {name: fn.size() for name, fn in machine.delta.items()}
    assert total == sum(sizes.values())
    assert machine.delta_sizes() is machine.delta_sizes()
    first, second = machine.current_names[:2]
    z = machine.manager.var(first) ^ machine.manager.var(second)
    cost = z.size() * (sizes[first] + sizes[second])
    assert cost < z.size() * total
    expected = {z.size() * total: "compose", cost: "compose",
                cost - 1: "relational"}
    for bar, mode in expected.items():
        monkeypatch.setattr(image_module, "RELATIONAL_COST", bar)
        assert resolve_back_image_mode(machine, z) == mode
        assert resolve_back_image_mode(machine, z, "auto") == mode
        for forced in ("compose", "relational"):
            assert resolve_back_image_mode(machine, z, forced) == forced
    with pytest.raises(ValueError):
        resolve_back_image_mode(machine, z, "sideways")


def test_cluster_cache_built_once_and_shared(monkeypatch):
    machine = random_machine(9, num_state_bits=5)
    builds = []
    real = machine_module.greedy_clusters

    def counting(parts, cluster_limit):
        builds.append(cluster_limit)
        return real(parts, cluster_limit)

    monkeypatch.setattr(machine_module, "greedy_clusters", counting)
    z = random_function(machine.manager, machine.current_names,
                        random.Random(4))
    for _ in range(2):
        back_image(machine, z, "relational", 1)
        ImageComputer(machine, 1).image(machine.init)
        image(machine, machine.init, 2500)
    assert builds == [1, 2500]
    clusters = machine.clusters(1)
    assert [cluster.primed for cluster in clusters] == [
        frozenset([name]) for name in machine.next_names]
    computer = ImageComputer(machine, 1)
    assert all(mine is cluster.relation
               for mine, cluster in zip(computer._clusters, clusters))


def test_compose_only_run_builds_no_clusters():
    """When every pick is compose the one-off cluster build is skipped,
    so the node peak is that of pure vector compose."""
    problem = build_model("coherence", caches=7)
    result = verify(problem, "xici")
    assert result.verified
    assert problem.machine._clusters == {}
    assert result.peak_nodes == 13_374


def test_trace_and_spans_record_the_resolved_mode():
    problem = build_model("pipeline", regs=2, bits=1)
    tracer, spans = RecordingTracer(), SpanProfiler()
    result = verify(problem, "bkwd", Options(tracer=tracer, spans=spans))
    assert result.verified
    traced = [event["mode"] for event in tracer.events_of(BACK_IMAGE)]
    spanned = [record["attrs"]["mode"] for record in spans.records
               if record["name"] == "back_image"]
    assert traced == spanned
    assert set(traced) == {"compose", "relational"}


def test_back_image_mode_validation():
    machine = random_machine(0)
    with pytest.raises(ValueError):
        back_image(machine, machine.manager.true, mode="sideways")


def test_back_image_of_true_and_false():
    machine = random_machine(5)
    assert back_image(machine, machine.manager.true).is_true
    # BackImage(False) holds only where no transition is allowed; our
    # random machines have unconstrained inputs, so nowhere.
    assert back_image(machine, machine.manager.false).is_false
