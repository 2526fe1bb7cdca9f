"""One seed gives the same inputs, verdicts and exact counts."""

import run
from workloads import generate

EXACT = ("bdd.ite_calls", "bdd.nodes_created", "iclist.pairs_built",
         "fsm.back_image_calls")


def test_seed_fixes_order_and_draw():
    assert generate("short-mixed", 7) == generate("short-mixed", 7)
    assert generate("short-mixed", 7) != generate("short-mixed", 8)
    assert sorted(generate("back-image", 7), key=str) == \
        sorted(generate("back-image", 8), key=str)


def test_two_runs_with_one_seed_repeat_verdicts_and_counts(repro):
    cases = generate("short-mixed", 3)
    first, second = (run.run_pass(repro, cases, traced=True)
                     for _ in range(2))
    assert not first.failures and not second.failures
    assert first.verdicts == second.verdicts
    first_layers, second_layers = (run.layer_metrics(p)
                                   for p in (first, second))
    for name in EXACT:
        assert first_layers[name] == second_layers[name] > 0, name
