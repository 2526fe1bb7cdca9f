"""Expected results of every benchmark case, written by hand.

Each row is ``(outcome, iterations, max_iterate_nodes, holds)``:

* ``outcome`` is the :class:`repro.Outcome` string the run must return.
* ``iterations`` and ``max_iterate_nodes`` are exact.  Rows marked
  ``# T`` are the values recorded in ``docs/TABLES_QUICK.txt`` (and, for
  ``network/procs=4/fwd``, the paper-scale table of EXPERIMENTS.md); the
  others were pinned by running the case once.
* ``holds`` is whether the property is true of the design, as the
  explicit-state oracle confirms for the ``short-mixed`` catalogue.

Rows that must exhaust their node budget pin only the outcome: how far a
capped run gets before the budget stops it moves with any change to
node usage, which is not a wrong answer.  Such a row that instead
reaches the correct verdict inside its budget passes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["REFERENCE", "check"]

V, X, N = "verified", "violated", "node budget exceeded"

REFERENCE: Dict[str, Tuple[str, Optional[int], Optional[int], bool]] = {
    # back-image
    "pipeline/regs=2,bits=1/xici": (V, 3, 2691, True),              # T
    "pipeline/regs=2,bits=1/bkwd": (V, 3, 2691, True),              # T
    "movavg/depth=8,width=8/xici": (V, 3, 324, True),               # T
    # conj-policy
    "ring/nodes=12/xici": (V, 3, 116, True),
    "coherence/caches=7/xici": (V, 1, 47, True),
    "coherence/caches=9/xici": (V, 1, 63, True),
    # fwd-relprod
    "fifo/depth=5,width=8/fwd": (V, 6, 543, True),                  # T
    "network/procs=4/fwd": (V, 13, 1699, True),                     # T
    "network/procs=3/fd": (V, 10, 170, True),                       # T
    # short-mixed: Table 1 quick rows
    "fifo/depth=3,width=3/bkwd": (V, 1, 27, True),
    "fifo/depth=3,width=3/ici": (V, 1, 10, True),
    "fifo/depth=3,width=3/xici": (V, 1, 10, True),
    "fifo/depth=5,width=3/bkwd": (V, 1, 143, True),
    "fifo/depth=5,width=3/ici": (V, 1, 16, True),
    "fifo/depth=5,width=3/xici": (V, 1, 16, True),
    "network/procs=2/bkwd": (V, 1, 47, True),                       # T
    "network/procs=2/fd": (V, 7, 43, True),                         # T
    "network/procs=2/ici": (V, 1, 39, True),                        # T
    "network/procs=2/xici": (V, 1, 47, True),                       # T
    "network/procs=3/bkwd": (V, 1, 205, True),                      # T
    "network/procs=3/ici": (V, 1, 106, True),                       # T
    "network/procs=3/xici": (V, 1, 127, True),                      # T
    "movavg/depth=2,width=3/bkwd": (V, 1, 9, True),
    "movavg/depth=2,width=3/ici/assisted": (V, 1, 9, True),
    "movavg/depth=2,width=3/xici/assisted": (V, 1, 12, True),
    "movavg/depth=4,width=2/bkwd": (V, 2, 22, True),
    "movavg/depth=4,width=2/ici/assisted": (V, 1, 34, True),
    "movavg/depth=4,width=2/xici/assisted": (V, 1, 38, True),
    # short-mixed: bug variants
    "fifo/depth=3,width=8/xici/bug=1": (X, 1, 25, False),
    "fifo/depth=3,width=8/bkwd/bug=1": (X, 1, 87, False),
    "network/procs=3/xici/bug=1": (X, 3, 137, False),
    "network/procs=3/bkwd/bug=1": (X, 3, 220, False),
    "movavg/depth=4,width=2/xici/bug=1": (X, 4, 27, False),
    "movavg/depth=4,width=2/bkwd/bug=1": (X, 4, 27, False),
    "ring/nodes=4/xici/bug=1": (X, 3, 28, False),
    "ring/nodes=4/bkwd/bug=1": (X, 3, 28, False),
    "philosophers/phils=4/xici/bug=1": (X, 4, 37, False),
    "philosophers/phils=4/bkwd/bug=1": (X, 4, 37, False),
    "coherence/caches=3/xici/bug=no-invalidate": (X, 2, 15, False),
    "coherence/caches=3/bkwd/bug=no-invalidate": (X, 2, 15, False),
    "coherence/caches=3/xici/bug=double-owner": (X, 2, 15, False),
    "coherence/caches=3/bkwd/bug=double-owner": (X, 2, 15, False),
    "abp/width=4/xici/bug=1": (X, 1, 72, False),
    "abp/width=4/bkwd/bug=1": (X, 1, 157, False),
    # short-mixed: node-capped rows
    "movavg/depth=4,width=2/fwd/max_nodes=20000": (N, None, None, True),
    "network/procs=3/fwd/max_nodes=20000": (N, None, None, True),
}


def check(key: str, problem, result) -> Optional[str]:
    """Why ``result`` of case ``key`` is wrong, or None when it is right.

    ``problem`` is the :class:`repro.Problem` the case built; a returned
    counterexample must replay on its machine from an initial state to a
    state that breaks the property.
    """
    outcome, iterations, max_nodes, holds = REFERENCE[key]
    if outcome == N and not result.exhausted:
        want = V if holds else X
        if result.outcome != want:
            return f"outcome {result.outcome!r}, expected {want!r}"
    elif result.outcome != outcome:
        return f"outcome {result.outcome!r}, expected {outcome!r}"
    elif outcome != N and (result.iterations, result.max_iterate_nodes) \
            != (iterations, max_nodes):
        return (f"iterations/max nodes {result.iterations}/"
                f"{result.max_iterate_nodes}, expected "
                f"{iterations}/{max_nodes}")
    if result.outcome == X:
        return _check_counterexample(problem, result.trace)
    return None


def _check_counterexample(problem, trace) -> Optional[str]:
    if trace is None or len(trace) == 0:
        return "violated without a counterexample"
    machine = problem.machine
    if not trace.replay_check(machine):
        return "counterexample fails replay_check"
    states = trace.states()
    if not machine.init.evaluate(states[0]):
        return "counterexample does not start in an initial state"
    if all(conjunct.evaluate(states[-1])
           for conjunct in problem.conjuncts()):
        return "counterexample ends in a good state"
    return None
