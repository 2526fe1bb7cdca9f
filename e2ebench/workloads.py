"""Workload definitions: the cases each workload runs, as plain data.

A case is one ``repro.build_model(...)`` -> ``repro.verify(...)`` call.
Cases never pin ``kernel``, ``apply``, ``back_image_mode`` or
``cluster_limit``, so a change of program default shows up as an
end-to-end move.  The only budget a case may set is ``max_nodes``,
because node budgets stop a run at the same point every time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Case", "WORKLOADS", "TIME_LIMIT_S", "catalogue",
           "generate", "warmup_case"]

#: Safety net on every case; a case that reaches it counts as failed.
TIME_LIMIT_S = 20.0


@dataclass(frozen=True)
class Case:
    """One verification call, identified by :attr:`key`."""

    model: str
    params: Tuple[Tuple[str, int], ...]
    method: str
    bug: Optional[str] = None
    assisted: bool = False
    max_nodes: Optional[int] = None

    @property
    def key(self) -> str:
        params = ",".join(f"{name}={value}" for name, value in self.params)
        text = f"{self.model}/{params}/{self.method}"
        if self.bug is not None:
            text += f"/bug={self.bug}"
        if self.assisted:
            text += "/assisted"
        if self.max_nodes is not None:
            text += f"/max_nodes={self.max_nodes}"
        return text


def _case(model: str, method: str, bug: Optional[str] = None,
          assisted: bool = False, max_nodes: Optional[int] = None,
          **params: int) -> Case:
    return Case(model, tuple(params.items()), method, bug, assisted,
                max_nodes)


# Why each workload exists is in BENCHMARK.json; in short: back_image
# dominates the first, the iclist evaluator and simplifier the second,
# the forward image the third.
_BACK_IMAGE = [
    _case("pipeline", "xici", regs=2, bits=1),
    _case("pipeline", "bkwd", regs=2, bits=1),
    _case("movavg", "xici", depth=8, width=8),          # Table 2 row
]

_CONJ_POLICY = [
    _case("ring", "xici", nodes=12),
    _case("coherence", "xici", caches=7),
    _case("coherence", "xici", caches=9),
]

_FWD_RELPROD = [
    _case("fifo", "fwd", depth=5, width=8),
    _case("network", "fwd", procs=4),
    _case("network", "fd", procs=3),
]


def catalogue() -> List[Case]:
    """The ``short-mixed`` catalogue.

    Every case is small enough for the explicit-state oracle to confirm
    its verdict, which is why the FIFO and filter rows of Table 1 run
    at narrow data widths here.
    """
    cases: List[Case] = []
    # Table 1 quick rows, proving.
    for depth in (3, 5):
        for method in ("bkwd", "ici", "xici"):
            cases.append(_case("fifo", method, depth=depth, width=3))
    # network/procs=3/fd is left to fwd-relprod: at 0.6 s it would be
    # most of a short-mixed pass.
    for procs, methods in ((2, ("bkwd", "fd", "ici", "xici")),
                           (3, ("bkwd", "ici", "xici"))):
        for method in methods:
            cases.append(_case("network", method, procs=procs))
    for depth, width in ((2, 3), (4, 2)):
        for method in ("bkwd", "ici", "xici"):
            cases.append(_case("movavg", method, depth=depth, width=width,
                               assisted=method != "bkwd"))
    # Every model's bug variant, refuted with a counterexample.
    bugs = [("fifo", "1", dict(depth=3, width=8)),
            ("network", "1", dict(procs=3)),
            ("movavg", "1", dict(depth=4, width=2)),
            ("ring", "1", dict(nodes=4)),
            ("philosophers", "1", dict(phils=4)),
            ("coherence", "no-invalidate", dict(caches=3)),
            ("coherence", "double-owner", dict(caches=3)),
            ("abp", "1", dict(width=4))]
    for model, bug, params in bugs:
        for method in ("xici", "bkwd"):
            cases.append(_case(model, method, bug=bug, **params))
    # Node-capped rows that exhaust their budget.
    cases.append(_case("movavg", "fwd", max_nodes=20_000, depth=4, width=2))
    cases.append(_case("network", "fwd", max_nodes=20_000, procs=3))
    return cases


#: Copies of every catalogue case in one ``short-mixed`` pass.
SHORT_MIXED_COPIES = 3
#: Cases a ``short-mixed`` pass draws on top of the copies.
SHORT_MIXED_EXTRA = 12

WORKLOADS: Dict[str, List[Case]] = {
    "back-image": _BACK_IMAGE,
    "conj-policy": _CONJ_POLICY,
    "fwd-relprod": _FWD_RELPROD,
    "short-mixed": catalogue(),
}


def generate(workload: str, seed: int) -> List[Case]:
    """The cases of one pass, in order, from the workload seed.

    The seed fixes the case order and, on ``short-mixed``, which cheap
    cases are drawn on top of the copies of the catalogue.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool = WORKLOADS[workload]
    cases = list(pool)
    if workload == "short-mixed":
        # The draw picks among the 3-bit FIFO and filter proofs, all a
        # few times faster than the median case, so the seed changes the
        # mix without moving the rank of either verdict-time percentile.
        cheap = [case for case in pool if case.model in ("fifo", "movavg")
                 and ("width", 3) in case.params]
        cases = cases * SHORT_MIXED_COPIES + [
            rng.choice(cheap) for _ in range(SHORT_MIXED_EXTRA)]
    rng.shuffle(cases)
    return cases


def warmup_case() -> Case:
    """A tiny case run once during set-up, before anything is timed."""
    return _case("fifo", "xici", depth=3, width=3)
