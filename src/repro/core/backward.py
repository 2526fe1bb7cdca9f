"""Conventional backward traversal ("Bkwd" in the paper's tables).

Section II.B: initialize ``G_0 = G`` and compute
``G_{i+1} = G_0 and BackImage(tau, G_i)``.  If the start states ever
leave ``G_i`` there is a length-i violation; otherwise the monotone
sequence converges and verification succeeds.  Like the forward
baseline, the iterates here are single, explicit BDDs — termination
testing is a constant-time pointer comparison, and the blowup risk is
in the iterates themselves.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..bdd.manager import BudgetExceededError, Function
from ..trace import BACK_IMAGE, TERMINATION
from ..fsm.machine import Machine
from ..fsm.image import back_image, resolve_back_image_mode
from ..fsm.trace import Trace, backward_counterexample
from .options import Options
from .result import Outcome, RunRecorder, VerificationResult

__all__ = ["verify_backward"]


def verify_backward(machine: Machine, good_conjuncts: Sequence[Function],
                    options: Optional[Options] = None) -> VerificationResult:
    """Run backward traversal; the good set is conjoined explicitly."""
    if options is None:
        options = Options()
    recorder = RunRecorder("Bkwd", machine.name, machine.manager, options)
    try:
        return _run(machine, good_conjuncts, options, recorder)
    except BudgetExceededError as error:
        return recorder.finish_budget(error)


def _run(machine: Machine, good_conjuncts: Sequence[Function],
         options: Options, recorder: RunRecorder) -> VerificationResult:
    recorder.initial_reorder()
    manager = machine.manager
    tracer = recorder.tracer
    metrics = recorder.metrics
    good = manager.conj(good_conjuncts)
    current = good
    not_rings: List[Function] = [~good]
    recorder.record_iterate(current.size(), str(current.size()),
                            conjuncts=[current])
    if not machine.init.entails(current):
        return _violation(machine, not_rings, options, recorder)
    spans = recorder.spans
    while recorder.iterations < options.max_iterations:
        recorder.check_time()
        recorder.iterations += 1
        with recorder.span("iteration", index=recorder.iterations):
            observed = tracer.enabled or metrics.enabled
            handle = spans.open_span("back_image") \
                if spans.enabled else None
            if observed:
                t0 = time.monotonic()
            mode = resolve_back_image_mode(machine, current,
                                           options.back_image_mode)
            image = back_image(machine, current, mode,
                               options.cluster_limit)
            if observed:
                seconds = time.monotonic() - t0
                if tracer.enabled:
                    tracer.emit(BACK_IMAGE,
                                mode=mode,
                                input_size=current.size(),
                                output_size=image.size(),
                                seconds=round(seconds, 6))
                if metrics.enabled:
                    metrics.inc("back_image_calls")
                    metrics.observe_time("back_image_seconds", seconds)
                    metrics.observe_size("back_image_output_nodes",
                                         image.size())
            if handle is not None:
                spans.close_span(handle, mode=mode,
                                 output_size=image.size())
            successor = good & image
            not_rings.append(~successor)
            recorder.record_iterate(successor.size(), str(successor.size()),
                                    conjuncts=[successor])
            converged = successor.equiv(current)
            if tracer.enabled:
                tracer.emit(TERMINATION, converged=converged,
                            tiers={"canonical": 1})
            if converged:
                return recorder.finish(Outcome.VERIFIED, holds=True)
            if not machine.init.entails(successor):
                return _violation(machine, not_rings, options, recorder)
            current = successor
    return recorder.finish(Outcome.NO_CONVERGENCE, holds=None)


def _violation(machine: Machine, not_rings: Sequence[Function],
               options: Options,
               recorder: RunRecorder) -> VerificationResult:
    trace: Optional[Trace] = None
    if options.want_trace:
        trace = backward_counterexample(machine, not_rings)
    return recorder.finish(Outcome.VIOLATED, holds=False, trace=trace)
