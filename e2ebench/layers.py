"""Outside-in layer tracing: spans around calls into each layer.

The traced run replaces the names the engine modules bind (for example
``repro.core.xici.back_image``) and a few class methods with wrappers
that record a span per call.  Spans live in memory as
``(name, start_ns, end_ns, parent, case)`` rows; a layer's self time is
its spans' durations minus the part their child spans cover.

Every case runs inside a ``case`` span holding a ``models.build`` and a
``core.verify`` span, so the layer self times plus
``core.unattributed`` (the self time of ``case`` and ``core.verify``)
add up exactly to the traced pass time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

__all__ = ["GuardError", "SpanRecorder", "WRAP_POINTS", "installed",
           "layer_self_ns", "span_counts"]

#: ``(module, attribute path, span name)`` of every wrapped call.  The
#: engines import layer functions by name, so the wrapper goes on the
#: name each engine module binds; methods go on their class.
WRAP_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.xici", "back_image", "fsm.back_image"),
    ("repro.core.backward", "back_image", "fsm.back_image"),
    ("repro.core.ici", "back_image", "fsm.back_image"),
    ("repro.fsm.image", "ImageComputer.image", "fsm.image"),
    ("repro.core.fd", "clustered_image", "fsm.image"),
    ("repro.fsm.image", "ImageComputer.__init__", "fsm.partition"),
    ("repro.fsm.machine", "Machine.transition_partition", "fsm.partition"),
    ("repro.core.backward", "backward_counterexample",
     "fsm.counterexample"),
    ("repro.core.forward", "forward_counterexample", "fsm.counterexample"),
    ("repro.core.fd", "forward_counterexample", "fsm.counterexample"),
    ("repro.core.xici", "implicit_backward_counterexample",
     "fsm.counterexample"),
    ("repro.core.ici", "implicit_backward_counterexample",
     "fsm.counterexample"),
    ("repro.iclist.conjlist", "ConjList.simplify", "iclist.simplify"),
    ("repro.core.xici", "greedy_evaluate", "iclist.evaluate"),
    ("repro.core.xici", "lists_equal", "iclist.termination"),
    ("repro.bdd.manager", "BDD.garbage_collect", "bdd.gc"),
)

class GuardError(RuntimeError):
    """The traced run contradicts the workload design."""


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.case: Optional[str] = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.case])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper


def _resolve(module_name: str, path: str) -> Tuple[object, str]:
    """The object owning the last name of ``path``, and that name."""
    *parents, attribute = path.split(".")
    try:
        owner: object = importlib.import_module(module_name)
        for parent in parents:
            owner = getattr(owner, parent)
    except (ImportError, AttributeError):
        owner = None
    if owner is None or attribute not in vars(owner):
        raise GuardError(f"wrapped name {module_name}.{path} is missing")
    return owner, attribute


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every :data:`WRAP_POINTS` name for the ``with`` block.

    Raises :class:`GuardError` when a name no longer exists, so a
    refactor that moves a call site fails the traced run loudly.
    """
    targets = [(_resolve(module, path), span)
               for module, path, span in WRAP_POINTS]
    originals = []
    try:
        for (owner, attribute), span in targets:
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(span, original))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def layer_self_ns(spans: List[list]) -> Counter:
    """Self time per span name, in nanoseconds."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _case in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: Counter = Counter()
    for index, (name, start, end, _parent, _case) in enumerate(spans):
        totals[name] += (end - start) - child_ns[index]
    return totals


def span_counts(spans: List[list]) -> Counter:
    """Number of spans per span name."""
    return Counter(row[0] for row in spans)
