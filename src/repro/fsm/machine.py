"""Symbolic finite-state machines (substrate S3).

The paper's verification paradigm (Section II): a single
non-deterministic finite-state machine with state space Q, transition
relation tau, start states S, and a set of good states G; verify that
no path from S leaves G.

Our machines are *functional*: every state bit has a next-state
function over current-state and input variables, and all
non-determinism lives in the free input variables (optionally
constrained by an input assumption).  This matches how the Ever
verifier compiled high-level descriptions [18], and it is exactly the
form for which Theorem 1 makes ``BackImage`` distribute over implicit
conjunctions at zero cost (vector compose is conjunct-wise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, \
    Tuple

from ..bdd.manager import BDD, Function

__all__ = ["StateBit", "Cluster", "Machine", "greedy_clusters"]


@dataclass(frozen=True)
class StateBit:
    """One register bit: its current/primed variables and next function."""

    name: str
    next_name: str
    next_fn: Function
    init_value: Optional[bool]


class Cluster(NamedTuple):
    """A conjunction of transition conjuncts ``s' <-> delta_s``."""

    relation: Function
    #: Primed variables of the conjuncts merged into ``relation``.
    primed: frozenset
    #: ``relation.support()``, kept for quantification schedules.
    support: frozenset


def greedy_clusters(parts: Sequence[Function], cluster_limit: int,
                    start: Sequence[Tuple[Function, List[int]]] = ()
                    ) -> List[Tuple[Function, List[int]]]:
    """Conjoin consecutive ``parts`` while the product stays small.

    A part joins the open cluster unless the merged BDD would exceed
    ``cluster_limit`` nodes.  Returns each cluster with the indices of
    the parts it conjoins.

    The clustering is a left fold over ``parts``, and ``start`` — an
    earlier result — continues it: ``greedy_clusters(b, n,
    greedy_clusters(a, n))`` equals ``greedy_clusters(a + b, n)``.
    ``start`` is left unmodified, and every cluster the new parts do
    not touch is returned as the same tuple object.
    """
    clusters = list(start)
    first = clusters[-1][1][-1] + 1 if clusters else 0
    for index, part in enumerate(parts, first):
        if clusters:
            current, members = clusters[-1]
            merged = current & part
            if merged.size() <= cluster_limit:
                clusters[-1] = (merged, members + [index])
                continue
        clusters.append((part, [index]))
    return clusters


class Machine:
    """A symbolic FSM: functional transitions plus an input assumption.

    Use :class:`repro.fsm.Builder` to construct one; this class is the
    immutable result consumed by the verification engines.
    """

    def __init__(self, manager: BDD, state_bits: Sequence[StateBit],
                 input_names: Sequence[str], assumption: Function,
                 init: Function, name: str = "machine") -> None:
        self.manager = manager
        self.state_bits: Tuple[StateBit, ...] = tuple(state_bits)
        self.input_names: Tuple[str, ...] = tuple(input_names)
        self.assumption = assumption
        self.init = init
        self.name = name
        self.current_names: Tuple[str, ...] = tuple(
            b.name for b in self.state_bits)
        self.next_names: Tuple[str, ...] = tuple(
            b.next_name for b in self.state_bits)
        self.delta: Dict[str, Function] = {
            b.name: b.next_fn for b in self.state_bits}
        self._transition_partition: Optional[List[Function]] = None
        self._clusters: Dict[int, Tuple[Cluster, ...]] = {}
        self._delta_sizes: Optional[Tuple[Dict[str, int], int]] = None

    # -- structure ---------------------------------------------------------

    @property
    def num_state_bits(self) -> int:
        """Number of register bits."""
        return len(self.state_bits)

    def prime_map(self) -> Dict[str, str]:
        """Rename map from current to primed variable names."""
        return dict(zip(self.current_names, self.next_names))

    def unprime_map(self) -> Dict[str, str]:
        """Rename map from primed to current variable names."""
        return dict(zip(self.next_names, self.current_names))

    def transition_partition(self) -> List[Function]:
        """Per-bit transition conjuncts ``s' <-> delta_s`` (cached).

        Together with the input assumption these form the partitioned
        transition relation (Burch–Clarke–Long [4]) used by the forward
        traversal baseline; the monolithic relation is never built.
        """
        if self._transition_partition is None:
            parts = []
            for bit in self.state_bits:
                primed = self.manager.var(bit.next_name)
                parts.append(primed.iff(bit.next_fn))
            self._transition_partition = parts
        return self._transition_partition

    def clusters(self, cluster_limit: int) -> Tuple[Cluster, ...]:
        """Greedy clusters of :meth:`transition_partition` (cached).

        Built on first use for each ``cluster_limit`` and shared by
        every image computation over this machine.
        """
        cached = self._clusters.get(cluster_limit)
        if cached is None:
            cached = tuple(
                Cluster(relation,
                        frozenset(self.next_names[i] for i in members),
                        relation.support())
                for relation, members in greedy_clusters(
                    self.transition_partition(), cluster_limit))
            self._clusters[cluster_limit] = cached
        return cached

    def delta_sizes(self) -> Tuple[Dict[str, int], int]:
        """Node count of each next-state function, and their sum (cached).

        Measured once, so the counts go stale if the variable order
        changes later; they only steer a cost prediction.
        """
        if self._delta_sizes is None:
            sizes = {name: fn.size() for name, fn in self.delta.items()}
            self._delta_sizes = (sizes, sum(sizes.values()))
        return self._delta_sizes

    # -- well-formedness -----------------------------------------------------

    def check(self) -> None:
        """Validate internal consistency; raises ValueError on problems."""
        legal = set(self.current_names) | set(self.input_names)
        for bit in self.state_bits:
            extra = bit.next_fn.support() - legal
            if extra:
                raise ValueError(
                    f"next-state function of {bit.name!r} depends on "
                    f"non-state, non-input variables: {sorted(extra)}")
        extra = self.assumption.support() - set(self.input_names) \
            - set(self.current_names)
        if extra:
            raise ValueError(
                f"assumption depends on unexpected variables: "
                f"{sorted(extra)}")
        extra = self.init.support() - set(self.current_names)
        if extra:
            raise ValueError(
                f"init predicate depends on non-state variables: "
                f"{sorted(extra)}")
        if self.init.is_false:
            raise ValueError("machine has no initial states")

    # -- concrete semantics ---------------------------------------------------

    def step(self, state: Mapping[str, bool],
             inputs: Mapping[str, bool]) -> Dict[str, bool]:
        """Concrete successor state (used by the explicit-state oracle)."""
        assignment = dict(state)
        assignment.update(inputs)
        return {bit.name: bit.next_fn.evaluate(assignment)
                for bit in self.state_bits}

    def input_allowed(self, state: Mapping[str, bool],
                      inputs: Mapping[str, bool]) -> bool:
        """Whether an input assignment satisfies the assumption."""
        assignment = dict(state)
        assignment.update(inputs)
        return self.assumption.evaluate(assignment)

    def __repr__(self) -> str:
        return (f"Machine({self.name!r}, state_bits="
                f"{self.num_state_bits}, inputs={len(self.input_names)})")
