"""Image operators — the paper's Definition 1.

* ``Image(tau, Z)``: states reachable from Z in one transition.
* ``PreImage(tau, Z)``: states that *can* reach Z in one transition.
* ``BackImage(tau, Z)``: states that *must* be in Z after any
  transition — the workhorse of backward traversal.

For our functional machines, with next-state functions ``delta`` and
input assumption ``A``:

* ``BackImage(Z) = forall i. A(s, i) -> Z[s := delta(s, i)]``
* ``PreImage(Z)  = exists i. A(s, i) and Z[s := delta(s, i)]``

so the duality ``BackImage(Z) = not PreImage(not Z)`` noted in the
paper holds by construction, and Theorem 1
(``BackImage(Y and Z) = BackImage(Y) and BackImage(Z)``) follows from
compose and forall distributing over conjunction.  Because of
Theorem 1 the back-image strategy can be picked per conjunct.

``Image`` needs the transition *relation*; we use the partitioned form
with clustered conjuncts and early quantification (Burch–Clarke–Long
[4]) so the monolithic relation is never built.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Sequence, \
    Tuple, Union

from ..bdd.manager import Function
from .machine import Machine, greedy_clusters

__all__ = ["back_image", "pre_image", "image", "ImageComputer",
           "ClusterFold", "RELATIONAL_COST", "resolve_back_image_mode"]

#: ``"auto"`` back-images a conjunct ``z`` relationally when the
#: predicted compose cost ``|z| * sum(|delta_v| for v in supp(z))``
#: exceeds this.  Large conjuncts over many bits make vector compose
#: blow up; below the bar compose is cheaper and needs no clusters.
RELATIONAL_COST = 200_000


def resolve_back_image_mode(machine: Machine, z: Function,
                            mode: str = "auto") -> str:
    """The strategy ``back_image(machine, z, mode)`` runs.

    Returns ``"compose"`` or ``"relational"``; ``"auto"`` resolves by
    the :data:`RELATIONAL_COST` predictor.
    """
    if mode == "auto":
        size = z.size()
        sizes, total = machine.delta_sizes()
        # The sum over all of delta bounds the cost, so small conjuncts
        # are settled without walking their support.
        if size * total <= RELATIONAL_COST:
            return "compose"
        cost = size * sum(sizes[name] for name in z.support())
        return "relational" if cost > RELATIONAL_COST else "compose"
    if mode not in ("compose", "relational"):
        raise ValueError(f"unknown back_image mode {mode!r}")
    return mode


def back_image(machine: Machine, z: Function, mode: str = "auto",
               cluster_limit: int = 2500) -> Function:
    """States all of whose (allowed) successors lie in ``z``.

    ``z`` must range over current-state variables only.  Two
    computation strategies with identical results:

    * ``"compose"`` — substitute the next-state functions into ``z``
      (simultaneous vector compose) and universally quantify the
      inputs.  Cheapest for small ``z``.
    * ``"relational"`` — the duality the paper notes,
      ``BackImage(Z) = not PreImage(not Z)``, computed as one
      early-quantified relational product over the machine's cached
      clusters (:meth:`Machine.clusters`).  Only the clusters whose
      primed variables ``z'`` mentions take part: every cluster is a
      conjunction of functional ``s' <-> delta_s`` terms, so
      quantifying its primed variables away leaves ``true``.

    ``"auto"`` (default) picks one per call with
    :func:`resolve_back_image_mode`.
    """
    mode = resolve_back_image_mode(machine, z, mode)
    if mode == "compose":
        composed = z.compose(machine.delta)
        constrained = machine.assumption.implies(composed)
        return constrained.forall(machine.input_names)
    prime = machine.prime_map()
    needed = {prime[name] for name in z.support()}
    clusters = [cluster for cluster in machine.clusters(cluster_limit)
                if cluster.primed & needed]
    quantify = set(machine.input_names)
    for cluster in clusters:
        quantify |= cluster.primed
    source = machine.assumption & (~z).rename(prime)
    schedule = _schedule([cluster.relation for cluster in clusters],
                         [cluster.support for cluster in clusters],
                         quantify)
    return ~_conjoin_quantify(source, schedule, quantify)


def pre_image(machine: Machine, z: Function) -> Function:
    """States with at least one allowed successor in ``z``."""
    composed = z.compose(machine.delta)
    constrained = machine.assumption & composed
    return constrained.exists(machine.input_names)


def _schedule(relations: Sequence[Function],
              supports: Sequence[AbstractSet[str]],
              quantifiable: AbstractSet[str]
              ) -> List[Tuple[Function, List[str]]]:
    """Pair each relation with the variables dying after it.

    A quantifiable variable dies right after the last relation whose
    support mentions it.
    """
    schedule: List[Tuple[Function, List[str]]] = []
    later: set = set()
    for relation, support in zip(reversed(relations), reversed(supports)):
        dying = sorted(name for name in support
                       if name in quantifiable and name not in later)
        schedule.append((relation, dying))
        later |= support
    schedule.reverse()
    return schedule


def _conjoin_quantify(source: Function,
                      schedule: Sequence[Tuple[Function, List[str]]],
                      quantifiable: AbstractSet[str]) -> Function:
    """``exists quantifiable. source & all relations``, early quantified."""
    result = source
    for relation, dying in schedule:
        result = result.and_exists(relation, dying)
    # Quantify anything left over (variables no relation mentions, e.g.
    # bits of an unused input field).
    leftovers = sorted(result.support() & quantifiable)
    if leftovers:
        result = result.exists(leftovers)
    return result


class ImageComputer:
    """Forward image with clustered partitioned transition relation.

    Uses the machine's cached greedy clusters of the per-bit conjuncts
    ``s' <-> delta_s`` and schedules early quantification: a variable
    is quantified out in the first step after which no later cluster
    mentions it.
    """

    def __init__(self, machine: Machine,
                 cluster_limit: int = 2500) -> None:
        self.machine = machine
        self.manager = machine.manager
        self.cluster_limit = cluster_limit
        clusters = machine.clusters(cluster_limit)
        self._quantify = frozenset(machine.current_names) \
            | frozenset(machine.input_names)
        self._clusters = [cluster.relation for cluster in clusters]
        self._schedule = _schedule(
            self._clusters, [cluster.support for cluster in clusters],
            self._quantify)

    def image(self, reached: Function) -> Function:
        """One forward step: successors of ``reached``."""
        machine = self.machine
        current = _conjoin_quantify(reached & machine.assumption,
                                    self._schedule, self._quantify)
        return current.rename(machine.unprime_map())


class ClusterFold:
    """Greedy clusters of transition ``parts``, each with its support.

    The clusters are built on first use.  :meth:`extend` continues the
    same greedy fold (see :func:`~repro.fsm.machine.greedy_clusters`):
    ``fold.extend(more)`` has exactly the clusters of
    ``ClusterFold(parts + more)``, but clusters only ``more`` and keeps
    the supports of the clusters ``more`` leaves unchanged.  The FD
    engine clusters its independent parts once per iteration and
    extends that fold by one dependent bit at a time.
    """

    def __init__(self, parts: Sequence[Function], cluster_limit: int = 2500,
                 base: Optional["ClusterFold"] = None) -> None:
        self.cluster_limit = cluster_limit
        self._parts = list(parts)
        self._base = base
        self._clusters: Optional[List[Tuple[Function, List[int]]]] = None
        self._supports: List[frozenset] = []

    def extend(self, parts: Sequence[Function]) -> "ClusterFold":
        """The fold continued with ``parts``; ``self`` is unchanged."""
        return ClusterFold(parts, self.cluster_limit, self)

    def relations(self) -> Tuple[List[Function], List[frozenset]]:
        """Each cluster's conjunction and its support, in order."""
        if self._clusters is None:
            start: List[Tuple[Function, List[int]]] = []
            known: List[frozenset] = []
            if self._base is not None:
                self._base.relations()
                start = self._base._clusters
                known = self._base._supports
            clusters = greedy_clusters(self._parts, self.cluster_limit,
                                       start)
            self._supports = [
                known[index]
                if index < len(start) and cluster is start[index]
                else cluster[0].support()
                for index, cluster in enumerate(clusters)]
            self._clusters = clusters
        return ([relation for relation, _members in self._clusters],
                self._supports)


def clustered_image(source: Function,
                    parts: Union[Sequence[Function], ClusterFold],
                    quantify_names: Sequence[str],
                    rename_map: Dict[str, str],
                    cluster_limit: int = 2500) -> Function:
    """Generic one-shot relational image with clustering/early quant.

    Conjoins ``source`` with the transition ``parts`` while
    existentially quantifying ``quantify_names`` as early as possible,
    then renames by ``rename_map``.  Used by the FD engine, whose
    per-iteration transition parts change (dependent variables are
    substituted out), so nothing can be cached on the machine.
    ``parts`` may be a :class:`ClusterFold`, whose clusters (and own
    ``cluster_limit``) are used as they stand.
    """
    fold = parts if isinstance(parts, ClusterFold) \
        else ClusterFold(parts, cluster_limit)
    relations, supports = fold.relations()
    quantifiable = frozenset(quantify_names)
    schedule = _schedule(relations, supports, quantifiable)
    return _conjoin_quantify(source, schedule,
                             quantifiable).rename(rename_map)


def image(machine: Machine, reached: Function,
          cluster_limit: int = 2500) -> Function:
    """One-shot forward image over the machine's cached clusters.

    Engines that iterate should hold an :class:`ImageComputer` so the
    schedule is computed once.
    """
    return ImageComputer(machine, cluster_limit).image(reached)
