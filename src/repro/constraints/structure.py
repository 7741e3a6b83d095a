"""Event structures: rooted DAGs of event variables with TCG edges.

An event structure ``(W, A, Gamma)`` (paper Section 3) assigns to each
arc a *conjunction* of TCGs.  This module provides construction with
validation (acyclicity, unique root reaching every variable), traversal
helpers used by the propagation/automata layers, complex event types
(structures with variables instantiated to event types), and the
*induced approximated sub-structures* of Section 5.1.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .tcg import TCG

Arc = Tuple[str, str]


class EventStructure:
    """A rooted DAG over event variables with conjunctive TCG labels.

    Variables are identified by strings.  The structure is immutable
    after construction; use :meth:`with_constraints` to derive a new
    structure with additional/tightened constraints (as the propagation
    algorithm does).
    """

    def __init__(
        self,
        variables: Iterable[str],
        constraints: Mapping[Arc, Sequence[TCG]],
    ):
        self.variables: Tuple[str, ...] = tuple(dict.fromkeys(variables))
        if not self.variables:
            raise ValueError("an event structure needs at least one variable")
        var_set = set(self.variables)
        self.constraints: Dict[Arc, Tuple[TCG, ...]] = {}
        for (src, dst), tcgs in constraints.items():
            if src not in var_set or dst not in var_set:
                raise ValueError("arc (%r, %r) uses unknown variable" % (src, dst))
            if src == dst:
                raise ValueError("self-loop on %r is not allowed" % (src,))
            tcgs = tuple(tcgs)
            if not tcgs:
                raise ValueError("arc (%r, %r) has no TCGs" % (src, dst))
            self.constraints[(src, dst)] = tcgs
        self._succ: Dict[str, List[str]] = {v: [] for v in self.variables}
        self._pred: Dict[str, List[str]] = {v: [] for v in self.variables}
        for src, dst in self.constraints:
            self._succ[src].append(dst)
            self._pred[dst].append(src)
        self.root = self._validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> str:
        order = self.topological_order()
        if order is None:
            raise ValueError("event structure graph contains a cycle")
        roots = [v for v in self.variables if not self._pred[v]]
        for candidate in roots:
            if self._reaches_all(candidate):
                return candidate
        raise ValueError(
            "event structure has no root reaching every variable"
        )

    def _reaches_all(self, start: str) -> bool:
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nxt in self._succ[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == len(self.variables)

    # ------------------------------------------------------------------
    # Graph traversal helpers
    # ------------------------------------------------------------------
    def successors(self, variable: str) -> Tuple[str, ...]:
        """Out-neighbours of a variable."""
        return tuple(self._succ[variable])

    def predecessors(self, variable: str) -> Tuple[str, ...]:
        """In-neighbours of a variable."""
        return tuple(self._pred[variable])

    def arcs(self) -> Tuple[Arc, ...]:
        """All arcs, in insertion order."""
        return tuple(self.constraints)

    def tcgs(self, src: str, dst: str) -> Tuple[TCG, ...]:
        """The conjunction of TCGs on an arc (empty if no arc)."""
        return self.constraints.get((src, dst), ())

    def topological_order(self) -> Optional[Tuple[str, ...]]:
        """Kahn topological sort; None if the graph is cyclic."""
        indeg = {v: len(self._pred[v]) for v in self.variables}
        queue = deque(v for v in self.variables if indeg[v] == 0)
        order: List[str] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for nxt in self._succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        if len(order) != len(self.variables):
            return None
        return tuple(order)

    def leaves(self) -> Tuple[str, ...]:
        """Variables with no outgoing arcs."""
        return tuple(v for v in self.variables if not self._succ[v])

    def granularities(self):
        """The set ``M`` of temporal types appearing in the constraints."""
        seen = {}
        for tcgs in self.constraints.values():
            for constraint in tcgs:
                seen.setdefault(constraint.label, constraint.granularity)
        return list(seen.values())

    def has_path(self, src: str, dst: str) -> bool:
        """Is there a directed path from ``src`` to ``dst``?"""
        if src == dst:
            return True
        seen = {src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nxt in self._succ[node]:
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_constraints(
        self, constraints: Mapping[Arc, Sequence[TCG]]
    ) -> "EventStructure":
        """A new structure over the same variables with given constraints."""
        return EventStructure(self.variables, constraints)

    def is_satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        """Do concrete timestamps satisfy every TCG of the structure?"""
        for (src, dst), tcgs in self.constraints.items():
            t1, t2 = assignment[src], assignment[dst]
            if not all(c.is_satisfied(t1, t2) for c in tcgs):
                return False
        return True

    def chains(self) -> List[Tuple[str, ...]]:
        """Root-to-leaf chains covering every arc (Theorem 3, Step 1).

        Greedy cover: repeatedly route a root-to-leaf path through the
        earliest still-uncovered arc, preferring uncovered arcs when
        extending.  The result covers all arcs with a near-minimal number
        of chains (minimality is not required for correctness).
        """
        uncovered: Set[Arc] = set(self.constraints)
        chains: List[Tuple[str, ...]] = []
        order = self.topological_order()
        assert order is not None  # validated at construction
        position = {v: i for i, v in enumerate(order)}
        while uncovered:
            # Ties go to the first arc inserted: the TAG states and clock
            # names checkpoints record must not depend on set order.
            target = min(
                (arc for arc in self.constraints if arc in uncovered),
                key=lambda arc: position[arc[0]],
            )
            path = self._path(self.root, target[0])
            path.append(target[1])
            uncovered.discard(target)
            # Extend to a leaf, preferring uncovered arcs.
            node = target[1]
            while self._succ[node]:
                nxt = None
                for candidate in self._succ[node]:
                    if (node, candidate) in uncovered:
                        nxt = candidate
                        break
                if nxt is None:
                    nxt = self._succ[node][0]
                uncovered.discard((node, nxt))
                path.append(nxt)
                node = nxt
            # Mark the prefix arcs covered too.
            for i in range(len(path) - 1):
                uncovered.discard((path[i], path[i + 1]))
            chains.append(tuple(path))
        if not chains:  # single-variable structure
            chains.append((self.root,))
        return chains

    def _path(self, src: str, dst: str) -> List[str]:
        """Some directed path src -> dst (exists for dst reachable)."""
        if src == dst:
            return [src]
        parents: Dict[str, str] = {}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            for nxt in self._succ[node]:
                if nxt not in parents and nxt != src:
                    parents[nxt] = node
                    if nxt == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    queue.append(nxt)
        raise ValueError("no path from %r to %r" % (src, dst))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arcs = ", ".join(
            "%s->%s:%s" % (s, d, "&".join(map(str, cs)))
            for (s, d), cs in self.constraints.items()
        )
        return "<EventStructure root=%s [%s]>" % (self.root, arcs)


class ComplexEventType:
    """An event structure with variables instantiated to event types."""

    def __init__(self, structure: EventStructure, assignment: Mapping[str, str]):
        missing = set(structure.variables) - set(assignment)
        if missing:
            raise ValueError("assignment missing variables: %r" % (missing,))
        self.structure = structure
        self.assignment: Dict[str, str] = dict(assignment)

    def event_type(self, variable: str) -> str:
        """The event type assigned to a variable (the paper's ``phi``)."""
        return self.assignment[variable]

    def event_types(self) -> FrozenSet[str]:
        """All event types used by the assignment."""
        return frozenset(self.assignment.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexEventType):
            return NotImplemented
        return (
            self.structure is other.structure
            and self.assignment == other.assignment
        )

    def __hash__(self) -> int:
        return hash((id(self.structure), tuple(sorted(self.assignment.items()))))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(
            "%s=%s" % (v, self.assignment[v]) for v in self.structure.variables
        )
        return "<ComplexEventType %s>" % pairs
