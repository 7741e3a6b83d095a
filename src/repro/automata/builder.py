"""TAG construction from complex event types (Theorem 3, appendix A.2).

The four steps of the paper's procedure:

1. decompose the structure into root-to-leaf chains covering every arc;
2. build a simple TAG per chain - each transition consumes the chain's
   next variable, resets all of the chain's clocks, and is guarded by
   the TCGs of the arc it crosses (clocks tick in the TCG granularity);
3. combine the chain TAGs with a cross product, adding ANY self-loops so
   unrelated events can be skipped;
4. substitute event types for variable symbols via ``phi``.

Cross-product semantics: a product transition on variable ``X`` advances
*every* chain containing ``X`` simultaneously.  Because structure nodes
are distinctly labelled (the property the paper's footnote relies on)
and timestamps are non-decreasing along chains, this synchronised
product recognises exactly the binding semantics of complex events,
which the test suite verifies against the reference matcher.

The construction is polynomial in the size of the structure; the product
state space is the product of chain lengths (the paper's ``p`` chains),
built lazily from the reachable states only.
"""

from __future__ import annotations

import marshal
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..constraints.structure import ComplexEventType, EventStructure
from ..granularity.registry import GranularitySystem
from ..obs import counter, span
from .clocks import And, Clock, ClockConstraint, TrueConstraint, within
from .tag import ANY, TAG, Transition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .dense import BankKernel, DenseBatch, DenseTAG

_BUILDS = counter("repro_tag_builds_total", "TAG constructions")
_STATES = counter(
    "repro_tag_states_total", "Reachable product states constructed"
)
_TRANSITIONS_BUILT = counter(
    "repro_tag_transitions_built_total", "Transitions constructed"
)


def clock_name(chain_index: int, granularity_label: str) -> str:
    """Canonical name of a chain-local clock: ``c<chain>:<granularity>``."""
    return "c%d:%s" % (chain_index, granularity_label)


@dataclass
class TagBuild:
    """A built TAG together with its construction metadata, and its
    compiled form - built once, shared by every matcher over it."""

    tag: TAG
    complex_event_type: ComplexEventType
    chains: List[Tuple[str, ...]]
    #: var -> list of (chain index, position within chain)
    variable_positions: Dict[str, List[Tuple[int, int]]]

    @property
    def structure(self) -> EventStructure:
        return self.complex_event_type.structure

    @property
    def root_symbol(self) -> str:
        """The event type assigned to the root variable."""
        return self.complex_event_type.event_type(self.structure.root)

    @cached_property
    def dense(self) -> "DenseTAG":
        """The TAG's dense transition tables."""
        return self.tag.compile_dense()

    @cached_property
    def bank(self) -> "DenseBatch":
        """The dense tables as a bank of one."""
        from .dense import DenseBatch

        return DenseBatch([self.dense])

    @property
    def kernel(self) -> "BankKernel":
        """The bank's advance kernel, anchored at the root variable."""
        return self.bank.kernel(self.root_symbol, self.structure.root)

    @cached_property
    def pattern_encoding(self) -> bytes:
        """The pattern's checkpoint form
        (:func:`~repro.io.serialize.complex_event_type_to_dict`),
        encoded once and frozen as :mod:`marshal` bytes.

        Checkpoint writes and restores decode it instead of encoding
        the pattern again; each decode is a private copy, so editing a
        checkpoint never edits the build.  Marshal holds plain values
        only, and decodes in about half the time the pattern takes to
        encode.
        """
        from ..io.serialize import complex_event_type_to_dict

        return marshal.dumps(
            complex_event_type_to_dict(self.complex_event_type)
        )


def build_tag(
    complex_event_type: ComplexEventType,
    system: Optional[GranularitySystem] = None,
) -> TagBuild:
    """Construct the TAG recognising occurrences of a complex event type.

    When a granularity ``system`` is given, clock granularities are
    resolved through it, so every clock of every TAG built against the
    same system shares the registered type instances (and therefore the
    system's size tables and the process-wide conversion cache) instead
    of holding private copies.
    """
    structure = complex_event_type.structure
    with span(
        "tag.build", variables=len(structure.variables)
    ) as build_span:
        build = _build_tag(complex_event_type, structure, system)
        build_span.set(
            states=len(build.tag.states),
            transitions=len(build.tag.transitions),
            chains=len(build.chains),
        )
    _BUILDS.inc()
    _STATES.add(len(build.tag.states))
    _TRANSITIONS_BUILT.add(len(build.tag.transitions))
    return build


def _build_tag(
    complex_event_type: ComplexEventType,
    structure: EventStructure,
    system: Optional[GranularitySystem],
) -> TagBuild:
    chains = structure.chains()
    variable_positions: Dict[str, List[Tuple[int, int]]] = {}
    for chain_index, chain in enumerate(chains):
        for position, variable in enumerate(chain):
            variable_positions.setdefault(variable, []).append(
                (chain_index, position)
            )

    clocks = _chain_clocks(structure, chains, system)
    chain_clock_names = [
        frozenset(
            name
            for name in clocks
            if name.startswith("c%d:" % chain_index)
        )
        for chain_index in range(len(chains))
    ]

    start = tuple(0 for _ in chains)
    accepting_state = tuple(len(chain) for chain in chains)
    states = {start}
    transitions: List[Transition] = []
    queue = deque([start])
    while queue:
        state = queue.popleft()
        # Skip transition: stay put on any input.
        transitions.append(
            Transition(source=state, target=state, symbol=ANY)
        )
        for variable, positions in variable_positions.items():
            if not all(state[ci] == pos for ci, pos in positions):
                continue
            guard_parts: List[ClockConstraint] = []
            resets = set()
            target = list(state)
            for chain_index, position in positions:
                chain = chains[chain_index]
                if position > 0:
                    previous = chain[position - 1]
                    for tcg in structure.tcgs(previous, variable):
                        guard_parts.append(
                            within(
                                clock_name(chain_index, tcg.label),
                                tcg.m,
                                tcg.n,
                            )
                        )
                resets |= chain_clock_names[chain_index]
                target[chain_index] = position + 1
            target_state = tuple(target)
            guard = And(guard_parts) if guard_parts else TrueConstraint()
            transitions.append(
                Transition(
                    source=state,
                    target=target_state,
                    symbol=complex_event_type.event_type(variable),
                    resets=frozenset(resets),
                    guard=guard,
                    variables=(variable,),
                )
            )
            if target_state not in states:
                states.add(target_state)
                queue.append(target_state)

    alphabet = set(complex_event_type.assignment.values())
    tag = TAG(
        alphabet=alphabet,
        states=states,
        start_states=[start],
        clocks=clocks.values(),
        transitions=transitions,
        accepting=[accepting_state] if accepting_state in states else [],
    )
    return TagBuild(
        tag=tag,
        complex_event_type=complex_event_type,
        chains=chains,
        variable_positions=variable_positions,
    )


def _chain_clocks(
    structure: EventStructure,
    chains: Sequence[Tuple[str, ...]],
    system: Optional[GranularitySystem] = None,
) -> Dict[str, Clock]:
    """One clock per (chain, granularity appearing in that chain)."""
    clocks: Dict[str, Clock] = {}
    for chain_index, chain in enumerate(chains):
        for position in range(1, len(chain)):
            for tcg in structure.tcgs(chain[position - 1], chain[position]):
                name = clock_name(chain_index, tcg.label)
                if name not in clocks:
                    granularity = (
                        system.resolve(tcg.granularity)
                        if system is not None
                        else tcg.granularity
                    )
                    clocks[name] = Clock(name, granularity)
    return clocks
