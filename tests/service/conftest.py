"""Shared fixtures for the detection-service tests."""

import asyncio

import pytest

from repro.automata.builder import build_tag
from repro.constraints import TCG, ComplexEventType, EventStructure
from repro.granularity.gregorian import SECONDS_PER_HOUR

H = SECONDS_PER_HOUR


@pytest.fixture
def chain_build(system):
    """The compiled a -> b -> c chain TAG (hops within [0, 2] hours)."""
    hour = system.get("hour")
    structure = EventStructure(
        ["A", "B", "C"],
        {
            ("A", "B"): [TCG(0, 2, hour)],
            ("B", "C"): [TCG(0, 2, hour)],
        },
    )
    cet = ComplexEventType(structure, {"A": "a", "B": "b", "C": "c"})
    return build_tag(cet, system=system)


@pytest.fixture
def run():
    """Run a coroutine to completion on a fresh event loop."""
    return asyncio.run


class FakeClock:
    """A manually advanced monotonic clock for breaker determinism."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()
