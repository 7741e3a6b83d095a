"""Stochastic workload simulation: processes and causal trigger rules."""

from .._lazy import lazy_exports

_EXPORTS = {
    "PoissonProcess": "processes",
    "RenewalProcess": "processes",
    "CompositeProcess": "processes",
    "uniform_interarrival": "processes",
    "TriggerRule": "rules",
    "RuleSimulator": "rules",
    "SimulationResult": "rules",
    "fixed_delay": "rules",
    "uniform_delay": "rules",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
