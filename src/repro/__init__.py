"""repro: multi-granularity temporal constraints, TAGs, and event mining.

A from-scratch reproduction of Bettini, Wang & Jajodia, *Testing Complex
Temporal Relationships Involving Multiple Granularities and Its
Application to Data Mining* (PODS 1996).

Layers (each importable on its own):

* :mod:`repro.granularity` - temporal types over a discrete timeline,
  calendar/business calendars, size tables, constraint conversion;
* :mod:`repro.constraints` - TCGs, event structures, STP solving,
  approximate propagation (Theorem 2), exact consistency;
* :mod:`repro.automata` - timed automata with granularities (TAGs),
  construction from complex event types (Theorem 3), online matching
  (Theorem 4), and the exact reference matcher;
* :mod:`repro.mining` - event-discovery problems, the naive and the
  optimised five-step solver, the MTV95-style baseline, generators;
* :mod:`repro.hardness` - the Theorem 1 SUBSET SUM reduction;
* :mod:`repro.resilience` - reorder buffers with watermarks,
  degradation policies, quarantine channels and fault injection that
  keep the streaming path alive under dirty real-world feeds;
* :mod:`repro.service` - the multi-tenant streaming detection service:
  per-tenant circuit breakers, bounded ingress queues with shedding,
  and checkpoint-backed LRU session eviction with crash recovery;
* :mod:`repro.core` - a small facade for the common path.

The names re-exported here, and by each layer's package, are imported
on first use, so ``import repro`` loads no layer.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Each public name and the layer that defines it; a layer is imported
#: the first time one of its names is read.
_EXPORTS = {
    "TCG": "constraints",
    "EventStructure": "constraints",
    "ComplexEventType": "constraints",
    "propagate": "constraints",
    "TemporalType": "granularity",
    "GranularitySystem": "granularity",
    "standard_system": "granularity",
    "build_tag": "automata",
    "TagMatcher": "automata",
    "StreamingMatcher": "automata",
    "StructureBuilder": "constraints",
    "Event": "mining",
    "EventSequence": "mining",
    "EventDiscoveryProblem": "mining",
    "discover": "mining",
    "check_consistency": "core",
    "compile_pattern": "core",
    "count_pattern": "core",
    "pattern_frequency": "core",
    "mine": "core",
    "stream_pattern": "core",
    "EventValidationError": "resilience",
    "StreamFeedError": "resilience",
    "Quarantine": "resilience",
    "ReorderBuffer": "resilience",
    "FaultInjector": "resilience",
    "DetectionService": "service",
    "ServiceConfig": "service",
    "ServiceDetection": "service",
    "serve_events": "service",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
