"""Frequent complex-event discovery (paper Section 5).

Exports the event/sequence model, the discovery problem and both
solvers, the pruning steps, the MTV95-style baseline, and synthetic
workload generators.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Event": "events",
    "EventSequence": "events",
    "EventDiscoveryProblem": "discovery",
    "DiscoveryOutcome": "discovery",
    "discover": "discovery",
    "naive_discover": "discovery",
    "candidate_assignments": "discovery",
    "PruningStats": "pruning",
    "consistency_gate": "pruning",
    "reduce_sequence": "pruning",
    "required_granularities": "pruning",
    "filter_reference_occurrences": "pruning",
    "screen_candidates": "pruning",
    "screen_candidate_pairs": "pruning",
    "seconds_windows": "pruning",
    "SerialEpisode": "episodes",
    "occurs_within": "episodes",
    "episode_frequency": "episodes",
    "frequent_serial_episodes": "episodes",
    "IncrementalDiscovery": "incremental",
    "CandidateState": "incremental",
    "Evaluation": "evaluation",
    "evaluate_anchors": "evaluation",
    "labelled_planted_workload": "evaluation",
    "sliding_window_count": "windows",
    "sliding_window_frequency": "windows",
    "frequent_episodes_sliding": "windows",
    "random_noise": "generator",
    "sample_instance": "generator",
    "instance_windows": "generator",
    "planted_sequence": "generator",
    "stock_sequence": "generator",
    "atm_sequence": "generator",
    "plant_log_sequence": "generator",
    "TypeConstraint": "discovery",
    "constrained_assignments": "extensions",
    "discover_any_reference": "extensions",
    "tick_anchor_events": "extensions",
    "with_anchors": "extensions",
    "unroll": "extensions",
    "unrolled_assignment": "extensions",
    "STOCK_TYPES": "generator",
    "ATM_TYPES": "generator",
    "PLANT_TYPES": "generator",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
