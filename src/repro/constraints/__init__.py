"""TCGs, event structures, STP solving, propagation and consistency.

Implements Section 3 (and appendix A.2's hardness-relevant machinery) of
the paper: temporal constraints with granularities, event structures,
the single-granularity Simple Temporal Problem substrate, the sound
polynomial approximate propagation, and the exact exponential check.
"""

from .._lazy import lazy_exports

# ``tcg`` names both a submodule and the function it defines.  The first
# import of a submodule binds it on the package, so the function is
# bound here, before anything can import the submodule.
from .tcg import tcg

_EXPORTS = {
    "TCG": "tcg",
    "tcg": "tcg",
    "EventStructure": "structure",
    "ComplexEventType": "structure",
    "STP": "stp",
    "InconsistentSTP": "stp",
    "INF": "stp",
    "have_numpy": "stp",
    "solve_intervals": "stp",
    "propagate": "propagation",
    "PropagationResult": "propagation",
    "check_consistency_approx": "propagation",
    "check_consistency_exact": "consistency",
    "ConsistencyReport": "consistency",
    "candidate_instants": "consistency",
    "distance_values": "consistency",
    "exact_distance_sets": "analysis",
    "minimal_intervals": "analysis",
    "find_disjunctions": "analysis",
    "Disjunction": "analysis",
    "tightness_report": "analysis",
    "TightnessRow": "analysis",
    "dominates": "minimize",
    "UnsatisfiableConjunction": "minimize",
    "minimal_tcg_set": "minimize",
    "StructureBuilder": "builder",
    "parse_tcg": "builder",
    "parse_tcg_conjunction": "builder",
    "structure_from_text": "builder",
    "entails": "entailment",
    "subsumes": "entailment",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
