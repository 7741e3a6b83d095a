"""NP-hardness machinery (paper Theorem 1, appendix A.2)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "SubsetSumInstance": "subset_sum",
    "has_subset_sum": "subset_sum",
    "solve_subset_sum": "subset_sum",
    "reduction_structure": "subset_sum",
    "decide_via_reduction": "subset_sum",
    "decode_witness": "subset_sum",
    "ReductionOutcome": "subset_sum",
    "crt_compatible_subset_exists": "subset_sum",
    "subset_congruences_solvable": "subset_sum",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
