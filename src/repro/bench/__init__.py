"""Benchmark regression harness for the X1-X12 experiment suite.

See :mod:`repro.bench.harness` for the machinery and
``docs/PERFORMANCE.md`` for how to run it and read its reports.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "EXPERIMENT_NAMES": "harness",
    "PROFILES": "harness",
    "BenchmarkRegression": "harness",
    "assert_no_regressions": "harness",
    "compare_payloads": "harness",
    "comparison_delta_table": "harness",
    "format_comparison": "harness",
    "load_payload": "harness",
    "run_suite": "harness",
    "save_payload": "harness",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
