"""The paper-artefact benchmarks (X1-X10) and the X1-X18 runner.

A package, so ``benchmarks.harness`` imports from the repository root
under ``pytest benchmarks/``, ``python -m pytest benchmarks/`` and
``python -m benchmarks.harness`` alike.
"""
