"""Shared fixtures for the experiment benchmarks (X1-X10).

Each ``bench_x*.py`` regenerates one artifact of the paper (figure,
worked number, or theorem-level claim); see DESIGN.md's experiment
index and EXPERIMENTS.md for the paper-vs-measured record.  The
workloads come from :mod:`benchmarks.harness`, whose X1-X18 runner
builds them the same way.
"""

import pytest

from repro.granularity import standard_system

from benchmarks import harness


@pytest.fixture(scope="session")
def system():
    return standard_system()


@pytest.fixture(scope="session")
def system_fig3():
    return standard_system(conversion_mode="figure3")


@pytest.fixture(scope="session")
def figure_1a(system):
    return harness.figure_1a(system)


@pytest.fixture(scope="session")
def figure_1b(system):
    return harness.figure_1b(system)


@pytest.fixture(scope="session")
def example1_cet(system):
    return harness.example1_cet(system)


@pytest.fixture(scope="session")
def stock_workload(system):
    """The planted stock feed used by X7/X9/X10 (40 anchors, 90%)."""
    return harness.stock_feed(
        system, n_roots=40, seed=1996, noise_events_per_root=8
    )
