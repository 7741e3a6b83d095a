"""Shared fixtures: granularity systems and the paper's example structures."""

import pytest

from repro.granularity import standard_system

from benchmarks import harness


@pytest.fixture(scope="session")
def system():
    """The standard granularity system (direct conversions), shared so
    size tables and conversion caches are built once per test run."""
    return standard_system()


@pytest.fixture(scope="session")
def system_fig3():
    """The standard system using the paper's Figure 3 table conversions."""
    return standard_system(conversion_mode="figure3")


@pytest.fixture(scope="session")
def figure_1a(system):
    """The stock event structure of the paper's Figure 1(a)."""
    return harness.figure_1a(system)


@pytest.fixture(scope="session")
def figure_1b(system):
    """The month/year disjunction gadget of the paper's Figure 1(b)."""
    return harness.figure_1b(system)


@pytest.fixture(params=["numpy", "fallback"])
def closure_kernel(request, monkeypatch):
    """Run the test with every STP closure on numpy, then on the python
    loop.

    The STP closure is the only code that consults numpy.  ``numpy``
    drops the size crossover to zero variables, so every closure the
    test reaches runs numpy; ``fallback`` nulls the closure module's
    numpy binding, as on a machine without numpy, so every closure runs
    the python loop.  Columnar answers must not move between the two.
    """
    from repro.constraints import stp

    if request.param == "numpy":
        if stp._np is None:
            pytest.skip("numpy unavailable")
        monkeypatch.setattr(stp, "_NUMPY_MIN_VARIABLES", 0)
    else:
        monkeypatch.setattr(stp, "_np", None)
    return request.param
