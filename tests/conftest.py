"""Shared fixtures: granularity systems and the paper's example structures."""

import pytest

from repro.constraints import TCG, EventStructure
from repro.granularity import standard_system


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
    bday = system.get("b-day")
    hour = system.get("hour")
    week = system.get("week")
    return EventStructure(
        ["X0", "X1", "X2", "X3"],
        {
            ("X0", "X1"): [TCG(1, 1, bday)],
            ("X1", "X3"): [TCG(0, 1, week)],
            ("X0", "X2"): [TCG(0, 5, bday)],
            ("X2", "X3"): [TCG(0, 8, hour)],
        },
    )


@pytest.fixture(scope="session")
def figure_1b(system):
    """The month/year disjunction gadget of the paper's Figure 1(b)."""
    month = system.get("month")
    year = system.get("year")
    return EventStructure(
        ["X0", "X1", "X2", "X3"],
        {
            ("X0", "X1"): [TCG(11, 11, month), TCG(0, 0, year)],
            ("X0", "X2"): [TCG(0, 12, month)],
            ("X2", "X3"): [TCG(11, 11, month), TCG(0, 0, year)],
        },
    )


@pytest.fixture(params=["numpy", "fallback"])
def closure_kernel(request, monkeypatch):
    """Run the test with numpy present or hidden.

    The STP closure is the only code that consults numpy.  ``numpy``
    drops the ``auto`` crossover to zero variables, so every closure the
    test reaches runs numpy; ``fallback`` nulls the closure module's
    numpy binding, as ``REPRO_NO_NUMPY`` does, so every closure runs the
    python loop.  Columnar answers must not move between the two.
    """
    from repro.constraints import stp

    if request.param == "numpy":
        if stp._np is None:
            pytest.skip("numpy unavailable")
        monkeypatch.setattr(stp, "_NUMPY_MIN_VARIABLES", 0)
    else:
        monkeypatch.setattr(stp, "_np", None)
    return request.param
