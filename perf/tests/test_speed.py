"""The speed probes sample the core while a measurement runs."""

import time

import pytest

import speed


def test_probe_samples_the_window(tmp_path):
    with speed.Probe(str(tmp_path)) as probe:
        start = time.monotonic()
        time.sleep(0.3)
        end = time.monotonic()
    assert probe.helper.returncode == 0
    inside = probe.window(start, end)
    assert len(inside) >= 5
    assert all(duration > 0 for duration in inside)
    assert probe.factor(start, end) > 0


def test_window_falls_back_to_the_nearest_probes():
    probe = speed.Probe("unused")
    probe.starts = [1.0, 2.0, 3.0]
    probe.durations = [2e-4, 3e-4, 4e-4]
    assert probe.window(2.1, 2.2) == [3e-4, 4e-4]
    assert probe.window(0.0, 2.5) == [2e-4, 3e-4]
    assert probe.slowdown(0.0, 2.5) == pytest.approx(2.5e-4 / speed.PROBE_S)
    assert probe.factor(0.0, 2.5) == pytest.approx(
        (2.5e-4 / speed.PROBE_S) ** -speed.ELASTICITY)
