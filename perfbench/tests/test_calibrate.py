"""The reference loop is fixed work, and latencies scale by its times around them."""

import pytest

import calibrate


def test_loop_does_fixed_work():
    assert calibrate._work() == calibrate.EXPECTED
    assert calibrate.loop_seconds() > 0


def test_latency_scales_by_the_loop_times_before_and_after(monkeypatch):
    times = iter([0.002, 0.006, 0.010])
    monkeypatch.setattr(calibrate, "loop_seconds", lambda: next(times))
    monkeypatch.setattr(calibrate, "STALE_S", 0.0)
    clock = calibrate.Clock()
    assert clock.scale(1.0) == pytest.approx(calibrate.REFERENCE_S / 0.004)
    assert clock.scale(2.0) == pytest.approx(2.0 * calibrate.REFERENCE_S / 0.008)
    assert clock.factors == pytest.approx(
        [calibrate.REFERENCE_S / 0.004, calibrate.REFERENCE_S / 0.008]
    )


def test_a_recent_loop_time_is_reused(monkeypatch):
    times = iter([0.004])
    monkeypatch.setattr(calibrate, "loop_seconds", lambda: next(times))
    monkeypatch.setattr(calibrate, "STALE_S", 60.0)
    clock = calibrate.Clock()
    assert clock.scale(1.0) == pytest.approx(calibrate.REFERENCE_S / 0.004)
