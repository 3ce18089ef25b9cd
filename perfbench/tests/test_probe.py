"""Tests for the speed probe (``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import gc
import signal
import time

import pytest

import probe


def busy(seconds: float) -> int:
    ends = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < ends:
        n += 1
    return n


def test_probe_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.SpeedProbe() as p:
        busy(0.5)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # 0.5 s at one sample per 50 ms, give or take the first and last.
    assert 5 <= len(p.samples) <= 11
    assert 0 < p.spent < 0.5
    assert p.slowdown() == pytest.approx(
        sum(p.samples) / len(p.samples) / probe.PROBE_NOMINAL_S
    )
    busy(0.2)
    assert len(p.samples) <= 11  # no samples once it has exited


def test_probe_leaves_the_collector_as_it_found_it():
    for enabled in (True, False):
        gc.enable() if enabled else gc.disable()
        with probe.SpeedProbe():
            busy(0.2)
        assert gc.isenabled() is enabled
    gc.enable()


def test_probe_without_samples_refuses_a_slowdown():
    with probe.SpeedProbe() as p:
        pass
    with pytest.raises(ValueError):
        p.slowdown()
