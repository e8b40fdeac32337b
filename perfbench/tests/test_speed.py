import pytest

import speed
from speed import Gauge


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _gauge(monkeypatch, durations):
    """A gauge whose probes take `durations` in turn on a fake clock."""
    clock = FakeClock()
    monkeypatch.setattr(speed.time, "perf_counter", clock)
    it = iter(durations)

    def probe():
        clock.now += next(it)

    return Gauge(probe), clock


def test_tick_waits_for_the_gap_unless_forced(monkeypatch):
    g, clock = _gauge(monkeypatch, [0.001] * 4)
    g.tick()
    clock.now += 0.01
    g.tick()                     # sooner than GAP_S after the last probe
    g.tick(force=True)
    clock.now += 0.05
    g.tick()
    assert len(g.starts) == 3
    assert g.starts == sorted(g.starts) and all(e > s for s, e in zip(g.starts, g.ends))


def test_net_leaves_out_the_probes_inside(monkeypatch):
    g, clock = _gauge(monkeypatch, [0.002, 0.003, 0.004])
    g.tick()                     # 0.000-0.002
    clock.now = 1.0
    g.tick()                     # 1.000-1.003
    clock.now = 1.5
    g.tick()                     # 1.500-1.504
    assert g.net(0.002, 1.5) == pytest.approx(1.498 - 0.003)
    assert g.net(0.5, 0.9) == pytest.approx(0.4)
    assert g.net(0.0, 2.0) == pytest.approx(2.0 - 0.009)


def test_slowdown_uses_nearby_probes_and_the_neighbours(monkeypatch):
    ref = speed.REF_PROBE_S
    g, clock = _gauge(monkeypatch, [ref, 2 * ref, 2 * ref, 3 * ref, ref])
    for t in (0.0, 1.0, 1.05, 1.2, 5.0):
        clock.now = t
        g.tick()
    # probes near [1.1, 1.15]: 1.0 (within the window), 1.05 (before), 1.2 (after)
    assert g.slowdown(1.1, 1.15) == pytest.approx(2.0)
    # nothing within the window of [3, 4]: the probes at 1.2 and 5.0 bracket it
    assert g.slowdown(3.0, 4.0) == pytest.approx(2.0)
    assert g.normalised(3.0, 4.0) == pytest.approx(0.5)
    assert Gauge(lambda: None).slowdown(0.0, 1.0) == 1.0
