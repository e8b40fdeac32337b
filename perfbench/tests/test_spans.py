import sys
import types

import pytest

from spans import (END, GROUP, NAME, OK, PARENT, ROLE, START, Hook, Installed, Tracer,
                   children_of, self_time)
from layers import unattributed_frac


def _span(name, role, start, end, parent):
    return [name, role, start, end, parent, 0, True, None]


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("cmd", "command", 0.0, 10.0, -1),
             _span("a", "layer", 1.0, 3.0, 0),
             _span("b", "layer", 2.0, 5.0, 0),     # overlaps a
             _span("c", "layer", 8.0, 12.0, 0),    # runs past its parent's end
             _span("d", "layer", 1.5, 2.5, 1)]     # grandchild: not the parent's child
    children = children_of(spans)
    assert self_time(spans, 0, children) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(spans, 1, children) == pytest.approx(2.0 - 1.0)
    assert self_time(spans, 2, children) == pytest.approx(3.0)


def test_unattributed_counts_structural_self_time_only():
    spans = [_span("cli.x", "command", 0.0, 10.0, -1),
             _span("loop", "container", 1.0, 9.0, 0),
             _span("step", "unit", 2.0, 8.0, 1),
             _span("work", "layer", 2.5, 7.5, 2)]
    # command 2 + container 2 + unit 1 uncovered; the layer's own time is attributed
    assert unattributed_frac(spans) == pytest.approx(0.5)


def test_units_start_groups_and_close_unwinds():
    tr = Tracer()
    cmd = tr.open("cli.x", "command")
    setup = tr.open("load", "layer")
    tr.close(setup)
    tr.open_unit("step")
    inner = tr.open("encode", "layer")
    tr.open("gnn", "layer")
    tr.close(inner)                       # ends the still-open child too
    tr.close_unit("step")
    tr.open_unit("step")
    tr.close(cmd, ok=False)               # a command that fails mid-step
    s = tr.spans
    assert [x[NAME] for x in s] == ["cli.x", "load", "step", "encode", "gnn", "step"]
    assert s[1][GROUP] == s[0][GROUP]
    assert s[3][GROUP] == s[4][GROUP] == s[2][GROUP] != s[0][GROUP]
    assert s[5][GROUP] not in (s[0][GROUP], s[2][GROUP])
    assert s[4][PARENT] == 3 and s[3][PARENT] == 2 and s[2][PARENT] == 0
    assert all(x[END] is not None and x[END] >= x[START] for x in s)
    assert s[2][OK] and not s[5][OK] and not s[0][OK]


def test_next_unit_of_a_kind_ends_the_previous_one():
    tr = Tracer()
    tr.open("cli.eval-lp", "command")
    tr.open_unit("query")                 # skipped: never reaches scoring
    tr.open_unit("query")
    assert tr.spans[1][END] is not None and tr.spans[2][PARENT] == 0


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Engine:
        def run(self, x):
            return x * 2

    core.work, core.Engine = work, Engine
    user.work = work                      # `from .core import work`
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        sys.modules.pop(name)


def test_hooks_wrap_every_binding_and_restore(fake_package):
    core, user = fake_package
    original, original_run = core.work, core.Engine.run
    hooks = [Hook("fakepkg.core:work", "core.work"),
             Hook("fakepkg.core:Engine.run", "core.run", role="container"),
             Hook("fakepkg.core:gone", "core.gone")]
    tr = Tracer()
    installed = Installed(tr, hooks, traced=True, package="fakepkg")
    assert installed.missing == ["fakepkg.core:gone"]
    assert core.work is user.work is not original
    assert user.work(1) == 2 and core.Engine().run(3) == 6
    assert [s[NAME] for s in tr.spans] == ["core.work", "core.run"]
    installed.remove()
    assert core.work is user.work is original and core.Engine.run is original_run


def test_untraced_hooks_keep_only_structure(fake_package):
    core, user = fake_package
    hooks = [Hook("fakepkg.core:work", "core.work"),
             Hook("fakepkg.core:Engine.run", "core.run", role="container")]
    tr = Tracer()
    installed = Installed(tr, hooks, traced=False, package="fakepkg")
    user.work(1)
    core.Engine().run(1)
    installed.remove()
    assert [(s[NAME], s[ROLE]) for s in tr.spans] == [("core.run", "container")]


class CountingGauge:
    def __init__(self):
        self.ticks = []

    def tick(self, force=False):
        self.ticks.append(force)


def test_untraced_probe_points_tick_the_gauge_without_spans(fake_package):
    core, user = fake_package
    hooks = [Hook("fakepkg.core:work", "core.work", probe=True),
             Hook("fakepkg.core:Engine.run", "core.run", opens="step", closes="step")]
    gauge = CountingGauge()
    tr = Tracer(gauge)
    installed = Installed(tr, hooks, traced=False, package="fakepkg")
    user.work(1)                          # a probe point
    core.Engine().run(1)                  # a unit: probes before it opens and after it closes
    installed.remove()
    assert gauge.ticks == [False, False, False]
    assert [(s[NAME], s[ROLE]) for s in tr.spans] == [("step", "unit")]
    assert Tracer().net(1.0, 3.0) == 2.0 == Tracer().normalised(1.0, 3.0)


def test_failed_call_marks_its_span(fake_package):
    core, _ = fake_package

    def boom(x):
        raise KeyError(x)

    core.work = boom
    tr = Tracer()
    installed = Installed(tr, [Hook("fakepkg.core:work", "core.work")], True, "fakepkg")
    with pytest.raises(KeyError):
        core.work(1)
    installed.remove()
    assert tr.spans[0][OK] is False and tr.spans[0][END] is not None
