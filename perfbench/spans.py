"""Spans recorded from outside the program, by wrapping its public functions.

A span is one call (or one step, question or query) with its name, start,
end, parent and group. Spans of one step, question or query share a group
id; spans outside any of them share their command's group. Spans stay in
memory until the run writes them out.

Roles:
  command    one CLI invocation, opened by the benchmark itself;
  container  a loop function (pretrain.train, finetune.evaluate_mcqa, ...):
             its self time is loop overhead, so it counts as unattributed;
  unit       a step, question or query, opened and closed at hook boundaries;
  layer      a call into one module's public function: attributed time;
  marker     no span of its own, only opens or closes a unit.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

NAME, ROLE, START, END, PARENT, GROUP, OK, INFO = range(8)
STRUCTURAL = ("command", "container", "unit")


class Tracer:
    """Spans recorded by the hooks; with a `speed.Gauge` (untraced repetitions),
    also the machine-speed probes that `tick` runs at unit boundaries and
    probe points."""

    def __init__(self, gauge=None) -> None:
        self.spans: list[list] = []
        self.gauge = gauge
        self._stack: list[int] = []
        self._groups = 0

    def tick(self, force: bool = False) -> None:
        if self.gauge is not None:
            self.gauge.tick(force)

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the probes run inside it."""
        return self.gauge.net(start, end) if self.gauge is not None else end - start

    def normalised(self, start: float, end: float) -> float:
        """`net` at the unloaded machine's speed (see speed.py); `net` without a gauge."""
        return self.gauge.normalised(start, end) if self.gauge is not None else end - start

    def open(self, name: str, role: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if role in ("command", "unit") or parent < 0:
            self._groups += 1
            group = self._groups
        else:
            group = self.spans[parent][GROUP]
        self.spans.append([name, role, time.perf_counter(), None, parent, group, True, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, ok: bool = True) -> None:
        """End span `idx` and every span still open inside it."""
        if idx not in self._stack:
            return  # already ended when an enclosing span unwound
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = now
            self.spans[top][OK] = ok
            if top == idx:
                return

    def innermost(self, role: str) -> int:
        for idx in reversed(self._stack):
            if self.spans[idx][ROLE] == role:
                return idx
        return -1

    def open_unit(self, kind: str) -> None:
        top = self._stack[-1] if self._stack else -1
        if top >= 0 and self.spans[top][ROLE] == "unit" and self.spans[top][NAME] == kind:
            self.close(top)  # a query skipped before scoring ends when the next begins
        self.tick()
        self.open(kind, "unit")

    def close_unit(self, kind: str) -> None:
        idx = self.innermost("unit")
        if idx >= 0 and self.spans[idx][NAME] == kind:
            self.close(idx)
            self.tick()


def self_time(spans: list[list], idx: int, children: dict[int, list[int]]) -> float:
    """Duration of span `idx` minus the part of it that its children cover."""
    start, end = spans[idx][START], spans[idx][END]
    covered, reach = 0.0, start
    for c in sorted(children.get(idx, ()), key=lambda i: spans[i][START]):
        lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def children_of(spans: list[list]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            out.setdefault(s[PARENT], []).append(i)
    return out


@dataclass
class Hook:
    """One wrapped callable. `target` is "module:attr" or "module:Class.method"."""
    target: str
    name: str
    role: str = "layer"                 # layer spans are recorded only when traced
    opens: str | None = None            # unit kind opened on entry ...
    opens_under: str | None = None      # ... when this container is the innermost one
    closes: str | None = None           # unit kind closed on exit
    observe: Callable | None = None     # (args, result) -> info dict for the span
    probe: bool = False                 # a point where the tracer's gauge may probe


def _resolve(target: str):
    mod_name, attr = target.split(":")
    owner = sys.modules[mod_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Installed:
    """Hooks applied to the imported program; `remove()` puts the originals back.

    A function is replaced in every program module that bound it by name, so
    `from .encoder import encode` call sites are wrapped too. A target the
    program no longer defines is skipped and listed in `missing`.
    """

    def __init__(self, tracer: Tracer, hooks: list[Hook], traced: bool, package: str):
        self.tracer = tracer
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for hook in hooks:
            if hook.role == "layer" and not traced and not (hook.opens or hook.closes
                                                            or hook.probe):
                continue  # untraced runs keep only the hooks that time commands and units
            try:
                owner, attr = _resolve(hook.target)
                original = vars(owner)[attr]
            except (KeyError, AttributeError):
                self.missing.append(hook.target)
                continue
            wrapped = self._wrap(original, hook, traced)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, fn, hook: Hook, traced: bool):
        tracer = self.tracer
        own_span = hook.role == "container" or (hook.role == "layer" and traced)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook.probe:
                tracer.tick()
            if hook.opens and (hook.opens_under is None
                               or _innermost_container(tracer) == hook.opens_under):
                tracer.open_unit(hook.opens)
            idx = tracer.open(hook.name, hook.role) if own_span else -1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if idx >= 0:
                    tracer.close(idx, ok=False)
                raise
            if idx >= 0:
                if hook.observe is not None and traced:
                    tracer.spans[idx][INFO] = hook.observe(args, result)
                tracer.close(idx)
            if hook.closes:
                tracer.close_unit(hook.closes)
            return result

        return wrapper


def _innermost_container(tracer: Tracer) -> str | None:
    idx = tracer.innermost("container")
    return tracer.spans[idx][NAME] if idx >= 0 else None
