"""The benchmark (perfbench/) finds step, question and query boundaries by
wrapping program functions by name; a rename that loses one would silently
drop units from its timings, so every such name must still resolve."""

import importlib
import os
import sys

import pytest

import dragonforge.cli  # noqa: F401  (imports every module the hooks name)

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture
def hooks(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("layers").HOOKS


def resolve(target: str):
    module, attr = target.split(":")
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert part in vars(owner), "%s is gone" % target
        owner = vars(owner)[part]
    return owner


def test_every_hook_resolves(hooks):
    # traced runs also wrap the per-layer functions; a renamed one would
    # silently drop its per-layer metric (e.g. encoder.gnn_ms_per_step)
    names = {h.name for h in hooks}
    assert {"encoder.transformer", "encoder.gnn", "encoder.mint", "encoder.encode"} <= names
    for hook in hooks:
        assert callable(resolve(hook.target)), hook.target


def test_untraced_boundary_hooks_resolve(hooks):
    # the hooks that untraced benchmark runs install (see spans.Installed)
    untraced = [h for h in hooks if h.role != "layer" or h.opens or h.closes or h.probe]
    assert untraced
    for hook in untraced:
        module, attr = hook.target.split(":")
        owner = importlib.import_module(module)
        for part in attr.split("."):
            assert part in vars(owner), "%s is gone" % hook.target
            owner = vars(owner)[part]
        assert callable(owner), hook.target
