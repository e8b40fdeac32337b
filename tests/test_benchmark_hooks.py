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
