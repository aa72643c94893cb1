"""The benchmark's tracer still finds, wraps and restores every traced binding.

``bench/tracing.py`` names package functions and kernel methods by
string.  A refactor that renames or drops one breaks only the traced
benchmark run; installing and uninstalling the tracer here makes it a
Tier-1 failure instead.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


def _bindings(tracing):
    """(owner, attribute, object) for every binding the tracer swaps."""
    out = []
    modules = tracing._mfglab_modules()
    for _, mod, attr in tracing.FUNCTIONS:
        original = getattr(sys.modules[f"mfglab.{mod}"], attr)
        out += [(m, key, original) for m in modules for key, value in vars(m).items() if value is original]
    for _, cls_name, attr in tracing.METHODS:
        cls = getattr(tracing.mfglab, cls_name)
        out.append((cls, attr, cls.__dict__[attr]))
    return out


def test_install_wraps_and_uninstall_restores(tracing):
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [(owner, key) for owner, key, original in before if vars(owner)[key] is not original]
    finally:
        tracer.uninstall()
    assert len(wrapped) == len(before)
    for owner, key, original in before:
        assert vars(owner)[key] is original, f"{owner.__name__}.{key} not restored"
