"""The benchmark's traced run patches layer entry points by name; each must
still be an attribute of the module or class it is looked up on."""

import importlib.util
from pathlib import Path

import pytest

import ecsloc
import ecsloc.transport  # noqa: F401  (layer_targets reads ecsloc.transport)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().layer_targets(ecsloc)


@pytest.mark.parametrize("owner, attr", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_traced_entry_point_exists(owner, attr):
    assert attr in vars(owner)
