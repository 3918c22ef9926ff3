"""Every exported name and every name the benchmark tracer wraps resolves.

A stale `__all__` entry otherwise shows only under `import *`, and a stale
tracer entry only in the traced benchmark runs.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import shufflestar

_MODULES = sorted(m.name for m in pkgutil.iter_modules(shufflestar.__path__))


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"shufflestar.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_traced_name_resolves():
    wrapped = _load_tracing().WRAPPED
    assert wrapped
    missing = []
    for module_name, attr, _layer in wrapped:
        target = importlib.import_module(f"shufflestar.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append((module_name, attr))
    assert missing == []
