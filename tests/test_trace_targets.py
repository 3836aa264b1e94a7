"""The benchmark's traced run wraps library methods by name (perfbench/spans.py).

An inherited method cannot be patched in its class's own __dict__, and a
renamed one silently reads 0, so every target must resolve and every
class-owned target must be defined in that class's body.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_targets():
    sys.path.insert(0, str(PERFBENCH))
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
    try:
        from spans import TARGETS
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(PERFBENCH))
    return TARGETS


def test_every_trace_target_resolves_in_its_own_owner():
    targets = load_targets()
    assert targets
    for module_name, attr_path, _ in targets:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        assert getattr(owner, attr, None) is not None, f"{module_name}.{attr_path}"
        if owner_name:
            assert attr in vars(owner), f"{module_name}.{attr_path} is inherited"
