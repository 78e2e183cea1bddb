"""Every program name perfbench's traced breakdown wraps still resolves.

``perfbench/layers.py`` records its per-layer spans by wrapping the
program's entry points where callers look them up (``ENTRY_POINTS``:
module path, attribute path).  Only a ``--trace`` run installs the
wrappers, so a change under ``src/`` that deletes or moves one of those
names would break the traced breakdown without any other check
failing.  This test resolves each entry exactly as ``layers.install``
does, without wrapping anything.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.ENTRY_POINTS
    unresolved = []
    for name, module_name, path in layers.ENTRY_POINTS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            owner.__dict__[attribute]
        except (ImportError, AttributeError, KeyError) as error:
            unresolved.append(f"{name}: {module_name}.{path} ({error!r})")
    assert unresolved == []
