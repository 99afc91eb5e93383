"""Every package function the benchmark's tracer wraps must still exist.

``perfbench/layers.py`` names the traced functions as "<module>.<name>"
and the tracer looks each one up with ``getattr``, so renaming or
deleting one of them would break ``perfbench/run.py --trace 1``.  The
file is loaded read-only, from its path, without importing the rest of
the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers() -> dict:
    """``LAYERS`` of ``perfbench/layers.py``, loaded from its path."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.LAYERS


def test_traced_layers_resolve_to_callables():
    layers = load_layers()
    assert layers
    for name in layers:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"hybridpolar.{module_name}")
        assert callable(getattr(module, attr, None)), f"{name} is not a callable"
