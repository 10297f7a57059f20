"""The benchmark's tracer wraps slpforge functions by name; each must exist.

``perfbench/tracer.py`` lists them as ``<module>.<function>`` relative to the
package.  A renamed or deleted function would otherwise only show when
someone runs the benchmark with ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("label", tracer.LAYERS)
def test_layer_names_a_function(label):
    module, name = label.rsplit(".", 1)
    target = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    assert callable(getattr(target, name, None)), label
