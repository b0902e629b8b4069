"""The functions the benchmark tracer wraps still exist.

``bench/tracer.py`` patches each ``module.attr`` or ``module.Class.attr``
it lists; a rename or a merge in ``ttm`` that drops one of them would break
``bench/run.py --trace 1``.  This reads both lists from the tracer itself.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANNED + tracer.COUNTED


@pytest.mark.parametrize("module,path", traced_names(),
                         ids=lambda x: x if isinstance(x, str) else None)
def test_traced_name_resolves(module, path):
    mod = importlib.import_module(f"ttm.{module}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    # the tracer patches methods through the class dictionary
    assert callable(owner.__dict__.get(attr)), f"ttm.{module}.{path}"
