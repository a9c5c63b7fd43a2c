"""The benchmark's traced mode wraps functions by (module, attribute);
each of those names must exist, or every traced run stops."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_name_resolves():
    wrapped = load_wrapped()
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for module, attr in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/spans.py wraps names the package lacks: {missing}"
