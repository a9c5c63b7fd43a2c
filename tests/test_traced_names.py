"""The benchmark's traced mode wraps functions by (module, attribute);
each of those names must exist, or every traced run stops.  Its counts
read return values, so a traced run must still report them."""

import importlib
import importlib.util
from pathlib import Path

import yaml

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    wrapped = load_spans().WRAPPED
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for module, attr in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/spans.py wraps names the package lacks: {missing}"


def test_traced_run_reports_counts(tmp_path):
    spans = load_spans()
    modules = {name: importlib.import_module(name) for name, _ in spans.WRAPPED}
    cli = modules["flmarket.cli"]
    config = tmp_path / "tiny.yaml"
    config.write_text(
        yaml.safe_dump({"master_seed": 3, "pool_size": 30, "bootstrap_rounds": 5, "train_fl": False})
    )
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        assert cli.main(["--out", str(tmp_path / "out"), "run", str(config)]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    agents = 6
    # only the competitive market runs through run_market; the bootstrap
    # history's five rounds are drawn without it
    assert layers["market.auctions"] == 30
    assert layers["experiment.history_records"] == 5 * 30 * agents
    assert layers["estimator.fits"] == 4 and layers["strategies.closed_form_bids"] > 0
    assert not [s for s in tracer.spans if s[4] is not None and s[0] != "estimator.fit"]
