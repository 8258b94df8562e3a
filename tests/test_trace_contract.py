"""The traced benchmark wraps library names and reads call results; a tiny
pipeline under its tracer checks that every name it wraps still exists, is
called, and returns what its counters read."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
from ufda import adaptation, datagen, evaluation  # noqa: E402
from ufda.model import ModelDims  # noqa: E402
from ufda.numerics import Rng  # noqa: E402


def test_tiny_glcpp_pipeline_under_the_tracer():
    missing = [f"{ns.__name__}.{name}" for ns, name, _, _ in tracing.WRAPS if not hasattr(ns, name)]
    assert not missing, f"wrapped names missing: {missing}"

    spec = datagen.preset("opda-toy", seed=1, source_per_class=12, target_per_class=12)
    with tracing.installed(tracing.Tracer()) as tracer:
        source, target = datagen.generate(spec)
        dims = ModelDims(spec.d_in, 16, 8, spec.n_source_classes)
        model = adaptation.pretrain_source(source, dims, adaptation.AdaptConfig(seed=1, epochs=1))
        config = adaptation.AdaptConfig(seed=1, epochs=1, variant="glcpp")
        adapted, _ = adaptation.adapt(model, target, config)
        evaluation.evaluate(adapted, target.features, target.labels, config.omega,
                            n_private=spec.n_target_private, rng=Rng(1))

    assert {s.name for s in tracer.spans} == {span for _, _, span, _ in tracing.WRAPS}
    metrics = tracing.layer_metrics(tracer)
    raised = {name: value for name, (value, _) in metrics.items() if name.startswith("errors.") and value}
    assert not raised
    assert metrics["contrastive.anchors"][0] == len(target)
    assert metrics["consensus.rankings_per_batch"][0] == 2.0
