"""The traced benchmark wraps library names and reads call results; a tiny
pipeline of each benchmark workload under its tracer checks that every name
it wraps still exists, is called, and returns what its counters read."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
from ufda import adaptation, datagen, evaluation  # noqa: E402
from ufda.model import ModelDims  # noqa: E402
from ufda.numerics import Rng  # noqa: E402

EPOCHS = 2
# Spans a glc run on PDA data never opens: no contrastive term, no private
# classes to cluster for NCD.
GLC_PDA_SILENT = {"contrastive.mine_pairs", "contrastive.loss_contrastive", "evaluation.ncd_accuracy"}


def traced_pipeline(preset, variant):
    missing = [f"{ns.__name__}.{name}" for ns, name, _, _ in tracing.WRAPS if not hasattr(ns, name)]
    assert not missing, f"wrapped names missing: {missing}"

    spec = datagen.preset(preset, seed=1, source_per_class=12, target_per_class=12)
    with tracing.installed(tracing.Tracer()) as tracer:
        source, target = datagen.generate(spec)
        dims = ModelDims(spec.d_in, 16, 8, spec.n_source_classes)
        model = adaptation.pretrain_source(source, dims, adaptation.AdaptConfig(seed=1, epochs=1))
        config = adaptation.AdaptConfig(seed=1, epochs=EPOCHS, variant=variant)
        adapted, _ = adaptation.adapt(model, target, config)
        evaluation.evaluate(adapted, target.features, target.labels, config.omega,
                            n_private=evaluation.novel_class_count(target.labels, spec.n_source_classes), rng=Rng(1))

    metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    raised = {name: value for name, value in metrics.items() if name.startswith("errors.") and value}
    assert not raised
    # one prototype k-means per epoch, on a stack of every source class's negative set
    assert metrics["clustering.kmeans.calls.proto"] == EPOCHS
    assert 0.0 <= metrics["pseudolabel.labeled_fraction"] <= 1.0
    return tracer, metrics, len(target)


def test_tiny_glcpp_pipeline_under_the_tracer():
    tracer, metrics, n_target = traced_pipeline("opda-toy", "glcpp")
    assert {s.name for s in tracer.spans} == {span for _, _, span, _ in tracing.WRAPS}
    assert metrics["contrastive.anchors"] == EPOCHS * n_target
    assert metrics["consensus.rankings_per_batch"] == 2.0


def test_tiny_glc_pipeline_under_the_tracer():
    tracer, metrics, _ = traced_pipeline("pda-toy", "glc")
    assert {s.name for s in tracer.spans} == {span for _, _, span, _ in tracing.WRAPS} - GLC_PDA_SILENT
    assert metrics["contrastive.anchors"] == 0
    assert metrics["consensus.rankings_per_batch"] == 1.0
