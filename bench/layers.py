"""The layers the benchmark times, and the hooks that time them.

Each hook names the module attribute through which the caller reaches the
layer, so the wrapper sits on the real call path of ``radrisk extract`` and
``radrisk run``. ``OP_HOOKS`` are installed on every invocation: they time the
operations the end-to-end metrics count (images in ``extract_cohort``, CV
repeats in ``monte_carlo_cv``) and collect the counters the output checks
need. ``LAYER_HOOKS`` are installed in traced runs (``--trace 1``) only.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from spans import Hook, Tracer

ROOT_LAYER = "cli.main"
EXTRACT = "pipeline.extract_cohort"
CV = "evaluation.monte_carlo_cv"


def _count_cv(tracer: Tracer, layer, args, kwargs, report) -> None:
    straddled = sum(1 for s in report.straddle_counts if s > 0)
    tracer.count(f"{layer}.set{report.set_id}.repeats", len(report.aucs))
    tracer.count(f"{layer}.set{report.set_id}.straddled_repeats", straddled)


def _count_volume_bytes(tracer: Tracer, layer, args, kwargs, img) -> None:
    path = Path(args[0])
    size = path.stat().st_size
    if path.suffix == ".json":  # RAWJSON header; the float32 payload is a second file
        size += img.voxels.size * 4
    tracer.count(f"{layer}.bytes", size)


def _count_file_bytes(tracer: Tracer, layer, args, kwargs, result) -> None:
    tracer.count(f"{layer}.bytes", Path(args[0]).stat().st_size)


def _count_voxels(tracer: Tracer, layer, args, kwargs, result) -> None:
    tracer.count(f"{layer}.voxels", args[0].voxels.size)


def _count_roi_voxels(tracer: Tracer, layer, args, kwargs, result) -> None:
    tracer.count(f"{layer}.roi_voxels", int(np.count_nonzero(args[0].voxels)))


def _count_columns(tracer: Tracer, layer, args, kwargs, result) -> None:
    tracer.count(f"{layer}.cols_in", np.shape(args[0])[1])


def _count_fit(tracer: Tracer, layer, args, kwargs, model) -> None:
    # read from the returned TrainedModel: the classifier itself reports nothing
    tracer.count(f"{layer}.epochs", model.epochs_run)
    tracer.count(f"{layer}.nonconverged", int(model.kkt_residual >= model.config.tol))


def _texture_layer(args, kwargs) -> str:
    family = args[1] if len(args) > 1 else kwargs["family"]
    return f"features.texture.{family}"


OP_HOOKS = (
    Hook("radrisk.cli.extract_cohort", EXTRACT),
    Hook("radrisk.cli.monte_carlo_cv", CV, _count_cv),
)

LAYER_HOOKS = OP_HOOKS + (
    Hook("radrisk.cli.load_manifest", "cohort.load_manifest"),
    Hook("radrisk.cohort.read_volume", "volume.read_volume", _count_volume_bytes),
    Hook("radrisk.pipeline.normalize_volume", "pipeline.normalize_volume"),
    Hook("radrisk.pipeline.extract_all", "features.extract_all"),
    Hook("radrisk.features.extract.shape_features", "features.shape_features", _count_roi_voxels),
    Hook("radrisk.features.extract.decompose", "wavelet.decompose", _count_voxels),
    Hook("radrisk.features.extract.firstorder_features", "features.firstorder_features"),
    Hook("radrisk.features.extract.discretize", "features.discretize"),
    Hook("radrisk.features.extract.texture_features", _texture_layer),
    Hook("radrisk.cli.write_features_csv", "featurestore.write_features_csv", _count_file_bytes),
    Hook("radrisk.cli.read_features_csv", "featurestore.read_features_csv", _count_file_bytes),
    Hook("radrisk.cli.build_dataset", "pipeline.build_dataset"),
    Hook("radrisk.evaluation.cv.mrmr_select", "selection.mrmr_select", _count_columns),
    Hook("radrisk.classifier.fit", "classifier.fit", _count_fit),
    Hook("radrisk.classifier.decision_scores", "classifier.decision_scores"),
    Hook("radrisk.evaluation.cv.roc_curve", "evaluation.roc_curve"),
    Hook("radrisk.cli.correlation_report", "selection.correlation_report"),
    Hook("radrisk.cli.risk_split_report", "evaluation.risk_split_report"),
    Hook("radrisk.cli.write_risk_split", "evaluation.write_risk_split"),
)

# Every layer reports .self_s and .calls; these add the listed counters.
LAYERS = (
    (ROOT_LAYER, ()),
    ("cohort.load_manifest", ()),
    (EXTRACT, ()),
    ("volume.read_volume", ("bytes",)),
    ("pipeline.normalize_volume", ()),
    ("features.extract_all", ("ms_p50", "ms_p90")),
    ("features.shape_features", ("roi_voxels",)),
    ("wavelet.decompose", ("voxels",)),
    ("features.firstorder_features", ()),
    ("features.discretize", ()),
    ("features.texture.glcm", ()),
    ("features.texture.glrlm", ()),
    ("features.texture.glszm", ()),
    ("features.texture.gldm", ()),
    ("featurestore.write_features_csv", ("bytes",)),
    ("featurestore.read_features_csv", ("bytes",)),
    ("pipeline.build_dataset", ()),
    (CV, ()),
    ("selection.mrmr_select", ("cols_in",)),
    ("classifier.fit", ("epochs_mean", "nonconverged", "converged_ratio")),
    ("classifier.decision_scores", ()),
    ("evaluation.roc_curve", ()),
    ("selection.correlation_report", ()),
    ("evaluation.risk_split_report", ()),
    ("evaluation.write_risk_split", ()),
)

COUNTER_UNITS = {
    "self_s": "s",
    "calls": "count",
    "bytes": "B",
    "ms_p50": "ms",
    "ms_p90": "ms",
    "roi_voxels": "count",
    "voxels": "count",
    "cols_in": "count",
    "epochs_mean": "count",
    "nonconverged": "count",
    "converged_ratio": "ratio",
}

# whole-run figures of the traced run, next to the per-layer ones
TRACE_METRICS = (
    ("trace.wall_s", "s"),  # mean wall time of a traced invocation
    ("trace.self_sum_s", "s"),  # the layers' self times summed; equals trace.wall_s
    ("trace.untraced_wall_s", "s"),  # mean wall time of an untraced invocation, same run
    ("trace.wall_ratio", "ratio"),  # traced over untraced wall time: the tracing overhead
    ("trace.spans", "count"),  # spans recorded per traced invocation
)


def per_layer_metrics(tracer: Tracer, traced_ids: list[int], untraced_walls: list[float]) -> dict:
    """Per-invocation means of every layer's self time and counters."""
    n = len(traced_ids)
    totals = tracer.layer_totals(traced_ids)

    def counter(key: str) -> float:
        return sum(tracer.counter(r, key) for r in traced_ids)

    out: dict[str, float] = {}
    for layer, extras in LAYERS:
        row = totals.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = row["self_s"] / n
        out[f"{layer}.calls"] = row["calls"] / n
        for extra in extras:
            if extra in ("ms_p50", "ms_p90"):
                ms = np.asarray(tracer.durations(layer, traced_ids)) * 1e3
                q = 50 if extra == "ms_p50" else 90
                value = float(np.percentile(ms, q)) if ms.size else 0.0
            elif extra == "epochs_mean":
                value = counter(f"{layer}.epochs") / row["calls"] if row["calls"] else 0.0
            elif extra == "converged_ratio":
                fits = row["calls"]
                value = (fits - counter(f"{layer}.nonconverged")) / fits if fits else 0.0
            else:
                value = counter(f"{layer}.{extra}") / n
            out[f"{layer}.{extra}"] = value
    metrics = {name: {"value": value, "unit": COUNTER_UNITS[name.rsplit(".", 1)[1]]}
               for name, value in out.items()}

    traced_wall = sum(s.end - s.start for r in traced_ids for s in tracer.roots(r)) / n
    untraced_wall = float(np.mean(untraced_walls))
    values = {
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": sum(out[f"{layer}.self_s"] for layer, _ in LAYERS),
        "trace.untraced_wall_s": untraced_wall,
        "trace.wall_ratio": traced_wall / untraced_wall,
        "trace.spans": sum(row["calls"] for row in totals.values()) / n,
    }
    for name, unit in TRACE_METRICS:
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics
