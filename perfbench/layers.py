"""The twinreg bindings the benchmark wraps, and the metrics drawn from them.

Each layer is a twinreg module.  A binding is the module attribute through
which callers reach a function, so one function can need several bindings:
``twinreg.qp.solve_spd`` is the QP polish while ``twinreg.tsvr.solve_spd`` is
dual assembly and primal recovery, told apart by the parent span.

``probe=True`` wraps only the three bindings an untraced run needs for its
end-to-end numbers and output checks (the grid-search report, the fits that
delimit grid cells, the hierarchy training reports): one extra Python call
per fit.  ``probe=False`` wraps every layer.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter

from tracer import END, NAME, PARENT, START, SpanStats, Tracer, summarize

HIERARCHY_LAYERS = 6
FIT_SPANS = ("tsvr.train", "hierarchy.train")  # what grid_search fits per cell


def twinreg_module(name: str):
    """``twinreg.<name>`` as a module.

    The package re-exports functions under module names (``twinreg.metrics``
    is the function), so this goes through the module table.
    """
    return importlib.import_module(f"twinreg.{name}")


class LayerTrace:
    """A tracer over twinreg plus what its observers keep from results."""

    def __init__(self, probe: bool):
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.kkt_max = 0.0
        self.tuning: list[tuple[int, object]] = []     # (span, TuningReport)
        self.hierarchies: list[tuple[int, dict]] = []  # (span, training_report)
        self._install(probe)

    def _install(self, probe: bool) -> None:
        wrap = self.tracer.wrap
        bench, search = twinreg_module("benchmark"), twinreg_module("search")
        hier = twinreg_module("hierarchy")
        tsvr = twinreg_module("tsvr")
        wrap(bench, "grid_search", "search.grid", self._tuned)
        wrap(hier, "train_hierarchy", "hierarchy.train", self._hierarchy_trained)
        wrap(tsvr, "train", "tsvr.train")
        if probe:
            return
        qp, model_io = twinreg_module("qp"), twinreg_module("model_io")
        wrap(bench, "run_benchmark", "benchmark.run")
        wrap(search, "metrics", "metrics")
        wrap(bench, "metrics", "metrics")
        wrap(twinreg_module("metrics"), "metrics", "metrics")
        wrap(twinreg_module("data"), "generate", "data.generate")
        wrap(hier, "predict_hierarchy", "hierarchy.predict", self._hierarchy_predicted)
        wrap(tsvr, "build_design", "tsvr.design")
        wrap(tsvr, "assemble_dual_down", "tsvr.assemble")
        wrap(tsvr, "assemble_dual_up", "tsvr.assemble")
        wrap(tsvr, "solve_spd", "tsvr.spd", self._spd_solved)
        wrap(tsvr, "solve_box_qp", "qp.box", self._box_solved)
        wrap(tsvr, "predict", "tsvr.predict", self._tsvr_predicted)
        wrap(qp, "solve_spd", "qp.polish")
        wrap(model_io, "load_model", "model_io.load", self._model_loaded)
        wrap(model_io, "save_model", "model_io.save")

    def restore(self) -> None:
        self.tracer.restore()

    # Observers: (tracer, span index, args, kwargs, result).
    def _tuned(self, tracer, index, args, kwargs, result):
        self.tuning.append((index, result[1]))

    def _hierarchy_trained(self, tracer, index, args, kwargs, result):
        self.hierarchies.append((index, result.training_report))

    def _hierarchy_predicted(self, tracer, index, args, kwargs, result):
        model = args[0]
        self.counts["hierarchy.predict.basis"] += sum(
            layer.model.basis.shape[0] for layer in model.layers
        )

    def _spd_solved(self, tracer, index, args, kwargs, result):
        n = args[0].shape[0]
        k = 1 if args[1].ndim == 1 else args[1].shape[1]
        # Cholesky n^3/3, then two triangular-pair solves and a residual
        # product of 2 n^2 k each.
        self.counts["tsvr.spd.flops"] += n**3 / 3 + 6 * n * n * k

    def _box_solved(self, tracer, index, args, kwargs, result):
        self.counts["qp.box.iterations"] += result.iterations
        self.kkt_max = max(self.kkt_max, result.kkt_residual)

    def _tsvr_predicted(self, tracer, index, args, kwargs, result):
        model, x = args[0], args[1]
        if model.basis is not None:
            rows = 1 if x.ndim == 1 else x.shape[0]
            self.counts["tsvr.predict.kernel_evals"] += rows * model.basis.shape[0]

    def _model_loaded(self, tracer, index, args, kwargs, result):
        self.counts["model_io.load.bytes"] += os.path.getsize(args[0])

    # Queries over the recorded spans.
    def eval_reports(self, start: int = 0) -> list[dict]:
        """Training reports of hierarchies fitted by the benchmark's
        evaluation loop (directly under ``run_benchmark``, not under search)."""
        return [
            report for index, report in self.hierarchies
            if index >= start and self.tracer.parent_name(index) == "benchmark.run"
        ]

    def layer_metrics(self, layer_reports: list[dict]) -> dict[str, float]:
        """Per-layer metrics, totals over every span recorded so far."""
        by_name, by_parent = summarize(self.tracer.spans)

        def stats(name):
            return by_name.get(name, SpanStats())

        def under(name, parent):
            return by_parent.get((name, parent), SpanStats())

        box, polish = stats("qp.box"), stats("qp.polish")
        solved = box.calls - box.raised
        predicted = stats("hierarchy.predict")
        loads = stats("model_io.load")
        tunings = [report for _, report in self.tuning]
        all_rows = [row for _, report in self.hierarchies for row in report["layers"]]
        refits = [row for row in all_rows if 0 < row["prune_set_size"] < row["total_points"]]
        out = {
            "qp.box.calls": box.calls,
            "qp.box.self_s": box.self_s,
            "qp.box.iterations_mean": _ratio(self.counts["qp.box.iterations"], solved),
            "qp.box.kkt_max": self.kkt_max,
            "qp.box.max_iter_exceeded": box.raised,
            "qp.polish.calls": polish.calls,
            "qp.polish.failed": polish.raised,
            "qp.polish.useful_ratio": _ratio(polish.calls - polish.raised, polish.calls),
            "qp.polish.self_s": polish.self_s,
            "tsvr.train.calls": stats("tsvr.train").calls,
            "tsvr.train.self_s": stats("tsvr.train").self_s,
            "tsvr.design.self_s": stats("tsvr.design").self_s,
            "tsvr.assemble.self_s": stats("tsvr.assemble").self_s,
            "tsvr.assemble.spd_s": under("tsvr.spd", "tsvr.assemble").total_s,
            "tsvr.recover.spd_s": under("tsvr.spd", "tsvr.train").total_s,
            "tsvr.spd.calls": stats("tsvr.spd").calls,
            "tsvr.spd.flops": self.counts["tsvr.spd.flops"],
            "tsvr.predict.calls": stats("tsvr.predict").calls,
            "tsvr.predict.self_s": stats("tsvr.predict").self_s,
            "tsvr.predict.kernel_evals": self.counts["tsvr.predict.kernel_evals"],
            "hierarchy.train.calls": stats("hierarchy.train").calls,
            "hierarchy.train.self_s": stats("hierarchy.train").self_s,
            "hierarchy.tsvr_fits_per_layer": _ratio(
                under("tsvr.train", "hierarchy.train").calls, len(all_rows)
            ),
            "hierarchy.second_pass.adopted_ratio": _ratio(
                sum(row["second_pass_adopted"] for row in refits), len(refits)
            ),
            "hierarchy.predict.self_s": predicted.self_s,
            "hierarchy.predict.basis_total": _ratio(
                self.counts["hierarchy.predict.basis"], predicted.calls
            ),
            "search.cells": sum(len(t.cells) for t in tunings),
            "search.failed": sum(len(t.failures) for t in tunings),
            "search.self_s": stats("search.grid").self_s,
            "search.final_train_s": sum(t.final_train_seconds for t in tunings),
            "model_io.load.calls": loads.calls,
            "model_io.load.self_s": loads.self_s,
            "model_io.load.bytes": _ratio(self.counts["model_io.load.bytes"], loads.calls),
            "model_io.save.self_s": stats("model_io.save").self_s,
            "data.generate.self_s": stats("data.generate").self_s,
            "metrics.calls": stats("metrics").calls,
            "metrics.self_s": stats("metrics").self_s,
            "benchmark.run.self_s": stats("benchmark.run").self_s,
        }
        out.update(hierarchy_layer_rows(layer_reports))
        return out


def cell_seconds(spans: list[list], grid_index: int) -> list[float]:
    """Time of each grid cell of one ``grid_search`` call that returned.

    Every cell, scored or failed, starts with a fit directly under the
    search, and the search ends with one more fit: the winner refitted on the
    full training set.  A cell runs from its fit's start to the next fit's
    start, so it includes scoring, and there is one time per attempted cell.
    """
    grid_end = spans[grid_index][END]
    starts = []
    for span in spans[grid_index + 1:]:
        if span[START] > grid_end:
            break
        if span[NAME] in FIT_SPANS and span[PARENT] == grid_index:
            starts.append(span[START])
    return [b - a for a, b in zip(starts, starts[1:])]


def rep_segments(spans: list[list], first: int, start: float, end: float) -> list[float]:
    """One ``run_benchmark`` call from ``start`` to ``end``, cut at the start
    of every fit not nested in another fit: the grid cells, the final refit
    and the evaluation fits.  The segments add up to the call's time, and
    they line up between two calls that do the same work.
    """
    bounds = [start]
    for span in spans[first:]:
        if span[NAME] in FIT_SPANS and (
            span[PARENT] < 0 or spans[span[PARENT]][NAME] not in FIT_SPANS
        ):
            bounds.append(span[START])
    bounds.append(end)
    return [b - a for a, b in zip(bounds, bounds[1:])]


def hierarchy_layer_rows(reports: list[dict]) -> dict[str, float]:
    """``hierarchy.layer<v>.{tau,basis,sv,train_s}``, each averaged over the
    reports that reached layer v (0 when none did)."""
    out = {}
    for v in range(1, HIERARCHY_LAYERS + 1):
        rows = [r for report in reports for r in report["layers"] if r["layer"] == v]
        basis = [
            r["prune_set_size"] if r["second_pass_adopted"] else r["total_points"]
            for r in rows
        ]
        out[f"hierarchy.layer{v}.tau"] = _mean([r["tau"] for r in rows])
        out[f"hierarchy.layer{v}.basis"] = _mean(basis)
        out[f"hierarchy.layer{v}.sv"] = _mean([r["sv_count_final"] for r in rows])
        out[f"hierarchy.layer{v}.train_s"] = _mean([r["train_seconds"] for r in rows])
    return out


def residual_variance_monotone(report: dict) -> bool:
    """Each kept layer lowers the residual variance it was handed."""
    previous = report["target_variance"]
    for row in report["layers"]:
        if row["residual_variance_in"] != previous:
            return False
        if not row["residual_variance_out"] < row["residual_variance_in"]:
            return False
        previous = row["residual_variance_out"]
    return True


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
