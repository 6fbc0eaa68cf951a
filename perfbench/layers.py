"""Which repro entry points the traced run times, and the per-layer metrics.

:func:`install` wraps the public functions and methods of each layer with a
:class:`~perfbench.tracer.Tracer`; :func:`layer_metrics` turns the span
table into the named per-layer metrics.  :data:`LAYER_MAP` records, for each
layer, the end-to-end metric it should move and the workloads where it does
most and least of its work.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from typing import Any

from perfbench.tracer import Patcher, SpanStats, Tracer

#: Span names whose per-call durations are kept (a percentile is reported).
KEEP_DURATIONS = ("system.decode_step",)

ALLOC_METHODS = ("reserve", "grow", "append_token", "release", "can_admit", "preempt", "restore")
KERNELS = ("estimate_cycles", "attention_head_cycles", "fc_gemv_cycles")

#: Layer -> metrics, the end-to-end metric each should move, and the
#: workloads where the layer does most / little of its work.
LAYER_MAP: list[dict[str, Any]] = [
    {
        "layer": ["workloads.traces", "api.build"],
        "metrics": ["setup.import_s", "traces.build_s", "build.system_s"],
        "moves": ["setup_s"],
        "most": ["many_short_xpu"],
        "little": ["long_context_xpu_pim"],
    },
    {
        "layer": ["serving.fast_engine", "serving.engine"],
        "metrics": [
            "engine.run_s",
            "engine.self_s",
            "engine.evals",
            "engine.evals_per_s",
            "engine.span_eval_share",
            "engine.span_eval_efficiency",
        ],
        "moves": ["wall_s", "sim_tokens_per_host_s"],
        "most": ["many_short_xpu"],
        "little": ["long_context_xpu_pim"],
    },
    {
        "layer": ["system.xpu", "system.xpu_pim", "system.pim_only"],
        "metrics": [
            "system.decode_step.calls",
            "system.decode_step.self_s",
            "system.decode_step.p50_us",
            "system.decode_step.p99_us",
            "system.decode_span.calls",
            "system.decode_span.evals_priced",
            "system.decode_span.self_s",
            "system.decode_span.us_per_eval",
        ],
        "moves": ["wall_s"],
        "most": ["long_context_xpu_pim", "pim_fleet_day"],
        "little": ["many_short_xpu"],
    },
    {
        "layer": ["system.layers", "pim.kernels"],
        "metrics": [
            "layers.module_attention_time.self_s",
            "layers.module_fc_time.self_s",
            *(f"kernels.{kernel}.{kind}" for kernel in KERNELS for kind in ("calls", "self_s")),
            "kernels.estimate_cycles.us_per_call",
            "kernels.share_of_run",
        ],
        "moves": ["wall_s", "sim_tokens_per_host_s"],
        "most": ["long_context_xpu_pim"],
        "little": ["many_short_xpu"],
    },
    {
        "layer": ["serving.prefill"],
        "metrics": ["prefill.cumulative_seconds.calls", "prefill.cumulative_seconds.self_s"],
        "moves": ["wall_s"],
        "most": ["long_context_xpu_pim"],
        "little": ["many_short_xpu"],
    },
    {
        "layer": ["memory.chunked_alloc", "memory.static_alloc"],
        "metrics": [
            *(f"alloc.{method}.{kind}" for method in ALLOC_METHODS for kind in ("calls", "self_s")),
            "alloc.grow.failed",
        ],
        "moves": ["wall_s", "peak_rss_mb"],
        "most": ["many_short_xpu", "pim_fleet_day"],
        "little": ["long_context_xpu_pim"],
    },
    {
        "layer": ["serving.admission", "serving.preemption", "serving.lifecycle"],
        "metrics": [
            "admission.order.calls",
            "admission.order.self_s",
            "preemption.select.calls",
            "preemption.select.self_s",
            "preemption.victims",
            "preemption.request_share",
            "tracker.on_tokens.calls",
            "tracker.on_tokens.self_s",
        ],
        "moves": ["wall_s"],
        "most": ["many_short_xpu", "pim_fleet_day"],
        "little": ["long_context_xpu_pim"],
    },
    {
        "layer": ["serving.fleet_events", "serving.router", "serving.autoscaler"],
        "metrics": [
            "fleet.run_s",
            "fleet.self_s",
            "fleet.segments",
            "router.select.calls",
            "router.select.self_s",
            "autoscaler.decide.calls",
            "autoscaler.decide.self_s",
        ],
        "moves": ["wall_s"],
        "most": ["pim_fleet_day"],
        "little": ["many_short_xpu", "long_context_xpu_pim"],
    },
    {
        "layer": ["api.report", "serving.lifecycle"],
        "metrics": [
            "report.build_s",
            "report.latency_stats_s",
            "report.windows_s",
            "report.to_dict_s",
        ],
        "moves": ["wall_s", "peak_rss_mb"],
        "most": ["many_short_xpu", "pim_fleet_day"],
        "little": ["long_context_xpu_pim"],
    },
    {
        "layer": ["perfbench"],
        "metrics": ["trace.overhead_s"],
        "moves": [],
        "most": ["many_short_xpu", "long_context_xpu_pim", "pim_fleet_day"],
        "little": [],
    },
]

#: Every per-layer metric name, in table order.
LAYER_METRICS: tuple[str, ...] = tuple(name for row in LAYER_MAP for name in row["metrics"])


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith(("_us", "us_per_eval", "us_per_call")):
        return "us"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_efficiency", "share_of_run")):
        return "ratio"
    return "count"


class SpanUsage:
    """Counts decode evaluations priced by ``decode_span`` and actually used.

    The engine may stop a span early (an arrival crossing); it then grows
    every request by ``stride * used``.  The first allocator grow after a
    ``decode_span`` call therefore reveals how many priced evaluations ran.
    """

    def __init__(self) -> None:
        self.priced = 0
        self.used = 0
        self._pending_stride: int | None = None

    def on_span(self, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> None:
        # decode_span(system, context_lengths, stride, count) -> one latency per evaluation
        self.priced += len(result)
        self._pending_stride = args[2] if len(args) > 2 else kwargs["stride"]

    def on_grow(self, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> None:
        if self._pending_stride is None:
            return
        count = args[2] if len(args) > 2 else kwargs.get("count", 1)
        self.used += count // self._pending_stride
        self._pending_stride = None


class Victims:
    """Counts preemption victims chosen (``select`` results that are not ``None``)."""

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, args: tuple[Any, ...], kwargs: dict[str, Any], result: Any) -> None:
        if result is not None:
            self.count += 1


class LayerTrace:
    """A tracer installed on the repro layers, plus its counting observers."""

    def __init__(self) -> None:
        self.tracer = Tracer(keep_durations=KEEP_DURATIONS)
        self.patcher = Patcher(self.tracer)
        self.span_usage = SpanUsage()
        self.victims = Victims()

    def install(self) -> None:
        """Wrap every traced entry point; repro must already be importable."""
        mod = importlib.import_module
        build = mod("repro.api.build")
        report = mod("repro.api.report")
        engine = mod("repro.serving.engine")
        fast_engine = mod("repro.serving.fast_engine")
        xpu = mod("repro.system.xpu")
        xpu_pim = mod("repro.system.xpu_pim")
        pim_only = mod("repro.system.pim_only")
        layers = mod("repro.system.layers")
        kernels = mod("repro.pim.kernels")
        prefill = mod("repro.serving.prefill")
        chunked = mod("repro.memory.chunked_alloc")
        static = mod("repro.memory.static_alloc")
        admission = mod("repro.serving.admission")
        preemption = mod("repro.serving.preemption")
        lifecycle = mod("repro.serving.lifecycle")
        fleet_events = mod("repro.serving.fleet_events")
        router = mod("repro.serving.router")
        autoscaler = mod("repro.serving.autoscaler")
        modules = [
            module
            for name, module in sys.modules.items()
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        patch = self.patcher

        patch.function(build.build_trace, modules, "build.trace")
        patch.function(build.build_system, modules, "build.system")
        patch.method(engine.ServingEngine, "run", "engine.run")
        patch.method(fast_engine.FastServingEngine, "run", "engine.run")
        for cls in (xpu.XPUOnlySystem, xpu_pim.XPUPIMSystem, pim_only.PIMOnlySystem):
            patch.method(cls, "decode_step", "system.decode_step")
        # pim-only binds its span evaluator per instance in __post_init__,
        # so patching the class attribute before build reaches it.
        on_span = self.span_usage.on_span
        patch.method(xpu.XPUOnlySystem, "decode_span", "system.decode_span", on_span)
        patch.method(pim_only.PIMOnlySystem, "_tcp_decode_span", "system.decode_span", on_span)
        patch.function(layers.module_attention_time, modules, "layers.module_attention_time")
        patch.function(layers.module_fc_time, modules, "layers.module_fc_time")
        for kernel in KERNELS:
            patch.function(getattr(kernels, kernel), modules, f"kernels.{kernel}")
        for cls in (prefill.SystemPrefillModel, prefill.LinearPrefillModel):
            patch.method(cls, "cumulative_seconds", "prefill.cumulative_seconds")
        for cls in (chunked.ChunkedAllocator, static.StaticAllocator):
            for method in ALLOC_METHODS:
                observe = self.span_usage.on_grow if method in ("grow", "append_token") else None
                patch.method(cls, method, f"alloc.{method}", observe)
        for cls in _policies(admission, "order"):
            patch.method(cls, "order", "admission.order")
        for cls in _policies(preemption, "select"):
            patch.method(cls, "select", "preemption.select", self.victims)
        patch.method(lifecycle.LifecycleTracker, "on_tokens", "tracker.on_tokens")
        patch.method(fleet_events.DynamicFleetRouter, "run", "fleet.run")
        for cls in _policies(router, "select"):
            patch.method(cls, "select", "router.select")
        patch.method(autoscaler.ReactiveAutoscaler, "decide", "autoscaler.decide")
        for constructor in ("from_engine", "from_fleet", "from_dynamic", "from_disagg"):
            patch.method(report.RunReport, constructor, "report.build")
        patch.method(report.RunReport, "to_dict", "report.to_dict")
        patch.method(lifecycle.LatencyStats, "from_records", "report.latency_stats")
        patch.function(lifecycle.windowed_stats, modules, "report.windows")

    def restore(self) -> None:
        self.patcher.restore()


def _policies(module: Any, method: str) -> list[type]:
    """Concrete classes defined in ``module`` that implement ``method``."""
    return [
        cls
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
        and method in cls.__dict__
        and not getattr(cls, "_is_protocol", False)
    ]


def _percentile_us(samples: list[float], fraction: float) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1e6
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1] * 1e6


def layer_metrics(
    trace: LayerTrace, import_s: float, run_s: float, report: Any
) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` except ``trace.overhead_s``.

    Args:
        trace: The layer trace after a completed traced run.
        import_s: Host seconds the child spent importing ``repro``.
        run_s: Host seconds of ``BuiltExperiment.run`` (the run phase).
        report: The run's ``RunReport``.
    """
    tracer = trace.tracer
    span = tracer.summary
    out: dict[str, float] = {
        "setup.import_s": import_s,
        "traces.build_s": span("build.trace").total_s,
        "build.system_s": span("build.system").total_s,
    }

    engine = span("engine.run")
    step_evals = tracer.calls_under("system.decode_step", "engine.run")
    used = trace.span_usage.used
    priced = trace.span_usage.priced
    evals = step_evals + used
    out.update(
        {
            "engine.run_s": engine.total_s,
            "engine.self_s": engine.self_s,
            "engine.evals": evals,
            "engine.evals_per_s": evals / engine.total_s if engine.total_s else 0.0,
            "engine.span_eval_share": used / evals if evals else 0.0,
            "engine.span_eval_efficiency": used / priced if priced else 0.0,
        }
    )

    step = span("system.decode_step")
    durations = tracer.durations["system.decode_step"]
    decode_span = span("system.decode_span")
    out.update(
        {
            "system.decode_step.calls": step.calls,
            "system.decode_step.self_s": step.self_s,
            "system.decode_step.p50_us": _percentile_us(durations, 0.50),
            "system.decode_step.p99_us": _percentile_us(durations, 0.99),
            "system.decode_span.calls": decode_span.calls,
            "system.decode_span.evals_priced": priced,
            "system.decode_span.self_s": decode_span.self_s,
            "system.decode_span.us_per_eval": (
                decode_span.total_s / priced * 1e6 if priced else 0.0
            ),
        }
    )

    out["layers.module_attention_time.self_s"] = span("layers.module_attention_time").self_s
    out["layers.module_fc_time.self_s"] = span("layers.module_fc_time").self_s
    for kernel in KERNELS:
        stats = span(f"kernels.{kernel}")
        out[f"kernels.{kernel}.calls"] = stats.calls
        out[f"kernels.{kernel}.self_s"] = stats.self_s
    estimate = span("kernels.estimate_cycles")
    out["kernels.estimate_cycles.us_per_call"] = (
        estimate.total_s / estimate.calls * 1e6 if estimate.calls else 0.0
    )
    kernel_s = tracer.entry_time(f"kernels.{kernel}" for kernel in KERNELS)
    out["kernels.share_of_run"] = kernel_s / run_s if run_s else 0.0

    _calls_self(out, "prefill.cumulative_seconds", span("prefill.cumulative_seconds"))
    for method in ALLOC_METHODS:
        _calls_self(out, f"alloc.{method}", span(f"alloc.{method}"))
    out["alloc.grow.failed"] = span("alloc.grow").failed

    _calls_self(out, "admission.order", span("admission.order"))
    _calls_self(out, "preemption.select", span("preemption.select"))
    out["preemption.victims"] = trace.victims.count
    records = [record for result in report.replica_results for record in result.request_records]
    preempted = sum(1 for record in records if record.preemptions)
    out["preemption.request_share"] = preempted / report.num_requests
    _calls_self(out, "tracker.on_tokens", span("tracker.on_tokens"))

    fleet = span("fleet.run")
    out["fleet.run_s"] = fleet.total_s
    out["fleet.self_s"] = fleet.self_s
    out["fleet.segments"] = tracer.calls_under("engine.run", "fleet.run")
    _calls_self(out, "router.select", span("router.select"))
    _calls_self(out, "autoscaler.decide", span("autoscaler.decide"))

    out["report.build_s"] = span("report.build").total_s
    out["report.latency_stats_s"] = span("report.latency_stats").total_s
    out["report.windows_s"] = span("report.windows").total_s
    out["report.to_dict_s"] = span("report.to_dict").total_s
    return out


def _calls_self(out: dict[str, float], prefix: str, stats: SpanStats) -> None:
    out[f"{prefix}.calls"] = stats.calls
    out[f"{prefix}.self_s"] = stats.self_s
