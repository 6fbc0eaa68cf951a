"""The unified result type of the declarative experiment API.

``run(spec)`` always returns a :class:`RunReport`, whether the spec ran a
single :class:`~repro.serving.engine.ServingEngine` or a multi-replica
fleet -- ``EngineResult`` / ``FleetResult`` become internal details behind
two adapters, :meth:`RunReport.from_engine` and
:meth:`RunReport.from_fleet`.  Every fleet returns a ``FleetResult``;
:meth:`RunReport.from_dynamic` (timeline fleets) and
:meth:`RunReport.from_disagg` (two-pool fleets) are ``from_fleet`` plus the
spec-level fields and the fleet's own report block
(:class:`~repro.serving.router.FleetTimelineReport` or
:class:`~repro.serving.disagg.router.DisaggReport`).  Provenance is carried
in typed fields (``spec``, ``spec_hash``, ``seed``, ``num_replicas``,
policy names) instead of loose metadata dicts, so downstream tooling reads
attributes rather than guessing dictionary keys.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.analysis.reporting import fleet_summary_table, tier_summary_table
from repro.serving.disagg.router import DisaggReport
from repro.serving.engine import EngineResult
from repro.serving.lifecycle import LatencyStats, RequestRecord, WindowStats, windowed_stats
from repro.serving.router import FleetResult, FleetTimelineReport

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.api.spec import ExperimentSpec


@dataclass(frozen=True)
class TierReport:
    """Per-tier slice of one run: goodput, SLO attainment, pressure, latency.

    Counts are over the run's request records; a request that never
    finished (or was dropped) counts against goodput and against any
    deadline its tier configured.  A record without a deadline attains
    that SLO vacuously, so ``goodput`` reduces to the finished fraction
    for tiers with no deadlines.

    Attributes:
        name: Tier name (``"untiered"`` for the leftover bucket).
        priority: The tier's scheduling priority.
        num_requests: Requests tagged into this tier that reached an engine.
        requests_finished: Of those, how many ran to completion.
        goodput_requests: Finished inside every configured deadline.
        ttft_attained / tpot_attained: Requests meeting each deadline
            (vacuously when the tier sets none).
        preemptions: Evictions suffered by this tier's requests.
        latency: TTFT / TPOT / end-to-end statistics over the tier's
            finished requests.
    """

    name: str
    priority: int
    num_requests: int
    requests_finished: int
    goodput_requests: int
    ttft_attained: int
    tpot_attained: int
    preemptions: int
    latency: LatencyStats

    @property
    def goodput(self) -> float:
        """Fraction of the tier's requests finishing inside their SLO."""
        return self.goodput_requests / self.num_requests if self.num_requests else 0.0

    @property
    def ttft_attainment(self) -> float:
        """Fraction of the tier's requests meeting the TTFT deadline."""
        return self.ttft_attained / self.num_requests if self.num_requests else 0.0

    @property
    def tpot_attainment(self) -> float:
        """Fraction of the tier's requests meeting the TPOT deadline."""
        return self.tpot_attained / self.num_requests if self.num_requests else 0.0

    @staticmethod
    def from_records(name: str, priority: int, records: Sequence[RequestRecord]) -> TierReport:
        return TierReport(
            name=name,
            priority=priority,
            num_requests=len(records),
            requests_finished=sum(1 for record in records if record.finished),
            goodput_requests=sum(1 for record in records if record.slo_ok),
            ttft_attained=sum(1 for record in records if record.ttft_ok),
            tpot_attained=sum(1 for record in records if record.tpot_ok),
            preemptions=sum(record.preemptions for record in records),
            latency=LatencyStats.from_records(records),
        )


def _tier_reports(
    spec: ExperimentSpec, records: Sequence[RequestRecord]
) -> tuple[TierReport, ...]:
    """Slice a run's request records into the spec's tiers, in spec order.

    Records whose tier matches no spec tier (including ``None``) land in a
    trailing ``"untiered"`` bucket.  Requests dropped at the *router*
    never reach an engine and leave no record, so they appear in no tier
    slice -- the all-up rollup still counts them via ``num_requests``.
    """
    if not spec.tiers:
        return ()
    buckets: dict[str, list[RequestRecord]] = {tier.name: [] for tier in spec.tiers}
    leftovers: list[RequestRecord] = []
    for record in records:
        if record.tier in buckets:
            buckets[record.tier].append(record)
        else:
            leftovers.append(record)
    reports = [
        TierReport.from_records(tier.name, tier.priority, buckets[tier.name])
        for tier in spec.tiers
    ]
    if leftovers and "untiered" not in buckets:
        reports.append(TierReport.from_records("untiered", 0, leftovers))
    return tuple(reports)


def _windows(spec: ExperimentSpec, records: Sequence[RequestRecord]) -> tuple[WindowStats, ...]:
    """Per-interval stats when the spec asks for them (else empty)."""
    if spec.window_s is None:
        return ()
    return windowed_stats(records, spec.window_s)


@dataclass(frozen=True)
class RunReport:
    """Metrics plus provenance of one executed :class:`ExperimentSpec`.

    Attributes:
        spec: The exact spec that ran (round-trips to JSON).
        spec_hash: Short stable hash of the spec's canonical JSON.
        seed: The experiment seed the trace/arrivals/sessions derive from.
        num_replicas: Engines that served the trace (1 for engine runs).
        routing_policy: Router policy name, or ``None`` for engine runs.
        system_kind: Registry key of the system model.
        admission_policy: Admission policy name at each engine.
        prefill_mode: ``"none"`` / ``"blocking"`` / ``"chunked"``.
        engine_mode: ``"scalar"`` or ``"fast"`` -- which engine core ran
            the experiment (parity-pinned, so metrics are identical).
        num_requests: Requests in the input trace.
        requests_served / requests_dropped: Fleet-wide admission outcomes.
        total_output_tokens: Tokens generated across all replicas.
        busy_seconds: Summed busy decode time across replicas.
        makespan_s: Wall-clock completion time (slowest replica).
        average_batch_size: Step-weighted mean decode batch size.
        peak_batch_size: Largest batch observed on any replica.
        average_pim_utilization: Step-weighted mean PIM busy fraction.
        average_capacity_utilization: Step-weighted mean KV occupancy.
        load_imbalance: Max-over-mean of per-replica busy seconds.
        latency: TTFT / TPOT / end-to-end percentile statistics (merged
            over the union of request records for fleets).
        replica_results: The underlying per-engine results (escape hatch).
        preemption_policy: Preemption policy name at each engine
            (``"none"`` under the admit-to-completion contract).
        preemptions: Victim evictions across all replicas.
        recompute_tokens: Tokens re-prefilled by recompute-mode restores.
        preemption_overhead_s: Clock charged to page-out/page-in work.
        requeue_delay_mean_s: Mean paged-out-to-restored stall per
            preemption (union of request records for fleets).
        prefix_cache_enabled: Whether each engine carried a prefix cache.
        prefix_hits / prefix_misses: Prefix-cache lookups across replicas.
        prefix_hit_tokens: Prompt tokens discounted from prefill/restore
            work by cache hits.
        prefix_evictions: Session prefixes evicted under capacity pressure.
        tier_reports: Per-tier goodput/attainment/latency slices
            (:class:`TierReport`), in spec order plus a trailing
            ``"untiered"`` bucket when leftover requests exist; empty for
            untiered specs.
    """

    spec: ExperimentSpec
    spec_hash: str
    seed: int
    num_replicas: int
    routing_policy: str | None
    system_kind: str
    admission_policy: str
    prefill_mode: str
    num_requests: int
    requests_served: int
    requests_dropped: int
    total_output_tokens: int
    busy_seconds: float
    makespan_s: float
    average_batch_size: float
    peak_batch_size: int
    average_pim_utilization: float
    average_capacity_utilization: float
    load_imbalance: float
    latency: LatencyStats
    replica_results: tuple[EngineResult, ...] = field(repr=False, compare=False)
    engine_mode: str = "scalar"
    preemption_policy: str = "none"
    preemptions: int = 0
    recompute_tokens: int = 0
    preemption_overhead_s: float = 0.0
    requeue_delay_mean_s: float = 0.0
    prefix_cache_enabled: bool = False
    prefix_hits: int = 0
    prefix_misses: int = 0
    prefix_hit_tokens: int = 0
    prefix_evictions: int = 0
    #: Per-tier metric slices (empty for untiered specs, whose report
    #: schema stays bit-compatible with the pre-tier API).
    tier_reports: tuple[TierReport, ...] = ()
    #: Two-pool handoff accounting (``None`` for colocated runs, whose
    #: report schema stays bit-compatible with the pre-disagg API).
    disagg: DisaggReport | None = None
    #: Per-interval SLO attainment / goodput series (empty unless the spec
    #: sets ``window_s``; reports without windows stay bit-compatible).
    windows: tuple[WindowStats, ...] = ()
    #: Dynamic-fleet timeline accounting (``None`` for static fleets).
    fleet_timeline: FleetTimelineReport | None = None
    _fleet: FleetResult | None = field(default=None, repr=False, compare=False)

    # -- derived metrics ----------------------------------------------------

    @property
    def throughput_tokens_per_s(self) -> float:
        """Tokens per busy decode second (the single-engine metric)."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.total_output_tokens / self.busy_seconds

    @property
    def aggregate_throughput_tokens_per_s(self) -> float:
        """Tokens per wall-clock second across the fleet (tokens/makespan)."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s

    @property
    def ttft_mean_s(self) -> float:
        return self.latency.ttft_mean_s

    @property
    def ttft_p95_s(self) -> float:
        return self.latency.ttft_p95_s

    @property
    def tpot_mean_s(self) -> float:
        return self.latency.tpot_mean_s

    @property
    def latency_p50_s(self) -> float:
        return self.latency.latency_p50_s

    @property
    def latency_p95_s(self) -> float:
        return self.latency.latency_p95_s

    @property
    def latency_p99_s(self) -> float:
        return self.latency.latency_p99_s

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet-wide prefix-cache hit fraction (0 when the cache is off)."""
        lookups = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / lookups if lookups else 0.0

    @property
    def goodput_requests(self) -> int:
        """Requests finishing inside their SLO, summed over every tier.

        Meaningful for tiered runs only (0 when the spec declares no
        tiers, since there are no deadlines to attain).
        """
        return sum(tier.goodput_requests for tier in self.tier_reports)

    @property
    def goodput(self) -> float:
        """All-up goodput fraction over the input trace (tiered runs).

        Router-dropped requests never reach an engine yet still count
        against the denominator -- an operator buys finished-in-SLO
        requests out of everything submitted.
        """
        if not self.tier_reports or self.num_requests <= 0:
            return 0.0
        return self.goodput_requests / self.num_requests

    def tier_report(self, name: str) -> TierReport:
        """The named tier's slice; raises ``KeyError`` for unknown names."""
        for tier in self.tier_reports:
            if tier.name == name:
                return tier
        raise KeyError(
            f"no tier named {name!r}; tiers: "
            f"{', '.join(tier.name for tier in self.tier_reports) or '<none>'}"
        )

    # -- adapters -----------------------------------------------------------

    @staticmethod
    def from_engine(spec: ExperimentSpec, result: EngineResult) -> RunReport:
        """Wrap a single-engine run; metrics are the engine's, verbatim."""
        return RunReport(
            spec=spec,
            spec_hash=spec.spec_hash,
            seed=spec.seed,
            num_replicas=1,
            routing_policy=None,
            system_kind=spec.system.kind,
            admission_policy=result.admission_policy,
            prefill_mode=result.prefill_mode,
            num_requests=spec.trace.num_requests,
            requests_served=result.requests_served,
            requests_dropped=result.requests_dropped,
            total_output_tokens=result.total_output_tokens,
            busy_seconds=result.total_seconds,
            makespan_s=result.makespan_s,
            average_batch_size=result.average_batch_size,
            peak_batch_size=result.peak_batch_size,
            average_pim_utilization=result.average_pim_utilization,
            average_capacity_utilization=result.average_capacity_utilization,
            load_imbalance=1.0,
            latency=result.latency,
            replica_results=(result,),
            engine_mode=spec.engine.mode,
            preemption_policy=result.preemption_policy,
            preemptions=result.preemptions,
            recompute_tokens=result.recompute_tokens,
            preemption_overhead_s=result.preemption_overhead_s,
            requeue_delay_mean_s=result.requeue_delay_mean_s,
            prefix_cache_enabled=result.prefix_cache_enabled,
            prefix_hits=result.prefix_hits,
            prefix_misses=result.prefix_misses,
            prefix_hit_tokens=result.prefix_hit_tokens,
            prefix_evictions=result.prefix_evictions,
            tier_reports=_tier_reports(spec, result.request_records),
            windows=_windows(spec, result.request_records),
        )

    @staticmethod
    def from_fleet(spec: ExperimentSpec, fleet: FleetResult) -> RunReport:
        """Wrap a routed fleet run; metrics are the fleet merge, verbatim."""
        replicas = fleet.replica_results
        total_steps = sum(result.steps for result in replicas)

        def _step_weighted(metric: str) -> float:
            if total_steps == 0:
                return 0.0
            return (
                sum(getattr(result, metric) * result.steps for result in replicas)
                / total_steps
            )

        total_preemptions = sum(result.preemptions for result in replicas)
        total_stall = sum(
            record.stall_s for record in fleet.request_records if record.preemptions
        )
        return RunReport(
            spec=spec,
            spec_hash=spec.spec_hash,
            seed=spec.seed,
            num_replicas=fleet.num_replicas,
            routing_policy=fleet.policy,
            system_kind=spec.system.kind,
            admission_policy=replicas[0].admission_policy if replicas else "fcfs",
            prefill_mode=replicas[0].prefill_mode if replicas else "none",
            num_requests=spec.trace.num_requests,
            requests_served=fleet.requests_served,
            requests_dropped=fleet.requests_dropped,
            total_output_tokens=fleet.total_output_tokens,
            busy_seconds=fleet.busy_seconds,
            makespan_s=fleet.makespan_s,
            average_batch_size=_step_weighted("average_batch_size"),
            peak_batch_size=max((result.peak_batch_size for result in replicas), default=0),
            average_pim_utilization=_step_weighted("average_pim_utilization"),
            average_capacity_utilization=_step_weighted("average_capacity_utilization"),
            load_imbalance=fleet.load_imbalance,
            latency=fleet.latency,
            replica_results=replicas,
            engine_mode=spec.engine.mode,
            preemption_policy=replicas[0].preemption_policy if replicas else "none",
            preemptions=total_preemptions,
            recompute_tokens=sum(result.recompute_tokens for result in replicas),
            preemption_overhead_s=sum(
                result.preemption_overhead_s for result in replicas
            ),
            requeue_delay_mean_s=(
                total_stall / total_preemptions if total_preemptions else 0.0
            ),
            prefix_cache_enabled=any(
                result.prefix_cache_enabled for result in replicas
            ),
            prefix_hits=fleet.prefix_hits,
            prefix_misses=fleet.prefix_misses,
            prefix_hit_tokens=fleet.prefix_hit_tokens,
            prefix_evictions=sum(result.prefix_evictions for result in replicas),
            tier_reports=_tier_reports(spec, fleet.request_records),
            windows=_windows(spec, fleet.request_records),
            _fleet=fleet,
        )

    @staticmethod
    def from_dynamic(spec: ExperimentSpec, result: FleetResult) -> RunReport:
        """Wrap a dynamic-fleet run (fleet events and/or autoscaler).

        The merged fleet metrics drive the report exactly as
        :meth:`from_fleet` does -- records are already stitched back to
        original arrivals, so TTFT and latency include failure stalls and
        re-warms.  ``num_replicas`` reports the spec's *initial* fleet
        (``router.replicas``); the timeline block carries what the fleet
        actually did: peak replicas, replica-hours billed, failures,
        restarts, KV lost, and the autoscaler's decision log.
        """
        assert spec.router is not None
        return dataclasses.replace(
            RunReport.from_fleet(spec, result),
            num_replicas=spec.router.replicas,
            fleet_timeline=result.timeline,
        )

    @staticmethod
    def from_disagg(spec: ExperimentSpec, result: FleetResult) -> RunReport:
        """Wrap a disaggregated two-pool run.

        The decode fleet's stitched records drive every latency metric (so
        TTFT spans prefill + transfer + decode); ``num_replicas`` counts
        *total* hardware -- both pools -- which is what makes the report
        comparable against an equal-hardware colocated fleet, and
        ``prefill_mode`` reports the spec's prefill discipline (the pool's)
        rather than the decode engines' ``"none"``.
        """
        assert spec.router is not None
        return dataclasses.replace(
            RunReport.from_fleet(spec, result),
            num_replicas=spec.router.replicas,
            prefill_mode=spec.prefill.mode,
            disagg=result.disagg,
        )

    # -- views --------------------------------------------------------------

    @property
    def fleet(self) -> FleetResult:
        """The run as a :class:`FleetResult` (engine runs wrap as N=1)."""
        if self._fleet is not None:
            return self._fleet
        return FleetResult.from_replicas(self.routing_policy or "single", self.replica_results)

    @property
    def engine_result(self) -> EngineResult:
        """The single engine's result; raises for multi-replica runs."""
        if len(self.replica_results) != 1:
            raise ValueError(
                f"run has {len(self.replica_results)} replicas; "
                "use replica_results or fleet instead"
            )
        return self.replica_results[0]

    def summary_table(self, title: str = "") -> str:
        """Render the run with the fleet summary table (N=1 included).

        Tiered runs append a per-tier goodput/attainment table after the
        fleet rows; untiered runs print the fleet table alone, unchanged.
        """
        table = fleet_summary_table(self.fleet, title=title or self.spec.name)
        if self.tier_reports:
            table += "\n\n" + tier_summary_table(self.tier_reports, title="SLO tiers")
        return table

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation: spec, provenance, metrics, replicas.

        Tiered runs add an all-up ``goodput`` pair and a ``tiers`` section
        to ``metrics``; disaggregated runs add ``kv_transfer_s`` /
        ``handoffs`` to ``metrics`` and a top-level ``disagg`` section;
        windowed runs add a ``windows`` series to ``metrics``; dynamic
        fleets add ``replica_hours`` / ``peak_replicas`` and a top-level
        ``fleet_timeline`` section.  Colocated untiered static runs emit
        the exact pre-tier schema, so their report JSON stays
        bit-identical.
        """
        metrics: dict[str, Any] = {
            "num_requests": self.num_requests,
            "requests_served": self.requests_served,
            "requests_dropped": self.requests_dropped,
            "total_output_tokens": self.total_output_tokens,
            "busy_seconds": self.busy_seconds,
            "makespan_s": self.makespan_s,
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "aggregate_throughput_tokens_per_s": self.aggregate_throughput_tokens_per_s,
            "average_batch_size": self.average_batch_size,
            "peak_batch_size": self.peak_batch_size,
            "average_pim_utilization": self.average_pim_utilization,
            "average_capacity_utilization": self.average_capacity_utilization,
            "load_imbalance": self.load_imbalance,
            "preemptions": self.preemptions,
            "recompute_tokens": self.recompute_tokens,
            "preemption_overhead_s": self.preemption_overhead_s,
            "requeue_delay_mean_s": self.requeue_delay_mean_s,
            "prefix_cache_enabled": self.prefix_cache_enabled,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "prefix_hit_rate": self.prefix_hit_rate,
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "prefix_evictions": self.prefix_evictions,
            "latency": dataclasses.asdict(self.latency),
        }
        if self.tier_reports:
            metrics["goodput"] = self.goodput
            metrics["goodput_requests"] = self.goodput_requests
            metrics["tiers"] = {
                tier.name: {
                    "priority": tier.priority,
                    "num_requests": tier.num_requests,
                    "requests_finished": tier.requests_finished,
                    "goodput_requests": tier.goodput_requests,
                    "goodput": tier.goodput,
                    "goodput_rps": (
                        tier.goodput_requests / self.makespan_s
                        if self.makespan_s > 0
                        else 0.0
                    ),
                    "ttft_attainment": tier.ttft_attainment,
                    "tpot_attainment": tier.tpot_attainment,
                    "preemptions": tier.preemptions,
                    "latency": dataclasses.asdict(tier.latency),
                }
                for tier in self.tier_reports
            }
        if self.windows:
            metrics["windows"] = {
                "window_s": self.spec.window_s,
                "series": [
                    {
                        "start_s": window.start_s,
                        "end_s": window.end_s,
                        "arrivals": window.arrivals,
                        "finished": window.finished,
                        "goodput_requests": window.goodput_requests,
                        "goodput_fraction": window.goodput_fraction,
                        "ttft_attainment": window.ttft_attainment,
                        "tpot_attainment": window.tpot_attainment,
                        "ttft_p95_ms": window.latency.ttft_p95_s * 1e3,
                        "latency_p95_ms": window.latency.latency_p95_s * 1e3,
                    }
                    for window in self.windows
                ],
            }
        if self.fleet_timeline is not None:
            metrics["replica_hours"] = self.fleet_timeline.replica_hours
            metrics["peak_replicas"] = self.fleet_timeline.peak_replicas
        if self.disagg is not None:
            metrics["kv_transfer_s"] = self.disagg.kv_transfer_s
            metrics["handoffs"] = self.disagg.handoffs
        data: dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec_hash,
            "seed": self.seed,
            "num_replicas": self.num_replicas,
            "routing_policy": self.routing_policy,
            "system_kind": self.system_kind,
            "admission_policy": self.admission_policy,
            "prefill_mode": self.prefill_mode,
            "engine_mode": self.engine_mode,
            "preemption_policy": self.preemption_policy,
            "metrics": metrics,
            "replicas": [
                {
                    "system": result.system_name,
                    "requests_served": result.requests_served,
                    "requests_dropped": result.requests_dropped,
                    "total_output_tokens": result.total_output_tokens,
                    "throughput_tokens_per_s": result.throughput_tokens_per_s,
                    "makespan_s": result.makespan_s,
                    "ttft_p95_ms": result.latency.ttft_p95_s * 1e3,
                    "latency_p99_ms": result.latency.latency_p99_s * 1e3,
                    "preemptions": result.preemptions,
                    "prefix_hits": result.prefix_hits,
                    "prefix_misses": result.prefix_misses,
                    "prefix_hit_rate": result.prefix_hit_rate,
                }
                for result in self.replica_results
            ],
        }
        if self.disagg is not None:
            data["disagg"] = self.disagg.to_dict()
        if self.fleet_timeline is not None:
            data["fleet_timeline"] = self.fleet_timeline.to_dict()
        return data


__all__ = ["RunReport", "TierReport"]
