"""Pluggable cell runners: assignment + params + seed -> metric dict.

A runner is a plain callable ``(assignment, params, seed) -> metrics``
executing ONE cell of a campaign.  The contract that makes the rest of the
engine trivial:

* **pure per seed** — a runner must be a deterministic function of its
  three arguments (every simulator underneath already is), so re-executing
  a cell is always safe and a parallel fan-out is bit-identical to serial;
* **flat numeric metrics** — the returned dict maps metric names to floats;
  names choose their scoring direction via
  :data:`repro.ablate.importance.SCORING_DIRECTIONS` patterns;
* **registered by name** — the spec carries only the runner's *name*
  (part of every cell's run identity), resolved through the registry at
  execution time, including inside worker processes.

Shipped runners cover the paper's component set and the fleet policies:

``pipeline``  CFP32 MAC design / hetero layout / interleaving / overlap
              through :class:`~repro.core.ecssd.ECSSDevice` trace mode;
``serve``     admission policy x degradation ladder through the SLO
              serving simulator;
``faults``    ECC ladder tiers x RBER scale through the fault matrix;
``cluster``   placement x steal x autoscale through the fleet simulator
              under a shared seeded fault plan;
``synthetic`` a closed-form known-effect fixture the unit tests (and the
              CI smoke campaign) score against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Tuple

from ..errors import AblationError, ConfigurationError

if TYPE_CHECKING:  # annotation-only; runners import lazily at call time
    from ..serve.scheduler import AffineServiceModel
    from ..workloads.traces import CandidateTraceGenerator

Assignment = Mapping[str, str]
Params = Mapping[str, object]
RunnerFn = Callable[[Assignment, Params, int], Dict[str, float]]

_RUNNERS: Dict[str, RunnerFn] = {}


def register_runner(name: str, fn: RunnerFn, replace: bool = False) -> None:
    """Register a runner under ``name`` (error on clobber unless replace)."""
    if not name:
        raise ConfigurationError("runner name cannot be empty")
    if name in _RUNNERS and not replace:
        raise ConfigurationError(
            f"runner {name!r} is already registered; pass replace=True"
        )
    _RUNNERS[name] = fn


def get_runner(name: str) -> RunnerFn:
    if name not in _RUNNERS:
        raise AblationError(
            f"unknown runner {name!r}; registered: "
            + ", ".join(sorted(_RUNNERS))
        )
    return _RUNNERS[name]


def _level(assignment: Assignment, axis: str, default: str) -> str:
    return str(assignment.get(axis, default))


def _float_param(params: Params, key: str, default: float) -> float:
    return float(params.get(key, default))  # type: ignore[arg-type]


def _int_param(params: Params, key: str, default: int) -> int:
    return int(params.get(key, default))  # type: ignore[arg-type]


def _str_param(params: Params, key: str, default: str) -> str:
    return str(params.get(key, default))


# ---------------------------------------------------------------------------
# pipeline: the paper's co-designed components (Figs. 8-12 territory)
# ---------------------------------------------------------------------------

def run_pipeline_cell(
    assignment: Assignment, params: Params, seed: int
) -> Dict[str, float]:
    """One device-pipeline cell: batch timing at Table 3 scale.

    Axes: ``mac`` (cfp32 / sk-hynix / naive), ``layout`` (heterogeneous /
    homogeneous), ``interleaving`` (learned / uniform / sequential),
    ``overlap`` (on / off).
    """
    from ..cfp32.circuits import MacDesign
    from ..core.ecssd import ECSSDevice
    from ..core.pipeline import PipelineFeatures
    from ..workloads.benchmarks import get_benchmark
    from ..workloads.traces import CandidateTraceGenerator, LabelHotnessModel

    mac_by_level = {
        "cfp32": MacDesign.ALIGNMENT_FREE,
        "sk-hynix": MacDesign.SK_HYNIX,
        "naive": MacDesign.NAIVE,
    }
    mac_level = _level(assignment, "mac", "cfp32")
    if mac_level not in mac_by_level:
        raise AblationError(f"pipeline runner: unknown mac level {mac_level!r}")
    layout = _level(assignment, "layout", "heterogeneous")
    if layout not in ("heterogeneous", "homogeneous"):
        raise AblationError(f"pipeline runner: unknown layout level {layout!r}")
    interleaving = _level(assignment, "interleaving", "learned")
    overlap = _level(assignment, "overlap", "on")
    if overlap not in ("on", "off"):
        raise AblationError(f"pipeline runner: unknown overlap level {overlap!r}")

    spec = get_benchmark(_str_param(params, "benchmark", "GNMT-E32K"))
    queries = _int_param(params, "queries", 16)
    hotness = LabelHotnessModel(
        num_labels=spec.num_labels, run_length=1, seed=seed
    )
    generator = CandidateTraceGenerator(
        hotness,
        candidate_ratio=_float_param(params, "candidate_ratio", 0.10),
        query_noise=0.05,
    )
    features = PipelineFeatures(
        mac_design=mac_by_level[mac_level],
        heterogeneous=layout == "heterogeneous",
        overlap=overlap == "on",
        label=f"{mac_level}/{layout}/{interleaving}/{overlap}",
    )
    device = ECSSDevice(features=features, interleaving=interleaving)
    device.deploy_spec(spec)
    report = device.run_trace(
        generator,
        queries=queries,
        sample_tiles=_int_param(params, "sample_tiles", 6),
        train_queries=_int_param(params, "train_queries", 200),
        predictor_fidelity=_float_param(params, "predictor_fidelity", 0.9),
        seed=seed,
    )
    batch_time = float(report.scaled_total_time)
    # The end-to-end batch can be fetch-bound, hiding a slower MAC under
    # the flash stream; probe the accelerator's per-tile classify time so
    # the mac axis stays measurable (Fig. 9's iso-area throughput gap).
    deployment = device.deployment
    assert deployment is not None
    probe_candidates = max(
        1,
        int(
            _float_param(params, "candidate_ratio", 0.10)
            * deployment.tile_vectors
        ),
    )
    fp32_compute = device.pipeline.accelerator.fp32_classify_time(
        probe_candidates, deployment.hidden_dim, spec.batch_size
    )
    return {
        "batch_time_s": batch_time,
        "time_per_query_s": batch_time / queries,
        "throughput_qps": queries / batch_time,
        "fp32_classify_time_s": float(fp32_compute),
        "fp32_channel_utilization": float(report.fp32_channel_utilization),
    }


# ---------------------------------------------------------------------------
# serve: SLO-plane policies (admission, degradation)
# ---------------------------------------------------------------------------

def _calibrated_service(
    params: Params, seed: int
) -> Tuple["AffineServiceModel", "CandidateTraceGenerator"]:
    """Affine service model fitted to a real batch sweep (shared knee)."""
    from ..serve import calibrate_service_model

    return calibrate_service_model(
        _str_param(params, "benchmark", "GNMT-E32K"),
        seed,
        sample_tiles=_int_param(params, "sample_tiles", 4),
    )


def run_serve_cell(
    assignment: Assignment, params: Params, seed: int
) -> Dict[str, float]:
    """One serving-stack cell: goodput / shed / tail under offered load.

    Axes: ``admission`` (depth = queue-depth only, token-bucket = bucket at
    the saturating rate), ``degrade`` (on = default ladder, off = pinned at
    full fidelity).
    """
    from ..cluster import build_single_deployment, single_deployment_rate
    from ..serve import DegradationLadder, DegradeStep, shard_hot_degrees
    from ..workloads.streams import poisson_arrivals

    admission = _level(assignment, "admission", "token-bucket")
    if admission not in ("token-bucket", "depth"):
        raise AblationError(
            f"serve runner: unknown admission level {admission!r}"
        )
    degrade = _level(assignment, "degrade", "on")
    if degrade not in ("on", "off"):
        raise AblationError(f"serve runner: unknown degrade level {degrade!r}")

    service, generator = _calibrated_service(params, seed)
    slo = _float_param(params, "slo_s", 0.020)
    shards = _int_param(params, "shards", 2)
    replicas = _int_param(params, "replicas", 1)
    capacity = single_deployment_rate(service, slo, shards, replicas)
    rate = capacity * _float_param(params, "rate_multiplier", 1.5)
    ladder = (
        DegradationLadder()
        if degrade == "on"
        else DegradationLadder(steps=(DegradeStep("full"),))
    )
    simulator = build_single_deployment(
        service, slo, shards, replicas,
        token_rate=rate if admission == "token-bucket" else None,
        hot_degrees=shard_hot_degrees(generator, shards, tile_size=512),
        ladder=ladder,
    )
    arrivals = poisson_arrivals(
        rate, _int_param(params, "num_queries", 2000), seed=seed
    )
    report = simulator.run(arrivals)
    metrics = {
        "goodput_qps": float(report.goodput),
        "shed_rate": float(report.shed_rate),
        "slo_attainment": float(report.slo_attainment),
        "max_degrade_level": float(report.max_degrade_level),
    }
    if report.completed:
        metrics["p99_ms"] = float(report.p99) * 1e3
        metrics["p50_ms"] = float(report.p50) * 1e3
    return metrics


# ---------------------------------------------------------------------------
# faults: ECC ladder tiers under the RBER surface
# ---------------------------------------------------------------------------

def run_faults_cell(
    assignment: Assignment, params: Params, seed: int
) -> Dict[str, float]:
    """One reliability cell: retention / latency under one ECC ladder tier.

    Axes: ``ecc`` (full / no-retry / hard-only), ``rber`` (scale as a
    string, e.g. "1" / "5" / "10").
    """
    from ..faults.harness import run_fault_matrix
    from ..faults.model import EccConfig

    level = _level(assignment, "ecc", "full")
    default = EccConfig()
    if level == "full":
        ecc = default
    elif level == "no-retry":
        ecc = EccConfig(max_retries=0)
    elif level == "hard-only":
        ecc = EccConfig(
            soft_limit_bits=default.fast_limit_bits,
            soft_latency=default.fast_latency,
            max_retries=0,
        )
    else:
        raise AblationError(f"faults runner: unknown ecc level {level!r}")
    scale = float(_level(assignment, "rber", _str_param(params, "rber", "5")))
    fault_class = _str_param(params, "fault_class", "rber")
    matrix = run_fault_matrix(
        num_labels=_int_param(params, "num_labels", 2048),
        num_queries=_int_param(params, "num_queries", 8),
        seed=seed,
        rber_scales=(scale,),
        fault_classes=(fault_class,),
        storm_pages=_int_param(params, "storm_pages", 64),
        ecc=ecc,
    )
    cell = matrix.cell(fault_class, scale)
    storm = cell["storm"]
    assert isinstance(storm, dict)
    return {
        "retention": float(cell["retention"]),  # type: ignore[arg-type]
        "latency_vs_clean": float(cell["latency_vs_clean"]),  # type: ignore[arg-type]
        "read_latency_s": float(storm["mean_read_latency_s"]),
        "failed_reads": float(storm["failed_reads"]),
    }


# ---------------------------------------------------------------------------
# cluster: fleet policies under a shared seeded fault campaign
# ---------------------------------------------------------------------------

def run_cluster_cell(
    assignment: Assignment, params: Params, seed: int
) -> Dict[str, float]:
    """One fleet cell: goodput / tail / outage under the shared fault plan.

    Axes: ``placement`` (rack-spread / locality-packed / hotness-weighted),
    ``steal`` (newest / oldest / none), ``autoscale`` (on / off).
    """
    from ..cluster import (
        ClusterConfig,
        build_cluster,
        cluster_saturating_rate,
    )
    from ..faults import ClusterFaultConfig
    from ..serve import shard_hot_degrees
    from ..workloads.streams import poisson_arrivals

    shards = _int_param(params, "shards", 4)
    config = ClusterConfig(
        data_nodes=_int_param(params, "data_nodes", 8),
        service_nodes=_int_param(params, "service_nodes", 4),
        shards=shards,
        replicas=_int_param(params, "replicas", 24),
        racks=_int_param(params, "racks", 2),
        slots_per_node=_int_param(params, "slots_per_node", 2),
        slo=_float_param(params, "slo_s", 0.05),
        placement_strategy=_level(assignment, "placement", "rack-spread"),
        steal_policy=_level(assignment, "steal", "newest"),
        autoscale=_level(assignment, "autoscale", "on") == "on",
    )
    service, generator = _calibrated_service(params, seed)
    degrees = list(shard_hot_degrees(generator, shards, tile_size=512))
    capacity = cluster_saturating_rate(service, config)
    rate = capacity * _float_param(params, "rate_multiplier", 1.0)
    arrivals = poisson_arrivals(
        rate, _int_param(params, "num_requests", 6000), seed=seed
    )
    span = float(arrivals[-1])
    fault_spec = _str_param(
        params, "fault_plan", "node-crash=2,partition=1,slow-node=2"
    )
    fault_config = (
        ClusterFaultConfig.from_spec(fault_spec, seed=seed, horizon=0.8 * span)
        if fault_spec
        else ClusterFaultConfig.disabled()
    )
    simulator = build_cluster(
        service, config, seed=seed, fault_config=fault_config,
        hot_degrees=degrees,
    )
    from ..obs import hooks
    from ..obs.causal import CausalCollector

    collector = CausalCollector(seed=seed)
    with hooks.installed(collector=collector):
        report = simulator.run(arrivals)
    metrics = {
        "goodput_qps": float(report.goodput),
        "p99_ms": float(report.p99) * 1e3,
        "shed_rate": float(report.shed_rate),
        "slo_attainment": float(report.slo_attainment),
        "outage_seconds": float(report.failover_downtime),
        "parked_seconds": float(report.parked_time),
        "cache_hit_rate": float(report.cache_hit_rate),
        "steal_count": float(report.steals),
        "utilization_skew": float(report.utilization_skew),
    }
    metrics.update(collector.report().stage_metrics())
    return metrics


# ---------------------------------------------------------------------------
# synthetic: closed-form known effects for tests and the CI smoke campaign
# ---------------------------------------------------------------------------

def run_synthetic_cell(
    assignment: Assignment, params: Params, seed: int
) -> Dict[str, float]:
    """A closed-form cell with effects declared in ``params["effects"]``.

    ``effects`` maps ``"axis=level"`` to per-metric relative deltas, e.g.
    ``{"mac=naive": {"goodput": -0.4, "p99": 0.8}}`` — so tests know the
    exact harm every ablation must score.  Deterministic and instant.
    """
    effects = params.get("effects", {})
    assert isinstance(effects, Mapping)
    goodput = _float_param(params, "base_goodput", 1000.0)
    p99 = _float_param(params, "base_p99_ms", 10.0)
    for axis_name in sorted(assignment):
        effect = effects.get(f"{axis_name}={assignment[axis_name]}", {})
        assert isinstance(effect, Mapping)
        goodput *= 1.0 + float(effect.get("goodput", 0.0))  # type: ignore[arg-type]
        p99 *= 1.0 + float(effect.get("p99", 0.0))  # type: ignore[arg-type]
    return {"goodput_qps": goodput, "p99_ms": p99}


_BUILTINS: List[Tuple[str, RunnerFn]] = [
    ("pipeline", run_pipeline_cell),
    ("serve", run_serve_cell),
    ("faults", run_faults_cell),
    ("cluster", run_cluster_cell),
    ("synthetic", run_synthetic_cell),
]
for _name, _fn in _BUILTINS:
    register_runner(_name, _fn)
