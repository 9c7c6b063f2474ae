"""Command-line interface: ``python -m repro <command>``.

Gives the reproduction a front door that requires no Python:

* ``python -m repro benchmarks`` — print the Table 3 registry;
* ``python -m repro quickstart`` — run a small end-to-end inference
  (``--trace-out``/``--metrics-out`` additionally emit telemetry);
* ``python -m repro figure <name>`` — regenerate one paper artifact
  (``fig8``..``fig13``, ``tab3``, ``sec71_scalability``, ``sec71_scale_out``,
  ``backend_validation``) and print its ours-vs-paper table;
* ``python -m repro report`` — write the full reproduction report;
* ``python -m repro trace`` — run an instrumented inference and export a
  Chrome/Perfetto trace, Prometheus metrics, and JSON-lines telemetry;
* ``python -m repro validate`` — cross-check the analytic and event timing
  backends;
* ``python -m repro serve`` — replay a Poisson arrival stream through the
  SLO-aware serving layer (admission, deadline batching, degradation,
  replica routing) and print goodput / shed rate / latency percentiles;
* ``python -m repro cluster`` — simulate a whole fleet (stateless service
  nodes over replicated data nodes) with placement, failover, work stealing,
  autoscaling, and injectable node/interconnect faults;
* ``python -m repro faults`` — sweep the fault-injection matrix (RBER scales
  x fault classes) and report top-k retention, latency, and SSD read cost;
* ``python -m repro ablate`` — plan, execute (serial or multi-process,
  resumable), and score ablation campaigns over component axes, ranking
  per-component importance against the champion configuration;
* ``python -m repro profile`` — run an instrumented inference and print the
  critical-path attribution report (per-resource time, channel balance,
  transfer interference); ``--out`` writes the JSON form;
* ``python -m repro runs`` — list, show, compare, and divergence-check the
  run manifests registered by ``serve``/``faults``/``profile --run-dir``;
* ``python -m repro lint`` — run the reprolint determinism checks
  (``python -m repro.lint`` is the standalone equivalent).

``-v``/``-vv`` (before or after the subcommand) raise the logging level of
the ``repro`` logger tree to INFO/DEBUG.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    from .analysis import artifacts

    print(artifacts.tab3().table)
    return 0


def _observability_config(args: argparse.Namespace):
    """The telemetry config the output flags ask for (``None`` when unset)."""
    from .config import ObservabilityConfig

    outputs = {
        dest: getattr(args, dest, None)
        for dest in ("trace_out", "metrics_out", "jsonl_stream_out")
    }
    if not any(outputs.values()):
        return None
    return ObservabilityConfig(**outputs)


def _session_from_args(args: argparse.Namespace):
    """Build+install an observability session when any output flag is set."""
    config = _observability_config(args)
    if config is None:
        return None
    from . import obs

    return obs.configure(config)


def _register_run(
    run_dir: str,
    label: str,
    seed: int,
    config: dict,
    workload: dict,
    metrics: dict,
    digests=None,
    artifacts: Optional[dict] = None,
) -> str:
    """Build+register a run manifest; prints and returns its path."""
    from .obs.runs import RunManifest, RunRegistry

    manifest = RunManifest.build(
        label=label,
        seed=seed,
        config=config,
        workload=workload,
        metrics=metrics,
        digests=digests,
    )
    for name, path in sorted((artifacts or {}).items()):
        manifest.add_artifact(name, path)
    registry = RunRegistry(run_dir)
    path = registry.register(manifest)
    print(f"registered run {manifest.run_id} -> {path}")
    return path


def _digest_recorder(args: argparse.Namespace, label: str, **kwargs):
    """A state-digest recorder when ``--run-dir`` registers the run, else None."""
    if not args.run_dir:
        return None
    from .obs.digest import DigestRecorder

    return DigestRecorder(label=label, **kwargs)


def _finish_session(session) -> None:
    """Write the session's configured outputs and restore the recorders."""
    if session is None:
        return
    for path in session.flush():
        print(f"wrote {path}")
    session.uninstall()


def _write_json(path: str, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON and report the path."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _screen_demo_queries(labels: int, seed: int):
    """Deploy a synthetic model on a fresh ECSSD and INT4-screen 8 queries.

    Returns ``(workload, device)``; the queries are ``workload.features[32:40]``
    and the first 32 feature rows fine-tuned the layout.
    """
    from .core.api import ECSSD
    from .workloads.synthetic import make_workload

    workload = make_workload(
        num_labels=labels, hidden_dim=256, num_queries=48, seed=seed
    )
    device = ECSSD()
    device.ecssd_enable()
    device.weight_deploy(workload.weights, train_features=workload.features[:32])
    queries = workload.features[32:40]
    device.int4_input_send(queries)
    device.cfp32_input_send(device.pre_align(queries))
    device.int4_screen()
    return workload, device


def _latency_rows(summary: dict, slo: float) -> List[List[str]]:
    """p50/p95/p99/p99.9 table rows of a serve or cluster report summary."""
    from .analysis.reporting import format_seconds

    return [
        [f"{label} latency",
         "-" if summary[key] is None
         else f"{format_seconds(summary[key])} (SLO {format_seconds(slo)})"]
        for label, key in (
            ("p50", "p50_s"), ("p95", "p95_s"), ("p99", "p99_s"),
            ("p99.9", "p999_s"),
        )
    ]


def _run_artifacts(args: argparse.Namespace, **extra: Optional[str]) -> dict:
    """The summary/spans (plus ``extra``) files a serve/cluster run wrote."""
    artifacts = {
        "summary": args.out,
        "spans": getattr(args, "jsonl_stream_out", None),
        **extra,
    }
    return {name: path for name, path in artifacts.items() if path}


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_seconds

    session = _session_from_args(args)
    try:
        workload, device = _screen_demo_queries(args.labels, args.seed)
        device.cfp32_classify()
        labels = device.get_results()
    finally:
        _finish_session(session)
    exact = workload.features[32:40] @ workload.weights.T
    agreement = float((labels[:, 0] == exact.argmax(axis=1)).mean())
    report = device.last_report
    print(f"labels (8 queries x top-5):\n{labels}")
    print(f"top-1 agreement with exact FP32: {agreement:.0%}")
    print(f"device batch latency: {format_seconds(report.scaled_total_time)}")
    print(f"fp32 channel utilization: {report.fp32_channel_utilization:.1%}")
    return 0


def _cmd_trace_attribute(args: argparse.Namespace) -> int:
    """Causally-traced fleet run answering "where does tail latency live"."""
    import json

    from .obs import hooks
    from .obs.causal import CausalCollector, trace_to_chrome

    (
        simulator, arrivals, rate, capacity, service, fault_config
    ) = _build_cluster_from_args(args)
    collector = CausalCollector(
        slowest_k=args.slowest, sample_size=args.sample, seed=args.seed
    )
    with _simsan_context(args) as sanitizer:
        with hooks.installed(collector=collector):
            simulator.run(arrivals)
    attribution = collector.report()
    print(
        f"fleet at {rate:,.0f} q/s ({rate / capacity:.2f}x saturation), "
        f"fault plan: {args.fault_plan or 'none'}"
    )
    print(attribution.render())
    if args.out:
        _write_json(args.out, {
            "benchmark": args.benchmark,
            "seed": args.seed,
            "rate_qps": rate,
            "requests": args.requests,
            "fault_plan": args.fault_plan,
            "attribution": attribution.to_dict(),
        })
    if args.exemplar_out:
        exemplars = list(attribution.slowest) + list(attribution.sampled)
        if not exemplars:
            print("no exemplars captured; skipping Chrome-trace export")
        else:
            chosen = exemplars[0]
            if args.exemplar is not None:
                matches = [
                    t for t in exemplars if t.request_id == args.exemplar
                ]
                if not matches:
                    known = ", ".join(t.trace_id for t in exemplars)
                    print(
                        f"request {args.exemplar} is not a captured "
                        f"exemplar (have: {known})"
                    )
                    return 1
                chosen = matches[0]
            with open(args.exemplar_out, "w", encoding="utf-8") as fh:
                json.dump(trace_to_chrome(chosen), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(
                f"wrote {chosen.trace_id} causal graph "
                f"({chosen.latency * 1e3:.3f} ms, {chosen.fault_class}) "
                f"to {args.exemplar_out}"
            )
    return _simsan_finish(sanitizer)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Instrumented inference whose sole product is the telemetry files."""
    if getattr(args, "trace_command", None) == "attribute":
        return _cmd_trace_attribute(args)

    args.trace_out = args.out
    session = _session_from_args(args)
    try:
        _screen_demo_queries(args.labels, args.seed)
        spans = len(session.tracer.spans)
        tracks = session.tracer.tracks()
    finally:
        _finish_session(session)
    print(f"recorded {spans} pipeline spans across tracks: {', '.join(tracks)}")
    print("open the trace file in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .analysis.artifacts import ARTIFACTS

    _stem, produce = ARTIFACTS[args.name]
    print(produce().table)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.artifacts import build_report

    session = _session_from_args(args)
    try:
        text = build_report()
    finally:
        _finish_session(session)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(text)} chars)")
    return 0


def _cmd_validate(_args: argparse.Namespace) -> int:
    from .analysis import artifacts

    artifact = artifacts.backend_validation()
    print(artifact.table)
    report = artifact.data
    return 0 if report.ordering_agrees() and report.within_envelope() else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay an arrival stream through one deployment, run as a one-node fleet."""
    from .analysis.reporting import render_table
    from .cluster import build_single_deployment, single_deployment_rate
    from .serve import calibrate_service_model, shard_hot_degrees
    from .errors import WorkloadError
    from .workloads.streams import poisson_arrivals

    if not 0.0 < args.duration < float("inf"):
        raise WorkloadError(
            f"--duration must be positive and finite, got {args.duration!r}"
        )
    slo = args.slo_ms / 1000.0
    service, generator = calibrate_service_model(
        args.benchmark, args.seed, sample_tiles=args.tiles
    )

    degrees = shard_hot_degrees(generator, args.shards, tile_size=512)
    recorder = _digest_recorder(args, "serve", interval=args.digest_interval)
    simulator = build_single_deployment(
        service, slo, args.shards, args.replicas, hot_degrees=degrees,
        digest_recorder=recorder,
    )

    capacity = single_deployment_rate(service, slo, args.shards, args.replicas)
    rate = args.rate if args.rate is not None else capacity
    num_queries = max(1, int(round(rate * args.duration)))
    arrivals = poisson_arrivals(rate, num_queries, seed=args.seed)
    # The session brackets only the serving run, so the exported telemetry
    # carries batch spans without the calibration sweep's tile spans.
    session = _session_from_args(args)
    try:
        with _simsan_context(args) as sanitizer:
            report = simulator.run(arrivals)
    finally:
        _finish_session(session)

    summary = report.to_serving_dict()
    rows = [
        ["offered load", f"{rate:,.0f} q/s ({rate / capacity:.2f}x saturation)"],
        ["arrived / admitted / shed",
         f"{report.arrived} / {report.admitted} / {report.shed}"],
        ["shed rate", f"{report.shed_rate:.1%}"],
        ["goodput", f"{report.goodput:,.0f} q/s within SLO"],
        ["SLO attainment", f"{report.slo_attainment:.1%} of admitted"],
        *_latency_rows(summary, slo),
        ["batches", f"{report.batches} (mean size {report.mean_batch_size:.1f}, "
                    f"knee {service.knee})"],
        ["max degrade level", str(report.max_degrade_level)],
    ]
    print(render_table(
        ["quantity", "value"], rows,
        title=f"Serving {args.benchmark}: {args.shards} shards x "
              f"{args.replicas} replicas, SLO {args.slo_ms:g}ms",
    ))

    if args.out:
        _write_json(args.out, {
            "benchmark": args.benchmark,
            "seed": args.seed,
            "duration_s": args.duration,
            "rate_qps": rate,
            "saturating_rate_qps": capacity,
            "shards": args.shards,
            "replicas": args.replicas,
            "service": {
                "base_s": service.base,
                "per_query_s": service.per_query,
                "knee": service.knee,
            },
            "report": summary,
        })
    if args.run_dir:
        _register_run(
            args.run_dir,
            label=f"serve/{args.benchmark}",
            seed=args.seed,
            config={
                "benchmark": args.benchmark,
                "slo_ms": args.slo_ms,
                "shards": args.shards,
                "replicas": args.replicas,
                "tiles": args.tiles,
                "duration_s": args.duration,
                "rate_qps": rate,
            },
            workload={
                "kind": "poisson",
                "rate_qps": rate,
                "num_queries": num_queries,
            },
            metrics=summary,
            digests=recorder.entries,
            artifacts=_run_artifacts(args),
        )
    return _simsan_finish(sanitizer)


def _build_cluster_from_args(args: argparse.Namespace, recorder=None):
    """Calibrate the service model and assemble the fleet a CLI run drives.

    Shared by ``repro cluster`` and ``repro trace attribute`` so both
    commands simulate the exact same fleet for the same flags (same
    calibration sweep, placement, fault plan, and arrival stream).
    Returns ``(simulator, arrivals, rate, capacity, service, fault_config)``.
    """
    from .cluster import ClusterConfig, build_cluster, cluster_saturating_rate
    from .faults import ClusterFaultConfig
    from .serve import calibrate_service_model, shard_hot_degrees
    from .workloads.streams import poisson_arrivals

    # Same calibration path as ``serve``, so fleet timing rests on measured
    # tile costs.
    service, generator = calibrate_service_model(
        args.benchmark, args.seed, sample_tiles=args.tiles
    )

    config = ClusterConfig(
        data_nodes=args.nodes,
        service_nodes=args.service_nodes,
        shards=args.shards,
        replicas=args.replicas,
        racks=args.racks,
        slots_per_node=args.slots,
        slo=args.slo_ms / 1000.0,
        placement_strategy=args.placement,
        steal_policy=args.steal,
        autoscale=not args.no_autoscale,
        autoscale_min=args.autoscale_min,
        autoscale_interval=args.autoscale_interval,
    )
    degrees = shard_hot_degrees(generator, args.shards, tile_size=512)

    capacity = cluster_saturating_rate(service, config)
    rate = args.rate if args.rate is not None else capacity
    arrivals = poisson_arrivals(rate, args.requests, seed=args.seed)
    horizon = float(arrivals[-1])

    fault_config = None
    if args.fault_plan:
        fault_config = ClusterFaultConfig.from_spec(
            args.fault_plan, seed=args.seed, horizon=horizon
        )

    simulator = build_cluster(
        service,
        config,
        seed=args.seed,
        fault_config=fault_config,
        hot_degrees=degrees,
        digest_recorder=recorder,
    )
    return simulator, arrivals, rate, capacity, service, fault_config


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Simulate a fleet of service/data nodes under load and faults."""
    from .analysis.reporting import format_seconds, render_table
    from .obs import hooks

    slo = args.slo_ms / 1000.0
    recorder = _digest_recorder(args, "cluster", interval=args.digest_interval)
    (
        simulator, arrivals, rate, capacity, service, fault_config
    ) = _build_cluster_from_args(args, recorder=recorder)

    collector = None
    if args.attribution_out:
        from .obs.causal import CausalCollector

        collector = CausalCollector(seed=args.seed)

    session = _session_from_args(args)
    try:
        with _simsan_context(args) as sanitizer:
            with hooks.installed(collector=collector):
                report = simulator.run(arrivals)
    finally:
        _finish_session(session)

    if collector is not None:
        _write_json(args.attribution_out, collector.report().to_dict())

    summary = report.to_dict()
    rows = [
        ["offered load", f"{rate:,.0f} q/s ({rate / capacity:.2f}x saturation)"],
        ["fleet", f"{args.service_nodes} service + {args.nodes} data nodes, "
                  f"{args.racks} racks, {args.slots} slots/node"],
        ["placement", f"{args.shards} shards x "
                      f"{simulator.placement.total_replicas / args.shards:.1f} "
                      f"mean replicas ({args.placement})"],
        ["policies", f"steal={args.steal}, autoscale="
                     f"{'off' if args.no_autoscale else 'on'}"],
        ["arrived / completed / shed",
         f"{report.arrived} / {report.completed} / {report.shed}"],
        ["shed rate", f"{report.shed_rate:.2%}"],
        ["cache hit rate", f"{report.cache_hit_rate:.2%}"],
        ["goodput", f"{report.goodput:,.0f} q/s within SLO"],
        ["SLO attainment", f"{report.slo_attainment:.2%} of completed"],
        *_latency_rows(summary, slo),
    ]
    rows.append(["batches / shard tasks",
                 f"{report.batches} / {report.tasks_done}"])
    rows.append(["work stealing",
                 f"{report.steals} tasks ({report.steal_rate:.2%})"])
    rows.append(["failover",
                 f"{report.redispatches} redispatched, "
                 f"{report.parked_events} parked "
                 f"({format_seconds(report.parked_time)} total)"])
    rows.append(["shard outage",
                 f"{format_seconds(report.failover_downtime)} with no live "
                 f"replica"])
    rows.append(["autoscaling",
                 f"{report.scale_ups} up / {report.scale_downs} down "
                 f"(peak {report.peak_active_service_nodes} active)"])
    rows.append(["utilization skew", f"{report.utilization_skew:.2f}x"])
    print(render_table(
        ["quantity", "value"], rows,
        title=f"Fleet {args.benchmark}: {args.nodes} data nodes, "
              f"{args.replicas} replicas, SLO {args.slo_ms:g}ms",
    ))

    if args.out:
        _write_json(args.out, {
            "benchmark": args.benchmark,
            "seed": args.seed,
            "rate_qps": rate,
            "saturating_rate_qps": capacity,
            "requests": args.requests,
            "fault_plan": (
                simulator.fault_plan.to_dict() if fault_config else None
            ),
            "service": {
                "base_s": service.base,
                "per_query_s": service.per_query,
                "knee": service.knee,
            },
            "placement": simulator.placement.to_dict(),
            "report": summary,
        })
    if args.run_dir:
        _register_run(
            args.run_dir,
            label=f"cluster/{args.benchmark}",
            seed=args.seed,
            config={
                "benchmark": args.benchmark,
                "slo_ms": args.slo_ms,
                "data_nodes": args.nodes,
                "service_nodes": args.service_nodes,
                "shards": args.shards,
                "replicas": args.replicas,
                "racks": args.racks,
                "slots_per_node": args.slots,
                "placement_strategy": args.placement,
                "steal_policy": args.steal,
                "autoscale": not args.no_autoscale,
                "fault_plan": args.fault_plan,
                "rate_qps": rate,
            },
            workload={
                "kind": "poisson",
                "rate_qps": rate,
                "num_queries": args.requests,
            },
            metrics=summary,
            digests=recorder.entries,
            artifacts=_run_artifacts(args, attribution=args.attribution_out),
        )
    return _simsan_finish(sanitizer)


def _cmd_faults(args: argparse.Namespace) -> int:
    """Run the fault-injection matrix and print/write its report."""
    from .analysis.reporting import format_seconds, render_table
    from .errors import WorkloadError
    from .faults.harness import FAULT_CLASSES, run_fault_matrix

    classes = args.classes.split(",") if args.classes else list(FAULT_CLASSES)
    try:
        scales = [float(s) for s in args.scales.split(",")]
    except ValueError:
        raise WorkloadError(
            f"--scales must be comma-separated numbers, got {args.scales!r}"
        ) from None
    recorder = _digest_recorder(args, "faults")
    session = _session_from_args(args)
    try:
        with _simsan_context(args) as sanitizer:
            report = run_fault_matrix(
                num_labels=args.labels,
                num_queries=args.queries,
                seed=args.seed,
                rber_scales=scales,
                fault_classes=classes,
                digest_recorder=recorder,
            )
    finally:
        _finish_session(session)
    rows = []
    for fault_class in classes:
        for scale in scales:
            cell = report.cell(fault_class, scale)
            rows.append([
                fault_class,
                f"{scale:g}x",
                f"{cell['retention']:.1%}",
                f"{cell['latency_vs_clean']:.3f}x",
                format_seconds(cell["storm"]["mean_read_latency_s"]),
                int(cell["storm"]["failed_reads"]),
            ])
    print(render_table(
        ["fault class", "rber", "top-k retention", "latency vs clean",
         "ssd read latency", "failed reads"],
        rows,
        title=f"Fault matrix: {report.num_labels} labels, "
              f"{report.queries} queries, seed {report.seed}",
    ))
    if session is not None:
        tiles = session.registry.histogram(
            "ecssd_tile_latency_seconds",
            "steady-state cost of one pipeline tile",
        ).quantiles_or_none()
        if tiles is not None:
            print(
                f"tile latency p50/p95/p99/p99.9 across the matrix: "
                f"{format_seconds(tiles['p50'])} / "
                f"{format_seconds(tiles['p95'])} / "
                f"{format_seconds(tiles['p99'])} / "
                f"{format_seconds(tiles['p99.9'])}"
            )
    if args.out:
        _write_json(args.out, report.to_dict())
    if args.run_dir:
        _register_run(
            args.run_dir,
            label="faults",
            seed=args.seed,
            config={
                "labels": args.labels,
                "queries": args.queries,
                "scales": args.scales,
                "classes": ",".join(classes),
            },
            workload={"kind": "fault-matrix", "cells": len(classes) * len(scales)},
            metrics=report.to_dict(),
            digests=recorder.entries,
            artifacts={"matrix": args.out} if args.out else None,
        )
    return _simsan_finish(sanitizer)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Instrumented inference + critical-path attribution over its trace."""
    from . import obs
    from .obs.profile import profile_trace

    if getattr(args, "spans", None):
        # Offline mode: profile a recorded pipeline span stream (e.g. the
        # --jsonl-stream-out file of a quickstart run) instead of running a
        # fresh instrumented inference.
        from .obs.export import read_jsonl_spans

        report = profile_trace(read_jsonl_spans(args.spans))
        print(report.render())
        if args.out:
            _write_json(args.out, report.to_dict())
        return 0

    # Recorders live in memory; outputs (if any) flow through the usual
    # session flush.
    session = _session_from_args(args) or obs.configure(None)
    try:
        _screen_demo_queries(args.labels, args.seed)
        report = profile_trace(session.tracer.spans)
    finally:
        _finish_session(session)
    print(report.render())
    if args.out:
        _write_json(args.out, report.to_dict())
    if args.run_dir:
        _register_run(
            args.run_dir,
            label="profile",
            seed=args.seed,
            config={"labels": args.labels},
            workload={"kind": "instrumented-inference"},
            metrics=report.to_dict(),
            artifacts={"profile": args.out} if args.out else None,
        )
    return 0


def _coerce_override(value: str) -> object:
    """CLI ``--set key=value`` values: JSON when it parses, else a string."""
    import json

    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def _cmd_ablate(args: argparse.Namespace) -> int:
    """Plan, execute, or re-score an ablation campaign."""
    from .ablate import (
        builtin_campaign,
        campaign_names,
        generate_matrix,
        report_from_registry,
        run_campaign,
    )
    from .analysis.reporting import render_table

    overrides: Dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"--set needs key=value, got {item!r}", file=sys.stderr)
            return 2
        overrides[key] = _coerce_override(value)
    spec = builtin_campaign(args.campaign, overrides)
    matrix = generate_matrix(spec)

    if args.ablate_command == "plan":
        rows = [
            [
                str(cell.index),
                cell.cell_id[:16],
                "champion" if cell.is_champion
                else (f"{cell.ablated_axis}={cell.ablated_level}"
                      if cell.ablated_axis else "variant"),
                ", ".join(f"{k}={v}" for k, v in cell.assignment.items()),
            ]
            for cell in matrix.cells
        ]
        print(render_table(
            ["cell", "run id", "role", "assignment"], rows,
            title=f"Campaign {spec.name}: {spec.mode}, runner "
                  f"{spec.runner}, seed {spec.seed} "
                  f"({len(matrix.cells)} cells; built-ins: "
                  f"{', '.join(campaign_names())})",
        ))
        return 0

    if args.ablate_command == "run":
        result = run_campaign(
            spec,
            run_dir=args.run_dir,
            workers=args.workers,
            resume=not args.no_resume,
        )
        report = result.report
        print(
            f"campaign {spec.name}: {len(matrix.cells)} cells "
            f"({len(result.executed)} executed, {len(result.resumed)} "
            f"resumed)"
            + (f", campaign manifest {result.campaign_id}"
               if result.campaign_id else "")
        )
    else:  # report
        if not args.run_dir:
            print("ablate report needs --run-dir", file=sys.stderr)
            return 2
        report = report_from_registry(
            spec, args.run_dir, allow_partial=args.allow_partial
        )

    rows = [
        [
            str(entry.rank),
            entry.axis,
            entry.champion_level,
            entry.level,
            f"{entry.harm_score:+.4f}",
            f"{entry.sign:+d}",
            str(entry.pairs),
        ]
        for entry in report.ranking
    ]
    print(render_table(
        ["rank", "axis", "champion", "ablated to", "harm", "sign", "pairs"],
        rows,
        title=f"Component importance: {spec.name} "
              f"(champion {report.champion_id[:16]})",
    ))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.out}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as fh:
            fh.write(report.render_markdown())
        print(f"wrote {args.markdown}")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """Inspect, compare, and divergence-check registered run manifests."""
    from .errors import ObservabilityError
    from .obs.perfdiff import parse_tolerance_spec
    from .obs.runs import RunRegistry, compare_many, diverge_runs

    registry = RunRegistry(args.run_dir)
    command = args.runs_command
    if command == "list":
        manifests = registry.query(label=args.label, seed=args.seed)
        for manifest in manifests:
            print(manifest.summary_line())
        if not manifests:
            print(f"no runs registered under {args.run_dir}")
        return 0
    if command == "show":
        print(registry.get(args.run_id).to_json(), end="")
        return 0
    if command == "compare":
        extra = tuple(parse_tolerance_spec(spec) for spec in args.tolerance)
        # First run is the baseline; every later run diffs against it.
        # --missing-ok skips unresolvable IDs (e.g. campaign cells whose
        # optional artifacts were never produced) instead of raising.
        resolved = []
        for run_id in args.run_ids:
            try:
                resolved.append(registry.get(run_id))
            except ObservabilityError as exc:
                if not args.missing_ok:
                    raise
                print(f"skipping {run_id}: {exc}")
        if len(resolved) < 2:
            print("need a baseline and at least one comparable run")
            return 0 if args.missing_ok else 2
        baseline, candidates = resolved[0], resolved[1:]
        exit_code = 0
        for candidate, report in compare_many(
            baseline,
            candidates,
            tolerances=extra,
            default_rel_tol=args.default_rel_tol,
        ):
            if len(candidates) > 1:
                print(f"== {baseline.run_id} vs {candidate.run_id} "
                      f"({candidate.label or 'unlabelled'}) ==")
            print(report.render(show_ok=args.show_ok))
            exit_code = max(exit_code, report.exit_code)
        return exit_code
    if command == "diverge":
        manifest_a = registry.get(args.run_a)
        manifest_b = registry.get(args.run_b)
        report = diverge_runs(manifest_a, manifest_b)
        print(report.render())
        if report.divergence is not None and args.context > 0:
            _print_divergence_context(manifest_a, report, args.context)
        return 1 if report.diverged else 0
    print(f"unknown runs subcommand {command!r}", file=sys.stderr)
    return 2


def _print_divergence_context(manifest, report, limit: int) -> None:
    """Print spans bracketing the first divergence, from the spans artifact."""
    from .obs.digest import spans_in_window
    from .obs.export import read_jsonl_spans

    artifact = manifest.artifacts.get("spans")
    if artifact is None:
        return
    try:
        spans = read_jsonl_spans(artifact["path"])
    except OSError:
        print(f"(spans artifact {artifact['path']} unreadable; no context)")
        return
    divergence = report.divergence
    window = spans_in_window(
        spans, divergence.last_match_sim_time, divergence.sim_time_a
    )
    if not window:
        return
    print(f"spans between last match and divergence ({report.run_a}):")
    for span in window[-limit:]:
        print(
            f"  [{span.sim_start:.6g}s - {span.sim_end:.6g}s] "
            f"{span.track}/{span.name}"
        )


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run

    return run(args)


def _add_verbose(parser: argparse.ArgumentParser, dest: str = "verbose") -> None:
    parser.add_argument(
        "-v",
        "--verbose",
        dest=dest,
        action="count",
        default=0,
        help="-v for INFO, -vv for DEBUG logging",
    )


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    """Fleet-shape flags shared by ``cluster`` and ``trace attribute``."""
    from .cluster import PLACEMENT_STRATEGIES, STEAL_POLICIES

    parser.add_argument(
        "--benchmark", default="GNMT-E32K", help="Table 3 benchmark name"
    )
    parser.add_argument(
        "--nodes", type=int, default=8, help="data (storage) nodes in the fleet"
    )
    parser.add_argument(
        "--service-nodes", type=int, default=4,
        help="stateless service (request-plane) nodes",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="label-space shards"
    )
    parser.add_argument(
        "--replicas", type=int, default=24,
        help="total shard-replica instances placed on data nodes",
    )
    parser.add_argument(
        "--racks", type=int, default=2, help="racks (fault domains)"
    )
    parser.add_argument(
        "--slots", type=int, default=2,
        help="concurrent shard tasks per data node",
    )
    parser.add_argument(
        "--rate", type=float, default=None,
        help="offered load in queries/s (default: the fleet saturating rate)",
    )
    parser.add_argument(
        "--requests", type=int, default=1_000_000,
        help="arrivals to replay through the fleet",
    )
    parser.add_argument(
        "--slo-ms", type=float, default=50.0, help="latency SLO in milliseconds"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--placement", choices=PLACEMENT_STRATEGIES,
        default=PLACEMENT_STRATEGIES[0],
        help="replica placement strategy (default: rack-spread)",
    )
    parser.add_argument(
        "--steal", choices=STEAL_POLICIES, default=STEAL_POLICIES[0],
        help="work-steal victim-queue policy (default: newest)",
    )
    parser.add_argument(
        "--no-autoscale", action="store_true",
        help="pin every service node active (disable the autoscaler)",
    )
    parser.add_argument(
        "--autoscale-min", type=int, default=1,
        help="minimum active service nodes when autoscaling",
    )
    parser.add_argument(
        "--autoscale-interval", type=float, default=0.05,
        help="autoscaler control interval in seconds",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="cluster fault classes to inject, e.g. "
             "'node-crash=2,partition=1,slow-node=2'",
    )
    parser.add_argument(
        "--tiles", type=int, default=4,
        help="sample tiles for service-model calibration",
    )


def _add_simsan(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--simsan",
        action="store_true",
        help="enable the runtime sim-sanitizer (monotone pops, finite "
             "times, RNG stream discipline); also enabled by REPRO_SIMSAN=1",
    )


def _simsan_context(args: argparse.Namespace):
    """A ``simsan.installed`` context when requested, else a no-op context.

    The sanitizer only observes — it changes no arithmetic and consumes no
    RNG state — so an instrumented run produces byte-identical digests and
    the same run id as a plain run at the same seed.
    """
    from contextlib import nullcontext

    from .lint.simsan import SimSanitizer, env_enabled, installed

    if getattr(args, "simsan", False) or env_enabled():
        return installed(SimSanitizer())
    return nullcontext(None)


def _simsan_finish(sanitizer) -> int:
    """Print the sanitizer report; nonzero when violations were recorded."""
    if sanitizer is None:
        return 0
    print(sanitizer.report())
    return 1 if sanitizer.violations else 0


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write a Chrome trace-event JSON file (Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write Prometheus text-exposition metrics",
    )
    parser.add_argument(
        "--jsonl-stream-out",
        default=None,
        help="stream finished spans incrementally to this JSONL file "
             "(bounded memory: spans bypass the in-memory tracer, so "
             "--trace-out cannot be combined with it)",
    )


def _check_output_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject telemetry flag combinations before any work runs.

    Streamed spans bypass the tracer's in-memory list, so ``profile`` would
    have nothing to attribute; the config rejects the other combinations.
    """
    from .errors import ConfigurationError

    if args.command == "profile" and getattr(args, "jsonl_stream_out", None):
        parser.error(
            "--jsonl-stream-out cannot be used with profile: streamed spans "
            "bypass the tracer the profile reads; stream a quickstart run and "
            "pass the file to profile --spans"
        )
    try:
        _observability_config(args)
    except ConfigurationError as exc:
        parser.error(str(exc))


def build_parser() -> argparse.ArgumentParser:
    from .analysis.artifacts import ARTIFACTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="ECSSD (ISCA 2023) reproduction command line",
    )
    # -v works on both sides of the subcommand; the two counts are summed
    # (subparser defaults would clobber a pre-subcommand value otherwise).
    _add_verbose(parser, dest="verbose_global")
    sub = parser.add_subparsers(dest="command", required=True)

    benchmarks = sub.add_parser("benchmarks", help="print the Table 3 registry")
    _add_verbose(benchmarks)

    quickstart = sub.add_parser("quickstart", help="run a small end-to-end inference")
    quickstart.add_argument("--labels", type=int, default=4096)
    quickstart.add_argument("--seed", type=int, default=42)
    _add_observability_flags(quickstart)
    _add_verbose(quickstart)

    figure = sub.add_parser(
        "figure", help="regenerate one paper artifact and print its table"
    )
    figure.add_argument("name", choices=tuple(ARTIFACTS))
    _add_verbose(figure)

    report = sub.add_parser("report", help="write a full reproduction report")
    report.add_argument("--output", default="REPORT.md")
    _add_observability_flags(report)
    _add_verbose(report)

    trace = sub.add_parser(
        "trace", help="run an instrumented inference and export its telemetry"
    )
    trace.add_argument("--labels", type=int, default=4096)
    trace.add_argument("--seed", type=int, default=42)
    trace.add_argument(
        "--out", default="trace.json", help="Chrome trace-event output path"
    )
    trace.add_argument("--metrics-out", default=None)
    _add_verbose(trace)
    trace_sub = trace.add_subparsers(dest="trace_command")
    attribute = trace_sub.add_parser(
        "attribute",
        help="run a causally-traced fleet simulation and print where "
             "p50/p95/p99/p99.9 latency lives, per stage and fault class",
    )
    _add_cluster_flags(attribute)
    attribute.set_defaults(
        requests=100_000,
        fault_plan="node-crash=2,partition=1,slow-node=2",
    )
    attribute.add_argument(
        "--slowest", type=int, default=8,
        help="exact K slowest end-to-end requests kept as tail exemplars",
    )
    attribute.add_argument(
        "--sample", type=int, default=16,
        help="size of the seeded Algorithm-R exemplar sample",
    )
    attribute.add_argument(
        "--out", default=None,
        help="write the attribution report (stages, fault classes, "
             "exemplars) as JSON",
    )
    attribute.add_argument(
        "--exemplar-out", default=None,
        help="export one exemplar's causal graph as a Chrome trace",
    )
    attribute.add_argument(
        "--exemplar", type=int, default=None, metavar="REQUEST_ID",
        help="which exemplar to export (default: the slowest request)",
    )
    _add_simsan(attribute)
    _add_verbose(attribute)

    validate = sub.add_parser(
        "validate", help="cross-check analytic vs event backends"
    )
    _add_verbose(validate)

    serve = sub.add_parser(
        "serve", help="simulate the SLO-aware serving layer under load"
    )
    serve.add_argument(
        "--benchmark", default="GNMT-E32K", help="Table 3 benchmark name"
    )
    serve.add_argument(
        "--rate", type=float, default=None,
        help="offered load in queries/s (default: the saturating rate)",
    )
    serve.add_argument(
        "--duration", type=float, default=1.0,
        help="simulated seconds of arrivals to generate",
    )
    serve.add_argument(
        "--slo-ms", type=float, default=20.0, help="latency SLO in milliseconds"
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--shards", type=int, default=2, help="label shards per replica group"
    )
    serve.add_argument(
        "--replicas", type=int, default=1, help="replica groups"
    )
    serve.add_argument(
        "--tiles", type=int, default=4,
        help="sample tiles for service-model calibration",
    )
    serve.add_argument(
        "--out", default=None, help="write the run summary as JSON"
    )
    serve.add_argument(
        "--run-dir", default=None,
        help="register a run manifest (with a digest track) in this directory",
    )
    serve.add_argument(
        "--digest-interval", type=int, default=256,
        help="event-loop steps between state digests (with --run-dir)",
    )
    _add_simsan(serve)
    _add_observability_flags(serve)
    _add_verbose(serve)

    cluster = sub.add_parser(
        "cluster",
        help="simulate a fleet of service/data nodes with replica failover",
    )
    _add_cluster_flags(cluster)
    cluster.add_argument(
        "--out", default=None, help="write the run summary as JSON"
    )
    cluster.add_argument(
        "--attribution-out", default=None,
        help="run with causal tracing and write the tail-latency "
             "attribution report as JSON (observe-only: same run id)",
    )
    cluster.add_argument(
        "--run-dir", default=None,
        help="register a run manifest (with a digest track) in this directory",
    )
    cluster.add_argument(
        "--digest-interval", type=int, default=4096,
        help="event-loop steps between state digests (with --run-dir)",
    )
    _add_simsan(cluster)
    _add_observability_flags(cluster)
    _add_verbose(cluster)

    profile = sub.add_parser(
        "profile",
        help="run an instrumented inference and print its critical-path "
             "attribution",
    )
    profile.add_argument("--labels", type=int, default=4096)
    profile.add_argument("--seed", type=int, default=42)
    profile.add_argument(
        "--spans", default=None, metavar="PATH",
        help="profile a recorded pipeline span stream (a --jsonl-stream-out "
             "file of an instrumented inference) instead of running a fresh "
             "one; for serve/cluster latency use `repro trace attribute`",
    )
    profile.add_argument(
        "--out", default=None,
        help="write the attribution report as JSON (sim-clock only: "
             "byte-identical for a given seed)",
    )
    profile.add_argument(
        "--run-dir", default=None,
        help="register a run manifest in this directory",
    )
    _add_observability_flags(profile)
    _add_verbose(profile)

    faults = sub.add_parser(
        "faults", help="sweep the fault-injection matrix (RBER x fault class)"
    )
    faults.add_argument("--labels", type=int, default=2048)
    faults.add_argument("--queries", type=int, default=16)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument(
        "--scales", default="1,5,10",
        help="comma-separated RBER scale multipliers to sweep",
    )
    faults.add_argument(
        "--classes", default=None,
        help="comma-separated fault classes (default: all)",
    )
    faults.add_argument(
        "--out", default=None, help="write the matrix report as JSON"
    )
    faults.add_argument(
        "--run-dir", default=None,
        help="register a run manifest (with a digest track) in this directory",
    )
    _add_simsan(faults)
    _add_observability_flags(faults)
    _add_verbose(faults)

    ablate = sub.add_parser(
        "ablate",
        help="plan/run/score ablation campaigns over component axes",
    )
    _add_verbose(ablate)
    ablate_sub = ablate.add_subparsers(dest="ablate_command", required=True)

    def _ablate_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--campaign", default="smoke",
            help="built-in campaign name (see `repro ablate plan`)",
        )
        parser.add_argument(
            "--seed", type=int, default=None, help="override the spec seed"
        )
        parser.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a runner param (JSON value or bare string)",
        )

    ablate_plan = ablate_sub.add_parser(
        "plan", help="print the campaign's cell matrix without executing"
    )
    _ablate_common(ablate_plan)
    ablate_run = ablate_sub.add_parser(
        "run", help="execute every cell and print the importance ranking"
    )
    _ablate_common(ablate_run)
    ablate_run.add_argument(
        "--run-dir", default=None,
        help="register per-cell + campaign manifests here (enables resume)",
    )
    ablate_run.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for cell execution (1 = serial)",
    )
    ablate_run.add_argument(
        "--no-resume", action="store_true",
        help="re-execute cells even when their manifests already exist",
    )
    ablate_run.add_argument(
        "--out", default=None, help="write the ranked report as JSON"
    )
    ablate_run.add_argument(
        "--markdown", default=None, help="write the ranked report as markdown"
    )
    ablate_report = ablate_sub.add_parser(
        "report", help="re-score a campaign from registered cell manifests"
    )
    _ablate_common(ablate_report)
    ablate_report.add_argument(
        "--run-dir", required=True,
        help="registry holding the campaign's cell manifests",
    )
    ablate_report.add_argument(
        "--allow-partial", action="store_true",
        help="score whatever cells exist (champion still required)",
    )
    ablate_report.add_argument(
        "--out", default=None, help="write the ranked report as JSON"
    )
    ablate_report.add_argument(
        "--markdown", default=None, help="write the ranked report as markdown"
    )

    runs = sub.add_parser(
        "runs", help="inspect, compare, and divergence-check registered runs"
    )
    runs.add_argument(
        "--run-dir", default="runs",
        help="directory holding run manifests (default: runs/)",
    )
    _add_verbose(runs)
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list registered runs")
    runs_list.add_argument("--label", default=None, help="exact label filter")
    runs_list.add_argument("--seed", type=int, default=None, help="seed filter")
    runs_show = runs_sub.add_parser("show", help="print one run manifest")
    runs_show.add_argument("run_id", help="run ID (unambiguous prefix ok)")
    runs_compare = runs_sub.add_parser(
        "compare",
        help="diff runs' summary metrics under tolerance bands (first run "
             "is the baseline)",
    )
    runs_compare.add_argument(
        "run_ids", nargs="+", metavar="RUN_ID",
        help="baseline followed by one or more candidate runs",
    )
    runs_compare.add_argument(
        "--missing-ok", action="store_true",
        help="skip run IDs that don't resolve instead of failing",
    )
    runs_compare.add_argument(
        "--tolerance", action="append", default=[],
        metavar="PATTERN=REL[:DIR]", help="extra tolerance band",
    )
    runs_compare.add_argument("--default-rel-tol", type=float, default=0.05)
    runs_compare.add_argument("--show-ok", action="store_true")
    runs_diverge = runs_sub.add_parser(
        "diverge", help="find the first state divergence between two runs"
    )
    runs_diverge.add_argument("run_a")
    runs_diverge.add_argument("run_b")
    runs_diverge.add_argument(
        "--context", type=int, default=8,
        help="max spans of context to print around the divergence",
    )

    from .lint.cli import configure_parser as configure_lint_parser

    lint = sub.add_parser(
        "lint", help="run the reprolint determinism static-analysis suite"
    )
    configure_lint_parser(lint)
    _add_verbose(lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .obs import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    _check_output_flags(parser, args)
    verbosity = getattr(args, "verbose_global", 0) + getattr(args, "verbose", 0)
    configure_logging(verbosity)
    handlers = {
        "benchmarks": _cmd_benchmarks,
        "quickstart": _cmd_quickstart,
        "figure": _cmd_figure,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "validate": _cmd_validate,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "faults": _cmd_faults,
        "ablate": _cmd_ablate,
        "profile": _cmd_profile,
        "runs": _cmd_runs,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
