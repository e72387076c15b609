"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig4
    python -m repro run all
    python -m repro sweep "GTX 680" backprop
    python -m repro campaign out/ --faults aggressive
    python -m repro campaign out/ --trace --jobs 4
    python -m repro campaign out/ --live --flight-recorder
    python -m repro top out/
    python -m repro trace summarize out/events.jsonl
    python -m repro trace export out/events.jsonl --format perfetto
    python -m repro chaos out/
    python -m repro governor --online --out regret.json
    python -m repro governor --faults aggressive --gpu "GTX 480"
    python -m repro bench run --quick
    python -m repro bench compare BENCH_pipeline.json new/BENCH_pipeline.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__

#: Exit code of a gracefully interrupted campaign (EX_TEMPFAIL: retry —
#: here, re-run with ``--resume`` — is expected to work).
EXIT_INTERRUPTED = 75


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS

    for experiment_id, (title, _run) in EXPERIMENTS.items():
        print(f"  {experiment_id:8s} {title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import all_experiments, run

    ids = all_experiments() if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        result = run(experiment_id, seed=args.seed)
        print(result.to_text())
        print()
    return 0


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        metavar="SPEC",
        help="declarative campaign spec, TOML or JSON (see "
        "docs/ARCHITECTURE.md); explicit flags override spec values",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the measurement work (default: 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed work-unit result cache location",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the work-unit result cache",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan: a preset "
        "('aggressive', 'off') or a JSON plan file (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="stream a repro.events span/event log (see "
        "docs/OBSERVABILITY.md); default path: events.jsonl under the "
        "output directory",
    )
    parser.add_argument(
        "--live",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="stream versioned repro.events envelopes to a tailable "
        "NDJSON log for 'repro top' (see docs/OBSERVABILITY.md); "
        "default path: events.ndjson under the output directory",
    )
    parser.add_argument(
        "--flight-recorder",
        nargs="?",
        const="auto",
        default=None,
        dest="flight_recorder",
        metavar="PATH",
        help="keep a bounded in-memory ring of recent events, dumped to "
        "flight.ndjson on watchdog timeouts, breaker quarantines, pool "
        "rebuilds and shutdown signals; default path: flight.ndjson under "
        "the output directory",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        dest="metrics_out",
        metavar="PATH",
        help="write the aggregated metrics.json artifact (campaigns "
        "default to <directory>/metrics.json whenever telemetry is on)",
    )
    parser.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        dest="unit_timeout",
        metavar="SECONDS",
        help="per-unit wall-clock watchdog budget; hung units are timed "
        "out and retried as transient faults (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        dest="breaker_threshold",
        metavar="K",
        help="open a circuit breaker after K permanent failures of one "
        "(GPU, benchmark) fault class and quarantine its remaining units",
    )


def _campaign_spec(args: argparse.Namespace, default_gpus=None):
    """Resolve --config plus explicit flags into one CampaignSpec.

    The spec file (when given) provides the baseline; every flag the
    user set explicitly overrides its field.  Flag-only invocations
    synthesize the equivalent spec, so both paths archive the same
    resolved document in the campaign manifest.
    """
    from repro.session import CampaignSpec, load_spec

    config = getattr(args, "config", None)
    spec = load_spec(config) if config is not None else CampaignSpec()
    overrides: dict[str, object] = {}
    if getattr(args, "gpus", None) is not None:
        overrides["gpus"] = tuple(args.gpus)
    elif spec.gpus is None and default_gpus is not None:
        overrides["gpus"] = tuple(default_gpus)
    if getattr(args, "benchmarks", None) is not None:
        overrides["benchmarks"] = tuple(args.benchmarks)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.no_cache:
        overrides["cache"] = False
    elif args.cache_dir is not None:
        overrides["cache"] = args.cache_dir
    if getattr(args, "faults", None) is not None:
        overrides["faults"] = args.faults
    if args.trace is not None:
        overrides["trace"] = True if args.trace == "auto" else args.trace
    if getattr(args, "live", None) is not None:
        overrides["live"] = True if args.live == "auto" else args.live
    if getattr(args, "flight_recorder", None) is not None:
        overrides["flight_recorder"] = (
            True if args.flight_recorder == "auto" else args.flight_recorder
        )
    if getattr(args, "unit_timeout", None) is not None:
        overrides["unit_timeout_s"] = args.unit_timeout
    if getattr(args, "breaker_threshold", None) is not None:
        overrides["breaker_threshold"] = args.breaker_threshold
    return spec.override(**overrides) if overrides else spec


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.arch.specs import get_gpu
    from repro.characterize.sweep import FrequencySweep
    from repro.kernels.suites import get_benchmark
    from repro.session import RunContext

    spec = _campaign_spec(args)
    gpu_name = args.gpu or (spec.gpus[0] if spec.gpus else None)
    bench_name = args.benchmark or (spec.benchmarks[0] if spec.benchmarks else None)
    if gpu_name is None or bench_name is None:
        print(
            "sweep needs a GPU and a benchmark (arguments or --config)",
            file=sys.stderr,
        )
        return 2
    gpu = get_gpu(gpu_name)
    bench = get_benchmark(bench_name)
    ctx = RunContext.from_spec(spec, metrics_path=args.metrics_out)
    sweep = FrequencySweep(gpu, ctx)
    try:
        results = sweep.run_benchmark(bench)
    finally:
        if ctx.telemetry is not None:
            from repro.telemetry import metrics_document, write_metrics_json

            snapshot = ctx.telemetry.metrics.snapshot()
            ctx.telemetry.tracer.emit(
                {"type": "metrics", **metrics_document(snapshot)}
            )
            if ctx.metrics_path is not None:
                write_metrics_json(ctx.metrics_path, snapshot)
            ctx.close()
    events_path = ctx.trace_path
    default = results.get("H-H")
    print(f"{bench} on {gpu}:")
    print(f"{'pair':6s} {'time[s]':>9s} {'power[W]':>9s} {'energy[J]':>10s} {'eff vs H-H':>11s}")
    for key, m in results.items():
        if default is not None:
            gain = (default.energy_j / m.energy_j - 1.0) * 100.0
            gain_text = f"{gain:+10.1f}%"
        else:
            gain_text = f"{'n/a':>11s}"
        print(
            f"{key:6s} {m.exec_seconds:9.3f} {m.avg_power_w:9.1f} "
            f"{m.energy_j:10.1f} {gain_text}"
        )
    for failure in sweep.last_failures:
        print(f"  lost {failure.unit.pair}: {failure.describe()}")
    if events_path is not None:
        print(f"trace: {events_path}")
    return 0


def _interrupted(campaign, exc) -> int:
    print(f"\ninterrupted: {exc}", file=sys.stderr)
    print(
        f"journal flushed; re-run with --resume to continue "
        f"({campaign.journal_path})",
        file=sys.stderr,
    )
    return EXIT_INTERRUPTED


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import Campaign
    from repro.errors import CampaignInterrupted
    from repro.execution.resilience import GracefulShutdown
    from repro.session import RunContext

    spec = _campaign_spec(args)
    ctx = RunContext.from_spec(
        spec, base_dir=args.directory, metrics_path=args.metrics_out
    )
    campaign = Campaign(
        args.directory,
        gpus=spec.gpus,
        benchmarks=spec.benchmarks,
        pairs=spec.pairs,
        ctx=ctx,
    )
    try:
        with GracefulShutdown():
            summaries = campaign.run(refresh=args.refresh, resume=args.resume)
    except CampaignInterrupted as exc:
        return _interrupted(campaign, exc)
    finally:
        ctx.close()
    events_path = ctx.trace_path
    print(
        f"{'GPU':16s} {'power R̄²':>9s} {'err[%]':>7s} {'err[W]':>7s} "
        f"{'perf R̄²':>9s} {'err[%]':>7s}"
    )
    for s in summaries:
        print(
            f"{s.gpu:16s} {s.power_r2:9.2f} {s.power_err_pct:7.1f} "
            f"{s.power_err_w:7.1f} {s.perf_r2:9.2f} {s.perf_err_pct:7.1f}"
        )
    if campaign.last_stats is not None and campaign.last_stats.total_units:
        print(f"\nexecution: {campaign.last_stats.summary()}")
    if campaign.faults is not None and campaign.last_health is not None:
        print(f"\nhealth ({campaign.faults.name} fault plan):")
        print(campaign.last_health.summary())
    if events_path is not None:
        print(f"\ntrace: {events_path}")
        print(f"metrics: {campaign.metrics_path}")
    elif campaign.telemetry is not None:
        print(f"\nmetrics: {campaign.metrics_path}")
    print(f"\narchived under {campaign.directory}/")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos smoke: a small campaign under the aggressive fault plan.

    Exercises every fault path (profiler exclusions, meter dropout and
    glitches, reconfiguration retries, unit crashes) and proves the
    campaign completes and accounts for its losses.
    """
    from repro.campaign import Campaign
    from repro.errors import CampaignInterrupted
    from repro.execution.resilience import GracefulShutdown
    from repro.session import RunContext

    spec = _campaign_spec(args, default_gpus=["GTX 460"])
    if spec.faults is None:
        if args.faults is not None:
            print(
                "fault plan is null; chaos needs injected faults",
                file=sys.stderr,
            )
            return 2
        spec = spec.override(faults="aggressive")
    ctx = RunContext.from_spec(
        spec, base_dir=args.directory, metrics_path=args.metrics_out
    )
    campaign = Campaign(
        args.directory,
        gpus=spec.gpus,
        benchmarks=spec.benchmarks,
        pairs=spec.pairs,
        ctx=ctx,
    )
    try:
        with GracefulShutdown():
            campaign.run(refresh=args.refresh, resume=args.resume)
    except CampaignInterrupted as exc:
        return _interrupted(campaign, exc)
    finally:
        ctx.close()
    health = campaign.last_health
    print(f"chaos campaign survived the '{spec.faults.name}' fault plan:")
    print(health.summary())
    print(f"\nhealth report: {campaign.health_path}")
    if ctx.trace_path is not None:
        print(f"trace: {ctx.trace_path}")
    return 0


def _cmd_governor(args: argparse.Namespace) -> int:
    """Score the closed-loop online governor against the oracle.

    Streams one campaign per GPU through the recursive estimators,
    re-plans frequency pairs from the live model, and prints (and
    optionally archives) the per-GPU energy-regret table.
    """
    import dataclasses
    import json
    import pathlib

    from repro.arch.specs import GPU_NAMES
    from repro.experiments.ext_governor_online import regret_document
    from repro.session import GovernorSpec, RunContext

    spec = _campaign_spec(args)
    governor = spec.governor or GovernorSpec(mode="online")
    if args.online:
        governor = dataclasses.replace(governor, mode="online")
    if args.forgetting is not None:
        governor = dataclasses.replace(governor, forgetting=args.forgetting)
    if governor.mode != "online":
        print(
            "repro governor evaluates the online closed loop; pass "
            "--online or set governor mode 'online' in --config",
            file=sys.stderr,
        )
        return 2
    gpu_names = spec.gpus if spec.gpus else GPU_NAMES
    ctx = RunContext.from_spec(
        spec.override(governor=governor), metrics_path=args.metrics_out
    )
    try:
        document = regret_document(gpu_names, spec=governor, ctx=ctx)
    finally:
        if ctx.telemetry is not None:
            from repro.telemetry import metrics_document, write_metrics_json

            snapshot = ctx.telemetry.metrics.snapshot()
            ctx.telemetry.tracer.emit(
                {"type": "metrics", **metrics_document(snapshot)}
            )
            if ctx.metrics_path is not None:
                write_metrics_json(ctx.metrics_path, snapshot)
        ctx.close()
    print(
        f"{'GPU':16s} {'online[%]':>10s} {'offline[%]':>11s} "
        f"{'updates':>8s} {'skipped':>8s} {'fallbacks':>10s} {'switches':>9s}"
    )
    for name, entry in document["gpus"].items():
        print(
            f"{name:16s} {entry['mean_regret_pct']:10.2f} "
            f"{entry['offline_mean_regret_pct']:11.2f} "
            f"{entry['updates']:8d} {entry['skipped']:8d} "
            f"{entry['fallbacks']:10d} {entry['switches']:9d}"
        )
    if document["faults"] is not None:
        print(f"\nfault plan: {document['faults']} (oracle stays fault-free)")
    if args.out is not None:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nregret table: {path}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Place a power-capped job stream across a synthesized GPU fleet.

    Synthesizes the device inventory, measures per-device power/perf
    tables through the batch engine (journaled; SIGTERM-safe), places
    the stream with the naive, model-driven and oracle policies and
    archives the ``fleet.json`` report.
    """
    import dataclasses
    import pathlib

    from repro.errors import CampaignInterrupted
    from repro.execution.resilience import GracefulShutdown
    from repro.fleet import run_fleet_campaign
    from repro.fleet.campaign import FLEET_REPORT_NAME, JOURNAL_NAME
    from repro.session import FleetSpec, RunContext

    spec = _campaign_spec(args)
    fleet = spec.fleet or FleetSpec()
    overrides: dict[str, object] = {}
    if args.devices is not None:
        overrides["devices"] = args.devices
    if args.jobs_total is not None:
        overrides["jobs_total"] = args.jobs_total
    if args.power_cap_w is not None:
        overrides["power_cap_w"] = args.power_cap_w
    if args.cap_fraction is not None:
        overrides["cap_fraction"] = args.cap_fraction
    if args.templates is not None:
        overrides["templates"] = tuple(args.templates)
    if args.shard_devices is not None:
        overrides["shard_devices"] = args.shard_devices
    if args.jitter_pct is not None:
        overrides["jitter_pct"] = args.jitter_pct
    if overrides:
        fleet = dataclasses.replace(fleet, **overrides)
    spec = spec.override(fleet=fleet)
    ctx = RunContext.from_spec(
        spec, base_dir=args.directory, metrics_path=args.metrics_out
    )
    try:
        with GracefulShutdown():
            document = run_fleet_campaign(
                fleet, ctx, args.directory, resume=args.resume
            )
    except CampaignInterrupted as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        print(
            f"journal flushed; re-run with --resume to continue "
            f"({pathlib.Path(args.directory) / JOURNAL_NAME})",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    finally:
        if ctx.telemetry is not None:
            from repro.telemetry import metrics_document, write_metrics_json

            snapshot = ctx.telemetry.metrics.snapshot()
            ctx.telemetry.tracer.emit(
                {"type": "metrics", **metrics_document(snapshot)}
            )
            if ctx.metrics_path is not None:
                write_metrics_json(ctx.metrics_path, snapshot)
        ctx.close()
    header = document["fleet"]
    print(
        f"fleet: {header['devices']} devices "
        f"({', '.join(header['templates'])}), "
        f"cap {header['power_cap_w']:.0f} W"
    )
    print(
        f"jobs: {document['jobs']['total']} across "
        f"{len(document['jobs']['classes'])} classes"
    )
    print(
        f"{'policy':8s} {'energy[J]':>14s} {'active':>7s} "
        f"{'makespan[s]':>12s} {'switches':>9s}"
    )
    for name in ("naive", "model", "oracle"):
        policy = document["policies"][name]
        print(
            f"{name:8s} {policy['fleet_energy_j']:14.1f} "
            f"{policy['active_devices']:7d} {policy['makespan_s']:12.1f} "
            f"{policy['reconfigurations']:9d}"
        )
    print(
        f"\nenergy saved vs naive: {document['energy_saved_pct']:.1f}%  "
        f"regret vs oracle: {document['regret_pct']:.1f}%"
    )
    print(f"report: {pathlib.Path(args.directory) / FLEET_REPORT_NAME}")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.telemetry import read_stream, render_summary, summarize_events

    path = pathlib.Path(args.events)
    if not path.exists():
        print(f"no event log at {path}", file=sys.stderr)
        return 2
    if getattr(args, "follow", False):
        code = _follow_events(
            path, interval=args.interval, max_seconds=args.max_seconds
        )
        if code != 0:
            return code
        # Fall through to the final summary once the stream ends.
    summary = summarize_events(read_stream(path))
    if args.json:
        print(json.dumps(summary.document(), indent=2, sort_keys=True))
    else:
        print(render_summary(summary))
    return 0


def _follow_events(
    path,
    interval: float = 0.5,
    max_seconds: float | None = None,
    once: bool = False,
    clear: bool = False,
) -> int:
    """Tail an event log, rendering folded progress until it finishes.

    Shared by ``repro top`` (``clear=True`` redraws in place) and
    ``repro trace summarize --follow`` (scrolling frames, then the
    final summary).  Returns 0 when the stream finished, 3 on a
    ``--max-seconds`` deadline with the stream still open.
    """
    import pathlib
    import time

    from repro.telemetry import (
        EtaEstimator,
        ProgressEngine,
        TailReader,
        discover_bench_prior,
        follow_into,
        render_progress,
    )

    prior = discover_bench_prior(path.parent, pathlib.Path.cwd())
    engine = ProgressEngine(eta=EtaEstimator(prior_unit_s=prior))
    reader = TailReader(path)
    started = time.monotonic()
    while True:
        now = time.monotonic()
        follow_into(engine, reader, at=now - started)
        frame = render_progress(engine)
        if clear:
            print("\x1b[H\x1b[2J" + frame, end="", flush=True)
        else:
            print(frame, flush=True)
        if engine.finished or once:
            return 0
        if max_seconds is not None and now - started >= max_seconds:
            print("(stream still open; deadline reached)", file=sys.stderr)
            return 3
        time.sleep(interval)


def _cmd_top(args: argparse.Namespace) -> int:
    import pathlib

    target = pathlib.Path(args.run_dir)
    if target.is_dir():
        candidates = [target / "events.ndjson", target / "events.jsonl"]
        path = next((c for c in candidates if c.exists()), None)
        if path is None:
            print(
                f"no events.ndjson or events.jsonl under {target} "
                "(run the campaign with --live or --trace)",
                file=sys.stderr,
            )
            return 2
    else:
        path = target
        if not path.exists():
            print(f"no event log at {path}", file=sys.stderr)
            return 2
    return _follow_events(
        path,
        interval=args.interval,
        max_seconds=args.max_seconds,
        once=args.once,
        clear=not args.once,
    )


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import pathlib

    from repro.telemetry import export_trace

    path = pathlib.Path(args.events)
    if not path.exists():
        print(f"no event log at {path}", file=sys.stderr)
        return 2
    try:
        out = export_trace(path, out_path=args.out)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"wrote {out} (load it in ui.perfetto.dev or chrome://tracing)")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    import pathlib

    from repro.bench import (
        RunnerConfig,
        bench_document,
        bench_filename,
        groups,
        run_suite,
        timer_resolution,
        write_bench_json,
    )

    config = RunnerConfig(
        seed=args.seed, quick=args.quick, repeats=args.repeats
    )
    only = tuple(args.only) if args.only else None

    def progress(record):
        timing = record.timing
        print(
            f"  {record.name:32s} median={timing.median * 1e3:10.3f}ms "
            f"mad={timing.mad * 1e3:8.3f}ms  "
            f"(x{record.iterations} per sample, {record.repeats} repeats)"
        )

    try:
        records = run_suite(config, only=only, progress=progress)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    resolution_s = timer_resolution(config.timer)
    out_dir = pathlib.Path(args.out_dir)
    written = []
    for group in groups():
        group_records = [r for r in records if r.group == group]
        if not group_records:
            continue
        document = bench_document(
            group, group_records, config, resolution_s=resolution_s
        )
        written.append(
            write_bench_json(out_dir / bench_filename(group), document)
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import compare_documents, load_bench_json, render_report

    try:
        old = load_bench_json(args.old)
        new = load_bench_json(args.new)
    except (OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    report = compare_documents(old, new, threshold_pct=args.threshold)
    print(render_report(report))
    if args.report_only:
        return 0
    return report.exit_code(
        fail_on_missing=args.fail_on_missing,
        fail_on_drift=args.fail_on_drift,
    )


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import workloads

    for workload in workloads():
        print(f"  {workload.name:32s} [{workload.group}] {workload.title}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting import render_experiments

    entries = render_experiments(
        args.directory,
        seed=args.seed,
        include_extensions=not args.no_extensions,
    )
    for entry in entries:
        print(f"  wrote {entry.path}")
    print(f"\n{len(entries)} experiments rendered to {args.directory}/")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Power and Performance Characterization and "
            "Modeling of GPU-Accelerated Systems' (Abe et al., 2014)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list all experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment id, e.g. fig4, or 'all'")
    p_run.add_argument("--seed", type=int, default=None, help="noise seed override")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="sweep one benchmark on one GPU over all pairs"
    )
    p_sweep.add_argument(
        "gpu", nargs="?", default=None,
        help="GPU name, e.g. 'GTX 680' (or first gpus entry of --config)",
    )
    p_sweep.add_argument(
        "benchmark", nargs="?", default=None,
        help="benchmark name, e.g. backprop (or first benchmarks entry "
        "of --config)",
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    _add_execution_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_campaign = sub.add_parser(
        "campaign",
        help="run the full measurement+modeling campaign with JSON archival",
    )
    p_campaign.add_argument(
        "directory", help="directory for datasets, models and the manifest"
    )
    p_campaign.add_argument(
        "--gpu",
        action="append",
        dest="gpus",
        default=None,
        help="restrict to specific GPUs (repeatable)",
    )
    p_campaign.add_argument(
        "--benchmark",
        action="append",
        dest="benchmarks",
        default=None,
        help="restrict the modeling datasets to specific benchmarks "
        "(repeatable)",
    )
    p_campaign.add_argument(
        "--refresh", action="store_true", help="re-measure even if archived"
    )
    p_campaign.add_argument(
        "--resume",
        action="store_true",
        help="replay the run journal of an interrupted campaign instead "
        "of re-executing settled units (see docs/ROBUSTNESS.md)",
    )
    p_campaign.add_argument("--seed", type=int, default=None)
    _add_execution_flags(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_chaos = sub.add_parser(
        "chaos",
        help="smoke-test graceful degradation under an aggressive fault plan",
    )
    p_chaos.add_argument(
        "directory", help="directory for datasets, models and health report"
    )
    p_chaos.add_argument(
        "--gpu",
        action="append",
        dest="gpus",
        default=None,
        help="restrict to specific GPUs (default: GTX 460; repeatable)",
    )
    p_chaos.add_argument(
        "--benchmark",
        action="append",
        dest="benchmarks",
        default=None,
        help="restrict the dataset to specific benchmarks (repeatable)",
    )
    p_chaos.add_argument(
        "--refresh", action="store_true", help="re-measure even if archived"
    )
    p_chaos.add_argument(
        "--resume",
        action="store_true",
        help="replay the run journal of an interrupted campaign instead "
        "of re-executing settled units",
    )
    p_chaos.add_argument("--seed", type=int, default=None)
    _add_execution_flags(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_governor = sub.add_parser(
        "governor",
        help="score the closed-loop online DVFS governor vs the oracle",
    )
    p_governor.add_argument(
        "--gpu",
        action="append",
        dest="gpus",
        default=None,
        help="restrict to specific GPUs (default: all four; repeatable)",
    )
    p_governor.add_argument(
        "--online",
        action="store_true",
        help="force online mode (the default when --config has no "
        "governor table)",
    )
    p_governor.add_argument(
        "--forgetting",
        type=float,
        default=None,
        metavar="LAMBDA",
        help="exponential forgetting factor in (0, 1]; 1.0 (default) "
        "converges to the batch fit",
    )
    p_governor.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the regret table as a repro.governor-regret JSON "
        "document",
    )
    p_governor.add_argument("--seed", type=int, default=None)
    _add_execution_flags(p_governor)
    p_governor.set_defaults(func=_cmd_governor)

    p_fleet = sub.add_parser(
        "fleet",
        help="place a power-capped job stream across a synthesized GPU fleet",
    )
    p_fleet.add_argument(
        "directory",
        help="fleet campaign directory (run journal, fleet.json report)",
    )
    p_fleet.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="N",
        help="inventory size (default: 1000)",
    )
    p_fleet.add_argument(
        "--jobs-total",
        type=int,
        default=None,
        dest="jobs_total",
        metavar="N",
        help="job-stream size (default: 100000)",
    )
    p_fleet.add_argument(
        "--power-cap-w",
        type=float,
        default=None,
        dest="power_cap_w",
        metavar="W",
        help="explicit facility power cap (default: --cap-fraction of "
        "the fleet's summed TDP)",
    )
    p_fleet.add_argument(
        "--cap-fraction",
        type=float,
        default=None,
        dest="cap_fraction",
        metavar="F",
        help="power cap as a fraction of summed TDP (default: 0.6)",
    )
    p_fleet.add_argument(
        "--template",
        action="append",
        dest="templates",
        default=None,
        help="architecture template card the inventory cycles through "
        "(repeatable; default: the paper's four)",
    )
    p_fleet.add_argument(
        "--shard-devices",
        type=int,
        default=None,
        dest="shard_devices",
        metavar="K",
        help="devices per work-unit shard (default: 64)",
    )
    p_fleet.add_argument(
        "--jitter-pct",
        type=float,
        default=None,
        dest="jitter_pct",
        metavar="P",
        help="synthesis parameter spread in [0, 0.5) (default: 0.05)",
    )
    p_fleet.add_argument(
        "--resume",
        action="store_true",
        help="replay the run journal of an interrupted fleet campaign",
    )
    p_fleet.add_argument("--seed", type=int, default=None)
    _add_execution_flags(p_fleet)
    p_fleet.set_defaults(func=_cmd_fleet)

    p_trace = sub.add_parser(
        "trace", help="inspect telemetry artifacts of traced runs"
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase/per-unit breakdown of a repro.events log",
    )
    p_summarize.add_argument(
        "events",
        help="path to an events.jsonl / events.ndjson / flight.ndjson log",
    )
    p_summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the same aggregates as a machine-readable JSON document",
    )
    p_summarize.add_argument(
        "--follow",
        action="store_true",
        help="tail a live event stream, rendering progress frames until "
        "it finishes, then print the summary",
    )
    p_summarize.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="refresh period while following (default: 0.5)",
    )
    p_summarize.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        dest="max_seconds",
        metavar="SECONDS",
        help="give up following after this long (default: wait forever)",
    )
    p_summarize.set_defaults(func=_cmd_trace_summarize)

    p_export = trace_sub.add_parser(
        "export",
        help="convert an event log into a Perfetto/Chrome trace.json",
    )
    p_export.add_argument(
        "events",
        help="path to an events.jsonl / events.ndjson / flight.ndjson log",
    )
    p_export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: trace.json next to the event log)",
    )
    p_export.add_argument(
        "--format",
        choices=("perfetto", "chrome"),
        default="perfetto",
        help="output flavour; both emit the Chrome trace-event JSON "
        "object format that ui.perfetto.dev and chrome://tracing load",
    )
    p_export.set_defaults(func=_cmd_trace_export)

    p_top = sub.add_parser(
        "top",
        help="live progress/ETA view of a running (or finished) campaign",
    )
    p_top.add_argument(
        "run_dir",
        help="campaign directory (reads events.ndjson, falling back to "
        "events.jsonl) or a direct path to an event log",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit instead of following",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="refresh period (default: 0.5)",
    )
    p_top.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        dest="max_seconds",
        metavar="SECONDS",
        help="give up after this long with the stream still open",
    )
    p_top.set_defaults(func=_cmd_top)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the library's own hot paths (see docs/BENCHMARKS.md)",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_run = bench_sub.add_parser(
        "run",
        help="run the registered workloads and write BENCH_*.json",
    )
    p_bench_run.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory the BENCH_*.json artifacts land in (default: .)",
    )
    p_bench_run.add_argument(
        "--quick",
        action="store_true",
        help="reduced repeats/warmup for CI smoke runs",
    )
    p_bench_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="noise seed the workload fingerprints are deterministic under",
    )
    p_bench_run.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="override every workload's repeat count",
    )
    p_bench_run.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named workload (repeatable)",
    )
    p_bench_run.set_defaults(func=_cmd_bench_run)
    p_bench_compare = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json files; non-zero exit on regression",
    )
    p_bench_compare.add_argument("old", help="baseline BENCH_*.json")
    p_bench_compare.add_argument("new", help="fresh BENCH_*.json")
    p_bench_compare.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="median-regression threshold in percent (default: 25)",
    )
    p_bench_compare.add_argument(
        "--fail-on-missing",
        action="store_true",
        help="also fail when a baseline workload is missing from NEW",
    )
    p_bench_compare.add_argument(
        "--fail-on-drift",
        action="store_true",
        help=(
            "also fail on fingerprint drift (the work signature is "
            "host-independent, so drift is a real behavior change)"
        ),
    )
    p_bench_compare.add_argument(
        "--report-only",
        action="store_true",
        help="print the delta table but always exit 0 (CI smoke mode)",
    )
    p_bench_compare.set_defaults(func=_cmd_bench_compare)
    p_bench_list = bench_sub.add_parser(
        "list", help="list the registered workloads"
    )
    p_bench_list.set_defaults(func=_cmd_bench_list)

    p_report = sub.add_parser(
        "report", help="render all experiments into a directory"
    )
    p_report.add_argument("directory", help="output directory")
    p_report.add_argument(
        "--no-extensions",
        action="store_true",
        help="render only the 19 paper artifacts",
    )
    p_report.add_argument("--seed", type=int, default=None)
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
