"""Command-line interface: ``repro-iot`` / ``python -m repro``.

Subcommands:

* ``run A2 A4 --scheme batching --windows 2`` — simulate a scenario and
  print the result summary plus the energy breakdown.
* ``compare A2 --schemes baseline batching com`` — run the same apps
  under several schemes and print the normalized table (``--workers``
  fans the schemes out in parallel, ``--cache-dir`` memoizes results).
* ``schemes`` — list the registered execution schemes.
* ``tables`` — print Table I and Table II.
* ``apps`` — list the workloads with their offload verdicts.
* ``profile A2 A4 --scheme bcom --format chrome --out trace.json`` —
  run a scenario with instrumentation attached and export the
  simulator's own spans/counters (text summary, JSONL, or a Chrome
  ``trace_event`` file for Perfetto); see ``docs/observability.md``.
* ``cache stats --cache-dir .cache`` — inspect, garbage-collect
  (``gc --max-bytes N``, oldest entries evicted first) or ``clear`` a
  result-cache directory; see ``docs/performance.md``.
* ``run``, ``compare`` and ``serve`` pick an execution backend with
  ``--backend serial|process``; see ``docs/performance.md``.
* ``serve --port 8080`` — run the simulation service: a long-lived
  HTTP/JSON API accepting run/grid/sweep jobs from many clients, with
  per-client quotas, request coalescing and streamed progress events;
  see ``docs/serve.md``.
* ``client --url http://127.0.0.1:8080 grid --apps A1 --apps A2 A4
  --schemes baseline com`` — talk to a running service: submit jobs,
  poll status, stream events, fetch results, cancel.
* ``lint src/`` — run the repo's own static analysis (units discipline,
  determinism, error surface, scheme contracts, docstrings); see
  ``docs/static-analysis.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .apps import all_ids, create_app
from .core import Scheme, compare_schemes, run_apps, scheme_names
from .energy.report import ROUTINE_LABELS, format_breakdown_table
from .firmware.capability import check_offloadable
from .hw.power import Routine
from .units import to_mj, to_ms, us
from .workloads import table1_rows, table2_rows


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser("run", help="simulate one scenario")
    parser.add_argument("apps", nargs="+", help="Table II ids (A1..A11)")
    parser.add_argument(
        "--scheme", default=Scheme.BASELINE, choices=scheme_names()
    )
    parser.add_argument("--windows", type=int, default=1)
    parser.add_argument(
        "--batch-size", type=int, default=None, help="partial batch size"
    )
    _add_backend_flag(parser)
    _add_cache_flags(parser)
    _add_fidelity_flag(parser)


def _add_backend_flag(parser) -> None:
    from .core import backend_names

    parser.add_argument(
        "--backend",
        default=None,
        choices=backend_names(),
        help="execution backend (default: $REPRO_BACKEND, else process "
        "when --workers > 1, else serial)",
    )


def _add_cache_flags(parser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="memoize results on disk by scenario fingerprint",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help="cap the disk cache; oldest entries are evicted after runs",
    )


def _add_fidelity_flag(parser) -> None:
    from .core import FIDELITIES

    parser.add_argument(
        "--fidelity",
        default="des",
        choices=FIDELITIES,
        help="des = discrete-event simulation (authoritative); "
        "analytic = closed-form models (validated rtol vs the DES, "
        "falls back to the DES outside their envelope); auto = answer "
        "analytically, then DES-confirm only the per-app-set scheme "
        "winners and within-band near-ties.",
    )


def _add_compare_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "compare", help="run apps under several schemes"
    )
    parser.add_argument("apps", nargs="+", help="Table II ids (A1..A11)")
    parser.add_argument(
        "--schemes",
        nargs="+",
        default=[Scheme.BASELINE, Scheme.BATCHING, Scheme.COM],
        choices=scheme_names(),
    )
    parser.add_argument("--windows", type=int, default=1)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for parallel scheme runs",
    )
    _add_backend_flag(parser)
    _add_cache_flags(parser)
    _add_fidelity_flag(parser)


def _add_cache_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "cache",
        help="inspect or prune a result-cache directory",
    )
    parser.add_argument(
        "action",
        choices=["stats", "gc", "clear"],
        help="stats = entry count/bytes/shards; gc = evict oldest "
        "entries down to --max-bytes; clear = delete every entry",
    )
    parser.add_argument(
        "--cache-dir",
        required=True,
        help="the cache directory to operate on",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="byte cap for gc (required by the gc action)",
    )


def _add_profile_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "profile",
        help="run a scenario with sim instrumentation and export the trace",
    )
    parser.add_argument("apps", nargs="+", help="Table II ids (A1..A11)")
    parser.add_argument(
        "--scheme", default=Scheme.BASELINE, choices=scheme_names()
    )
    parser.add_argument("--windows", type=int, default=1)
    parser.add_argument(
        "--batch-size", type=int, default=None, help="partial batch size"
    )
    parser.add_argument(
        "--format",
        dest="format",
        default="summary",
        choices=["summary", "jsonl", "chrome"],
        help="summary = terminal table; jsonl = one record per line; "
        "chrome = trace_event JSON for chrome://tracing / Perfetto",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the export here instead of stdout",
    )


def _add_serve_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the simulation service (HTTP/JSON jobs API)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1; use 0.0.0.0 to "
        "accept clients from other machines)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default: 0 = pick a free port, "
        "printed at startup)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker processes fanning out within each job",
    )
    parser.add_argument(
        "--max-jobs-per-client",
        type=int,
        default=8,
        help="active (pending+running) jobs each client label may hold; "
        "submissions beyond it get HTTP 429",
    )
    parser.add_argument(
        "--chunk-points",
        type=int,
        default=None,
        help="scenario points per engine batch; smaller chunks give "
        "finer-grained cancellation and progress events (default: the "
        "whole job as one batch)",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="drain and exit after this many finished jobs (testing aid)",
    )
    _add_backend_flag(parser)
    _add_cache_flags(parser)
    _add_fidelity_flag(parser)


def _add_client_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "client",
        help="talk to a running simulation service (see 'serve')",
    )
    parser.add_argument(
        "--url",
        required=True,
        help="service base URL, e.g. http://127.0.0.1:8080",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        default=60.0,
        help="per-request timeout in seconds",
    )
    parser.add_argument(
        "--client",
        dest="client_label",
        default=None,
        help="client label for quota accounting (default: anonymous)",
    )
    actions = parser.add_subparsers(dest="action", required=True)
    actions.add_parser("health", help="check service liveness")
    actions.add_parser(
        "stats", help="engine/cache/quota/coalescer counters"
    )
    jobs = actions.add_parser("jobs", help="list jobs on the service")
    jobs.add_argument(
        "--of", default=None, metavar="CLIENT",
        help="only jobs submitted under this client label",
    )
    run = actions.add_parser("run", help="submit a single-scenario job")
    run.add_argument("apps", nargs="+", help="Table II ids (A1..A11)")
    run.add_argument(
        "--scheme", default=Scheme.BASELINE, choices=scheme_names()
    )
    run.add_argument("--windows", type=int, default=1)
    run.add_argument(
        "--fidelity",
        default=None,
        choices=["des", "analytic", "auto"],
        help="execution tier for the job (default: the service's)",
    )
    run.add_argument(
        "--wait", action="store_true",
        help="block until terminal and print the result payload",
    )
    grid = actions.add_parser(
        "grid", help="submit a compare-grid job (app sets x schemes)"
    )
    grid.add_argument(
        "--apps",
        dest="app_sets",
        nargs="+",
        action="append",
        required=True,
        metavar="APP",
        help="one app set per --apps flag (repeat the flag per set)",
    )
    grid.add_argument(
        "--schemes", nargs="+", required=True, choices=scheme_names()
    )
    grid.add_argument("--windows", type=int, default=1)
    grid.add_argument(
        "--fidelity",
        default=None,
        choices=["des", "analytic", "auto"],
        help="execution tier for the job (default: the service's)",
    )
    grid.add_argument(
        "--wait", action="store_true",
        help="block until terminal and print the result payload",
    )
    submit = actions.add_parser(
        "submit", help="submit a raw JSON job spec"
    )
    submit.add_argument(
        "spec", help="path to a JSON job-spec file, or '-' for stdin"
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until terminal and print the result payload",
    )
    status = actions.add_parser("status", help="one job's summary")
    status.add_argument("job", help="job id (e.g. j1)")
    result = actions.add_parser(
        "result", help="a terminal job's result artifacts"
    )
    result.add_argument("job", help="job id (e.g. j1)")
    cancel = actions.add_parser("cancel", help="cancel a job")
    cancel.add_argument("job", help="job id (e.g. j1)")
    events = actions.add_parser(
        "events", help="stream a job's NDJSON event records"
    )
    events.add_argument("job", help="job id (e.g. j1)")
    events.add_argument(
        "--no-follow",
        action="store_true",
        help="replay recorded events and exit instead of following",
    )
    wait = actions.add_parser(
        "wait", help="block until a job is terminal"
    )
    wait.add_argument("job", help="job id (e.g. j1)")
    wait.add_argument(
        "--for-s",
        type=float,
        default=300.0,
        help="give up after this many seconds",
    )


def _add_lint_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "lint",
        help="statically check invariants (units, determinism, errors, "
        "scheme contracts)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="format",
        default="text",
        choices=["text", "json", "sarif"],
        help="report format (sarif = SARIF 2.1.0 for code scanning)",
    )
    parser.add_argument(
        "--select",
        nargs="+",
        default=None,
        metavar="RULE",
        help="run only these rule ids or families",
    )
    parser.add_argument(
        "--ignore",
        nargs="+",
        default=None,
        metavar="RULE",
        help="skip these rule ids or families",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--no-program",
        action="store_true",
        help="skip the whole-program passes (program-* rule families)",
    )
    parser.add_argument(
        "--cache",
        nargs="?",
        const=".repro-lint-cache",
        default=None,
        metavar="DIR",
        help="incremental cache directory (default when the flag is "
        "given: .repro-lint-cache); warm runs re-parse only changed "
        "files",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="BASE",
        help="report only files changed vs BASE (default HEAD) plus "
        "everything that transitively imports them",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the report here instead of stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-iot",
        description=(
            "Energy simulation of IoT app executions "
            "(ICDCS'19 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    _add_compare_parser(subparsers)
    subparsers.add_parser("tables", help="print Table I and Table II")
    subparsers.add_parser("apps", help="list workloads and offload verdicts")
    subparsers.add_parser(
        "schemes", help="list registered execution schemes"
    )
    trace = subparsers.add_parser(
        "trace", help="dump a Monsoon-style power trace to CSV"
    )
    trace.add_argument("apps", nargs="+", help="Table II ids (A1..A11)")
    trace.add_argument(
        "--scheme", default=Scheme.BASELINE, choices=scheme_names()
    )
    trace.add_argument("--windows", type=int, default=1)
    trace.add_argument(
        "--out", default=None, help="CSV output path (default: stdout sparkline only)"
    )
    trace.add_argument(
        "--interval-us",
        type=float,
        default=1000.0,
        help="sampling interval in microseconds (default 1000)",
    )
    _add_profile_parser(subparsers)
    _add_cache_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_client_parser(subparsers)
    _add_lint_parser(subparsers)
    return parser


def _cmd_run(args) -> int:
    from .core import Scenario, ScenarioEngine

    scenario = Scenario.of(
        args.apps,
        scheme=args.scheme,
        windows=args.windows,
        batch_size=args.batch_size,
    )
    engine = ScenarioEngine(
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        backend=args.backend,
        fidelity=args.fidelity,
    )
    try:
        result = engine.run(scenario)
    finally:
        engine.close()
    print(result.summary())
    print("\nEnergy by routine:")
    for routine, share in sorted(
        result.energy.routine_fractions().items(), key=lambda kv: -kv[1]
    ):
        if routine == Routine.IDLE:
            continue
        joules = result.energy.routine_j(routine)
        print(
            f"  {ROUTINE_LABELS[routine]:<24}{share * 100:>6.1f}%"
            f"{to_mj(joules):>10.1f} mJ"
        )
    return 0


def _cmd_compare(args) -> int:
    from .core import ScenarioEngine

    with ScenarioEngine(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        backend=args.backend,
        fidelity=args.fidelity,
    ) as engine:
        results = compare_schemes(
            args.apps,
            args.schemes,
            windows=args.windows,
            engine=engine,
        )
    baseline_key = args.schemes[0]
    print(
        format_breakdown_table(
            {name: result.energy for name, result in results.items()},
            baseline_key=baseline_key,
            title=f"apps={'+'.join(args.apps)} windows={args.windows} "
            f"(normalized to {baseline_key})",
        )
    )
    return 0


def _cmd_tables() -> int:
    print("Table I — sensors\n")
    print("\n".join(table1_rows()))
    print("\nTable II — workloads\n")
    print("\n".join(table2_rows()))
    return 0


def _cmd_apps() -> int:
    print(f"{'Id':<5}{'Name':<14}{'Category':<26}{'Offloadable':<12}Notes")
    for app_id in all_ids():
        app = create_app(app_id)
        report = check_offloadable(app)
        note = "" if report else report.reasons[0]
        print(
            f"{app_id:<5}{app.name:<14}{app.profile.category:<26}"
            f"{'yes' if report else 'no':<12}{note}"
        )
    return 0


def _cmd_schemes() -> int:
    from .core import iter_schemes

    print(f"{'Scheme':<12}Description")
    for name, cls in iter_schemes():
        doc = (cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:<12}{summary}")
    return 0


def _cmd_trace(args) -> int:
    from .energy import PowerMonitor, power_sparkline, write_power_csv

    result = run_apps(args.apps, args.scheme, windows=args.windows)
    monitor = PowerMonitor(
        result.hub.recorder, result.energy.idle_floor_power_w
    )
    strip, low, high = power_sparkline(monitor, result.duration_s)
    print(f"hub power over {to_ms(result.duration_s):.0f} ms "
          f"({low:.2f}..{high:.2f} W):")
    print(strip)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            rows = write_power_csv(
                monitor, result.duration_s, us(args.interval_us), handle
            )
        print(f"wrote {rows} samples to {args.out}")
    return 0


def _cmd_profile(args) -> int:
    from .core import Scenario
    from .core.schemes.base import execute_scenario
    from .obs import (
        TraceRecorder,
        render_summary,
        write_chrome_trace,
        write_jsonl,
    )

    # Instrumentation attaches a live recorder to the run, so the
    # scenario always executes inline.
    scenario = Scenario.of(
        args.apps,
        scheme=args.scheme,
        windows=args.windows,
        batch_size=args.batch_size,
    )
    recorder = TraceRecorder()
    result = execute_scenario(scenario, obs=recorder)
    if args.format == "summary":
        text = result.summary() + "\n\n" + render_summary(recorder) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return 0
    writer = write_jsonl if args.format == "jsonl" else write_chrome_trace
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            records = writer(recorder, handle)
        noun = "record(s)" if args.format == "jsonl" else "trace event(s)"
        print(f"wrote {records} {noun} to {args.out}")
    else:
        writer(recorder, sys.stdout)
    return 0


def _cmd_cache(args) -> int:
    from .core.cache import DiskResultCache

    cache = DiskResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache: {stats.root}")
        print(f"  entries:     {stats.entries}")
        print(f"  total bytes: {stats.total_bytes}")
        print(f"  shard dirs:  {stats.shard_dirs}")
        for fidelity, count in cache.fidelity_counts().items():
            print(f"  {fidelity + ':':<13}{count}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.max_bytes is None:
        print("repro cache gc: --max-bytes is required", file=sys.stderr)
        return 2
    outcome = cache.gc(max_bytes=args.max_bytes)
    print(
        f"evicted {outcome.evicted} entr"
        f"{'y' if outcome.evicted == 1 else 'ies'} "
        f"({outcome.freed_bytes} bytes); "
        f"{outcome.remaining_entries} left "
        f"({outcome.remaining_bytes} bytes)"
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .core import ScenarioEngine
    from .core.engine import DEFAULT_MEMORY_CACHE_ENTRIES
    from .serve import JobManager, ReproServer

    # A service without cache_dir still wants the memory tier: repeat
    # submissions after the in-flight window should hit cache, not
    # resimulate (the engine's default only arms it alongside a disk
    # tier).
    engine = ScenarioEngine(
        workers=args.workers,
        memory_cache=DEFAULT_MEMORY_CACHE_ENTRIES,
        cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        backend=args.backend,
        fidelity=args.fidelity,
    )
    manager = JobManager(
        engine,
        max_jobs_per_client=args.max_jobs_per_client,
        chunk_points=args.chunk_points,
    )
    server = ReproServer(
        manager, host=args.host, port=args.port, max_jobs=args.max_jobs
    )

    def ready(url: str) -> None:
        # Machine-readable on purpose: scripts (and the CI smoke test)
        # parse this line to learn an ephemeral port.
        print(f"repro serve listening on {url}", flush=True)

    try:
        asyncio.run(server.run(ready))
    except KeyboardInterrupt:
        pass
    print(f"repro serve stopped after {manager.jobs_finished} job(s)")
    return 0


def _cmd_client(args) -> int:
    import json

    from .serve import ServeClient

    client = ServeClient(args.url, timeout_s=args.timeout_s)

    def show(payload) -> None:
        print(json.dumps(payload, indent=2, sort_keys=True))

    if args.action == "health":
        show(client.health())
        return 0
    if args.action == "stats":
        show(client.stats())
        return 0
    if args.action == "jobs":
        show(client.jobs(args.of))
        return 0
    if args.action in ("run", "grid", "submit"):
        if args.action == "run":
            spec = {
                "kind": "run",
                "apps": args.apps,
                "scheme": args.scheme,
                "windows": args.windows,
            }
            if args.fidelity is not None:
                spec["fidelity"] = args.fidelity
        elif args.action == "grid":
            spec = {
                "kind": "grid",
                "app_sets": args.app_sets,
                "schemes": args.schemes,
                "windows": args.windows,
            }
            if args.fidelity is not None:
                spec["fidelity"] = args.fidelity
        else:
            if args.spec == "-":
                spec = json.load(sys.stdin)
            else:
                with open(args.spec, "r", encoding="utf-8") as handle:
                    spec = json.load(handle)
        if args.client_label is not None and isinstance(spec, dict):
            spec.setdefault("client", args.client_label)
        job = client.submit(spec)
        if not args.wait:
            show(job)
            return 0
        client.wait(job["id"])
        show(client.result(job["id"]))
        return 0
    if args.action == "status":
        show(client.job(args.job))
        return 0
    if args.action == "result":
        show(client.result(args.job))
        return 0
    if args.action == "cancel":
        show(client.cancel(args.job))
        return 0
    if args.action == "wait":
        show(client.wait(args.job, timeout_s=args.for_s))
        return 0
    if args.action == "events":
        for record in client.events(args.job, follow=not args.no_follow):
            print(json.dumps(record, sort_keys=True), flush=True)
        return 0
    raise AssertionError(f"unhandled client action {args.action!r}")


def _cmd_lint(args) -> int:
    from .analysis import (
        LintCache,
        LintConfigError,
        exit_code,
        iter_python_files,
        lint_paths,
        list_rules,
        render_json,
        render_sarif,
        render_text,
    )
    from .analysis.changed import ChangedFilesError, changed_report_paths

    if args.list_rules:
        print("\n".join(list_rules()))
        return 0
    cache = LintCache(args.cache) if args.cache else None
    report_paths = None
    try:
        if args.changed is not None:
            report_paths = changed_report_paths(
                args.changed, args.paths, cache=cache
            )
        files_checked = sum(1 for _ in iter_python_files(args.paths))
        findings = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            program=not args.no_program,
            cache=cache,
            report_paths=report_paths,
        )
    except (LintConfigError, ChangedFilesError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    stats = cache.stats() if cache is not None else None
    if args.format == "sarif":
        report = render_sarif(findings, files_checked)
    elif args.format == "json":
        report = render_json(findings, files_checked, cache_stats=stats)
    else:
        report = render_text(findings, files_checked, cache_stats=stats)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return exit_code(findings)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "apps":
        return _cmd_apps()
    if args.command == "schemes":
        return _cmd_schemes()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
