"""Command-line interface: regenerate the paper's artifacts from a shell.

Installed as the ``repro-stencil`` console script::

    repro-stencil study --csv results.csv
    repro-stencil study --trace trace.json --trace-format chrome
    repro-stencil table 3
    repro-stencil figure 5 --ascii
    repro-stencil simulate --stencil 13pt --arch A100 --model CUDA
    repro-stencil emit --stencil 13pt --model SYCL --layout brick
    repro-stencil tune --stencil 27pt --arch PVC --model SYCL
    repro-stencil serve --port 8787 --cache-dir
    repro-stencil client run --stencils 7pt --variants array
    repro-stencil study --results-db results.db
    repro-stencil report --results-db results.db --out-dir report/
    repro-stencil obs
    repro-stencil obs diff --telemetry-db telemetry.db
    repro-stencil obs trend span.run_study.total_s --telemetry-db telemetry.db
    repro-stencil obs profile --telemetry-db telemetry.db --flamegraph out.folded
    repro-stencil validate [--update-golden]

Every subcommand accepts ``--trace FILE`` / ``--trace-format
{jsonl,chrome,tree}``: the run executes under an enabled tracer and the
span tree is exported to ``FILE`` on exit (``chrome`` output loads in
``chrome://tracing`` / Perfetto).  ``obs`` runs the full sweep and
prints the span tree plus the metrics table.

Telemetry warehouse (see :mod:`repro.obs.store`): ``--telemetry-db
PATH`` (default ``$REPRO_TELEMETRY_DB``) runs the subcommand under an
enabled tracer and appends one run record — git revision, config hash,
span tree, metric snapshot — to the SQLite warehouse at ``PATH``.  The
read-side subcommands query it: ``obs diff`` judges the latest run
against its rolling same-config baseline (exit 2 on regression), ``obs
trend METRIC`` plots a measurement's history, and ``obs profile``
ranks span self-time hotspots (``--flamegraph`` writes folded stacks).

Result store (see :mod:`repro.results`): ``--results-db PATH``
(default ``$REPRO_RESULTS_DB``) appends every completed sweep — one row
per matrix point, deduplicated by sweep configuration — to the SQLite
result store at ``PATH``.  ``report`` renders the full reproduction
artifact (Tables 2–5, Figure 3–7 series, EXPERIMENTS.md, drift vs the
golden baseline); with ``--results-db`` it renders from the store's
reconstruction, byte-identical to the direct path.

The sweep-rendering commands accept ``--cache-dir [DIR]`` to persist and
reuse study results across invocations in a SQLite result database,
``DIR/studies.db``, whose incomplete study rows double as checkpoints
(``$REPRO_CACHE_DIR`` supplies a default directory).

Fault tolerance (see :mod:`repro.resilience`): ``--retries N`` and
``--task-timeout SECONDS`` configure the retry policy, ``--resume``
continues an interrupted or partially-failed sweep from its checkpoint
without re-simulating completed points, and ``--inject-faults [SEED]``
deterministically injects transient faults for chaos testing (the
faulted points run in-process, one at a time, under the retry
policy).  A sweep with permanently failed points still renders (gaps +
footnote) and ``study`` exits with status 3 so scripts notice the
degradation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from typing import List, Optional

from repro import harness, obs
from repro.bricks.layout import BrickDims
from repro.errors import ObservabilityError
from repro.codegen import CodegenOptions, generate
from repro.codegen.emitters import CPU_ISAS, MODELS, emit as emit_source
from repro.dsl.shapes import by_name, catalog
from repro.gpu.progmodel import PROFILES, VARIANTS, platform
from repro.profiling import profile as collect_profile
from repro.resilience import FaultPlan, RetryPolicy
from repro.tuning import Autotuner

#: Seeded dev-mode fault rates for ``--inject-faults``: transient raises
#: and corrupted payloads only (no hangs — a hang needs --task-timeout
#: to recover, and a dev flag should never wedge a terminal).
INJECT_RAISE_RATE = 0.06
INJECT_CORRUPT_RATE = 0.03


def _finite_float(text: str) -> float:
    """argparse type for ``--task-timeout``: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds, got {text!r}"
        )
    return value


def _retry_policy(args) -> Optional[RetryPolicy]:
    """A RetryPolicy from --retries/--task-timeout, or None for defaults."""
    if args.retries is None and args.task_timeout is None:
        return None
    kwargs = {}
    if args.retries is not None:
        kwargs["retries"] = args.retries
    if args.task_timeout is not None:
        kwargs["timeout_s"] = args.task_timeout
    return RetryPolicy(**kwargs)


def _fault_plan(args) -> Optional[FaultPlan]:
    """The seeded dev fault plan for --inject-faults, or None."""
    if args.inject_faults is None:
        return None
    config = harness.ExperimentConfig()
    return FaultPlan.seeded(
        args.inject_faults,
        config.keys(),
        raise_rate=INJECT_RAISE_RATE,
        corrupt_rate=INJECT_CORRUPT_RATE,
    )


def _cached_study(args):
    cache_dir = args.cache_dir
    if args.resume and not cache_dir:
        # --resume needs somewhere to find the checkpoint: honour the
        # environment first, then the default cache location.
        cache_dir = (
            os.environ.get(harness.CACHE_DIR_ENV) or harness.default_cache_dir()
        )
    return harness.cached_study(
        cache_dir=cache_dir,
        retry_policy=_retry_policy(args),
        fault_plan=_fault_plan(args),
        resume=args.resume,
        results_db=args.results_db,
    )


def _ingest_study(args, study, source: str) -> int:
    """Explicitly append ``study`` to the result store, if one is set.

    ``cached_study`` only ingests on a cache miss (the ingest hook
    lives in ``run_study``); this covers the cache-hit path.  Dedup
    makes the double call a no-op.  Returns 0, or 1 on store failure —
    an explicit ``--results-db`` that cannot be honoured is an error,
    not a warning.
    """
    from repro.errors import ResultStoreError
    from repro.results import ResultsStore, resolve_results_db

    db_path = resolve_results_db(args.results_db)
    if not db_path:
        return 0
    try:
        with ResultsStore(db_path) as store:
            outcome = store.ingest_study(study, source=source)
    except (OSError, ResultStoreError) as exc:
        print(f"error: cannot ingest into {db_path}: {exc}", file=sys.stderr)
        return 1
    verb = "already in" if outcome.dedup else (
        "replaced degraded study in" if outcome.replaced else "appended to"
    )
    print(
        f"results {verb} {db_path} "
        f"(study {outcome.study_id}, {outcome.points} points)"
    )
    return 0


def _study(args) -> int:
    study = _cached_study(args)
    print(harness.summary(study))
    if args.csv:
        harness.write_csv(study, args.csv)
        print(f"\nCSV written to {args.csv}")
    if args.json:
        harness.dump_study(study, args.json)
        print(f"study saved to {args.json}")
    rc = _ingest_study(args, study, source="cli.study")
    # A degraded sweep still renders, but scripts get a loud signal.
    return rc if study.complete else 3


def _report(args) -> int:
    """Render the full reproduction artifact (tables/figures/EXPERIMENTS/drift).

    With ``--results-db`` the study is ingested and the artifact is
    rendered from the store's reconstruction — the path the CI gate
    diffs byte-for-byte against direct rendering.
    """
    from repro.errors import ResultStoreError
    from repro.results import (
        DirectProvider,
        StoreProvider,
        generate_report,
        resolve_results_db,
        write_report,
    )
    from repro.validate.golden import DEFAULT_GOLDEN_PATH

    study = _cached_study(args)
    rc = _ingest_study(args, study, source="cli.report")
    if rc:
        return rc
    db_path = resolve_results_db(args.results_db)
    try:
        provider = (
            StoreProvider(db_path, config=study.config)
            if db_path else DirectProvider(study)
        )
        golden = (
            None if args.no_golden
            else (args.golden or DEFAULT_GOLDEN_PATH)
        )
        artifacts = generate_report(
            provider, config=study.config, golden_path=golden
        )
    except (OSError, ResultStoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out_dir:
        paths = write_report(artifacts, args.out_dir)
        for name in sorted(paths):
            print(f"{name} written to {paths[name]}")
    else:
        for name in sorted(artifacts):
            print(f"==== {name} ====")
            print(artifacts[name])
    return 0 if study.complete else 3


def _table(args) -> int:
    if args.number == 2:
        print(harness.render_table2())
        return 0
    if args.number == 4:
        print(harness.render_table4())
        return 0
    study = _cached_study(args)
    table = harness.table3(study) if args.number == 3 else harness.table5(study)
    print(table.render())
    return 0


def _figure(args) -> int:
    study = _cached_study(args)
    n = args.number
    if n == 3:
        for panel in harness.fig3(study):
            print(harness.roofline_ascii(panel) if args.ascii else panel.render())
            print()
    elif n == 4:
        print(harness.render_fig4(study))
    elif n in (5, 6):
        perf, traffic = (harness.fig5 if n == 5 else harness.fig6)(study)
        for model in (perf, traffic):
            print(
                harness.correlation_ascii(model)
                if args.ascii
                else harness.render_correlation(model)
            )
            print()
    else:
        print(harness.render_fig7(study))
    return 0


def _simulate(args) -> int:
    from repro.gpu.simulator import simulate

    case = by_name(args.stencil)
    plat = platform(args.arch, args.model)
    res = simulate(
        case.build(),
        args.variant,
        plat,
        domain=tuple(args.domain),
        stencil_name=case.name,
    )
    print(collect_profile(res).row())
    t = res.timing
    print(
        f"  breakdown: hbm {t.t_hbm * 1e3:.3f} ms, l1 {t.t_l1 * 1e3:.3f} ms, "
        f"fp64 {t.t_fp * 1e3:.3f} ms, shuffle {t.t_shuffle * 1e3:.3f} ms, "
        f"issue {t.t_issue * 1e3:.3f} ms -> {t.bottleneck}-bound"
    )
    return 0


def _emit(args) -> int:
    case = by_name(args.stencil)
    vl = args.vector_length
    dims = BrickDims((args.bi or vl, 4, 4))
    program = generate(case.build(), dims, CodegenOptions(vl, args.strategy))
    print(emit_source(program, args.model, layout=args.layout))
    return 0


def _tune(args) -> int:
    case = by_name(args.stencil)
    plat = platform(args.arch, args.model)
    outcome = Autotuner().tune(
        case.build(), plat, stencil_name=case.name,
        policy=_retry_policy(args),
    )
    print(f"best configuration for {case.name} on {plat.name}:")
    print(f"  {outcome.best.label()}  ({outcome.best_result.gflops:.1f} GF/s)")
    print("top 5:")
    for point, t in outcome.ranking[:5]:
        print(f"  {point.label():>28}: {t * 1e3:8.3f} ms")
    return 0


def _validate(args) -> int:
    # Imported lazily: the validate package pulls in the whole model
    # stack, which the lighter subcommands don't need at parse time.
    from repro import validate

    study = _cached_study(args)
    if not study.complete:
        print(harness.summary(study))
        print("\nerror: cannot validate a degraded sweep; fix or --resume "
              "the failed points first", file=sys.stderr)
        return 3
    golden = None if args.no_golden else (args.golden or validate.DEFAULT_GOLDEN_PATH)
    report = validate.validate_study(
        study, golden_path=golden, update_golden=args.update_golden
    )
    print(report.render())
    if args.update_golden:
        print(f"golden baseline written to {golden}")
    return 0 if report.ok else 1


def _obs(args) -> int:
    # Pre-create the cache counters so the table always shows both rows
    # (a fresh process records only a miss).
    obs.counter("study_cache.hits")
    obs.counter("study_cache.misses")
    study = _cached_study(args)
    tracer = obs.get_tracer()
    print(
        f"observability report: {len(study)} kernel runs, "
        f"{tracer.span_count()} spans recorded"
    )
    print()
    depth = args.max_depth if args.max_depth > 0 else None
    print(obs.render_tree(tracer.roots(), max_depth=depth))
    print()
    print(obs.get_registry().render_table())
    return 0


# ---- telemetry warehouse (obs diff / trend / profile) ---------------------
#
# Exit-code contract for the read-side subcommands: 0 = success,
# 1 = the warehouse cannot answer (missing database, unknown run or
# metric), 2 = ``obs diff`` found a regression.  CI keys off the 0/2
# distinction.

#: argparse namespace entries that are observability plumbing, not
#: workload configuration — excluded from the run's config hash so
#: "same config" grouping ignores where the trace or warehouse lives.
_NONCONFIG_ARGS = frozenset(
    {"func", "obs_func", "command", "obs_command", "trace", "trace_format",
     "telemetry_db", "results_db", "journal", "drain_timeout"}
)


def _config_hash(args: argparse.Namespace) -> str:
    """Stable hash of the workload-relevant CLI arguments.

    The warehouse groups baseline runs by this hash, so two runs compare
    only when every knob that could move the numbers (subcommand inputs,
    cache/retry/fault settings) is identical.
    """
    payload = {
        k: v
        for k, v in vars(args).items()
        if k not in _NONCONFIG_ARGS and not callable(v)
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _open_store(args) -> "obs.TelemetryStore | None":
    """Open the warehouse read-side, or explain why not (returns None)."""
    db_path = obs.resolve_db_path(args.telemetry_db)
    if not db_path:
        print(
            "error: this subcommand reads a telemetry warehouse; pass "
            "--telemetry-db PATH or set $REPRO_TELEMETRY_DB",
            file=sys.stderr,
        )
        return None
    try:
        return obs.TelemetryStore(db_path, create=False)
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _obs_diff(args) -> int:
    store = _open_store(args)
    if store is None:
        return 1
    try:
        report = obs.diff_run(store, run_id=args.run, window=args.window)
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()
    print(report.render())
    return 0 if report.ok else 2


def _obs_trend(args) -> int:
    store = _open_store(args)
    if store is None:
        return 1
    try:
        history = store.measurement_history(
            args.metric, entrypoint=args.entrypoint, limit=args.window
        )
        if not history:
            latest = store.latest_run()
            known = (
                ", ".join(store.measurement_names(latest.run_id)[:12])
                if latest else "(empty database)"
            )
            print(
                f"error: no run carries metric '{args.metric}'; "
                f"e.g.: {known}",
                file=sys.stderr,
            )
            return 1
    finally:
        store.close()
    print(f"trend: {args.metric} over {len(history)} run(s)")
    for run, value in history:
        dirty = "+dirty" if run.git_dirty else ""
        print(
            f"  run {run.run_id:>4}  {run.created_utc}  "
            f"{run.git_rev[:10]}{dirty:<6}  {value:.6g}"
        )
    plottable = [(run.run_id, value) for run, value in history if value > 0]
    if len(plottable) >= 2 and len({v for _, v in plottable}) >= 1:
        plot = harness.AsciiPlot(
            title=f"{args.metric} (y) vs run id (x)",
            x_label="run id",
            y_label=args.metric,
        )
        plot.add_series(args.metric, plottable)
        print()
        print(plot.render())
    elif len(plottable) < len(history):
        print("(non-positive values omitted from the log-scale plot)")
    return 0


def _obs_profile(args) -> int:
    store = _open_store(args)
    if store is None:
        return 1
    try:
        if args.window:
            run_ids = [r.run_id for r in store.runs(limit=args.window)]
        elif args.run is not None:
            run_ids = [store.run(args.run).run_id]
        else:
            latest = store.latest_run()
            run_ids = [latest.run_id] if latest else []
        if not run_ids:
            print(
                f"error: telemetry database {store.path} has no runs "
                f"to profile",
                file=sys.stderr,
            )
            return 1
        report = obs.profile_runs(store, run_ids)
        print(report.render(top=args.top))
        if args.flamegraph:
            roots = [
                root for rid in run_ids for root in store.span_roots(rid)
            ]
            with open(args.flamegraph, "w") as f:
                f.write(obs.folded_stacks(roots))
            print(f"folded stacks written to {args.flamegraph}")
    except (OSError, ObservabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()
    return 0


def _record_telemetry(
    args, db_path: str, tracer: obs.Tracer, duration_s: float
) -> int:
    """Append this invocation's run record to the warehouse."""
    try:
        with obs.TelemetryStore(db_path) as store:
            run_id = store.record_run(
                args.command,
                tracer=tracer,
                config_hash=_config_hash(args),
                duration_s=duration_s,
            )
        print(f"telemetry: run {run_id} appended to {db_path}")
        return 0
    except (OSError, ObservabilityError) as exc:
        print(
            f"error: cannot record telemetry in {db_path}: {exc}",
            file=sys.stderr,
        )
        return 1


def _serve(args) -> int:
    """Run the study-serving HTTP service in the foreground.

    SIGTERM and Ctrl-C both shut down cleanly, which matters beyond
    politeness: a clean exit returns through :func:`main`'s telemetry
    path, so a served session records its ``serve.*`` counters and
    request spans to the warehouse like any other subcommand.
    """
    import signal
    import threading

    from repro.serve import Orchestrator, ResultStore, StudyServer

    cache_dir = args.cache_dir or os.environ.get(harness.CACHE_DIR_ENV) or None
    orchestrator = Orchestrator(
        ResultStore(cache_dir, results_db=args.results_db),
        queue_limit=args.queue_limit,
        workers=args.workers,
        batch_window=args.batch_window,
        journal=args.journal,
        backend=args.backend,
        job_deadline_s=args.job_deadline,
        max_crashes=args.max_crashes,
        checkpoint_every=args.checkpoint_every,
    )
    server = StudyServer((args.host, args.port), orchestrator)

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _terminate)
    orchestrator.start()
    print(
        f"serving on http://{args.host}:{server.port}  "
        f"(workers={args.workers}, backend={args.backend}, "
        f"queue-limit={args.queue_limit}, "
        f"batch-window={args.batch_window}, "
        f"cache={cache_dir or 'memory-only'}, "
        f"journal={args.journal or 'none'})",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        # Graceful drain (the SIGTERM contract): running jobs get up to
        # --drain-timeout to finish and journal their outcomes; whatever
        # is still queued stays journaled ``queued`` for the next start.
        print(
            f"shutting down (draining up to {args.drain_timeout:g}s)",
            flush=True,
        )
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.server_close()
        orchestrator.stop(timeout_s=args.drain_timeout)
        orchestrator.close()
    return 0


def _client_config(args) -> Optional[dict]:
    """The config document for a client submission, or None for default.

    ``--config`` takes inline JSON (``'{"stencils": ...}'``) or a path
    to a JSON file; the convenience flags (``--stencils`` etc.) build
    the document piecewise and lose to an explicit ``--config``.
    """
    if args.config:
        text = args.config
        if not text.lstrip().startswith("{"):
            with open(text) as f:
                text = f.read()
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SystemExit("error: --config must hold a JSON object")
        return doc
    doc = {}
    if args.stencils:
        doc["stencils"] = args.stencils
    if args.variants:
        doc["variants"] = args.variants
    if args.domain:
        doc["domain"] = list(args.domain)
    if args.platforms:
        doc["platforms"] = args.platforms
    return doc or None


def _client(args) -> int:
    """One REST interaction with a running study server.

    The resilience flags from the common parent (``--retries``,
    ``--task-timeout``, ``--inject-faults``) become the
    submitted job's per-job options rather than local settings.
    """
    from repro.serve import BackpressureError, ServeClient
    from repro.errors import ServeError

    client = ServeClient(args.url, timeout_s=args.http_timeout)
    options: dict = {}
    if args.retries is not None:
        options["retries"] = args.retries
    if args.task_timeout is not None:
        options["task_timeout"] = args.task_timeout
    if args.inject_faults is not None:
        options["inject_faults"] = args.inject_faults
    if args.sleep_s:
        options["sleep_s"] = args.sleep_s

    def _job_id() -> str:
        if not args.job_id:
            raise SystemExit(
                f"error: client {args.action} needs --job-id"
            )
        return args.job_id

    def _emit_result(body: bytes) -> None:
        if args.out:
            with open(args.out, "wb") as f:
                f.write(body)
            print(f"result written to {args.out}")
        else:
            sys.stdout.write(body.decode())

    try:
        if args.action == "health":
            doc = client.health()
        elif args.action == "metrics":
            doc = client.metrics()
        elif args.action == "jobs":
            doc = client.jobs()
        elif args.action == "submit":
            doc = client.submit(_client_config(args), options or None)
        elif args.action == "status":
            doc = client.status(_job_id())
        elif args.action == "wait":
            doc = client.wait(_job_id(), timeout_s=args.wait_timeout)
        elif args.action == "cancel":
            doc = client.cancel(_job_id())
        elif args.action == "result":
            _emit_result(client.result_bytes(_job_id()))
            return 0
        else:  # run: submit -> poll -> fetch
            study_doc = client.run(
                _client_config(args), options or None,
                timeout_s=args.wait_timeout,
            )
            _emit_result(
                json.dumps(study_doc, indent=1).encode()
                if args.out else (json.dumps(study_doc, indent=1) + "\n").encode()
            )
            return 0
    except BackpressureError as exc:
        print(
            f"error: {exc} (Retry-After: {exc.retry_after_s:g}s)",
            file=sys.stderr,
        )
        return 4
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(doc, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stencil",
        description="Blocked-stencil performance-portability reproduction "
        "(Antepara et al., SC-W 2023)",
    )
    # Tracing flags are shared by every subcommand (argparse "parents"),
    # so they can be given after the subcommand name.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", metavar="FILE",
        help="run under an enabled tracer and export the span tree here",
    )
    common.add_argument(
        "--trace-format", default="jsonl", choices=obs.TRACE_FORMATS,
        help="trace export format (chrome loads in chrome://tracing)",
    )
    common.add_argument(
        "--cache-dir", nargs="?", const=harness.default_cache_dir(),
        default=None, metavar="DIR",
        help="persist/reuse study results on disk (bare flag uses "
        f"{harness.default_cache_dir()}; default: $REPRO_CACHE_DIR or off)",
    )
    common.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transient task failures up to N times with "
        "exponential backoff (default: 2; deterministic model errors "
        "are never retried)",
    )
    common.add_argument(
        "--task-timeout", type=_finite_float, default=None,
        metavar="SECONDS",
        help="kill any single task exceeding this wall-clock deadline "
        "(default: no deadline); timed-out points degrade to FAILED "
        "entries instead of wedging the sweep",
    )
    common.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted or partially-failed sweep from the "
        "checkpoint in the cache directory (implies --cache-dir); "
        "completed points are never re-simulated",
    )
    common.add_argument(
        "--inject-faults", type=int, nargs="?", const=0, default=None,
        metavar="SEED",
        help="dev/chaos flag: deterministically inject transient faults "
        "(seeded; raises + corrupted payloads) into the sweep to "
        "exercise the retry machinery",
    )
    common.add_argument(
        "--telemetry-db", metavar="PATH", default=None,
        help="append this run's telemetry (spans, counters, gate results) "
        "to the SQLite warehouse at PATH (default: $REPRO_TELEMETRY_DB or "
        "off); query it with 'obs diff/trend/profile'",
    )
    common.add_argument(
        "--results-db", metavar="PATH", default=None,
        help="append completed sweeps (one row per matrix point, "
        "deduplicated by sweep configuration) to the SQLite result "
        "store at PATH (default: $REPRO_RESULTS_DB or off); render "
        "from it with 'report --results-db'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("study", help="run the full evaluation sweep",
                       parents=[common])
    p.add_argument("--csv", help="write raw results to this CSV file")
    p.add_argument("--json", help="save the study to this JSON file")
    p.set_defaults(func=_study)

    p = sub.add_parser(
        "report",
        help="render the full reproduction artifact (tables, figures, "
        "EXPERIMENTS.md, drift vs golden) — from the result store when "
        "--results-db is set",
        parents=[common],
    )
    p.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help="write one file per artifact under DIR instead of stdout",
    )
    p.add_argument(
        "--golden", metavar="FILE", default=None,
        help="golden baseline for the drift artifact (default: "
        "tests/golden/study.json)",
    )
    p.add_argument(
        "--no-golden", action="store_true",
        help="skip the drift-vs-golden artifact",
    )
    p.set_defaults(func=_report)

    p = sub.add_parser("table", help="regenerate a paper table",
                       parents=[common])
    p.add_argument("number", type=int, choices=(2, 3, 4, 5))
    p.set_defaults(func=_table)

    p = sub.add_parser("figure", help="regenerate a paper figure",
                       parents=[common])
    p.add_argument("number", type=int, choices=(3, 4, 5, 6, 7))
    p.add_argument("--ascii", action="store_true", help="text-mode plot")
    p.set_defaults(func=_figure)

    p = sub.add_parser(
        "validate",
        help="run the model-invariant validation pass over the full sweep",
        parents=[common],
    )
    p.add_argument(
        "--golden", metavar="FILE", default=None,
        help="golden baseline to check against (default: tests/golden/"
        "study.json)",
    )
    p.add_argument(
        "--update-golden", action="store_true",
        help="rewrite the golden baseline from this run instead of "
        "checking it",
    )
    p.add_argument(
        "--no-golden", action="store_true",
        help="skip the golden-baseline comparison (invariants and "
        "probes only)",
    )
    p.set_defaults(func=_validate)

    p = sub.add_parser(
        "obs",
        help="run the sweep and print the span tree + metrics table",
        parents=[common],
    )
    p.add_argument(
        "--max-depth", type=int, default=3,
        help="span tree depth to print (0 = unlimited, default 3)",
    )
    p.set_defaults(func=_obs)

    # Warehouse read-side subcommands nest under ``obs``.  Their handler
    # goes in ``obs_func``, not ``func``: argparse's set_defaults on a
    # nested parser cannot override an attribute the outer parser
    # already placed on the namespace, so main() dispatches on
    # ``obs_func or func``.
    obs_sub = p.add_subparsers(dest="obs_command", required=False)

    q = obs_sub.add_parser(
        "diff",
        help="judge a stored run against its rolling same-config "
        "baseline (exit 2 on regression)",
        parents=[common],
    )
    q.add_argument(
        "--run", type=int, default=None, metavar="ID",
        help="run id to judge (default: the latest run)",
    )
    q.add_argument(
        "--window", type=int, default=obs.DEFAULT_WINDOW, metavar="N",
        help=f"baseline window: earlier same-config runs to compare "
        f"against (default {obs.DEFAULT_WINDOW})",
    )
    q.set_defaults(obs_func=_obs_diff)

    q = obs_sub.add_parser(
        "trend",
        help="print + plot one measurement's history across stored runs",
        parents=[common],
    )
    q.add_argument(
        "metric",
        help="measurement name, e.g. span.run_study.total_s, "
        "run.duration_s, gate.batch.points_per_s_100k",
    )
    q.add_argument(
        "--window", type=int, default=obs.DEFAULT_WINDOW, metavar="N",
        help=f"how many most-recent runs to show (default "
        f"{obs.DEFAULT_WINDOW})",
    )
    q.add_argument(
        "--entrypoint", default=None,
        help="restrict the history to runs of this subcommand "
        "(default: any)",
    )
    q.set_defaults(obs_func=_obs_trend)

    q = obs_sub.add_parser(
        "profile",
        help="rank span self-time hotspots from stored runs",
        parents=[common],
    )
    q.add_argument(
        "--run", type=int, default=None, metavar="ID",
        help="profile this run id (default: the latest run)",
    )
    q.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="aggregate the last N runs instead of a single run",
    )
    q.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="hotspot rows to print (default 20)",
    )
    q.add_argument(
        "--flamegraph", metavar="FILE", default=None,
        help="also write folded stacks (flamegraph.pl / speedscope "
        "input) to FILE",
    )
    q.set_defaults(obs_func=_obs_profile)

    archs = sorted({a for a, _ in PROFILES})
    models = sorted({m for _, m in PROFILES})

    p = sub.add_parser("simulate", help="profile one kernel sweep",
                       parents=[common])
    p.add_argument("--stencil", required=True, choices=sorted(catalog()))
    p.add_argument("--arch", required=True, choices=archs)
    p.add_argument("--model", required=True, choices=models)
    p.add_argument("--variant", default="bricks_codegen", choices=VARIANTS)
    p.add_argument("--domain", type=int, nargs=3, default=(512, 512, 512),
                   metavar=("NI", "NJ", "NK"))
    p.set_defaults(func=_simulate)

    p = sub.add_parser("emit", help="emit generated kernel source",
                       parents=[common])
    p.add_argument("--stencil", required=True, choices=sorted(catalog()))
    p.add_argument("--model", required=True, choices=MODELS + CPU_ISAS)
    p.add_argument("--layout", default="brick", choices=("array", "brick"))
    p.add_argument("--strategy", default="auto",
                   choices=("naive", "gather", "scatter", "auto"))
    p.add_argument("--vector-length", type=int, default=32)
    p.add_argument("--bi", type=int, help="brick i-extent (default: vl)")
    p.set_defaults(func=_emit)

    p = sub.add_parser("tune", help="autotune brick shape for a platform",
                       parents=[common])
    p.add_argument("--stencil", required=True, choices=sorted(catalog()))
    p.add_argument("--arch", required=True, choices=archs)
    p.add_argument("--model", required=True, choices=models)
    p.set_defaults(func=_tune)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant study-serving HTTP service "
        "(dedup, micro-batching, backpressure)",
        parents=[common],
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0 picks a free one; default 8787)")
    p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="orchestrator worker threads draining the job queue "
        "(default 2)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=32, metavar="N",
        help="bounded job-queue depth; overflow is rejected with "
        "HTTP 429 + Retry-After (default 32)",
    )
    p.add_argument(
        "--batch-window", type=int, default=8, metavar="N",
        help="max clean jobs fused into one vectorized micro-batch "
        "(1 disables micro-batching; default 8)",
    )
    p.add_argument(
        "--journal", metavar="PATH", default=None,
        help="durable SQLite job journal; on startup the journal is "
        "replayed — queued jobs re-enqueue FIFO-stable, running jobs "
        "resume from their study checkpoints (default: no journal)",
    )
    p.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="job execution backend: 'thread' multiplexes jobs over "
        "this process, 'process' runs each job in a supervised worker "
        "process with heartbeats, deadline kills, and poison-job "
        "quarantine (default thread)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="on SIGTERM/Ctrl-C, let running jobs finish for up to this "
        "many seconds before exiting; the rest stay journaled for the "
        "next start (default 10)",
    )
    p.add_argument(
        "--job-deadline", type=float, default=None, metavar="S",
        help="process backend only: kill a worker whose job exceeds "
        "this many seconds (default: no deadline)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint clean solo jobs every N completed points "
        "(default: the study harness's interval)",
    )
    p.add_argument(
        "--max-crashes", type=int, default=2, metavar="N",
        help="quarantine a job as poison after it crashes its worker "
        "(or rides through server restarts) this many times (default 2)",
    )
    p.set_defaults(func=_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running study server (submit/poll/fetch)",
        parents=[common],
    )
    p.add_argument(
        "action",
        choices=("run", "submit", "status", "wait", "result", "cancel",
                 "jobs", "health", "metrics"),
        help="run = submit + poll + fetch in one call",
    )
    p.add_argument(
        "--url", default=os.environ.get("REPRO_SERVE_URL",
                                        "http://127.0.0.1:8787"),
        help="server base URL (default: $REPRO_SERVE_URL or "
        "http://127.0.0.1:8787)",
    )
    p.add_argument("--job-id", default=None,
                   help="target job for status/wait/result/cancel")
    p.add_argument(
        "--config", default=None, metavar="JSON|FILE",
        help="study config as inline JSON or a JSON file path "
        "(default: the paper's full 90-point study)",
    )
    p.add_argument("--stencils", nargs="+", default=None,
                   choices=sorted(harness.STENCIL_NAMES), metavar="S",
                   help="convenience config: stencil subset")
    p.add_argument("--variants", nargs="+", default=None, choices=VARIANTS,
                   metavar="V", help="convenience config: variant subset")
    p.add_argument("--domain", type=int, nargs=3, default=None,
                   metavar=("NI", "NJ", "NK"),
                   help="convenience config: domain extents")
    p.add_argument("--platforms", nargs="+", default=None, metavar="P",
                   help="convenience config: platform-name subset")
    p.add_argument(
        "--sleep-s", type=float, default=0.0, metavar="SECONDS",
        help="synthetic per-job service time (dev knob for "
        "backpressure drills; makes the job non-dedupable)",
    )
    p.add_argument("--wait-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="poll deadline for wait/run (default 120)")
    p.add_argument("--http-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="per-request socket timeout (default 30)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write run/result payload to FILE instead of stdout")
    p.set_defaults(func=_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    func = getattr(args, "obs_func", None) or args.func
    # The warehouse read-side subcommands (obs diff/trend/profile) only
    # query the database — they never record themselves.
    reading = (
        args.command == "obs" and getattr(args, "obs_command", None) is not None
    )
    db_path = obs.resolve_db_path(args.telemetry_db)
    record = bool(db_path) and not reading
    # ``--trace`` (any subcommand), the ``obs`` report, and telemetry
    # recording all need an enabled tracer; everything else runs with
    # tracing off (no-op).
    tracing = bool(args.trace) or (args.command == "obs" and not reading) or record
    prev_tracer = obs.get_tracer()
    prev_registry = obs.get_registry()
    tracer = (
        obs.set_tracer(obs.Tracer(enabled=True)) if tracing else prev_tracer
    )
    if record:
        # A fresh registry per recorded run: counters must reflect this
        # invocation only, not whatever accumulated in the process (the
        # test suite calls main() many times in one interpreter).
        obs.set_registry(obs.MetricsRegistry())
    t_start = time.monotonic()
    try:
        rc = func(args)
        if args.trace:
            try:
                obs.write_trace(tracer.roots(), args.trace, args.trace_format)
            except OSError as exc:
                print(f"error: cannot write trace to {args.trace}: {exc}",
                      file=sys.stderr)
                return 1
            print(f"trace ({args.trace_format}) written to {args.trace}")
        if record:
            assert db_path is not None
            rc_rec = _record_telemetry(
                args, db_path, tracer, time.monotonic() - t_start
            )
            rc = rc or rc_rec
        return rc
    finally:
        if tracing:
            obs.set_tracer(prev_tracer)
        if record:
            obs.set_registry(prev_registry)


if __name__ == "__main__":
    sys.exit(main())
