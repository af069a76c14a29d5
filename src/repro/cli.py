"""Command-line interface: ``python -m repro <command>``.

Commands mirror the pipeline stages so the tool is usable without
writing Python:

* ``subjects``                      — list the nine paper subjects
* ``analyze  (--subject K | FILE)`` — print method summaries (A/D view)
* ``pairs    (--subject K | FILE)`` — print racy pairs
* ``synth    (--subject K | FILE)`` — synthesize tests; print one/all
* ``fuzz     (--subject K | FILE)`` — synthesize + fuzz; print races
* ``chess    (--subject K | FILE)`` — bounded systematic exploration
* ``emit     (--subject K | FILE)`` — standalone racy tests (``fork {}``)
* ``run      FILE``                 — execute a MiniJ file's tests with
  detectors attached (nonzero exit when races/crashes are found)
* ``run      --subjects C1,C8``     — fault-tolerant pipeline run over
  built-in subjects: survives worker crashes/hangs, prints the fault
  ledger, exits 0 with partial results
* ``deadlock (--subject K | FILE)`` — the OOPSLA'14 sibling pipeline
* ``contege  (--subject K | FILE)`` — run the random baseline
* ``tables``                        — regenerate the evaluation tables
* ``corpus generate``               — emit seeded synthetic subjects with
  known-answer race oracles (``--out`` writes ``.minij`` +
  ``.oracle.json`` pairs)
* ``corpus run``                    — pipeline the generated corpus and
  score recall/precision against the oracles (nonzero exit on any lost
  race or failed subject)
* ``serve``                         — warm-pool pipeline daemon on a
  unix/TCP socket; drains gracefully on SIGTERM/SIGINT
* ``client``                        — talk to a running daemon
  (``ping``/``stats``/``detect``/``synthesize``/``corpus``/``shutdown``)

``FILE`` is a MiniJ source file containing the library classes and its
sequential seed tests.

Each command takes only the flags it reads (README.md tabulates them);
``run FILE`` refuses the orchestration flags and ``--static-stats``,
which only ``run --subjects`` reads.  The commands that run the orchestrator share its flags: ``--jobs N``
fans subjects out over a process pool, one unit per subject (results
are bit-identical to ``--jobs 1``), ``--no-cache`` disables the
persistent content-addressed artifact cache, ``--cache-dir`` points the
cache somewhere other than ``$REPRO_CACHE_DIR`` /
``~/.cache/repro-narada``, and ``--no-static-filter`` turns the static
lockset pre-filter off.  With a pool, each worker round-trip carries
``ceil(queued units / (2 * jobs))`` units; batch boundaries never
change results.

They also share the fault-tolerance flags: ``--unit-timeout`` arms a
wall-clock watchdog per unit (one subject's synthesis and fuzzing),
``--max-retries``/``--retry-backoff`` bound the retry loop, and
``--fault-inject crash:0.3,hang:0.1`` is the test-only deterministic
fault hook.  None of these change cache keys or results — a retried run
is bit-identical to a clean one.  Each finished subject is published to
the cache at once, so rerunning an interrupted command is its resume:
only the unfinished subjects run again.  ``--trace-stats``,
``--static-stats`` and ``--json`` go only on the commands that print
them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro._util.errors import SourceError
from repro.baseline import ConTeGe
from repro.fuzz import explore_test
from repro.lang import ClassTable, load
from repro.narada import (
    ArtifactCache,
    Narada,
    PipelineConfig,
    PipelineOrchestrator,
    SubjectSpec,
    UnitExecutionError,
    subject_specs,
)
from repro.narada.cache import EntryDecodeError
from repro.runtime import VM
from repro.subjects import all_subjects, get_subject
from repro.synth import materialize


def _load_file(path: str) -> tuple[ClassTable, str]:
    """A MiniJ file's class table and source; a one-line exit when the
    source does not lex, parse or resolve."""
    with open(path) as handle:
        source = handle.read()
    try:
        return load(source), source
    except SourceError as error:
        raise SystemExit(f"error: {path}:{error}")


def _load_target(args) -> tuple[ClassTable, str, str]:
    """Resolve --subject/FILE into (class table, target class, source)."""
    if args.subject:
        subject = get_subject(args.subject)
        return subject.load(), subject.class_name, subject.source
    if not args.file:
        raise SystemExit("error: provide --subject C1..C9 or a MiniJ file")
    table, source = _load_file(args.file)
    target = args.target_class
    if target is None:
        candidates = table.class_names()
        if len(candidates) != 1:
            raise SystemExit(
                f"error: --class needed, file defines {', '.join(candidates)}"
            )
        target = candidates[0]
    return table, target, source


def _add_json(parser: argparse.ArgumentParser, text="JSON output") -> None:
    parser.add_argument("--json", action="store_true", help=text)


def _add_pipeline_args(parser: argparse.ArgumentParser) -> list:
    """Orchestration flags of every command that runs the orchestrator;
    their actions."""
    return [
        parser.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes; 1 runs inline with no pool (default)",
        ),
        parser.add_argument(
            "--no-cache", action="store_true",
            help="recompute every stage instead of using the artifact cache",
        ),
        parser.add_argument(
            "--cache-dir", metavar="DIR",
            help="artifact cache root (default: $REPRO_CACHE_DIR or "
                 "~/.cache/repro-narada)",
        ),
        parser.add_argument(
            "--no-static-filter", action="store_true",
            help="disable the static lockset pre-filter: every candidate "
                 "pair gets the full fuzz budget (pre-filter-era behavior)",
        ),
        parser.add_argument(
            "--unit-timeout", type=float, default=None, metavar="SECONDS",
            help="wall-clock watchdog deadline per subject unit, synthesis "
                 "plus fuzzing (default: none)",
        ),
        parser.add_argument(
            "--max-retries", type=int, default=2, metavar="N",
            help="retries per failed/hung unit before recording a failure "
                 "(default: 2)",
        ),
        parser.add_argument(
            "--retry-backoff", type=float, default=0.05, metavar="SECONDS",
            help="base retry backoff; attempt n waits backoff*2^(n-1) "
                 "(default: 0.05)",
        ),
        parser.add_argument(
            "--fault-inject", metavar="SPEC",
            help="test-only deterministic fault injection, e.g. "
                 "crash:0.3,hang:0.1,corrupt:0.05",
        ),
    ]


def _add_report_args(
    parser: argparse.ArgumentParser, static_stats: bool = True
) -> list:
    """``--trace-stats``, and ``--static-stats`` for a command that has
    a candidate funnel to print; their actions."""
    actions = [
        parser.add_argument(
            "--trace-stats", action="store_true",
            help="print packed-trace statistics: per-stage event counts, "
                 "packed bytes, detector events/sec, rows in repeat blocks, "
                 "fuzz memo hit rate",
        )
    ]
    if static_stats:
        actions.append(
            parser.add_argument(
                "--static-stats", action="store_true",
                help="print the candidate funnel: pairs generated / "
                     "statically pruned (by reason) / ranked / tests "
                     "fuzzed vs skipped",
            )
        )
    return actions


def _add_target_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?", help="MiniJ source file")
    parser.add_argument(
        "--subject", choices=[s.key for s in all_subjects()],
        help="use a built-in paper subject instead of a file",
    )
    parser.add_argument(
        "--class", dest="target_class", help="class under analysis"
    )


def _cache_from(args) -> ArtifactCache | None:
    if args.no_cache:
        return None
    return ArtifactCache(
        args.cache_dir,
        max_bytes=getattr(args, "cache_max_bytes", None),
    )


def _pipeline_config(args, **config) -> PipelineConfig:
    return PipelineConfig(
        unit_timeout=args.unit_timeout,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        fault_inject=args.fault_inject,
        static_filter=not args.no_static_filter,
        **config,
    )


def _orchestrator(args, **config) -> PipelineOrchestrator:
    try:
        return PipelineOrchestrator(
            jobs=args.jobs,
            cache=_cache_from(args),
            config=_pipeline_config(args, **config),
        )
    except ValueError as error:  # e.g. a malformed --fault-inject spec
        raise SystemExit(f"error: {error}")


def _print_fault_summary(orch: PipelineOrchestrator, always=False) -> None:
    """Print the fault ledger when anything noteworthy happened."""
    ledger = orch.fault_ledger
    noteworthy = (
        not ledger.ok()
        or ledger.retries
        or ledger.timeouts
        or ledger.pool_respawns
        or ledger.quarantined
    )
    if always or noteworthy:
        print()
        print(ledger.describe())


def _synthesize(args, target: str, source: str):
    """Run (or replay from cache) the synthesis pipeline for a target."""
    return _synthesis_outcome(args, target, source).synthesis


def _synthesis_outcome(args, target: str, source: str):
    """The outcome of synthesizing a target, which says whether the
    report was replayed from the cache."""
    spec = SubjectSpec(name=target, source=source, target_class=target)
    with _orchestrator(args) as orch:
        outcome = orch.run([spec], detect=False)[0]
    if outcome.synthesis is None:
        raise UnitExecutionError(outcome.failures[0])
    return outcome


def cmd_subjects(args) -> int:
    rows = []
    for subject in all_subjects():
        rows.append(
            {
                "key": subject.key,
                "benchmark": subject.benchmark,
                "version": subject.version,
                "class": subject.class_name,
                "description": subject.description,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(f"{row['key']}: {row['class']} "
                  f"({row['benchmark']} {row['version']})")
            print(f"    {row['description']}")
    return 0


def cmd_analyze(args) -> int:
    table, target, source = _load_target(args)
    summaries = Narada(table).analysis().for_class(target)
    if args.json:
        print(json.dumps([_summary_json(s) for s in summaries], indent=2))
        return 0
    for summary in summaries:
        print(summary.describe())
        print()
    if args.trace_stats:
        _trace_stats(source)
    return 0


def cmd_pairs(args) -> int:
    table, target, source = _load_target(args)
    report = _synthesize(args, target, source)
    verdicts = report.verdicts if len(report.verdicts) == len(report.pairs) else []
    if args.json:
        print(
            json.dumps(
                [
                    _pair_json(p, verdicts[i] if verdicts else None)
                    for i, p in enumerate(report.pairs)
                ],
                indent=2,
            )
        )
        return 0
    for i, pair in enumerate(report.pairs):
        line = pair.describe()
        if verdicts:
            v = verdicts[i]
            if v.pruned:
                line += f"  [pruned: {v.reason}]"
            else:
                line += f"  [rank {v.score}]"
                if v.deadlock_risk:
                    line += " [deadlock watch]"
        print(line)
    summary = f"\n{report.pair_count} racing pair(s)"
    if verdicts:
        summary += f", {report.pruned_pair_count} statically pruned"
    print(summary)
    if args.static_stats:
        _static_stats([(target, report, None)])
    if args.trace_stats:
        _trace_stats(source)
    return 0


def cmd_synth(args) -> int:
    table, target, source = _load_target(args)
    outcome = _synthesis_outcome(args, target, source)
    report, cached = outcome.synthesis, outcome.synthesis_cached
    tests = report.tests if args.all else report.tests[: args.show]
    if args.json:
        # `seconds` is the synthesis compute time, which a replay
        # (`cached`) reads from the run that computed the report.
        print(
            json.dumps(
                {
                    "class": target,
                    "pairs": report.pair_count,
                    "tests": report.test_count,
                    "seconds": report.seconds,
                    "cached": cached,
                    "rendered": [
                        materialize(t, VM(table)).render() for t in tests
                    ],
                },
                indent=2,
            )
        )
        return 0
    timing = f"in {report.seconds:.2f}s"
    if cached:
        timing = f"(replayed from the cache; synthesized {timing})"
    print(f"{report.pair_count} pairs -> {report.test_count} tests {timing}\n")
    for test in tests:
        print(f"--- {test.name} ({len(test.covered_pairs)} pair(s)) ---")
        print(materialize(test, VM(table)).render())
        print()
    if args.trace_stats:
        _trace_stats(source)
    return 0


def cmd_fuzz(args) -> int:
    table, target, source = _load_target(args)
    spec = SubjectSpec(name=target, source=source, target_class=target)
    with _orchestrator(
        args, random_runs=args.runs, directed=not args.no_directed
    ) as orch:
        outcome = orch.run([spec])[0]
    report, detection = outcome.synthesis, outcome.detection
    if report is None or detection is None:
        print(f"{target}: pipeline FAILED")
        print(orch.fault_ledger.describe())
        return 1
    if args.json:
        print(json.dumps(_detection_json(target, report, detection), indent=2))
        return 0
    print(
        f"{target}: {detection.detected} race(s) detected, "
        f"{detection.reproduced} reproduced "
        f"({detection.harmful} harmful, {detection.benign} benign), "
        f"manual TP/FP {detection.manual_tp}/{detection.manual_fp}"
    )
    if report.pruned_pair_count or detection.pruned_tests:
        print(
            f"static pre-filter: {report.pruned_pair_count}/"
            f"{report.pair_count} pair(s) pruned, "
            f"{detection.pruned_tests} test(s) skipped"
        )
    if args.static_stats:
        _static_stats([(target, report, detection)])
    if outcome.detection_partial:
        print("(partial: some tests failed to fuzz; see the fault ledger)")
    for fuzz in detection.fuzz_reports:
        if fuzz.detected:
            print()
            print(fuzz.describe())
    _print_fault_summary(orch)
    if args.trace_stats:
        _trace_stats(source, [detection])
    return int(detection.detected == 0)


def cmd_chess(args) -> int:
    table, target, source = _load_target(args)
    report = _synthesize(args, target, source)
    tests = report.tests[: args.tests]
    total_races = 0
    for test in tests:
        result = explore_test(
            table, test, preemption_bound=args.bound,
            max_schedules=args.max_schedules,
        )
        total_races += result.race_count
        status = "exhausted" if result.exhausted else "capped"
        print(
            f"{test.name}: {result.schedules_run} schedule(s) [{status}], "
            f"{result.race_count} race(s)"
        )
        for key, schedule in result.race_schedules.items():
            print(f"    {key[0]}.{key[1]} sites={key[2]} "
                  f"certificate={schedule}")
    if args.trace_stats:
        _trace_stats(source)
    return int(total_races == 0)


def cmd_emit(args) -> int:
    from repro.synth.emit import emit_standalone_program

    table, target, source = _load_target(args)
    report = _synthesize(args, target, source)
    tests = report.tests if args.all else report.tests[: args.count]
    emitted = emit_standalone_program(table, tests)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(emitted)
        print(f"wrote {len(tests)} standalone test(s) to {args.output}")
    else:
        print(emitted)
    if args.trace_stats:
        _trace_stats(source)
    return 0


def _run_subjects_pipeline(args) -> int:
    """``repro run --subjects``: the fault-tolerant pipeline mode.

    Exits 0 as long as the orchestrator survived — failed units are
    reported in the fault ledger, not via the exit code, because partial
    results are the whole point of the fault-tolerance layer.
    """
    keys = [k.strip() for k in args.subjects.split(",") if k.strip()]
    if keys == ["all"]:
        subjects = all_subjects()
    else:
        try:
            subjects = [get_subject(k) for k in keys]
        except KeyError as error:
            raise SystemExit(f"error: unknown subject {error.args[0]!r}")
    with _orchestrator(args, random_runs=args.runs) as orch:
        outcomes = orch.run(subject_specs(subjects))
        for outcome in outcomes:
            if outcome.synthesis is None:
                print(f"{outcome.spec.name}: synthesis FAILED")
                continue
            line = f"{outcome.spec.name}: {outcome.synthesis.test_count} test(s)"
            detection = outcome.detection
            if detection is not None:
                line += (
                    f", {detection.detected} race(s) detected, "
                    f"{detection.reproduced} reproduced"
                )
                if outcome.detection_partial:
                    line += " [partial]"
            print(line)
        if args.static_stats:
            _static_stats(
                [
                    (o.spec.name, o.synthesis, o.detection)
                    for o in outcomes
                    if o.synthesis is not None
                ]
            )
        _print_fault_summary(orch, always=True)
        if args.trace_stats:
            print("\n-- trace stats --")
            detections = [o.detection for o in outcomes if o.detection is not None]
            print(f"fuzz (all subjects): {_fuzz_stats(detections)}")
    return 0


def cmd_run(args) -> int:
    import time

    from repro.analysis.sweep import (
        UnknownPassError,
        interest_union,
        resolve_pass,
        run_sweep,
    )
    from repro.runtime import Execution, RandomScheduler
    from repro.trace.columnar import ColumnarRecorder

    if args.subjects:
        for dest, (_, default) in args.subjects_only.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        return _run_subjects_pipeline(args)
    given = [
        flag
        for dest, (flag, _) in args.subjects_only.items()
        if getattr(args, dest) is not None
    ]
    if given:
        args.parser.error(
            f"{', '.join(given)}: only the --subjects mode takes "
            f"{'this flag' if len(given) == 1 else 'these flags'}"
        )
    if not args.file:
        raise SystemExit(
            "error: provide a MiniJ FILE or --subjects C1,C2,... (or all)"
        )
    table, _ = _load_file(args.file)
    names = [n.strip() for n in args.detectors.split(",") if n.strip()]
    try:
        pass_classes = [resolve_pass(n) for n in names]
    except UnknownPassError as error:
        raise SystemExit(f"error: {error}")
    interests = interest_union(pass_classes)
    test_names = (
        [args.test] if args.test else [t.name for t in table.program.tests]
    )
    traces = []
    total_rows = 0
    sweep_seconds = 0.0
    exit_code = 0
    for name in test_names:
        test = table.program.test_decl(name)
        if test is None:
            raise SystemExit(f"error: no test {name} in {args.file}")
        races = set()
        failures = 0
        for seed in range(args.runs):
            vm = VM(table)
            recorder = ColumnarRecorder(name, interests=interests)
            execution = Execution(vm, listeners=(recorder,))
            execution.spawn(
                lambda ctx, body=test.body.stmts: vm.interp.run_client_stmts(
                    body, ctx, {}
                )
            )
            result = execution.run(RandomScheduler(seed * 7919 + 3))
            if result.deadlocked or result.faults:
                failures += 1
            passes = [cls() for cls in pass_classes]
            trace = recorder.packed
            if args.trace_stats:
                traces.append(trace)
            total_rows += len(trace)
            started = time.perf_counter()
            run_sweep(passes, trace)
            sweep_seconds += time.perf_counter() - started
            for sweep_pass in passes:
                race_set = getattr(sweep_pass, "races", None)
                if race_set is not None:
                    races |= race_set.static_keys()
        verdict = f"{len(races)} race(s)"
        if failures:
            verdict += f", {failures}/{args.runs} runs crashed or deadlocked"
        print(f"{name}: {verdict}")
        for key in sorted(races):
            print(f"    race on {key[0]}.{key[1]} between sites {key[2]}")
        if races or failures:
            exit_code = 1
    if args.trace_stats:
        rate = total_rows / sweep_seconds if sweep_seconds > 0 else float("inf")
        print(
            f"\n-- trace stats --\n{_repetition(traces)}\n"
            f"sweep ({'+'.join(names)}): {rate:,.0f} events/sec"
        )
    return exit_code


def cmd_deadlock(args) -> int:
    from repro.deadlock import DeadlockPipeline
    from repro.runtime import VM as _VM
    from repro.synth import materialize as _materialize

    table, target, _ = _load_target(args)
    pipeline = DeadlockPipeline(table)
    report = pipeline.synthesize(target_class=None if args.all_classes else target)
    print(
        f"{len(report.lock_summaries)} invocation(s) analyzed, "
        f"{len(report.pairs)} opposite-order pair(s), "
        f"{len(report.tests)} synthesized test(s)"
    )
    confirmed = 0
    for test, confirm in zip(report.tests, pipeline.confirm(report, args.runs)):
        print()
        print(_materialize(test, _VM(table)).render())
        print(confirm.describe())
        confirmed += int(confirm.confirmed)
    return int(report.tests != [] and confirmed == 0)


def cmd_contege(args) -> int:
    table, target, _ = _load_target(args)
    contege = ConTeGe(table, target, seed=args.seed)
    result = contege.run(max_tests=args.budget)
    print(
        f"{target}: {result.tests_generated} random tests, "
        f"{result.violation_count} violation(s) in {result.seconds:.1f}s"
    )
    for violation in result.violations:
        print(f"  {violation.fault_kind} (schedule seed "
              f"{violation.schedule_seed})")
        print("  " + violation.test.render().replace("\n", "\n  "))
    return 0


def cmd_tables(args) -> int:
    from repro.report import format_table3, format_table4, format_table5

    subjects = all_subjects()
    print(format_table3(subjects))
    print()
    with _orchestrator(args, random_runs=args.runs) as orch:
        outcomes = orch.run(subject_specs(subjects), detect=args.detect)
    rows = [
        (subject, outcome.synthesis)
        for subject, outcome in zip(subjects, outcomes)
        if outcome.synthesis is not None
    ]
    print(format_table4(rows))
    if args.detect:
        detections = [
            (subject, outcome.detection)
            for subject, outcome in zip(subjects, outcomes)
            if outcome.detection is not None
        ]
        print()
        print(format_table5(detections))
    if args.static_stats:
        _static_stats(
            [
                (subject.key, outcome.synthesis, outcome.detection)
                for subject, outcome in zip(subjects, outcomes)
                if outcome.synthesis is not None
            ]
        )
    _print_fault_summary(orch)
    if args.trace_stats and args.detect:
        detections = [o.detection for o in outcomes if o.detection is not None]
        print("\n-- trace stats --")
        print(f"fuzz (all subjects): {_fuzz_stats(detections)}")
    return 0


# ----------------------------------------------------------------------
# Generated corpus commands.


def _corpus_config(args):
    from repro.corpus import CorpusConfig, template_names

    templates = template_names()
    if args.templates:
        templates = tuple(
            t.strip() for t in args.templates.split(",") if t.strip()
        )
    try:
        return CorpusConfig(
            seed=args.seed,
            count=args.count,
            templates=templates,
        ).validate()
    except ValueError as error:
        raise SystemExit(f"error: {error}")


def cmd_corpus_generate(args) -> int:
    from repro.corpus import generate_corpus

    subjects = generate_corpus(_corpus_config(args))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for subject in subjects:
            base = os.path.join(args.out, subject.key)
            with open(base + ".minij", "w") as handle:
                handle.write(subject.source)
            with open(base + ".oracle.json", "w") as handle:
                json.dump(subject.verdict.to_dict(), handle, indent=2)
                handle.write("\n")
        print(f"wrote {len(subjects)} subject(s) to {args.out}")
        return 0
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "key": s.key,
                        "class": s.class_name,
                        "templates": list(s.template_keys),
                        "oracle": s.verdict.to_dict(),
                        "source": s.source,
                    }
                    for s in subjects
                ],
                indent=2,
            )
        )
        return 0
    for subject in subjects:
        verdict = subject.verdict
        line = (
            f"{subject.key}: {subject.class_name} "
            f"[{', '.join(subject.template_keys)}] "
            f"{len(verdict.races)} oracle race(s) "
            f"({verdict.harmful_count()} harmful, "
            f"{verdict.benign_count()} benign)"
        )
        if verdict.deadlock_potential:
            line += ", deadlock potential"
        print(line)
    return 0


def cmd_corpus_run(args) -> int:
    from repro.corpus import run_corpus

    config = _corpus_config(args)
    with _orchestrator(args, random_runs=args.runs) as orch:
        result = run_corpus(config, orch)
        problems = result.problems()
        if args.json:
            print(json.dumps(result.to_dict(), indent=2))
        else:
            print(result.summary())
            for problem in problems:
                print(f"  {problem}")
        _print_fault_summary(orch)
    return int(bool(problems))


# ----------------------------------------------------------------------
# Daemon commands: ``repro serve`` / ``repro client``.


def _daemon_endpoint(args) -> dict:
    """Resolve --socket/--tcp into daemon/client constructor kwargs."""
    from repro.narada.daemon import default_socket_path, parse_tcp

    if args.tcp:
        try:
            return {"tcp": parse_tcp(args.tcp)}
        except ValueError as error:
            raise SystemExit(f"error: {error}")
    return {"socket_path": args.socket or default_socket_path()}


def cmd_serve(args) -> int:
    """Run the warm-pool pipeline daemon until SIGTERM/SIGINT.

    The daemon owns one batched worker pool, the parsed-table cache,
    and the persistent artifact cache; requests from
    ``repro client`` (or any length-prefixed-JSON speaker) share all of
    them.  Signals drain gracefully: in-flight requests finish and
    answer before the process exits.
    """
    import signal as _signal

    from repro.narada.daemon import ReproDaemon

    daemon = ReproDaemon(
        jobs=args.jobs,
        cache=_cache_from(args),
        base_config=_pipeline_config(args),
        max_queue_depth=args.max_queue,
        default_deadline_s=args.deadline,
        recv_timeout_s=args.recv_timeout,
        memory_budget_mb=args.memory_budget_mb,
        **_daemon_endpoint(args),
    )
    daemon.bind()

    def _drain(signum, frame):
        print(f"\nrepro serve: draining on signal {signum}", flush=True)
        daemon.initiate_drain()

    for sig in (_signal.SIGTERM, _signal.SIGINT):
        _signal.signal(sig, _drain)
    print(
        f"repro serve: listening on {daemon.address} "
        f"(jobs={daemon.jobs}, pid={os.getpid()})",
        flush=True,
    )
    daemon.serve_forever()
    print(
        f"repro serve: drained after {daemon.stats.requests} request(s)",
        flush=True,
    )
    return 0


def _client_request(args) -> dict:
    """Build the request object for the chosen client subcommand."""
    request: dict = {"op": args.client_command}
    if args.client_command in ("detect", "synthesize"):
        if args.file:
            with open(args.file) as handle:
                request["source"] = handle.read()
            if args.target_class:
                request["target_class"] = args.target_class
        elif args.subjects:
            keys = [k.strip() for k in args.subjects.split(",") if k.strip()]
            request["subjects"] = "all" if keys == ["all"] else keys
        else:
            raise SystemExit("error: provide --subjects C1,C8 or a FILE")
        request["runs"] = args.runs
        if args.vm_seed is not None:
            request["vm_seed"] = args.vm_seed
    elif args.client_command == "corpus":
        request.update(seed=args.seed, count=args.count, runs=args.runs)
        if args.templates:
            request["templates"] = [
                t.strip() for t in args.templates.split(",") if t.strip()
            ]
    if getattr(args, "deadline", None) is not None:
        request["deadline_s"] = args.deadline
    return request


def cmd_client(args) -> int:
    """Send one request to a running daemon and print the response."""
    from repro.narada.daemon import DaemonClient

    request = _client_request(args)
    client = DaemonClient(
        timeout=args.timeout, retries=args.connect_retries,
        **_daemon_endpoint(args),
    )
    try:
        with client:
            response = client.request(request)
    except (ConnectionError, OSError) as error:
        raise SystemExit(f"error: {error}")
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1
    if not response.get("ok"):
        code = response.get("error_code")
        prefix = f"error from daemon [{code}]" if code else "error from daemon"
        print(f"{prefix}: {response.get('error')}")
        retry_after = response.get("retry_after_s")
        if retry_after is not None:
            print(f"retry after {retry_after}s")
        return 1
    op = response.get("op")
    if op == "ping":
        print(
            f"daemon pid={response['pid']} up {response['uptime_s']}s, "
            f"jobs={response['jobs']}, "
            f"{response['requests_served']} request(s) served"
        )
    elif op in ("detect", "synthesize"):
        for name, entry in sorted(response["subjects"].items()):
            line = f"{name}: {entry.get('tests', 0)} test(s)"
            if "detected" in entry:
                line += (
                    f", {entry['detected']} race(s) detected, "
                    f"{entry['reproduced']} reproduced"
                )
                if entry.get("partial"):
                    line += " [partial]"
            caches = [
                flag
                for flag in ("synthesis_cached", "detection_cached")
                if entry.get(flag)
            ]
            if caches:
                line += f" [{', '.join(c.split('_')[0] for c in caches)} cached]"
            print(line)
    elif op == "corpus":
        print(
            f"{response['subjects']} subject(s): "
            f"recall {response['recall']:.3f}, "
            f"precision {response['precision']:.3f}, "
            f"{response['missed_races']} lost race(s)"
        )
        for problem in response["problems"]:
            print(f"  {problem}")
    else:
        print(json.dumps(response, indent=2, sort_keys=True))
    print(
        f"[{response['request_id']} in {response['elapsed_s']}s]",
        file=sys.stderr,
    )
    if op == "corpus" and response["problems"]:
        return 1
    return 0


def cmd_cache_stats(args) -> int:
    """Report on-disk cache size, entry counts, and quarantine load."""
    cache = ArtifactCache(args.cache_dir)
    payload = {
        "root": str(cache.root),
        "entries": cache.entry_count(),
        "total_bytes": cache.total_bytes(),
        "quarantine_entries": cache.quarantine_count(),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"cache root: {payload['root']}")
    print(
        f"{payload['entries']} entr{'y' if payload['entries'] == 1 else 'ies'}, "
        f"{payload['total_bytes']:,} bytes"
    )
    print(f"{payload['quarantine_entries']} quarantined entr"
          f"{'y' if payload['quarantine_entries'] == 1 else 'ies'}")
    return 0


def cmd_cache_evict(args) -> int:
    """Evict LRU entries down to a byte budget; GC the quarantine."""
    cache = ArtifactCache(
        args.cache_dir,
        quarantine_max_entries=args.quarantine_max_entries,
        quarantine_max_age_s=args.quarantine_max_age_s,
    )
    removed = cache.evict(args.max_bytes)
    dropped = cache.gc_quarantine()
    print(
        f"evicted {removed} entr{'y' if removed == 1 else 'ies'} "
        f"(now {cache.total_bytes():,} bytes <= {args.max_bytes:,}); "
        f"dropped {dropped} quarantined"
    )
    return 0


# ----------------------------------------------------------------------
# --static-stats / --trace-stats reporting.


def _static_stats(rows) -> None:
    """Print the candidate funnel table (``--static-stats``)."""
    from repro.report import format_static_filter_table

    print()
    print(format_static_filter_table(rows))


def _trace_stats(source: str, detections=None) -> None:
    """Print packed-trace statistics for one subject (``--trace-stats``).

    Seed-stage numbers come from re-recording the seed suite into
    columnar form (cheap — sequential runs); analysis throughput is
    measured by one sweep of the engine's detector stack over each
    trace (fresh pass instances per trace).  Each pass is then timed in
    a sweep of its own, and the accumulated per-pass seconds are
    printed as a time share so a throughput regression is attributable
    to a specific pass.  Fuzz-stage numbers come from
    :func:`_fuzz_stats`.
    """
    import time

    from repro.analysis.sweep import run_sweep
    from repro.detect import EraserDetector, FastTrackDetector
    from repro.detect.djit import DjitDetector
    from repro.fuzz.probes import AdjacencyProbe

    narada = Narada(source)
    traces = narada.run_seed_suite()
    total_events = sum(len(t) for t in traces)
    total_bytes = sum(t.nbytes() for t in traces)
    counts: dict[str, int] = {}
    for trace in traces:
        for kind, count in trace.counts().items():
            counts[kind] = counts.get(kind, 0) + count
    print("\n-- trace stats --")
    print(
        f"seed suite: {len(traces)} trace(s), {total_events} events, "
        f"{total_bytes} packed bytes"
    )
    breakdown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"  by kind: {breakdown}")
    stack = (FastTrackDetector, EraserDetector, DjitDetector, AdjacencyProbe)
    start = time.perf_counter()
    for trace in traces:
        run_sweep([cls() for cls in stack], trace)
    total_seconds = time.perf_counter() - start
    rate = total_events / total_seconds if total_seconds > 0 else float("inf")
    print(
        f"  sweep ({'+'.join(cls.name for cls in stack)}): "
        f"{rate:,.0f} events/sec packed"
    )
    per_pass = [0.0] * len(stack)
    for trace in traces:
        for index, cls in enumerate(stack):
            started = time.perf_counter()
            run_sweep((cls(),), trace)
            per_pass[index] += time.perf_counter() - started
    handler_seconds = sum(per_pass) or 1e-12
    shares = ", ".join(
        f"{cls.name}={seconds / handler_seconds * 100:.0f}%"
        for cls, seconds in zip(stack, per_pass)
    )
    print(f"  pass time share: {shares}")
    print(f"  {_repetition(traces)}")
    if detections:
        print(f"fuzz: {_fuzz_stats(detections)}")


def _repetition(traces) -> str:
    """How many rows of ``traces`` sit in repeat blocks (DESIGN.md §13)."""
    from repro.trace.compressed import compress_trace

    total = in_repeats = blocks = 0
    for trace in traces:
        stats = compress_trace(trace).stats()
        total += stats.total_rows
        in_repeats += stats.rows_in_repeats
        blocks += stats.repeat_blocks
    return f"repetition: {in_repeats} of {total} rows in {blocks} repeat block(s)"


def _fuzz_stats(detections) -> str:
    """Fuzz-stage trace counters summed over detection reports.

    The counters are the deterministic ones each FuzzReport carries, so
    they reflect the actual run whether it came from the pool, the
    cache, or inline execution.
    """
    events = bytes_total = hits = misses = 0
    for detection in detections:
        for fuzz in detection.fuzz_reports:
            events += fuzz.trace_events
            bytes_total += fuzz.packed_bytes
            hits += fuzz.memo_hits
            misses += fuzz.memo_misses
    runs = hits + misses
    rate = (hits / runs * 100) if runs else 0.0
    return (
        f"{events} events, {bytes_total} packed bytes over {runs} run(s); "
        f"memo {hits} hit(s) / {misses} miss(es) ({rate:.1f}% hit rate)"
    )


# ----------------------------------------------------------------------
# JSON helpers.


def _summary_json(summary) -> dict:
    return {
        "class": summary.class_name,
        "method": summary.method,
        "test": summary.test_name,
        "ordinal": summary.ordinal,
        "accesses": [
            {
                "kind": a.kind,
                "field": f"{a.class_name}.{a.field_name}",
                "path": str(a.access_path) if a.access_path else None,
                "unprotected": a.unprotected,
                "writeable": a.writeable,
            }
            for a in summary.accesses
        ],
        "writeables": [
            {"lhs": str(w.lhs), "rhs": str(w.rhs), "via": w.via}
            for w in summary.writeables
        ],
    }


def _pair_json(pair, verdict=None) -> dict:
    data = {
        "field": f"{pair.field[0]}.{pair.field[1]}",
        "first": list(pair.first.method_id()),
        "second": list(pair.second.method_id()),
        "same_site": pair.same_site,
        "site_pairs": sorted(pair.site_pairs),
    }
    if verdict is not None:
        data["verdict"] = verdict.to_dict()
    return data


def _detection_json(target, report, detection) -> dict:
    return {
        "class": target,
        "pairs": report.pair_count,
        "pruned_pairs": report.pruned_pair_count,
        "tests": report.test_count,
        "pruned_tests": detection.pruned_tests,
        "detected": detection.detected,
        "reproduced": detection.reproduced,
        "harmful": detection.harmful,
        "benign": detection.benign,
        "manual_tp": detection.manual_tp,
        "manual_fp": detection.manual_fp,
        "races_per_test": detection.races_per_test(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Narada (PLDI 2015 'Synthesizing Racy Tests') reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subjects", help="list the paper subjects")
    _add_json(p)
    p.set_defaults(func=cmd_subjects)

    p = sub.add_parser("analyze", help="print sequential-trace summaries")
    _add_target_args(p)
    _add_json(p)
    _add_report_args(p, static_stats=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pairs", help="print potential racy pairs")
    _add_target_args(p)
    _add_json(p)
    _add_pipeline_args(p)
    _add_report_args(p)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("synth", help="synthesize racy tests")
    _add_target_args(p)
    _add_json(p)
    _add_pipeline_args(p)
    _add_report_args(p, static_stats=False)
    p.add_argument("--show", type=int, default=3, help="tests to render")
    p.add_argument("--all", action="store_true", help="render all tests")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fuzz", help="synthesize + run the detector backend")
    _add_target_args(p)
    _add_json(p)
    _add_pipeline_args(p)
    _add_report_args(p)
    p.add_argument("--runs", type=int, default=6, help="random schedules/test")
    p.add_argument("--no-directed", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("chess", help="bounded systematic exploration")
    _add_target_args(p)
    _add_pipeline_args(p)
    _add_report_args(p, static_stats=False)
    p.add_argument("--bound", type=int, default=2, help="preemption bound")
    p.add_argument("--tests", type=int, default=3, help="tests to explore")
    p.add_argument("--max-schedules", type=int, default=2000)
    p.set_defaults(func=cmd_chess)

    p = sub.add_parser(
        "emit", help="emit synthesized tests as standalone MiniJ source"
    )
    _add_target_args(p)
    _add_pipeline_args(p)
    _add_report_args(p, static_stats=False)
    p.add_argument("--count", type=int, default=3, help="tests to emit")
    p.add_argument("--all", action="store_true")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser(
        "run",
        help="run a MiniJ file's tests under random schedules + detectors, "
        "or (--subjects) the fault-tolerant pipeline over paper subjects",
    )
    p.add_argument("file", nargs="?", help="MiniJ source file")
    p.add_argument("--test", help="run only this test")
    p.add_argument("--runs", type=int, default=6)
    p.add_argument(
        "--detectors",
        default="fasttrack,eraser",
        help="comma-separated analysis passes to sweep over each run "
        "(registered: see analysis/sweep.py)",
    )
    p.add_argument(
        "--subjects", metavar="KEYS",
        help="comma-separated subject keys (or 'all'): run the "
        "fault-tolerant pipeline instead of a MiniJ file",
    )
    # FILE mode reads --trace-stats and none of the others: a default
    # of None shows cmd_run which were given, and the --subjects mode
    # restores the real defaults.
    subjects_only = [
        action
        for action in (*_add_pipeline_args(p), *_add_report_args(p))
        if action.dest != "trace_stats"
    ]
    p.set_defaults(
        func=cmd_run,
        parser=p,
        subjects_only={
            a.dest: (a.option_strings[0], a.default) for a in subjects_only
        },
        **{a.dest: None for a in subjects_only},
    )

    p = sub.add_parser("deadlock", help="synthesize + confirm deadlock tests")
    _add_target_args(p)
    p.add_argument("--runs", type=int, default=6, help="random schedules/test")
    p.add_argument(
        "--all-classes", action="store_true",
        help="pair lock edges across every class, not just the target",
    )
    p.set_defaults(func=cmd_deadlock)

    p = sub.add_parser("contege", help="run the random baseline")
    _add_target_args(p)
    p.add_argument("--budget", type=int, default=500, help="max random tests")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_contege)

    p = sub.add_parser("tables", help="regenerate evaluation tables")
    p.add_argument("--detect", action="store_true", help="include Table 5")
    p.add_argument("--runs", type=int, default=4)
    _add_pipeline_args(p)
    _add_report_args(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser(
        "corpus",
        help="generate and score the synthetic subject corpus",
    )
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    def _add_corpus_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--seed", type=int, default=0, help="corpus seed")
        sp.add_argument(
            "--count", type=int, default=200, metavar="N",
            help="subjects to generate (default: 200)",
        )
        sp.add_argument(
            "--templates", metavar="T1,T2",
            help="template pool (default: all; see repro.corpus.templates)",
        )
        _add_json(sp)

    g = corpus_sub.add_parser(
        "generate",
        help="emit generated subjects with known-answer oracles",
    )
    _add_corpus_args(g)
    g.add_argument(
        "--out", metavar="DIR",
        help="write <key>.minij + <key>.oracle.json files here",
    )
    g.set_defaults(func=cmd_corpus_generate)

    r = corpus_sub.add_parser(
        "run",
        help="pipeline the generated corpus; score recall/precision "
        "against the oracles",
    )
    _add_corpus_args(r)
    r.add_argument(
        "--runs", type=int, default=2, help="random schedules/test"
    )
    _add_pipeline_args(r)
    r.set_defaults(func=cmd_corpus_run)

    def _add_endpoint_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--socket", metavar="PATH",
            help="unix socket path (default: $REPRO_DAEMON_SOCKET or "
                 "<cache root>/daemon.sock)",
        )
        sp.add_argument(
            "--tcp", metavar="HOST:PORT",
            help="serve/connect over TCP instead of a unix socket",
        )

    p = sub.add_parser(
        "serve",
        help="run the warm-pool pipeline daemon on a unix/TCP socket",
    )
    _add_endpoint_args(p)
    _add_pipeline_args(p)
    p.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help="admission bound: pipeline requests active-or-queued beyond "
             "this are shed with a structured `busy` frame (default: 8)",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline; queued requests past it get "
             "`deadline_exceeded`, running ones are cancelled at the "
             "next unit boundary (default: none)",
    )
    p.add_argument(
        "--recv-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-frame recv/send deadline once a frame has started; "
             "slow-loris connections are torn down past it (default: 30)",
    )
    p.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="RSS budget (daemon + workers); above it new work is shed "
             "with `overloaded` and the pool is recycled (default: none)",
    )
    p.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="artifact-cache byte budget; LRU entries are evicted past "
             "it (default: unbounded)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="send one request to a running `repro serve` daemon",
    )
    _add_endpoint_args(p)
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="socket timeout (default: block until the daemon answers)",
    )
    p.add_argument(
        "--connect-retries", type=int, default=10, metavar="N",
        help="connection attempts before giving up (default: 10, "
             "covering a daemon that is still binding)",
    )
    client_sub = p.add_subparsers(dest="client_command", required=True)
    raw = "raw JSON response"
    cp = client_sub.add_parser("ping", help="daemon liveness + uptime")
    cs = client_sub.add_parser("stats", help="cache/pool/request counters")
    csd = client_sub.add_parser("shutdown", help="ask the daemon to drain")
    for leaf in (cp, cs, csd):
        _add_json(leaf, raw)
        leaf.set_defaults(func=cmd_client)

    for op, title in (
        ("detect", "synthesis + detection for subjects or a MiniJ file"),
        ("synthesize", "synthesis only for subjects or a MiniJ file"),
    ):
        cd = client_sub.add_parser(op, help=title)
        cd.add_argument("file", nargs="?", help="MiniJ source file")
        cd.add_argument(
            "--subjects", metavar="KEYS",
            help="comma-separated built-in subject keys (or 'all')",
        )
        cd.add_argument(
            "--class", dest="target_class", help="class under analysis"
        )
        cd.add_argument(
            "--runs", type=int, default=6, help="random schedules/test"
        )
        cd.add_argument("--vm-seed", type=int, default=None)
        cd.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="per-request deadline enforced by the daemon",
        )
        _add_json(cd, raw)
        cd.set_defaults(func=cmd_client)

    cc = client_sub.add_parser(
        "corpus", help="generate + pipeline a corpus through the daemon"
    )
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--count", type=int, default=20, metavar="N")
    cc.add_argument("--runs", type=int, default=2)
    cc.add_argument("--templates", metavar="T1,T2")
    cc.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline enforced by the daemon",
    )
    _add_json(cc, raw)
    cc.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "cache",
        help="inspect and trim the persistent artifact cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)

    def _add_cache_dir(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--cache-dir", metavar="DIR",
            help="artifact cache root (default: $REPRO_CACHE_DIR or "
                 "~/.cache/repro-narada)",
        )

    chs = cache_sub.add_parser(
        "stats", help="entry count, byte total, quarantine load"
    )
    _add_cache_dir(chs)
    _add_json(chs)
    chs.set_defaults(func=cmd_cache_stats)

    che = cache_sub.add_parser(
        "evict", help="evict LRU entries to a byte budget; GC quarantine"
    )
    _add_cache_dir(che)
    che.add_argument(
        "--max-bytes", type=int, required=True, metavar="BYTES",
        help="target byte budget for live entries",
    )
    che.add_argument(
        "--quarantine-max-entries", type=int, default=512, metavar="N",
        help="quarantined entries to keep (default: 512)",
    )
    che.add_argument(
        "--quarantine-max-age-s", type=float, default=7 * 24 * 3600.0,
        metavar="SECONDS",
        help="max quarantined-entry age (default: 7 days)",
    )
    che.set_defaults(func=cmd_cache_evict)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro synth | head`
        return 0
    except EntryDecodeError as error:  # a replay read a bad entry late
        raise SystemExit(f"error: {error}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
