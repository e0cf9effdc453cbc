"""Command-line interface: ``repro-harness``.

Usage::

    repro-harness list
    repro-harness run t1 fig3 --scale bench
    repro-harness run all --scale test --jobs 4
    repro-harness run fig3 --metrics-out metrics.jsonl --no-cache
    repro-harness validate --jobs 0            # 0 = all cores
    repro-harness trace fig3 --scale test
    repro-harness report --check --figures fig3,fig6

``run`` and ``validate`` fan independent simulations out over ``--jobs``
worker processes and reuse results from the content-addressed cache
(``--cache-dir``, default ``.repro-cache`` or ``$REPRO_CACHE_DIR``);
``--no-cache`` forces fresh simulation.  Both accelerations are
guaranteed not to change any number (see ``repro.harness.parallel``).
``trace`` always simulates serially and afresh — spans must be
collected live in-process.

Every simulated or cache-served run appends one record to the
append-only provenance ledger (``--ledger``, default
``<cache>/ledger.jsonl`` or ``$REPRO_LEDGER``; ``--no-ledger``
disables), and per-run start/done progress streams to stderr
(``--quiet`` suppresses).  ``report`` regenerates the committed
goldens and figure data through the ledger + cache and, with
``--check``, exits non-zero on any drift.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# The CLI is written against the stable public surface (repro.__all__)
# wherever it reaches for library behaviour; only harness plumbing
# with no public equivalent (registry, default paths, exporters) comes
# from deep modules.
from repro import (ConfigurationError, ResultCache, Scale, run_context,
                   trace_session)
from repro.harness.cache import default_cache_dir, default_ledger_path
from repro.harness.experiments import (REGISTRY, experiment_options,
                                       list_experiments, run_experiment)
from repro.ledger import Ledger, ledger_session
from repro.net.faults import parse_crashes, parse_schedule
from repro.trace import write_chrome_trace, write_metrics_jsonl

#: Every sweep flag -> (experiment, options field, parser, argparse
#: keywords).  ``parser`` turns the parsed flag value (a list for
#: repeatable flags) into the options field's value.
SWEEP_FLAGS: Dict[str, Tuple[str, str, Callable[[Any], Any],
                             Dict[str, Any]]] = {
    "--loss-rate": ("fault-sweep", "loss_rates", tuple, dict(
        type=float, action="append", metavar="P",
        help="per-message drop probability (repeatable; overrides the "
             "default rate grid)")),
    "--fault-seed": ("fault-sweep", "seed", int, dict(
        type=int, metavar="N",
        help="seed of the deterministic fault plane (default: 42)")),
    "--fault-schedule": ("fault-sweep", "schedule", parse_schedule, dict(
        metavar="SPEC",
        help="targeted fault rules, e.g. 'drop:diff_request:src=2:"
             "nth=3; dup:lock_grant'")),
    "--crash": ("failure-sweep", "crashes", parse_crashes, dict(
        metavar="SPEC",
        help="explicit crash-stop events, e.g. 'crash@node3:t=500000; "
             "crash@node1:t=2000000:rejoin=9000000' (overrides the "
             "--crash-frac grid)")),
    "--crash-frac": ("failure-sweep", "fracs", tuple, dict(
        type=float, action="append", metavar="F",
        help="crash the last node at fraction F of the clean run "
             "(repeatable; default: 0.25 and 0.5)")),
    "--detect-cycles": ("failure-sweep", "detect_cycles", int, dict(
        type=int, metavar="N",
        help="keepalive backstop — a crashed node is declared dead "
             "within N cycles even without retransmission traffic "
             "(default: 1000000)")),
    "--sync-lock": ("sync-sweep", "locks", tuple, dict(
        action="append", metavar="ALG",
        help="lock algorithm to include (repeatable; token/mcs/ticket/"
             "combining; default: all)")),
    "--sync-barrier": ("sync-sweep", "barriers", tuple, dict(
        action="append", metavar="ALG",
        help="barrier algorithm to include (repeatable; central/tree/"
             "combining; default: all)")),
    "--sync-workload": ("sync-sweep", "workloads", tuple, dict(
        action="append", metavar="NAME",
        help="workload to include (repeatable; default: tsp18 and "
             "mwater)")),
    "--sync-machine": ("sync-sweep", "machines", tuple, dict(
        action="append", metavar="NAME",
        help="machine to include (repeatable; default: as, ah, hs)")),
    "--ablate-mechanism": ("ablation-sweep", "mechanisms", tuple, dict(
        action="append", metavar="NAME",
        help="mechanism to sweep (repeatable; twins/diffs/lazy_fetch/"
             "lazy_release/piggyback/diff_merge/backoff; default: all "
             "seven)")),
    "--ablate-workload": ("ablation-sweep", "workloads", tuple, dict(
        action="append", metavar="NAME",
        help="workload to include (repeatable; default: sor_sim, "
             "tsp19, mwater)")),
    "--ablate-machine": ("ablation-sweep", "machines", tuple, dict(
        action="append", metavar="NAME",
        help="software machine to include (repeatable; default: as "
             "and hs)")),
    "--ablate-grid": ("ablation-sweep", "grids", tuple, dict(
        action="append", metavar="GRID",
        help="spec grid — 'loo' (leave one out) and/or 'only' (one "
             "mechanism kept); repeatable; default: loo")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description="Regenerate the tables and figures of Cox et al., "
                    "'Software Versus Hardware Shared-Memory "
                    "Implementation' (ISCA 1994).")
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list all experiments")
    lister.set_defaults(func=cmd_list)

    runner = sub.add_parser("run", help="run experiments by id")
    runner.add_argument("ids", nargs="+",
                        help="experiment ids (or 'all')")
    runner.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.BENCH.value,
                        help="problem-size scale (default: bench)")
    runner.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="also write one metrics JSON line per "
                             "machine run (machine, app, cycles, "
                             "counters)")
    _add_sweep_flags(runner)
    _add_exec_options(runner)
    runner.set_defaults(func=cmd_run)

    tracer = sub.add_parser(
        "trace",
        help="run experiments with tracing on; write a Chrome trace")
    tracer.add_argument("ids", nargs="+",
                        help="experiment ids (or 'all')")
    tracer.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.TEST.value,
                        help="problem-size scale (default: test)")
    tracer.add_argument("--out", metavar="PATH", default=None,
                        help="Chrome trace output path (default: "
                             "traces/<ids>-<scale>.trace.json)")
    tracer.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="also write metrics JSONL (with time "
                             "breakdowns) for the traced runs")
    tracer.set_defaults(func=cmd_trace)

    validator = sub.add_parser(
        "validate",
        help="evaluate the paper's shape claims as PASS/FAIL checks")
    validator.add_argument("--scale", choices=[s.value for s in Scale],
                           default=Scale.BENCH.value)
    _add_exec_options(validator)
    validator.set_defaults(func=cmd_validate)

    reporter = sub.add_parser(
        "report",
        help="regenerate committed goldens and figure data from the "
             "ledger-backed cache; detect drift")
    reporter.add_argument("--figures", metavar="IDS", default=None,
                          help="comma-separated figure experiment ids "
                               "(default: fig3,fig6)")
    reporter.add_argument("--scale", choices=[s.value for s in Scale],
                          default=Scale.TEST.value,
                          help="problem-size scale (default: test)")
    reporter.add_argument("--check", action="store_true",
                          help="exit non-zero if any regenerated "
                               "artifact drifts from the committed one")
    reporter.add_argument("--write", action="store_true",
                          help="rewrite the committed artifacts with "
                               "the regenerated data")
    reporter.add_argument("--drift-out", metavar="PATH", default=None,
                          help="also write the structured drift "
                               "document (JSON) here")
    _add_exec_options(reporter)
    reporter.set_defaults(func=cmd_report)

    checker = sub.add_parser(
        "check",
        help="run the checked conformance battery (online invariant "
             "checkers + differential fuzz programs) on all machines")
    checker.add_argument("--scale", choices=[s.value for s in Scale],
                         default=Scale.TEST.value,
                         help="problem-size scale for the application "
                              "entries (default: test)")
    checker.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="parallel simulation workers "
                              "(0 = all cores; default: 1)")
    checker.set_defaults(func=cmd_check)

    fuzzer = sub.add_parser(
        "fuzz",
        help="differential-fuzz random DRF programs across all five "
             "machine models with the consistency checkers armed")
    fuzzer.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    fuzzer.add_argument("--iters", type=int, default=50, metavar="N",
                        help="number of random programs (default: 50)")
    fuzzer.add_argument("--shrink", dest="shrink", action="store_true",
                        default=True,
                        help="shrink failures to a minimal reproducer "
                             "(default)")
    fuzzer.add_argument("--no-shrink", dest="shrink",
                        action="store_false",
                        help="keep failing programs as generated")
    fuzzer.add_argument("--seeds-dir", metavar="PATH", default=None,
                        help="regression-seed directory; persisted "
                             "failures are replayed first and new "
                             "minimal repros saved here (default: "
                             "tests/fuzz_seeds)")
    fuzzer.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel simulation workers "
                             "(0 = all cores; default: 1)")
    fuzzer.add_argument("--ablation-iters", type=int, default=0,
                        metavar="N",
                        help="additional random-ablation differential "
                             "cases (each runs one program on software "
                             "machines with a seeded random mechanism "
                             "subset switched off; default: 0)")
    fuzzer.set_defaults(func=cmd_fuzz)

    ablater = sub.add_parser(
        "ablate",
        help="run the ablation-sweep experiment and print the ranked "
             "which-mechanism-earns-its-cost report")
    ablater.add_argument("--scale", choices=[s.value for s in Scale],
                         default=Scale.TEST.value,
                         help="problem-size scale (default: test)")
    _add_sweep_flags(ablater, only="ablation-sweep")
    _add_exec_options(ablater)
    ablater.set_defaults(func=cmd_ablate)
    return parser


def _add_sweep_flags(sub: argparse.ArgumentParser,
                     only: Optional[str] = None) -> None:
    """Add the :data:`SWEEP_FLAGS` (of experiment ``only``, if given)."""
    for flag, (exp_id, _field, _parse, kwargs) in SWEEP_FLAGS.items():
        if only in (None, exp_id):
            sub.add_argument(flag, **{**kwargs,
                                      "help": f"{exp_id}: {kwargs['help']}"})


def _add_exec_options(sub: argparse.ArgumentParser) -> None:
    """--jobs / cache / ledger / progress options, shared by the
    simulation-heavy subcommands (run, validate, report)."""
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="run up to N independent simulations in "
                          "parallel worker processes (0 = all cores; "
                          "default: 1)")
    sub.add_argument("--cache-dir", metavar="PATH", default=None,
                     help="content-addressed result cache directory "
                          "(default: $REPRO_CACHE_DIR or .repro-cache)")
    sub.add_argument("--no-cache", action="store_true",
                     help="simulate every point afresh, and store "
                          "nothing")
    sub.add_argument("--ledger", metavar="PATH", default=None,
                     help="append-only provenance ledger (default: "
                          "$REPRO_LEDGER or <cache dir>/ledger.jsonl)")
    sub.add_argument("--no-ledger", action="store_true",
                     help="record no provenance")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress lines on stderr")


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _make_ledger(args: argparse.Namespace) -> Optional[Ledger]:
    if args.no_ledger:
        return None
    path = args.ledger or default_ledger_path(args.cache_dir)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return Ledger(path)


def _report_cache(cache: Optional[ResultCache],
                  ledger: Optional[Ledger] = None) -> None:
    if cache is not None:
        print(cache.format_stats())
    if ledger is not None and ledger.appended:
        print(f"[ledger] appended={ledger.appended} path={ledger.path}")


def cmd_list(_args: argparse.Namespace) -> int:
    for exp in list_experiments():
        print(f"{exp.exp_id:6s} {exp.paper_ref:14s} {exp.title}")
        print(f"       shape: {exp.shape_note}")
    return 0


def _resolve_ids(ids: List[str]) -> Optional[List[str]]:
    if ids == ["all"]:
        return [e.exp_id for e in list_experiments()]
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"known: {sorted(REGISTRY)}", file=sys.stderr)
        return None
    return ids


def _sweep_overrides(args: argparse.Namespace,
                     ids: Sequence[str]) -> Dict[str, Dict[str, Any]]:
    """exp_id -> :func:`experiment_options` overrides from the flags.

    Raises :class:`ConfigurationError` when a flag's experiment is not
    among ``ids``.
    """
    overrides: Dict[str, Dict[str, Any]] = {}
    for flag, (exp_id, field, parse, _kwargs) in SWEEP_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            overrides.setdefault(exp_id, {})[field] = parse(value)
    for exp_id in overrides:
        if exp_id not in ids:
            flags = "/".join(flag for flag, entry in SWEEP_FLAGS.items()
                             if entry[0] == exp_id)
            raise ConfigurationError(
                f"{flags} parameterize the '{exp_id}' experiment, which "
                "is not among the ids to run")
    return overrides


@contextlib.contextmanager
def _session(args: argparse.Namespace, cache: Optional[ResultCache],
             ledger: Optional[Ledger],
             overrides: Optional[Dict[str, Dict[str, Any]]] = None):
    """Sweep options, ledger session and run context, entered together."""
    with contextlib.ExitStack() as stack:
        for exp_id, kwargs in (overrides or {}).items():
            stack.enter_context(experiment_options(exp_id, **kwargs))
        stack.enter_context(ledger_session(ledger))
        stack.enter_context(run_context(jobs=args.jobs, cache=cache,
                                        ledger=ledger, quiet=args.quiet))
        yield


def cmd_run(args: argparse.Namespace) -> int:
    scale = Scale(args.scale)
    ids = _resolve_ids(args.ids)
    if ids is None:
        return 2
    try:
        overrides = _sweep_overrides(args, ids)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    cache = _make_cache(args)
    ledger = _make_ledger(args)

    def run_all() -> None:
        for exp_id in ids:
            start = time.time()
            report = run_experiment(exp_id, scale)
            elapsed = time.time() - start
            print(report.text())
            print(f"   [{exp_id} at scale={scale.value} in "
                  f"{elapsed:.1f}s; "
                  f"expected shape: {REGISTRY[exp_id].shape_note}]")
            print()

    with _session(args, cache, ledger, overrides):
        if args.metrics_out:
            # Metrics-only session: collects every run with zero
            # per-event overhead (no tracers are created).
            with trace_session(trace=False) as session:
                run_all()
            lines = write_metrics_jsonl(args.metrics_out,
                                        session.results)
            print(f"wrote {lines} metrics records to "
                  f"{args.metrics_out}")
        else:
            run_all()
    _report_cache(cache, ledger)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    scale = Scale(args.scale)
    ids = _resolve_ids(args.ids)
    if ids is None:
        return 2
    out = args.out
    if out is None:
        out = os.path.join(
            "traces", f"{'-'.join(ids)}-{scale.value}.trace.json")
    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    with trace_session(trace=True) as session:
        for exp_id in ids:
            start = time.time()
            report = run_experiment(exp_id, scale)
            elapsed = time.time() - start
            print(report.text())
            print(f"   [{exp_id} traced at scale={scale.value} in "
                  f"{elapsed:.1f}s]")
            print()

    write_chrome_trace(out, session.tracers)
    print(f"wrote Chrome trace of {len(session.tracers)} runs to {out}")
    print("  (load in chrome://tracing or https://ui.perfetto.dev)")
    print()
    print("time breakdown (fraction of aggregate processor time):")
    for run in session.runs:
        b = run.result.breakdown
        if b is None:
            continue
        fracs = " ".join(f"{cat}={frac:.2f}"
                         for cat, frac in b.fractions().items())
        print(f"  {run.result.machine:12s} {run.result.app:12s} "
              f"p{run.result.nprocs:<3d} {fracs} "
              f"sw_overhead={b.software_overhead_fraction():.2f}")
    if args.metrics_out:
        lines = write_metrics_jsonl(args.metrics_out, session.results)
        print(f"wrote {lines} metrics records to {args.metrics_out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validate import format_results, run_validation
    cache = _make_cache(args)
    ledger = _make_ledger(args)
    with _session(args, cache, ledger):
        results = run_validation(Scale(args.scale))
    for line in format_results(results):
        print(line)
    _report_cache(cache, ledger)
    return 0 if all(ok for _c, ok in results) else 1


def cmd_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.harness.report import DEFAULT_FIGURES, run_report
    figures = DEFAULT_FIGURES
    if args.figures:
        figures = tuple(f for f in args.figures.split(",") if f)
    unknown = [f for f in figures if f not in REGISTRY]
    if unknown:
        print(f"unknown figure ids: {unknown}", file=sys.stderr)
        return 2
    cache = _make_cache(args)
    ledger = _make_ledger(args)
    with _session(args, cache, ledger):
        outcome = run_report(figures=figures, scale=Scale(args.scale),
                             write=args.write, log=print)
    _report_cache(cache, ledger)
    if args.drift_out:
        with open(args.drift_out, "w") as fh:
            _json.dump(outcome.drift_document(), fh, indent=2,
                       sort_keys=True)
            fh.write("\n")
        print(f"wrote drift document to {args.drift_out}")
    if outcome.drifts:
        print(f"[report] DRIFT: {len(outcome.drifts)} mismatched "
              f"value(s)", file=sys.stderr)
        for drift in outcome.drifts:
            print(f"  {drift.line()}", file=sys.stderr)
        if args.check:
            return 2
    elif args.check:
        print("[report] OK: no drift")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.check.conformance import run_conformance
    report = run_conformance(Scale(args.scale), jobs=args.jobs,
                             log=print)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.check.fuzz import SEEDS_DIRNAME, fuzz_run, load_seeds
    seeds_dir = args.seeds_dir or SEEDS_DIRNAME
    regressions = load_seeds(seeds_dir)
    if regressions:
        print(f"replaying {len(regressions)} persisted regression "
              f"seed(s) from {seeds_dir}")
    report = fuzz_run(args.seed, args.iters, shrink=args.shrink,
                      seeds_dir=seeds_dir, jobs=args.jobs,
                      regression_programs=regressions,
                      ablation_iters=args.ablation_iters, log=print)
    status = "PASS" if report.ok else "FAIL"
    print(f"[{status}] fuzz campaign seed={args.seed}: "
          f"{report.programs_run} programs "
          f"({len(regressions)} regression + {report.iterations} "
          f"random), {len(report.failures)} failure(s)")
    for outcome in report.failures:
        print(f"  - {outcome.reason}")
    return 0 if report.ok else 1


def cmd_ablate(args: argparse.Namespace) -> int:
    scale = Scale(args.scale)
    try:
        overrides = _sweep_overrides(args, ["ablation-sweep"])
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    cache = _make_cache(args)
    ledger = _make_ledger(args)
    with _session(args, cache, ledger, overrides):
        start = time.time()
        report = run_experiment("ablation-sweep", scale)
        elapsed = time.time() - start
    print(report.text())
    print(f"   [ablation-sweep at scale={scale.value} in "
          f"{elapsed:.1f}s]")
    _report_cache(cache, ledger)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
