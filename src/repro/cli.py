"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artifacts:

* ``fig1``      -- print the Figure 1 example neighbor table.
* ``fig2``      -- print the Figure 2 C-set tree template/realization.
* ``fig15a``    -- print the Theorem 5 upper-bound curves.
* ``fig15b``    -- run a Figure 15(b) simulation (scaled by default,
  ``--full`` for the paper's 8320-router configurations).
* ``reproduce`` -- run the claims manifest
  (:mod:`repro.experiments.claims`), exit 1 if a check fails; ``--out
  EXPERIMENTS.md`` regenerates that file's tables.
* ``join``      -- run a concurrent-join experiment and verify
  Theorems 1-3; ``--trace out.jsonl`` writes a span/event trace,
  ``--metrics`` / ``--metrics-csv out.csv`` expose the metrics
  registry (see :mod:`repro.obs`); ``--audit`` runs the
  :class:`~repro.obs.audit.LiveAuditor` inline (theorem gates plus
  mid-run consistency sampling); ``--seeds K --jobs N`` fans K
  seeds over N worker processes.
* ``report``    -- analyze a trace JSONL file: lifecycles, causal
  join trees, theorem-3 census (text/JSON/HTML; see
  :mod:`repro.obs.report`).
* ``sweep``     -- multi-seed Figure 15(b) sweep with aggregates;
  ``--jobs N`` parallelizes across processes (results are identical
  to the serial run for any N); ``--out out.json`` archives the
  backend-independent per-seed results.
* ``churn``     -- joins + leaves + crashes + recovery + optimization;
  ``--seeds K`` fans a multi-seed churn campaign over the engine.
* ``worker``    -- one sweep-executor daemon over real UDP
  (:mod:`repro.exec.worker`), the unit a ``--backend remote``
  campaign dispatches to.
* ``node``      -- one protocol node as a daemon over real UDP
  (:mod:`repro.net.daemon`).
* ``rendezvous`` -- the bootstrap directory service
  (:mod:`repro.net.rendezvous`).
* ``cluster``   -- boot a local multi-process UDP cluster, drive
  concurrent joins, verify Definition 3.8 / Theorem 3 over the live
  tables (:mod:`repro.net.cluster`); ``--report out.json`` archives
  the verification report; ``--telemetry DIR`` merges every daemon's
  causal trace into ``DIR/merged-trace.jsonl`` + ``run-report.json``
  and gates on causal validity.
* ``top``       -- live status table of a running cluster
  (:mod:`repro.net.top`), polled via the rendezvous directory;
  sweep workers show up alongside the cluster daemons.

The campaign commands (``fig15b``, ``reproduce``, ``join``,
``sweep``, ``churn``) share the execution-engine flags: ``--jobs N``
and ``--backend inline|pool|remote`` (default: inline for ``--jobs
1``, the process pool otherwise), plus ``--workers HOST:PORT,...`` and
``--workers-from HOST:PORT`` (rendezvous worker discovery) for the
remote backend; the selection rule is
:func:`repro.exec.create_backend`.  Results are identical across
backends -- see :mod:`repro.exec` and ``docs/distributed.md``.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.fig1 import figure1_example

    _, rendering = figure1_example()
    print(rendering)
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from repro.experiments.fig2 import figure2_example

    result = figure2_example(seed=args.seed)
    print("Template C(V, W):")
    print(result.template.render())
    print("\nRealized cset(V, W):")
    print(result.realized.render())
    print(f"\nconsistent: {result.consistent}; "
          f"conditions (1)-(3) hold: {result.all_conditions_hold}")
    return 0 if result.consistent else 1


def _cmd_fig15a(args: argparse.Namespace) -> int:
    from repro.experiments.fig15a import (
        FIG15A_CONFIGS,
        figure15a_series,
        render_figure15a,
    )
    from repro.experiments.plotting import ascii_chart

    print(render_figure15a())
    print()
    series = {c.label: figure15a_series(c) for c in FIG15A_CONFIGS}
    print(
        ascii_chart(
            series,
            width=60,
            height=14,
            x_label="n",
            y_label="upper bound of E(J)   [Figure 15(a)]",
            y_min=3.0,
            y_max=9.0,
        )
    )
    return 0


def _cmd_fig15b(args: argparse.Namespace) -> int:
    from repro.experiments.fig15b import PAPER_CONFIGS
    from repro.experiments.harness import render_cdf_table
    from repro.experiments.parallel import JoinTaskConfig, run_join_task
    from repro.experiments.plotting import cdf_chart

    if args.full:
        configs = PAPER_CONFIGS
    else:
        configs = (
            JoinTaskConfig(
                n=args.n,
                m=args.m,
                num_digits=args.digits,
                seed=args.seed,
                use_topology=True,
            ),
        )
    ok = True
    samples = {}
    backend = _build_backend(args)
    if backend is None:
        return 2
    with backend:
        results = backend.map(run_join_task, list(configs))
    for config, result in zip(configs, results):
        print(f"== {config.label} ==")
        print(render_cdf_table(result.cdf))
        print(f"  mean {result.mean_join_noti:.3f}  "
              f"bound {config.theorem5_bound:.3f}  "
              f"consistent {result.consistent}")
        ok = ok and result.consistent and result.all_in_system
        samples[config.label] = result.join_noti_counts
    print()
    print(cdf_chart(samples, width=60, height=12, x_max=50))
    return 0 if ok else 1


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.claims import CLAIMS, TASKS, ClaimError
    from repro.experiments.claims import evaluate, render_blocks
    from repro.experiments.claims import rewrite_blocks, run_claim

    backend = _build_backend(args)
    if backend is None:
        return 2
    with backend:
        values = backend.map(run_claim, list(TASKS))
    outcomes = evaluate(dict(zip(TASKS, values)), CLAIMS)
    blocks = render_blocks(outcomes)
    for block, table in blocks.items():
        print(f"== {block} ==\n{table}\n")
    failed = [o.claim.key for o in outcomes if not o.ok]
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} claims hold"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    if args.out:
        with open(args.out, encoding="utf-8", newline="") as handle:
            text = handle.read()
        try:
            updated = rewrite_blocks(text, blocks)
        except ClaimError as exc:
            print(f"error: {args.out}: {exc}", file=sys.stderr)
            return 1
        if updated != text:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(updated)
        print(f"{args.out}: {'rewritten' if updated != text else 'unchanged'}")
    return 1 if failed else 0


def _build_backend(args: argparse.Namespace):
    """The :class:`repro.exec.ExecutionBackend` the ``--backend`` /
    ``--jobs`` / ``--workers`` / ``--workers-from`` flags select (the
    rule is :func:`repro.exec.create_backend`'s), or ``None`` after an
    error line on stderr when they cannot be satisfied (e.g.
    ``--backend remote`` with neither workers nor a rendezvous).

    The returned backend is CLI-owned: callers close it (``with``).
    """
    from repro.exec import create_backend

    workers = None
    if args.workers:
        workers = [w.strip() for w in args.workers.split(",") if w.strip()]
    jobs = args.jobs
    if args.backend == "pool" and jobs == 1:
        jobs = None  # --backend pool without --jobs: one per core
    try:
        return create_backend(
            args.backend, jobs=jobs, workers=workers,
            rendezvous=args.workers_from or None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _build_observability(args: argparse.Namespace):
    """The Observability implied by ``--trace``/``--metrics`` flags
    (or ``None`` when neither was given)."""
    from repro.obs import Observability

    if getattr(args, "trace", None):
        return Observability.tracing()
    if getattr(args, "metrics", False) or getattr(args, "metrics_csv", None):
        return Observability.metrics_only()
    return None


def _emit_observability(args: argparse.Namespace, net) -> None:
    """Write/print the trace and metrics artifacts ``args`` asked for."""
    from repro.experiments.harness import (
        render_metrics_table,
        render_phase_table,
    )
    from repro.obs import write_metrics_csv, write_trace_jsonl

    obs = net.obs
    if obs is None:
        return
    net.collect_final_metrics()
    if getattr(args, "trace", None):
        records = write_trace_jsonl(obs.tracer, args.trace)
        print(f"trace              : {args.trace} ({records} records)")
        print("join phase durations (virtual time):")
        print(render_phase_table(obs.tracer))
    if getattr(args, "metrics_csv", None):
        rows = write_metrics_csv(obs.metrics, args.metrics_csv)
        print(f"metrics csv        : {args.metrics_csv} ({rows} metrics)")
    if getattr(args, "metrics", False):
        print("metrics snapshot:")
        print(render_metrics_table(obs.metrics))


def _emit_audit(args: argparse.Namespace, auditor) -> bool:
    """Finalize the auditor, print/write its report; True iff passed."""
    import json

    report = auditor.finalize()
    print(report.render_text())
    if getattr(args, "audit_json", None):
        with open(args.audit_json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, sort_keys=True,
                      indent=2)
            handle.write("\n")
        print(f"audit json         : {args.audit_json}")
    return report.passed


def _build_runtime(args: argparse.Namespace):
    """The runtime implied by ``--runtime`` (``None`` -> default sim)."""
    kind = getattr(args, "runtime", None)
    if kind is None or kind == "sim":
        return None
    from repro.runtime import create_runtime

    return create_runtime(kind, time_scale=args.time_scale)


def _cmd_join(args: argparse.Namespace) -> int:
    from repro.analysis.expected_cost import theorem3_bound
    from repro.experiments.workloads import make_workload

    if args.seeds > 1:
        return _cmd_join_multi(args)
    runtime = _build_runtime(args)
    workload = make_workload(
        base=args.base,
        num_digits=args.digits,
        n=args.n,
        m=args.m,
        seed=args.seed,
        obs=_build_observability(args),
        runtime=runtime,
    )
    net = workload.network
    auditor = net.attach_auditor() if args.audit else None
    workload.start_all_joins()
    workload.run(wall_budget=args.wall_budget if runtime is not None else None)
    if runtime is not None:
        print(f"runtime            : {net.runtime.name} "
              f"(time scale {args.time_scale}s/unit, "
              f"{net.runtime.events_fired} events)")
    report = net.check_consistency()
    bound = theorem3_bound(args.digits)
    counts = net.theorem3_counts()
    print(f"members            : {len(net.member_ids())}")
    print(f"Theorem 1 (consistent): {report.consistent}")
    print(f"Theorem 2 (all S-node): {net.all_in_system()}")
    print(f"Theorem 3 (<= {bound}): max {max(counts)}")
    print(f"mean JoinNotiMsg   : "
          f"{sum(net.join_noti_counts()) / args.m:.3f}")
    print(f"total messages     : {net.stats.total_messages}")
    _emit_observability(args, net)
    audit_ok = _emit_audit(args, auditor) if auditor is not None else True
    if getattr(args, "messages_csv", None):
        from repro.obs import write_message_type_csv

        rows = write_message_type_csv(net.stats.registry, args.messages_csv)
        print(f"messages csv       : {args.messages_csv} ({rows} types)")
    ok = report.consistent and net.all_in_system() and audit_ok
    if runtime is not None:
        runtime.close()
    return 0 if ok else 1


def _cmd_join_multi(args: argparse.Namespace) -> int:
    """``join --seeds K``: fan K seeded runs over ``--jobs`` workers."""
    from repro.experiments.parallel import (
        JoinTaskConfig,
        run_join_task,
        seeded_configs,
    )

    base_config = JoinTaskConfig(
        base=args.base,
        num_digits=args.digits,
        n=args.n,
        m=args.m,
        seed=args.seed,
    )
    seeds = range(args.seed, args.seed + args.seeds)
    backend = _build_backend(args)
    if backend is None:
        return 2
    with backend:
        results = backend.map(
            run_join_task, seeded_configs(base_config, seeds)
        )
    ok = True
    print(f"{'seed':>6}  {'members':>7}  {'mean noti':>9}  "
          f"{'max thm3':>8}  {'messages':>8}  consistent")
    for result in results:
        ok = ok and result.consistent and result.all_in_system
        print(f"{result.seed:>6}  {result.members:>7}  "
              f"{result.mean_join_noti:>9.3f}  "
              f"{result.max_theorem3:>8}  "
              f"{result.total_messages:>8}  {result.consistent}")
    mean_noti = sum(r.mean_join_noti for r in results) / len(results)
    print(f"mean JoinNotiMsg over {len(results)} seeds: {mean_noti:.3f}")
    print(f"all consistent     : {ok}")
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    """``repro report``: analytics over a trace JSONL file."""
    from repro.obs.report import RunReport

    report = RunReport.from_file(args.trace)
    data = report.to_json_dict()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"report json        : {args.json}")
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(report.render_html())
        print(f"report html        : {args.html}")
    print(report.render_text())
    healthy = (
        not data["lifecycles"]["illegal_transitions"]
        and not data["lifecycles"]["stalled"]
        and not data["causality"]["problems"]
        and data["theorem3"]["passed"]
    )
    return 0 if healthy else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.harness import summarize
    from repro.experiments.parallel import (
        JoinTaskConfig,
        run_join_task,
        seeded_configs,
    )

    config = JoinTaskConfig(
        n=args.n, m=args.m, num_digits=args.digits, use_topology=True
    )
    seeds = list(range(args.seed, args.seed + args.seeds))
    backend = _build_backend(args)
    if backend is None:
        return 2
    with backend:
        results = backend.map(run_join_task, seeded_configs(config, seeds))
    sweep = _sweep_record(config, seeds, results)
    means = summarize([r.mean_join_noti for r in results])
    print(f"== {config.label}; seeds {seeds} ==")
    print(f"mean JoinNotiMsg: {means.mean:.3f} +/- {means.stddev:.3f} "
          f"[{means.minimum:.3f}, {means.maximum:.3f}] "
          f"({means.count} seeds)")
    print(f"Theorem 5 bound    : {sweep['theorem5_bound']:.3f}")
    print(f"bound never exceeded: {sweep['bound_never_exceeded']}")
    print(f"all consistent     : {sweep['all_consistent']}")
    if backend.name == "remote":
        print(f"remote backend     : {backend.summary()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(sweep, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"sweep json         : {args.out}")
    return 0 if sweep["all_consistent"] else 1


def _sweep_record(config, seeds, results) -> dict:
    """A sweep as backend-independent JSON content (``sweep --out``).

    The content is a pure function of the task configs -- per-seed
    results plus aggregates, nothing scheduling-dependent -- so runs
    of the same sweep on different ``--backend`` values produce
    byte-identical files (the CI ``distributed-smoke`` job diffs
    them).
    """
    bound = config.theorem5_bound
    return {
        "config": {
            "n": config.n,
            "m": config.m,
            "base": config.base,
            "num_digits": config.num_digits,
        },
        "seeds": seeds,
        "per_seed": [
            {
                "seed": result.seed,
                "mean_join_noti": result.mean_join_noti,
                "max_join_noti": result.max_join_noti,
                "theorem3_violations": result.theorem3_violations,
                "consistent": result.consistent,
                "all_in_system": result.all_in_system,
                "total_messages": result.total_messages,
            }
            for result in results
        ],
        "theorem5_bound": bound,
        "bound_never_exceeded": all(
            result.mean_join_noti < bound for result in results
        ),
        "all_consistent": all(result.consistent for result in results),
    }


def _cmd_churn(args: argparse.Namespace) -> int:
    from repro.experiments.churn import ChurnConfig, run_churn
    from repro.experiments.workloads import SMALL_TOPOLOGY

    config = ChurnConfig(
        n=args.n,
        m=args.m,
        leaves=args.leaves,
        failures=args.failures,
        seed=args.seed,
        topology_params=SMALL_TOPOLOGY,
    )
    if args.seeds > 1:
        return _cmd_churn_multi(args, config)
    result = run_churn(config)
    for phase in result.phases:
        print(phase)
    print(f"final consistency  : {result.all_consistent}")
    return 0 if result.all_consistent else 1


def _cmd_churn_multi(args: argparse.Namespace, config) -> int:
    """``churn --seeds K``: fan K seeded lifecycles over the engine."""
    from repro.experiments.churn import run_churn
    from repro.experiments.parallel import seeded_configs

    seeds = range(args.seed, args.seed + args.seeds)
    backend = _build_backend(args)
    if backend is None:
        return 2
    with backend:
        results = backend.map(run_churn, seeded_configs(config, seeds))
    ok = True
    print(f"{'seed':>6}  {'phases':>6}  {'members':>7}  "
          f"{'stretch':>14}  consistent")
    for result in results:
        ok = ok and result.all_consistent
        members = result.phases[-1].members if result.phases else 0
        stretch = (
            f"{result.stretch_before:.2f}->{result.stretch_after:.2f}"
            if result.stretch_after
            else "-"
        )
        print(f"{result.config.seed:>6}  {len(result.phases):>6}  "
              f"{members:>7}  {stretch:>14}  {result.all_consistent}")
    print(f"all consistent     : {ok}")
    return 0 if ok else 1


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.net.daemon import NodeDaemonConfig, run_node_daemon
    from repro.net.wire import parse_hostport

    try:
        config = NodeDaemonConfig(
            listen=parse_hostport(args.listen),
            base=args.base,
            num_digits=args.num_digits,
            node_id=args.id,
            rendezvous=(
                parse_hostport(args.rendezvous) if args.rendezvous else None
            ),
            bootstrap=(
                parse_hostport(args.bootstrap) if args.bootstrap else None
            ),
            seed_node=args.seed_node,
            time_scale=args.time_scale,
            wall_budget=args.wall_budget,
            loss=args.loss,
            duplicate=args.duplicate,
            reorder=args.reorder,
            fault_seed=args.fault_seed,
            telemetry=args.telemetry,
            telemetry_file=args.telemetry_file,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_node_daemon(config)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.net.top import run_top
    from repro.net.wire import parse_hostport

    samples = run_top(
        parse_hostport(args.rendezvous),
        interval=args.interval,
        iterations=args.iterations,
    )
    return 0 if samples > 0 else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.exec.worker import WorkerDaemon
    from repro.net.wire import parse_hostport

    try:
        listen = parse_hostport(args.listen)
        rendezvous = (
            parse_hostport(args.rendezvous) if args.rendezvous else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return WorkerDaemon(
        listen, rendezvous, announce_interval=args.announce_interval
    ).run()


def _cmd_rendezvous(args: argparse.Namespace) -> int:
    from repro.net.rendezvous import RendezvousServer
    from repro.net.wire import parse_hostport

    return RendezvousServer(parse_hostport(args.listen), ttl=args.ttl).run()


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.net.cluster import (
        ClusterConfig,
        ClusterError,
        run_cluster,
        write_report,
    )

    try:
        config = ClusterConfig(
            nodes=args.nodes,
            joins=args.joins,
            base=args.base,
            num_digits=args.num_digits,
            loss=args.loss,
            duplicate=args.duplicate,
            fault_seed=args.fault_seed,
            time_scale=args.time_scale,
            converge_timeout=args.timeout,
            telemetry_dir=args.telemetry,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_cluster(config)
    except ClusterError as exc:
        print(f"cluster failed: {exc}", file=sys.stderr)
        return 1
    if args.report:
        write_report(report, args.report)
        print(f"report written to {args.report}")
    return 0 if report["ok"] else 1


def _jobs(text: str) -> int:
    """``--jobs`` type: a non-negative int (0 = one per CPU)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return int(text)


def _positive(text: str) -> int:
    """``--n`` / ``--m`` / ``--seeds`` type: a positive int."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return int(text)


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared execution-engine flags to a campaign
    subcommand (see :func:`_build_backend`)."""
    from repro.exec import BACKEND_NAMES

    parser.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes for the campaign's tasks (0 = one per "
             "CPU; 1 runs inline unless --backend pool)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend (default: inline for --jobs 1, "
             "pool otherwise; results are identical for any choice)",
    )
    parser.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="comma-separated repro worker daemons for --backend "
             "remote (implies it)",
    )
    parser.add_argument(
        "--workers-from", default=None, metavar="HOST:PORT",
        help="rendezvous service to discover workers from for "
             "--backend remote (implies it)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with all subcommands attached."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Liu & Lam (ICDCS 2003) reproduction: hypercube routing "
            "join protocol"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fig1", help="Figure 1 example table").set_defaults(
        func=_cmd_fig1
    )

    fig2 = sub.add_parser("fig2", help="Figure 2 C-set tree example")
    fig2.add_argument("--seed", type=int, default=0)
    fig2.set_defaults(func=_cmd_fig2)

    sub.add_parser(
        "fig15a", help="Theorem 5 upper-bound curves"
    ).set_defaults(func=_cmd_fig15a)

    fig15b = sub.add_parser("fig15b", help="Figure 15(b) simulation")
    fig15b.add_argument("--full", action="store_true",
                        help="paper-scale (8320 routers, four configs)")
    fig15b.add_argument("--n", type=_positive, default=300)
    fig15b.add_argument("--m", type=_positive, default=100)
    fig15b.add_argument("--digits", type=int, default=8)
    fig15b.add_argument("--seed", type=int, default=0)
    _add_backend_args(fig15b)
    fig15b.set_defaults(func=_cmd_fig15b)

    reproduce = sub.add_parser(
        "reproduce", help="paper vs measured for every claim")
    reproduce.add_argument(
        "--out", metavar="FILE",
        help="rewrite the claims blocks of FILE (EXPERIMENTS.md)")
    _add_backend_args(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    join = sub.add_parser("join", help="concurrent-join experiment")
    join.add_argument("--base", type=int, default=16)
    join.add_argument("--digits", type=int, default=8)
    join.add_argument("--n", type=_positive, default=300)
    join.add_argument("--m", type=_positive, default=100)
    join.add_argument("--seed", type=int, default=0)
    join.add_argument(
        "--trace", metavar="PATH",
        help="write a JSONL span/event trace of the run to PATH",
    )
    join.add_argument(
        "--metrics", action="store_true",
        help="print the metrics-registry snapshot after the run",
    )
    join.add_argument(
        "--metrics-csv", metavar="PATH",
        help="write the metrics snapshot as CSV to PATH",
    )
    join.add_argument(
        "--messages-csv", metavar="PATH",
        help="write the per-message-type counter breakdown as CSV",
    )
    join.add_argument(
        "--audit", action="store_true",
        help="run the live protocol auditor inline (theorem gates + "
             "mid-run consistency sampling; single-run only)",
    )
    join.add_argument(
        "--audit-json", metavar="PATH",
        help="with --audit: write the audit report as JSON to PATH",
    )
    join.add_argument(
        "--runtime", choices=("sim", "asyncio"), default="sim",
        help="execution substrate: deterministic virtual-time simulator "
             "(default) or wall-clock asyncio timers driving the "
             "identical protocol core",
    )
    join.add_argument(
        "--time-scale", type=float, default=0.001, metavar="SECONDS",
        help="with --runtime asyncio: wall-clock seconds per protocol "
             "time unit (default 0.001 = 1ms)",
    )
    join.add_argument(
        "--wall-budget", type=float, default=120.0, metavar="SECONDS",
        help="with --runtime asyncio: fail if the network has not "
             "quiesced within this much real time",
    )
    join.add_argument(
        "--seeds", type=_positive, default=1,
        help="run this many seeds (starting at --seed) and aggregate",
    )
    _add_backend_args(join)
    join.set_defaults(func=_cmd_join)

    report = sub.add_parser(
        "report", help="analyze a trace JSONL file (see join --trace)"
    )
    report.add_argument("trace", metavar="TRACE",
                        help="trace JSONL file to analyze")
    report.add_argument("--json", metavar="PATH",
                        help="write the full report as JSON to PATH")
    report.add_argument("--html", metavar="PATH",
                        help="write a self-contained HTML timeline to PATH")
    report.set_defaults(func=_cmd_report)

    sweep = sub.add_parser(
        "sweep", help="multi-seed Figure 15(b) sweep with aggregates"
    )
    sweep.add_argument("--n", type=_positive, default=300)
    sweep.add_argument("--m", type=_positive, default=100)
    sweep.add_argument("--digits", type=int, default=8)
    sweep.add_argument("--seed", type=int, default=0,
                       help="first seed of the sweep")
    sweep.add_argument("--seeds", type=_positive, default=5,
                       help="number of seeds")
    sweep.add_argument("--out", default=None, metavar="OUT.json",
                       help="archive the per-seed results as JSON "
                            "(backend-independent content)")
    _add_backend_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    churn = sub.add_parser("churn", help="full membership lifecycle")
    churn.add_argument("--n", type=_positive, default=150)
    churn.add_argument("--m", type=_positive, default=50)
    churn.add_argument("--leaves", type=int, default=30)
    churn.add_argument("--failures", type=int, default=20)
    churn.add_argument("--seed", type=int, default=0)
    churn.add_argument("--seeds", type=_positive, default=1,
                       help="run this many seeds (starting at --seed) "
                            "and aggregate")
    _add_backend_args(churn)
    churn.set_defaults(func=_cmd_churn)

    node = sub.add_parser(
        "node", help="run one protocol node daemon over UDP"
    )
    node.add_argument("--listen", required=True, metavar="HOST:PORT",
                      help="UDP address to bind (port 0 = kernel-assigned)")
    node.add_argument("--id", default=None,
                      help="node ID digit string (default: hash of address)")
    node.add_argument("--rendezvous", default=None, metavar="HOST:PORT",
                      help="rendezvous service to announce to / join via")
    node.add_argument("--bootstrap", default=None, metavar="HOST:PORT",
                      help="known member to join via (bypasses rendezvous "
                           "gateway selection)")
    node.add_argument("--seed-node", action="store_true",
                      help="start a new network as its first member")
    node.add_argument("--base", type=int, default=16)
    node.add_argument("--num-digits", type=int, default=8)
    node.add_argument("--time-scale", type=float, default=0.001,
                      help="seconds per protocol time unit")
    node.add_argument("--wall-budget", type=float, default=None,
                      help="exit after this many wall-clock seconds")
    node.add_argument("--loss", type=float, default=0.0,
                      help="inject datagram loss probability")
    node.add_argument("--duplicate", type=float, default=0.0,
                      help="inject datagram duplication probability")
    node.add_argument("--reorder", type=float, default=0.0,
                      help="inject datagram reordering probability")
    node.add_argument("--fault-seed", type=int, default=0)
    node.add_argument("--telemetry", action="store_true",
                      help="record causal trace + wire metrics, served "
                           "via the telemetry/metrics control ops")
    node.add_argument("--telemetry-file", default=None, metavar="OUT.jsonl",
                      help="spool the trace to JSONL on shutdown "
                           "(implies --telemetry)")
    node.set_defaults(func=_cmd_node)

    worker = sub.add_parser(
        "worker", help="run one sweep-executor daemon over UDP"
    )
    worker.add_argument("--listen", required=True, metavar="HOST:PORT",
                        help="UDP address to bind (port 0 = "
                             "kernel-assigned)")
    worker.add_argument("--rendezvous", default=None, metavar="HOST:PORT",
                        help="rendezvous service to announce to (so "
                             "coordinators can discover this worker)")
    worker.add_argument("--announce-interval", type=float, default=15.0,
                        help="seconds between rendezvous heartbeats")
    worker.set_defaults(func=_cmd_worker)

    rendezvous = sub.add_parser(
        "rendezvous", help="run the bootstrap directory service"
    )
    rendezvous.add_argument("--listen", required=True, metavar="HOST:PORT")
    rendezvous.add_argument("--ttl", type=float, default=60.0,
                            help="registration lifetime in seconds")
    rendezvous.set_defaults(func=_cmd_rendezvous)

    cluster = sub.add_parser(
        "cluster", help="boot a local multi-process UDP cluster and "
                        "verify concurrent joins"
    )
    cluster.add_argument("--nodes", type=int, default=5,
                         help="total node daemons (including the seed)")
    cluster.add_argument("--joins", type=int, default=3,
                         help="number of concurrent joins at the end")
    cluster.add_argument("--base", type=int, default=4)
    cluster.add_argument("--num-digits", type=int, default=4)
    cluster.add_argument("--loss", type=float, default=0.0,
                         help="per-daemon datagram loss probability")
    cluster.add_argument("--duplicate", type=float, default=0.0)
    cluster.add_argument("--fault-seed", type=int, default=1)
    cluster.add_argument("--time-scale", type=float, default=0.001)
    cluster.add_argument("--timeout", type=float, default=60.0,
                         help="wall-clock convergence budget in seconds")
    cluster.add_argument("--report", default=None, metavar="OUT.json",
                         help="write the verification report as JSON")
    cluster.add_argument("--telemetry", default=None, metavar="DIR",
                         help="enable per-daemon telemetry; merge the "
                              "cluster-wide causal trace and run report "
                              "into DIR")
    cluster.set_defaults(func=_cmd_cluster)

    top = sub.add_parser(
        "top", help="live status table of a running cluster"
    )
    top.add_argument("--rendezvous", required=True, metavar="HOST:PORT",
                     help="rendezvous service to read the roster from")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N samples (0 = run until ^C)")
    top.set_defaults(func=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` (or ``sys.argv``) and run the chosen command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
