"""Command-line interface: analyze, evaluate and distribute Datalog¬
programs from files.

Usage (also via ``python -m repro``):

    repro analyze PROGRAM.dl [--json] [--check-pairs N]
        Classify the program: fragment, monotonicity class, transducer
        model, coordination-free class, chosen protocol.  ``--json``
        prints the machine-readable classification certificate instead
        (docs/SERVICE.md); ``--check-pairs N`` adds an empirical
        cross-check of the guarantee on seeded random (I, J) pairs.

    repro serve [--port P] [--store DB] [--workers N]
        Run the multi-tenant query/analysis HTTP service: POST programs
        + instances to /v1/runs, the service classifies, routes to the
        cheapest applicable protocol, executes, and persists certificate
        + decision + fingerprint + run report per tenant in a sqlite
        store (see docs/SERVICE.md).

    repro eval PROGRAM.dl FACTS.dl
        Centralized evaluation under the program's natural semantics
        (stratified, or well-founded when unstratifiable).

    repro run PROGRAM.dl FACTS.dl [--nodes N] [--seed S] [--chaos]
               [--scheduler NAME] [--trace] [--stream FEED.yaml] [--report OUT.json]
    repro cluster PROGRAM.dl FACTS.dl [--nodes N] [--seed S] [--chaos]
               [--transport memory|tcp] [--crash] [--max-crashes N]
               [--stream FEED.yaml] [--report OUT.json]
    repro cluster PROGRAM.dl FACTS.dl --processes N [--seed S] [--run-dir DIR]
               [--kill-node NODE --kill-after K] [--stream FEED.yaml]
               [--report OUT.json]
        Distributed evaluation with the analyzer's strategy — one command
        body over the request pipeline of ``repro.runtimes`` (the one ``POST
        /v1/runs`` uses), on the runtime the command line names: ``run`` =
        the synchronous N-node simulator (``--scheduler`` picks fair /
        trickle / singleton / storm / starve / chaos);
        ``cluster`` = one asyncio task per node, wire-encoded envelopes over
        the chosen transport, quiescence detected decentrally by Safra's
        token ring; ``--processes`` = each node in its *own OS process* over
        real TCP, inputs sharded by the planner's distribution policy
        (docs/CLUSTER.md).  ``--chaos`` injects message faults (duplication,
        delay, drop-with-redelivery; docs/CHAOS.md), ``--crash`` additionally
        kills and checkpoint-recovers node tasks, ``--kill-node``/
        ``--kill-after`` SIGKILL a worker process, which recovers by snapshot
        + WAL replay.  ``--stream`` trickles in a delta feed (``batches:
        [...]`` YAML or a scenario file, docs/SCENARIOS.md), each batch
        injected at quiescence.  Prints the output and the run metrics and
        exits 0 iff the run refines its spec: it quiesced, matches
        centralized evaluation and — for classified programs under
        ``--stream`` — retracted nothing.  ``--report`` writes the JSON run
        report.

    repro solve-game FACTS.dl
        Solve the win-move game in FACTS.dl (Move facts) by retrograde
        analysis: won / drawn / lost positions and winning moves.

    repro optimize PROGRAM.dl [FACTS.dl] [--json] [--nodes N]
                   [--seed S] [--check-pairs N] [--calibrate]
        Per-stratum coordination-cost optimizer: classify each stratum,
        choose the cheapest sound Section-4 protocol bundle (monotone
        strata run coordination-free; only the non-monotone residue pays
        the All-barrier), and emit the PlanCertificate with predicted
        (rounds, messages, transitions) from the fitted cost model.
        With FACTS, executes the optimized plan *and* the All-barrier
        baseline on the same seeded scheduler and reports byte-identity
        plus measured costs.  ``--calibrate`` refits the cost model from
        fresh protocol sweeps instead of the committed coefficients.

    repro fuzz [--seed S] [--iterations N] [--time-budget SECONDS]
               [--stacks a,b,...] [--corpus DIR] [--mutate STACK=NAME]
               [--no-metamorphic] [--no-streaming] [--no-optimizer]
               [--report OUT.json]
        Differential + metamorphic + streaming + optimizer conformance
        fuzzing:
        random programs per paper fragment run through every evaluation
        stack (naive reference, columnar kernel, synchronous simulator,
        async cluster on both transports with chaos and crash schedules),
        asserting byte-identical outputs plus the fragment's guaranteed
        monotonicity class — both statically on random deltas and live
        mid-stream (a kind-admissible delta feed trickled through a
        rotating runtime; ``--mutate streaming=retract-on-delta`` plants
        the streaming self-check bug).  The optimizer oracle additionally
        holds every routing decision of ``repro optimize`` to its
        soundness obligations (``--mutate optimizer=misclassify-stratum``
        plants its self-check bug).  Failures are minimized and, with
        --corpus, persisted as permanent regression entries (see
        docs/TESTING.md).

    repro gate {cluster,scenarios,optimizer,paper} [--smoke] [--output PATH]
        Run one registered correctness gate (``repro.gates``): cluster
        quiescence-equivalence, streaming-scenario trajectories, the
        optimizer's paired runs, or every claim about the paper (one record
        per claim row).  Prints one line per record and each
        headline value against its floor; exits 0 iff every floor holds.
        ``--smoke`` is the CI size; ``--output`` writes the artifact (the
        committed ``BENCH_<name>.json`` are full runs) — without it nothing
        is written.

    repro report ARTIFACT
        Print EXPERIMENTS.md rendered from a ``paper`` gate artifact:
        ``repro gate paper --output BENCH_paper.json && repro report
        BENCH_paper.json > EXPERIMENTS.md``.

Program files use the conventional syntax (``O(x) :- E(x, y), not S(y).``);
fact files are plain facts (``E(1, 2).``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core.analyzer import query_for
from .datalog.games import solve_game
from .datalog.instance import Instance
from .datalog.parser import parse_facts, parse_program
from .gates import GATES, run_gate
from .runtimes import Request, RequestError, node_names, plan_request, run_request

__all__ = ["main", "build_parser"]


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _load_program(path: str):
    return parse_program(_read(path))


def _load_facts(path: str) -> Instance:
    return Instance(parse_facts(_read(path)))


def _print_instance(instance: Instance, out) -> None:
    for fact in instance.sorted_facts():
        print(f"  {fact!r}", file=out)
    if not instance:
        print("  (empty)", file=out)


def _cmd_analyze(args, out) -> int:
    """``repro analyze``: the certificate ``POST /v1/analyze`` returns, as
    one JSON document with ``--json`` or as a table; ``--check-pairs N``
    adds the empirical cross-check over N seeded random (I, J) pairs."""
    from .core.certificate import certificate_to_json

    request = Request(
        program=_read(args.program),
        seed=args.seed,
        planner="ilog" if args.ilog else "default",
        # The table prints no empirical section: run the check for --json only.
        check_pairs=args.check_pairs if args.json else 0,
    )
    certificate = plan_request(request).certificate
    if args.json:
        print(certificate_to_json(certificate), file=out)
        return 0
    protocol = certificate["protocol"]
    print(f"rules:        {certificate['rules']}", file=out)
    if args.ilog:
        print(f"invention:    {', '.join(certificate['invention']) or '-'}", file=out)
    else:
        print(f"edb:          {', '.join(certificate['edb']) or '-'}", file=out)
        print(f"output:       {', '.join(certificate['output'])}", file=out)
    print(f"fragment:     {certificate['fragment']}", file=out)
    print(f"class:        {certificate['monotonicity'] or 'no guarantee'}", file=out)
    model = certificate["model"] or "requires global barrier"
    print(f"model:        {model}", file=out)
    print(f"cf-class:     {certificate['coordination_class'] or '-'}", file=out)
    print(f"strategy:     {protocol['name']}", file=out)
    if args.ilog:
        return 0
    if protocol["requires_domain_guided"]:
        print("policy:       requires a domain-guided distribution", file=out)
    if protocol["requires_barrier"]:
        print("warning:      strategy coordinates (waits on every node)", file=out)
    if args.explain:
        from .core.explain import explain

        print("", file=out)
        print(explain(_load_program(args.program)).describe(), file=out)
    return 0


def _cmd_serve(args, out) -> int:
    """``repro serve``: run the multi-tenant query/analysis service.

    Blocks on the main thread until SIGINT/SIGTERM, then drains the
    worker pool and closes the store (docs/SERVICE.md).
    """
    import signal
    import threading

    from .service import SERVICE_VERSION, ReproService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store_path=args.store,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        rate_limit=args.rate_limit,
        rate_window=args.rate_window,
        quiet=not args.verbose,
    )
    service = ReproService(config).start_in_thread()
    print(
        f"repro-service v{SERVICE_VERSION} listening on "
        f"http://{config.host}:{service.port} (store: {config.store_path}, "
        f"{config.workers} workers)",
        file=out,
        flush=True,
    )

    # The serve loop runs on a thread; the main thread just waits for a
    # signal.  Setting an event is async-signal-safe, and the shutdown
    # path itself can no longer be interrupted by the handler.
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        service.shutdown()
        print("repro-service stopped", file=out, flush=True)
    return 0


def _print_stream(feed, observation, monotonicity, violations, out) -> None:
    """Print the epoch trajectory and the live delta-preservation verdict."""
    sizes = ", ".join(str(len(output)) for output in observation.epoch_outputs)
    retracted = [v.epoch for v in violations if v.reason == "retraction"]
    if monotonicity is None:
        verdict = "skipped (no monotonicity guarantee)"
    elif retracted:
        verdict = f"VIOLATED at epoch(s) {retracted} (output was retracted)"
    else:
        verdict = f"OK ({monotonicity}: every epoch ⊆ final)"
    print(f"stream:       {len(feed)} batch(es), {feed.total_facts} fact(s)", file=out)
    print(f"epoch sizes:  {sizes}", file=out)
    print(f"delta check:  {verdict}", file=out)


def _cmd_eval(args, out) -> int:
    program = _load_program(args.program)
    instance = _load_facts(args.facts)
    result = query_for(program)(instance)
    print(f"{len(result)} output fact(s):", file=out)
    _print_instance(result, out)
    return 0


def _request(args) -> Request:
    """The :class:`~repro.runtimes.Request` the command line names: ``run``
    on the sync runtime, ``cluster`` on the asyncio one, ``cluster
    --processes N`` on N OS processes."""
    from dataclasses import replace

    from .transducers.faults import CHAOS_PLAN, FaultPlan

    options = {"faults": CHAOS_PLAN if args.chaos else None}
    if args.command == "run":
        scheduler = args.scheduler or ("chaos" if args.chaos else "fair")
        options.update(runtime="sync", scheduler=scheduler, trace=args.trace)
    elif args.processes is None:
        options.update(runtime="cluster", transport=args.transport)
    elif args.nodes is not None or args.transport is not None:
        raise RequestError(
            "--processes N sets the node count and the wire: it does not "
            "combine with --nodes or --transport"
        )
    else:
        options.update(runtime="processes", nodes=args.processes)
    if args.command == "cluster":
        options["run_dir"] = args.run_dir
        if (args.kill_node, args.kill_after) != (None, None):
            options["kill"] = (args.kill_node, args.kill_after)
        if args.crash:
            # Crash faults layer on whatever message chaos was requested (a
            # quiet wire otherwise); rate 1.0 guarantees the budget is spent.
            base = replace(options["faults"] or FaultPlan(), crash_rate=1.0)
            if args.max_crashes is not None:
                base = replace(base, max_crashes=args.max_crashes)
            options["faults"] = base
        elif args.max_crashes is not None:
            raise RequestError("--max-crashes N is the budget of --crash: add --crash")
    if args.nodes is not None:
        options["nodes"] = args.nodes
    if args.stream:
        from .streaming import load_feed

        options["feed"] = load_feed(args.stream)
    return Request(_read(args.program), _read(args.facts), seed=args.seed, **options)


def _runtime_lines(request: Request, observation):
    """What the run prints between ``network:`` and the output."""
    if request.runtime == "sync":
        yield "scheduler", request.scheduler
        if request.faults is not None:
            yield "channel", f"faulty ({request.faults.describe()})"
        return
    transport = observation.report.transport
    if request.runtime == "processes":
        transport += " (one OS process per node)"
    yield "transport", transport
    yield "token rounds", observation.token_probes
    if request.faults is not None:
        yield "faults", request.faults.describe()
    crashed = request.faults is not None and request.faults.crash_rate
    if request.kill is not None or crashed:
        yield "crashes", observation.crashes
        yield "recoveries", observation.recoveries
        yield "wal replayed", observation.wal_replayed


def _cmd_distributed(args, out) -> int:
    """``repro run`` / ``repro cluster`` [``--processes N``]: one body."""
    from .transducers.telemetry import write_report

    request = _request(args)
    outcome = run_request(plan_request(request))
    observation, feed = outcome.observation, request.feed
    # A bare --stream feed claims no addition kind, so Q(prefix_k) is not
    # promised of its intermediate epochs: the run is held to Q(I) at the end
    # and to "nothing retracted" on the way.
    violations = [
        violation for violation in outcome.violations
        if violation.reason != "prefix-mismatch" or violation.epoch == len(feed)
    ]
    if not observation.quiesced:
        print(f"warning:      {observation.error}", file=out)
    print(f"strategy:     {observation.report.protocol}", file=out)
    print(f"network:      {', '.join(node_names(request.nodes))}", file=out)
    for label, value in _runtime_lines(request, observation):
        print(f"{label + ':':<14}{value}", file=out)
    if feed is not None and observation.quiesced:
        monotonicity = outcome.plan.analysis.monotonicity
        _print_stream(feed, observation, monotonicity, violations, out)
    print(f"{len(observation.output)} output fact(s):", file=out)
    _print_instance(observation.output, out)
    status = "OK" if observation.output == outcome.spec.final else "MISMATCH"
    print(f"matches centralized evaluation: {status}", file=out)
    if args.report:
        write_report(observation.report, args.report)
        print(f"report:       {args.report}", file=out)
    return 1 if violations else 0


def _cmd_optimize(args, out) -> int:
    import json as _json

    from .optimizer import (
        DEFAULT_COST_MODEL,
        calibration_observations,
        fit_cost_model,
        plan_certificate,
        plan_optimized,
        run_comparison,
    )

    program = parse_program(_read(args.program))
    model = DEFAULT_COST_MODEL
    if args.calibrate:
        model = fit_cost_model(calibration_observations())
    instance = _load_facts(args.facts) if args.facts else None
    facts = (
        len(instance.restrict(program.edb())) if instance is not None else 8
    )
    certificate = plan_certificate(
        program,
        nodes=args.nodes,
        facts=facts,
        model=model,
        check_pairs=args.check_pairs,
        seed=args.seed,
    )
    comparison = None
    if instance is not None:
        comparison = run_comparison(
            program, instance, nodes=args.nodes, seed=args.seed, model=model
        )

    if args.json:
        payload = dict(certificate)
        if args.calibrate:
            payload["cost_model"] = model.to_dict()
        if comparison is not None:
            payload["comparison"] = comparison.to_dict()
        print(_json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0 if comparison is None or comparison.byte_identical else 1

    optimized = plan_optimized(program)
    baseline = certificate["baseline"]
    effective = certificate["effective"]
    cost = certificate["cost"]
    print(f"rules:        {certificate['rules']}", file=out)
    print(f"fragment:     {certificate['fragment']}", file=out)
    print(
        f"baseline:     {baseline['monotonicity'] or 'no guarantee'}"
        f" ({baseline['protocol']})",
        file=out,
    )
    print(
        f"effective:    {effective['monotonicity'] or 'no guarantee'}"
        + (" [upgraded]" if effective["upgraded"] else ""),
        file=out,
    )
    print(f"  reason:     {effective['reason']}", file=out)
    for stratum in certificate["strata"]:
        marks = []
        if stratum["in_negation_cone"]:
            marks.append("in-cone")
        if stratum["head_dominant"]:
            marks.append("head-dominant")
        if stratum["negates"]:
            marks.append("negates " + ", ".join(stratum["negates"]))
        extra = f" ({'; '.join(marks)})" if marks else ""
        print(
            f"  stratum {stratum['index']}:  {stratum['role']:<8} "
            f"{', '.join(stratum['heads'])} [{stratum['fragment']}]{extra}",
            file=out,
        )
    print(f"protocol:     {certificate['protocol']['name']}", file=out)
    predicted, barrier = cost["predicted"], cost["barrier"]
    print(
        f"predicted:    rounds {predicted['rounds']}, transitions "
        f"{predicted['transitions']}, messages {predicted['messages']} "
        f"(nodes={cost['nodes']}, facts={cost['facts']})",
        file=out,
    )
    print(
        f"barrier:      rounds {barrier['rounds']}, transitions "
        f"{barrier['transitions']}, messages {barrier['messages']}"
        + (
            " -> optimized is cheaper"
            if cost["cheaper_than_barrier"]
            else ""
        ),
        file=out,
    )
    if "empirical" in certificate:
        empirical = certificate["empirical"]
        print(
            f"empirical:    {empirical['mode']}: "
            + (
                f"holds={empirical['holds']} over "
                f"{empirical['pairs_checked']} pair(s)"
                if "holds" in empirical
                else f"weakest consistent class "
                f"{empirical['weakest_consistent_class']}"
            ),
            file=out,
        )
    if comparison is not None:
        arm, base_arm = comparison.optimized, comparison.barrier
        print(
            f"execution:    byte-identical={comparison.byte_identical} "
            f"measured-cheaper={comparison.measured_cheaper} "
            f"prediction-agrees={comparison.prediction_agrees}",
            file=out,
        )
        print(
            f"  optimized:  rounds {arm.measured.rounds:g}, transitions "
            f"{arm.measured.transitions:g}, messages {arm.measured.messages:g}"
            f" ({arm.protocol})",
            file=out,
        )
        print(
            f"  barrier:    rounds {base_arm.measured.rounds:g}, transitions "
            f"{base_arm.measured.transitions:g}, messages "
            f"{base_arm.measured.messages:g} ({base_arm.protocol})",
            file=out,
        )
        return 0 if comparison.byte_identical else 1
    return 0


def _cmd_fuzz(args, out) -> int:
    from .conformance import (
        DEFAULT_STACK_NAMES,
        FuzzConfig,
        run_fuzz,
        write_fuzz_report,
    )
    from .conformance.differential import MUTATIONS
    from .conformance.optimizer import OPTIMIZER_MUTATIONS
    from .conformance.streaming import STREAM_MUTATIONS

    stacks = (
        tuple(name.strip() for name in args.stacks.split(",") if name.strip())
        if args.stacks
        else DEFAULT_STACK_NAMES
    )
    mutate: dict[str, str] = {}
    for spec in args.mutate or []:
        stack, sep, name = spec.partition("=")
        # "streaming" and "optimizer" are pseudo-stacks: the mutation
        # plants a bug into that oracle rather than an evaluation stack.
        valid = bool(sep) and (
            (stack in stacks and name in MUTATIONS)
            or (stack == "streaming" and name in STREAM_MUTATIONS)
            or (stack == "optimizer" and name in OPTIMIZER_MUTATIONS)
        )
        if not valid:
            raise ValueError(
                f"--mutate expects STACK=NAME with STACK in {stacks} and "
                f"NAME in {sorted(MUTATIONS)}, streaming=NAME with NAME "
                f"in {sorted(STREAM_MUTATIONS)}, or optimizer=NAME with "
                f"NAME in {sorted(OPTIMIZER_MUTATIONS)}; got {spec!r}"
            )
        mutate[stack] = name
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget=args.time_budget,
        stacks=stacks,
        corpus_dir=args.corpus,
        mutate=mutate,
        metamorphic=not args.no_metamorphic,
        streaming=not args.no_streaming,
        optimizer=not args.no_optimizer,
    )
    report = run_fuzz(config, log=lambda line: print(line, file=out))
    print(f"seed:         {report['seed']}", file=out)
    print(f"stacks:       {', '.join(report['stacks'])}", file=out)
    if mutate:
        planted = ", ".join(f"{k}={v}" for k, v in sorted(mutate.items()))
        print(f"mutations:    {planted} (planted-bug mode)", file=out)
    print(
        f"iterations:   {report['iterations_run']}/{report['iterations_requested']}"
        f" ({report['stop_reason']})",
        file=out,
    )
    fragments = ", ".join(
        f"{name}={count}"
        for name, count in sorted(report["cases_by_fragment"].items())
    )
    print(f"fragments:    {fragments}", file=out)
    wfs = ", ".join(
        f"{name}={count}" for name, count in sorted(report["wfs_cases"].items())
    )
    print(f"wfs cases:    {wfs or 'none'}", file=out)
    print(f"divergences:  {len(report['divergences'])}", file=out)
    print(f"metamorphic:  {len(report['metamorphic_violations'])} violation(s)", file=out)
    streamed = ", ".join(
        f"{name}={count}"
        for name, count in sorted(report["streaming_runtimes"].items())
    )
    print(
        f"streaming:    {len(report['streaming_violations'])} violation(s)"
        + (f" ({streamed})" if streamed else ""),
        file=out,
    )
    print(
        f"optimizer:    {len(report['optimizer_violations'])} violation(s)",
        file=out,
    )
    if report["corpus_entries"]:
        for path in report["corpus_entries"]:
            print(f"corpus:       {path}", file=out)
    print(f"elapsed:      {report['timing']['elapsed_seconds']}s", file=out)
    if args.report:
        write_fuzz_report(report, args.report)
        print(f"report:       {args.report}", file=out)
    print(f"verdict:      {'PASS' if report['passed'] else 'FAIL'}", file=out)
    return 0 if report["passed"] else 1


def _cmd_gate(args, out) -> int:
    import json

    artifact = run_gate(args.name, smoke=args.smoke, out=out)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(json.dumps(artifact, indent=2) + "\n")
        print(f"wrote {args.output}", file=out)
    print(f"verdict: {'PASS' if artifact['passed'] else 'FAIL'}", file=out)
    return 0 if artifact["passed"] else 1


def _cmd_report(args, out) -> int:
    import json

    from .core.report import render_experiments

    print(render_experiments(json.loads(_read(args.artifact))), end="", file=out)
    return 0


def _cmd_solve_game(args, out) -> int:
    instance = _load_facts(args.facts)
    solution = solve_game(instance)
    print(f"won:   {', '.join(map(repr, sorted(solution.won, key=repr))) or '-'}", file=out)
    print(f"drawn: {', '.join(map(repr, sorted(solution.drawn, key=repr))) or '-'}", file=out)
    print(f"lost:  {', '.join(map(repr, sorted(solution.lost, key=repr))) or '-'}", file=out)
    for position in sorted(solution.won, key=repr):
        moves = ", ".join(map(repr, sorted(solution.winning_moves(position), key=repr)))
        print(f"  {position!r} wins via: {moves}", file=out)
    return 0


def _add_distributed_arguments(command, wire: str) -> None:
    """The arguments ``run`` and ``cluster`` share (one command body)."""
    command.add_argument("program")
    command.add_argument("facts")
    command.add_argument(
        "--nodes", type=int, default=None, help="network size (default: 3)"
    )
    command.add_argument("--seed", type=int, default=0)
    command.add_argument(
        "--chaos",
        action="store_true",
        help=f"inject {wire} faults (duplication, delay, drop-with-redelivery)",
    )
    command.add_argument(
        "--stream", metavar="FEED",
        help="YAML delta feed (or scenario file) to trickle in: each batch "
        "is injected once the network quiesces, then evaluation resumes "
        "(docs/SCENARIOS.md)",
    )
    command.add_argument(
        "--report", metavar="PATH", help="write the JSON run report to PATH"
    )
    command.set_defaults(handler=_cmd_distributed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CALM-hierarchy toolkit: analyze and distribute Datalog¬ programs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = commands.add_parser("analyze", help="classify a program")
    analyze_cmd.add_argument("program", help="path to a .dl program file")
    analyze_cmd.add_argument(
        "--explain", action="store_true", help="per-rule diagnosis and advice"
    )
    analyze_cmd.add_argument(
        "--ilog", action="store_true",
        help="treat the program as ILOG¬ (value invention via '*' heads)",
    )
    analyze_cmd.add_argument(
        "--json", action="store_true",
        help="print the machine-readable classification certificate",
    )
    analyze_cmd.add_argument(
        "--check-pairs", type=int, default=0, metavar="N",
        help="with --json: empirically cross-check the guarantee on N "
        "seeded random (I, J) pairs per addition kind",
    )
    analyze_cmd.add_argument(
        "--seed", type=int, default=0, help="seed for --check-pairs sampling"
    )
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    eval_cmd = commands.add_parser("eval", help="evaluate centrally")
    eval_cmd.add_argument("program")
    eval_cmd.add_argument("facts")
    eval_cmd.set_defaults(handler=_cmd_eval)

    serve_cmd = commands.add_parser(
        "serve", help="run the multi-tenant query/analysis HTTP service"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8765, help="0 picks an ephemeral port"
    )
    serve_cmd.add_argument(
        "--store", default="repro-service.db",
        help="sqlite run-store path (':memory:' for ephemeral)",
    )
    serve_cmd.add_argument("--workers", type=int, default=4)
    serve_cmd.add_argument("--queue-capacity", type=int, default=64)
    serve_cmd.add_argument(
        "--rate-limit", type=int, default=120,
        help="max requests per tenant per window",
    )
    serve_cmd.add_argument(
        "--rate-window", type=float, default=10.0, help="rate window seconds"
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_cmd.set_defaults(handler=_cmd_serve)

    run_cmd = commands.add_parser("run", help="evaluate on a simulated network")
    _add_distributed_arguments(run_cmd, "channel")
    run_cmd.add_argument(
        "--scheduler",
        choices=["fair", "trickle", "singleton", "storm", "starve", "chaos"],
        default=None,
        help="activation schedule (default: fair; chaos when --chaos is given)",
    )
    run_cmd.add_argument(
        "--trace",
        action="store_true",
        help="embed the transition trace in the report",
    )

    cluster_cmd = commands.add_parser(
        "cluster", help="evaluate on the asynchronous cluster runtime"
    )
    _add_distributed_arguments(cluster_cmd, "transport")
    cluster_cmd.add_argument(
        "--transport",
        choices=["memory", "tcp"],
        default=None,
        help="wire transport (in-process queues or loopback TCP; default: memory)",
    )
    cluster_cmd.add_argument(
        "--crash",
        action="store_true",
        help="inject node crashes with checkpoint/WAL recovery "
        "(combine with --chaos for message faults too)",
    )
    cluster_cmd.add_argument(
        "--max-crashes",
        type=int,
        default=None,
        metavar="N",
        help="crash budget for --crash (default: 2)",
    )
    cluster_cmd.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="run each of N nodes in its own OS process over loopback TCP, "
        "recovering a SIGKILLed worker from its snapshot + WAL "
        "(excludes --chaos/--crash/--nodes/--transport)",
    )
    cluster_cmd.add_argument(
        "--run-dir",
        metavar="DIR",
        default=None,
        help="with --processes: directory for worker stderr logs, pids.json "
        "and per-node checkpoints (default: a temp dir, removed after the run)",
    )
    cluster_cmd.add_argument(
        "--kill-node",
        metavar="NODE",
        default=None,
        help="with --processes: SIGKILL this worker mid-run and recover it "
        "from its on-disk snapshot + WAL",
    )
    cluster_cmd.add_argument(
        "--kill-after",
        type=int,
        default=None,
        metavar="K",
        help="with --kill-node: deliver the SIGKILL after K transitions",
    )

    fuzz_cmd = commands.add_parser(
        "fuzz", help="differential + metamorphic conformance fuzzing"
    )
    fuzz_cmd.add_argument("--seed", type=int, default=0)
    fuzz_cmd.add_argument(
        "--iterations", type=int, default=100, metavar="N",
        help="iteration budget (default: 100)",
    )
    fuzz_cmd.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; stops early once exceeded",
    )
    fuzz_cmd.add_argument(
        "--stacks", metavar="A,B,...", default=None,
        help="comma-separated stack names (default: all four)",
    )
    fuzz_cmd.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="persist minimized failures as corpus entries under DIR",
    )
    fuzz_cmd.add_argument(
        "--mutate", action="append", metavar="STACK=NAME", default=None,
        help="plant a known bug into one stack (validates the fuzzer itself)",
    )
    fuzz_cmd.add_argument(
        "--no-metamorphic", action="store_true",
        help="skip the monotonicity-class metamorphic oracle",
    )
    fuzz_cmd.add_argument(
        "--no-streaming", action="store_true",
        help="skip the live streaming delta-preservation oracle",
    )
    fuzz_cmd.add_argument(
        "--no-optimizer", action="store_true",
        help="skip the per-stratum optimizer soundness oracle",
    )
    fuzz_cmd.add_argument(
        "--report", metavar="PATH", help="write the JSON fuzz report to PATH"
    )
    fuzz_cmd.set_defaults(handler=_cmd_fuzz)

    optimize_cmd = commands.add_parser(
        "optimize", help="per-stratum coordination-cost optimizer"
    )
    optimize_cmd.add_argument("program", help="path to a .dl program file")
    optimize_cmd.add_argument(
        "facts", nargs="?", default=None,
        help="optional fact file: execute optimized vs All-barrier arms",
    )
    optimize_cmd.add_argument(
        "--json", action="store_true",
        help="print the machine-readable PlanCertificate",
    )
    optimize_cmd.add_argument("--nodes", type=int, default=3)
    optimize_cmd.add_argument(
        "--seed", type=int, default=0,
        help="scheduler / empirical-check seed",
    )
    optimize_cmd.add_argument(
        "--check-pairs", type=int, default=0, metavar="N",
        help="empirically cross-check the effective class on N seeded "
        "random (I, J) pairs",
    )
    optimize_cmd.add_argument(
        "--calibrate", action="store_true",
        help="refit the cost model from fresh protocol sweeps instead of "
        "the committed coefficients",
    )
    optimize_cmd.set_defaults(handler=_cmd_optimize)

    gate_cmd = commands.add_parser("gate", help="run a registered correctness gate")
    gate_cmd.add_argument("name", choices=sorted(GATES))
    gate_cmd.add_argument(
        "--smoke", action="store_true", help="CI size (fewer seeds per cell)"
    )
    gate_cmd.add_argument(
        "--output", metavar="PATH", help="write the gate artifact to PATH"
    )
    gate_cmd.set_defaults(handler=_cmd_gate)

    report_cmd = commands.add_parser(
        "report", help="render EXPERIMENTS.md from a paper gate artifact"
    )
    report_cmd.add_argument("artifact")
    report_cmd.set_defaults(handler=_cmd_report)

    game_cmd = commands.add_parser("solve-game", help="solve a win-move game")
    game_cmd.add_argument("facts")
    game_cmd.set_defaults(handler=_cmd_solve_game)

    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, out)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:  # surfaced as a message, not a traceback
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
