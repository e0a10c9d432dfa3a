"""Command-line front end: ``python -m repro <command>``.

Commands
--------
``info``
    List the simulated devices, solver methods, and suite matrices.
``solve``
    Solve one system (a suite matrix, a generator, or a MatrixMarket
    file) with one or all methods; print simulated timings and the plan.
``calibrate``
    Run the Figure 5 calibration sweep and print heatmaps + thresholds.
``experiment``
    Regenerate one of the paper's tables/figures.
``suite``
    Print the scaled benchmark suite with structural statistics.
``serve``
    Replay a mixed solve workload through the plan-caching
    :class:`repro.serve.SolveService` and print throughput statistics.
``fuzz``
    Differentially fuzz every method (and the service path) against the
    serial reference; exits non-zero with a paste-ready reproduction
    command on the first mismatch.
``store``
    Inspect (``ls``), prune (``gc``), or pre-populate (``warm``) a
    disk-backed :class:`repro.serve.PlanStore` plan store.
``slo``
    Replay a seeded same-pattern workload under per-tenant SLO
    policies (optionally with an injected latency fault), print the
    burn-rate table, fired alerts, flight-recorder incidents, and the
    span tree of the trace behind the breached latency bucket's
    exemplar.
``incidents``
    List or render flight-recorder incident dumps written by ``slo``
    (or any service with an ``incident_dir``-backed recorder).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.inspect import describe_plan, level_histogram, spy
from repro.core.solver import SOLVERS
from repro.errors import SparseFormatError
from repro.formats.csr import CSRMatrix
from repro.formats.triangular import lower_triangular_from
from repro.gpu.device import known_devices
from repro.graph import parallelism_stats
from repro.matrices.io import read_matrix_market
from repro.matrices.representative import representative_matrices
from repro.matrices.suite import scaled_suite

__all__ = ["main", "build_parser"]


def _load_matrix(args) -> tuple[str, CSRMatrix]:
    """Resolve ``--matrix`` against the suite, representatives, or a file."""
    name = args.matrix
    by_name = {s.name: s for s in scaled_suite(args.scale)}
    by_name.update({s.name: s for s in representative_matrices(args.scale)})
    if name in by_name:
        return name, by_name[name].build()
    try:
        A = read_matrix_market(name)
    except FileNotFoundError:
        raise SystemExit(
            f"unknown matrix {name!r}: not a suite/representative name and "
            f"no such file (see `python -m repro suite` for known names)"
        )
    except (OSError, ValueError, SparseFormatError) as exc:
        raise SystemExit(f"could not parse MatrixMarket file {name!r}: {exc}")
    return name, lower_triangular_from(A)


def cmd_info(args) -> int:
    print("devices:")
    for key, dev in known_devices().items():
        print(f"  {key:18s} {dev}")
    print("\nmethods:")
    for name in SOLVERS:
        print(f"  {name}")
    print("\nmatrices: see `python -m repro suite`")
    return 0


def cmd_suite(args) -> int:
    print(f"{'name':24s} {'group':14s} {'n':>8s} {'nnz':>10s} {'nlevels':>8s}")
    for spec in scaled_suite(args.scale):
        L = spec.build()
        st = parallelism_stats(L)
        print(
            f"{spec.name:24s} {spec.group:14s} {L.n_rows:8d} {L.nnz:10d} "
            f"{st.nlevels:8d}"
        )
    return 0


def cmd_solve(args) -> int:
    name, L = _load_matrix(args)
    device = known_devices()[args.device]
    b = np.ones(L.n_rows)
    methods = list(SOLVERS) if args.method == "all" else [args.method]
    print(f"matrix {name}: n={L.n_rows}, nnz={L.nnz}; device {device.name}")
    if args.spy:
        print(spy(L))
    if args.levels:
        print(level_histogram(L))
    for method in methods:
        if method == "serial" and L.n_rows > 20000:
            print(f"{method:18s} skipped (reference kernel, matrix too large)")
            continue
        solver = SOLVERS[method](device=device)
        prepared = solver.prepare(L)
        x, report = prepared.solve(b)
        resid = float(np.abs(L.matvec(x) - b).max())
        print(
            f"{method:18s} prep {prepared.preprocessing_time_s * 1e3:10.4f} ms  "
            f"solve {report.time_s * 1e3:10.4f} ms  "
            f"({report.gflops:8.4f} simulated GFlops)  residual {resid:.1e}"
        )
        if args.plan and hasattr(prepared, "plan"):
            print(describe_plan(prepared.plan))
    return 0


def cmd_serve(args) -> int:
    import json

    from repro.serve import ServiceConfig, SolveService
    from repro.serve.workload import mixed_workload, replay

    device = known_devices()[args.device]
    workload = mixed_workload(
        args.requests,
        scale=args.scale,
        n_matrices=args.matrices,
        n_rhs=args.rhs,
        seed=args.seed,
    )
    try:
        config = ServiceConfig(
            method=args.method,
            device=device,
            cache_capacity=args.capacity,
            max_workers=args.workers,
        )
        service = SolveService(config)
    except ValueError as exc:
        raise SystemExit(f"bad service configuration: {exc}")
    if args.use_async:
        return _serve_async(args, service, workload, device)
    with service:
        replay(service, workload, batch_size=args.batch)
        stats = service.stats()
    print(
        f"replayed {workload.n_requests} requests over "
        f"{len(workload.matrices)} matrices on {device.name} "
        f"(method {args.method}, cache {args.capacity}, "
        f"workers {args.workers}, batch {args.batch})"
    )
    print(stats.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(stats.as_dict(), fh, indent=2)
        print(f"stats written to {args.json}")
    return 0


def _serve_async(args, service, workload, device) -> int:
    """``repro serve --async``: pace a seeded synthetic trace through
    the deadline-aware ingress and report outcomes + ingress stats."""
    import asyncio
    import json

    from repro.serve.ingress import AsyncSolveService
    from repro.serve.traffic import TrafficSpec, generate_traffic, replay_async

    spec = TrafficSpec(
        duration_s=args.duration,
        base_rate=args.rate,
        burst_rate=args.rate * 0.5,
        tenants=("gold", "acme", "bolt"),
        tenant_classes=("interactive", "batch", "batch"),
        seed=args.seed,
    )
    trace = generate_traffic(spec, list(workload.matrices))

    async def main():
        async with AsyncSolveService(service) as ingress:
            report = await replay_async(ingress, workload.matrices, trace)
            return report, ingress.stats()

    with service:
        report, istats = asyncio.run(main())
        sstats = service.stats()
    print(
        f"replayed {len(trace)} traced arrivals over "
        f"{len(workload.matrices)} matrices on {device.name} "
        f"(async ingress, {args.duration}s at ~{args.rate:.0f} req/s, "
        f"workers {args.workers})"
    )
    print(f"outcomes: {report.outcomes()}")
    gold_p99 = report.percentile(99, tenant="gold")
    if gold_p99 == gold_p99:  # not NaN
        print(f"gold p99 wall latency: {gold_p99 * 1e3:.2f} ms")
    print(istats.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {
                    "ingress": istats.as_dict(),
                    "service": sstats.as_dict(),
                    "outcomes": report.outcomes(),
                },
                fh, indent=2,
            )
        print(f"stats written to {args.json}")
    return 0


def cmd_store(args) -> int:
    from repro.serve.store import PlanStore

    store = PlanStore(args.path)
    try:
        if args.store_cmd == "ls":
            rows = store.ls()
            if not rows:
                print(f"store {args.path}: empty")
                return 0
            print(f"store {args.path}: {len(rows)} entries")
            print(f"{'file':36s} {'bytes':>10s} {'method':16s} "
                  f"{'n':>8s} {'nnz':>10s} {'version':10s} structure")
            for row in rows:
                if "corrupt" in row:
                    print(f"{row['file']:36s} {row['bytes']:10d} "
                          f"CORRUPT: {row['corrupt']}")
                    continue
                h = row["header"]
                print(f"{row['file']:36s} {row['bytes']:10d} "
                      f"{h.get('method', '?'):16s} {h.get('n', 0):8d} "
                      f"{h.get('nnz', 0):10d} "
                      f"{h.get('library_version', '?'):10s} "
                      f"{str(h.get('structure_fp', '?'))[:16]}")
            return 0
        if args.store_cmd == "gc":
            summary = store.gc(
                max_bytes=args.max_bytes,
                max_age_s=args.max_age_s,
                drop_stale_versions=not args.keep_stale,
            )
            reasons = ", ".join(
                f"{k}: {v}" for k, v in sorted(summary["reasons"].items())
            ) or "nothing to prune"
            print(f"store {args.path}: removed {summary['removed']} "
                  f"entries ({summary['reclaimed_bytes']} bytes), "
                  f"kept {summary['kept']}  [{reasons}]")
            return 0
        # warm: replay a seeded workload through a store-backed service
        # so a later service (or another process) starts hot.
        from repro.serve import ServiceConfig, SolveService
        from repro.serve.workload import mixed_workload, replay

        device = known_devices()[args.device]
        workload = mixed_workload(
            args.requests,
            scale=args.scale,
            n_matrices=args.matrices,
            seed=args.seed,
        )
        config = ServiceConfig(
            method=args.method,
            device=device,
            max_workers=args.workers,
            n_devices=args.devices,
            store=store,
        )
        with SolveService(config) as service:
            replay(service, workload, batch_size=args.batch)
            stats = service.stats()
        s = stats.store
        print(f"warmed store {args.path} with {workload.n_requests} requests "
              f"over {len(workload.matrices)} matrices "
              f"(method {args.method}, device {device.name})")
        print(f"  store: {s.hits} hits, {s.misses} misses, {s.writes} "
              f"writes, {s.corrupt} corrupt, {s.mismatched} mismatched; "
              f"{len(store)} entries on disk")
        print(f"  service: {stats.pattern_builds} pattern builds, "
              f"{stats.store_hits} requests warmed from disk")
        return 0
    finally:
        store.close()


def cmd_fuzz(args) -> int:
    from repro.validate.fuzz import (
        FuzzCase,
        broken_solver,
        engine_rule_self_test,
        mutation_self_test,
        run_case,
        run_fuzz,
    )

    device = known_devices()[args.device]
    methods = args.methods.split(",") if args.methods else None
    families = args.families.split(",") if args.families else None

    if args.replay:
        try:
            case = FuzzCase.from_token(args.replay)
        except ValueError as exc:
            raise SystemExit(f"bad --replay token: {exc}")
        from repro.core.solver import available_methods

        replay_methods = methods or available_methods()
        unknown = [m for m in replay_methods if m not in SOLVERS]
        if unknown:
            raise SystemExit(
                f"unknown methods {unknown}; choose from {sorted(SOLVERS)}"
            )
        failures = run_case(case, replay_methods, device, args.tol)
        print(f"replaying case {case.token()} with methods {replay_methods}")
        if not failures:
            print("  all methods agree with the serial reference")
            return 0
        for f in failures:
            print("  " + f.describe().replace("\n", "\n  "))
        return 1

    if args.self_test:
        # Prove the harness catches a broken kernel: a sign-flipped
        # solver must fail on round one and come back minimized.
        with broken_solver() as name:
            report = run_fuzz(
                rounds=min(args.rounds, 5),
                seed=args.seed,
                methods=[name],
                families=families,
                base_size=args.size,
                tol=args.tol,
                include_service=False,
                device=device,
            )
        if report.ok:
            print("SELF-TEST FAILED: the sign-flipped solver was not caught")
            return 1
        print(report.render())
        print("self-test OK: the harness catches a deliberately broken kernel")
        # ...its mutated-after-admission arm catches a service that
        # digests the admission snapshot but binds the caller's array,
        # and its compiled arm an engine rule that lets a SuperLU engine
        # serve what the accuracy probe rejects.
        for self_test, stand_in, caught in (
            (mutation_self_test,
             "a service binding the caller's live values",
             "the mutation arm catches a service that binds values "
             "changed after submit or solve admitted them"),
            (engine_rule_self_test,
             "an engine rule that trusts single precision",
             "the compiled arm catches an engine rule that trusts "
             "single precision"),
        ):
            report = self_test(
                rounds=min(args.rounds, 5),
                seed=args.seed,
                families=families,
                base_size=args.size,
                tol=args.tol,
                device=device,
            )
            if report.ok:
                print(f"SELF-TEST FAILED: {stand_in} was not caught")
                return 1
            print(report.render())
            print(f"self-test OK: {caught}")
        return 0

    report = run_fuzz(
        rounds=args.rounds,
        seed=args.seed,
        methods=methods,
        families=families,
        base_size=args.size,
        tol=args.tol,
        include_service=not args.no_service,
        device=device,
        minimize=not args.no_minimize,
        max_failures=args.max_failures,
        log=print if args.verbose else None,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_trace(args) -> int:
    from repro.analysis.inspect import render_profile
    from repro.analysis.traffic import measured_traffic, predicted_traffic
    from repro.obs import Observability

    device = known_devices()[args.device]
    if args.matrix is None:
        from repro.matrices.generators import banded_random

        n = args.size
        L = banded_random(n, max(2, n // 40), 6.0,
                          rng=np.random.default_rng(args.seed))
        name = f"generated:banded(n={n})"
    else:
        name, L = _load_matrix(args)
    b = np.ones(L.n_rows)
    methods = (args.method.split(",") if args.method
               else ["column-block", "row-block", "recursive-block"])
    unknown = [m for m in methods if m not in SOLVERS]
    if unknown:
        raise SystemExit(
            f"unknown methods {unknown}; choose from {sorted(SOLVERS)}"
        )
    obs = Observability()
    print(f"matrix {name}: n={L.n_rows}, nnz={L.nnz}; device {device.name}")
    # Force a real partition so the trace shows SpMV squares, not one
    # degenerate triangle (the auto-tuner picks nseg=1 on small systems).
    options = {
        "column-block": {"nseg": args.nseg},
        "row-block": {"nseg": args.nseg},
        "recursive-block": {"depth": max(1, args.nseg.bit_length() - 1)},
    }
    reports: dict = {}
    plans: dict = {}
    for method in methods:
        solver = SOLVERS[method](device=device, **options.get(method, {}))
        with obs.activate():
            with obs.span("trace.solve", method=method):
                prepared = solver.prepare(L)
                _, report = prepared.solve(b)
        reports[method] = report
        plans[method] = getattr(prepared, "plan", None)

    print("\nspans:")
    print(obs.tracer.render_tree())
    for method in methods:
        print(f"\n{method}:")
        print(render_profile(reports[method]))

    m = obs.serve_metrics
    failed = False
    header = (f"\n{'method':18s} {'live b/x':>16s} {'measured b/x':>16s} "
              f"{'Tables 1-2 b/x':>16s}")
    print(header)
    for method in methods:
        plan = plans[method]
        if plan is None:
            print(f"{method:18s} (no block plan — traffic model not applicable)")
            continue
        live = (int(m.b_writes.value(method=method, device="0")),
                int(m.x_loads.value(method=method, device="0")))
        measured = measured_traffic(plan)
        predicted = predicted_traffic(plan)
        pred_s = f"{predicted[0]}/{predicted[1]}" if predicted else "n/a"
        mark = "" if live == tuple(measured) else "  MISMATCH"
        if live != tuple(measured):
            failed = True
        print(f"{method:18s} {live[0]:>7d}/{live[1]:<8d} "
              f"{measured[0]:>7d}/{measured[1]:<8d} {pred_s:>16s}{mark}")
    if m.traffic_mismatch.total() > 0:
        failed = True

    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            obs.tracer.export_jsonl(fh)
        print(f"\nspans written to {args.jsonl}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(obs.to_prometheus())
        print(f"metrics written to {args.prom}")
    if failed:
        print("TRAFFIC MISMATCH: live counters disagree with "
              "analysis.traffic.measured_traffic", file=sys.stderr)
        return 1
    return 0


def cmd_dist(args) -> int:
    from repro.dist import (
        DistributedPlan,
        Interconnect,
        available_schedulers,
    )

    name, L = _load_matrix(args)
    device = known_devices()[args.device]
    if args.method not in SOLVERS:
        raise SystemExit(
            f"unknown method {args.method!r}; choose from {sorted(SOLVERS)}"
        )
    if args.scheduler not in available_schedulers():
        raise SystemExit(
            f"unknown scheduler {args.scheduler!r}; "
            f"choose from {available_schedulers()}"
        )
    options = {}
    if args.nseg:
        if args.method in ("column-block", "row-block"):
            options["nseg"] = args.nseg
        elif args.method == "recursive-block":
            options["depth"] = max(1, args.nseg.bit_length() - 1)
    solver = SOLVERS[args.method](device=device, **options)
    prepared = solver.prepare(L)
    interconnect = (
        Interconnect.hierarchical(device, node_size=args.node_size)
        if args.node_size
        else None
    )
    dp = DistributedPlan.from_prepared(
        prepared,
        args.devices,
        interconnect=interconnect,
        scheduler=args.scheduler,
        sync=args.sync,
    )
    b = np.ones(L.n_rows)
    x, report = dp.solve(b)
    print(
        f"matrix {name}: n={L.n_rows}, nnz={L.nnz}; "
        f"{args.devices} simulated {device.name} device(s), "
        f"scheduler {args.scheduler}, {args.sync} sync"
        + (f", {args.node_size}/node hierarchy" if args.node_size else "")
    )
    print(dp.schedule.render())
    d = report.detail
    print(
        f"makespan {d['makespan_s'] * 1e3:.4f} ms  "
        f"(single-device {d['single_device_s'] * 1e3:.4f} ms, "
        f"speedup {d['speedup']:.2f}x)  "
        f"critical path {d['critical_path_s'] * 1e3:.4f} ms"
    )
    print(
        f"transfers {d['transfers']} "
        f"({d['transfer_x_items']} x items + {d['transfer_b_items']} b items, "
        f"{d['transfer_time_s'] * 1e3:.4f} ms on the interconnect)"
    )
    if args.check:
        x1, _ = prepared.solve(b)
        # The first fused solve at a new width on each path must be
        # bit-identical too.
        B = np.random.default_rng(0).standard_normal((L.n_rows, 3))
        fused = bool(np.array_equal(
            dp.solve_multi(B)[0], prepared.solve_multi(B)[0]
        ))
        resid = float(np.abs(L.matvec(np.asarray(x)) - b).max())
        dp.schedule.validate(dp.dag, dp.interconnect)
        bit = bool(np.array_equal(x, x1))
        print(
            f"check: residual {resid:.1e}; schedule invariants OK; "
            f"bit-identical to single-device: {bit}; "
            f"fused 3-RHS bit-identical: {fused}"
        )
        if not (bit and fused):
            print("CHECK FAILED: sharded solution differs from the "
                  "single-device path", file=sys.stderr)
            return 1
    return 0


def cmd_stats(args) -> int:
    import threading

    from repro.obs import Observability
    from repro.serve import ServiceConfig, SolveService
    from repro.serve.workload import mixed_workload, replay

    device = known_devices()[args.device]
    obs = Observability()
    workload = mixed_workload(
        args.requests,
        scale=args.scale,
        n_matrices=args.matrices,
        seed=args.seed,
    )
    try:
        config = ServiceConfig(device=device, obs=obs)
        service = SolveService(config)
    except ValueError as exc:
        raise SystemExit(f"bad service configuration: {exc}")
    with service:
        if args.watch:
            done = threading.Event()

            def _replay() -> None:
                try:
                    replay(service, workload, batch_size=args.batch)
                finally:
                    done.set()

            worker = threading.Thread(target=_replay, daemon=True)
            worker.start()
            while not done.wait(args.interval):
                snap = service.stats()
                print(f"--- {snap.completed}/{workload.n_requests} "
                      f"requests completed ---")
                print(snap.render())
            worker.join()
        else:
            replay(service, workload, batch_size=args.batch)
        stats = service.stats()
    print(f"--- final ({workload.n_requests} requests replayed) ---")
    print(stats.render())
    print()
    print(obs.to_prometheus(), end="")
    return 0


def cmd_slo(args) -> int:
    from repro.obs import (
        AlertSink,
        FlightRecorder,
        Observability,
        SLOEngine,
        SLOPolicy,
    )
    from repro.serve import ServiceConfig, SolveService
    from repro.serve.workload import replay, revalued_workload
    from repro.validate import FaultInjector

    device = known_devices()[args.device]
    tenants = tuple(t for t in args.tenants.split(",") if t) or ()
    try:
        common = dict(
            objective_s=args.objective_ms / 1e3,
            target=args.target,
            window=args.window,
            fast_window=args.fast_window,
            burn_threshold=args.burn_threshold,
            latency=args.latency,
        )
        if tenants:
            policies = [
                SLOPolicy(name=f"p-{t}", tenant=t, **common) for t in tenants
            ]
        else:
            policies = [SLOPolicy(name="p-all", **common)]
    except ValueError as exc:
        raise SystemExit(f"bad SLO policy: {exc}")
    sink = AlertSink(jsonl_path=args.alerts_jsonl or None)
    engine = SLOEngine(policies, sink=sink)
    recorder = FlightRecorder(
        capacity=args.ring, incident_dir=args.incident_dir or None
    )
    obs = Observability(slo=engine, recorder=recorder)
    injector = None
    if args.fault_delay_ms > 0:
        injector = FaultInjector(
            solve_delay_s=args.fault_delay_ms / 1e3,
            max_faults=args.max_faults,
        )
    workload = revalued_workload(
        args.requests,
        scale=args.scale,
        n_patterns=args.patterns,
        seed=args.seed,
        tenants=tenants,
    )
    # One worker keeps completion order equal to submission order, so
    # burn-rate alerts land at exact, reproducible request indices.
    config = ServiceConfig(device=device, obs=obs, max_workers=1)
    with SolveService(config, fault_injector=injector) as service:
        replay(service, workload, batch_size=1)

    print(
        f"replayed {workload.n_requests} requests "
        f"({len(workload.matrices)} matrices, "
        f"tenants {', '.join(tenants) if tenants else 'default'}) "
        f"on {device.name}"
        + (f"; injected {injector.faults_fired} "
           f"x {args.fault_delay_ms:.0f}ms solve delay" if injector else "")
    )
    print()
    print(engine.render())

    alerts = list(sink.alerts)
    print(f"\nalerts fired: {len(alerts)}")
    for alert in alerts:
        print("  " + alert.render())

    incidents = list(recorder.incidents)
    print(f"\nincidents dumped: {len(incidents)}")
    for inc in incidents:
        where = f" -> {inc.path}" if inc.path else ""
        print(f"  #{inc.incident_id} {inc.reason} "
              f"(trace {inc.trace_id}, {len(inc.frames)} frames){where}")

    # Resolve the breached bucket's exemplar back to its span tree: the
    # histogram keeps one trace id per latency bucket, so the bucket
    # above the objective names a concrete offending request.
    shown = False
    m = obs.serve_metrics
    hist = m.request_latency if args.latency == "wall" else m.sim_latency
    for alert in alerts:
        check = [alert.tenant] if alert.tenant else \
            sorted({workload.tenant_of(i) for i in range(workload.n_requests)})
        for tenant in check:
            for le, e in sorted(hist.exemplars(tenant=tenant).items()):
                if e["value"] > alert.objective_s:
                    print(f"\nexemplar for breached bucket "
                          f"le={le:g} (tenant {tenant}): trace "
                          f"{e['exemplar']} at {e['value'] * 1e3:.2f} ms")
                    print(obs.tracer.render_tree(
                        trace_id=int(e["exemplar"])))
                    shown = True
                    break
            if shown:
                break
        if shown:
            break

    if args.expect_alert and not alerts:
        print("EXPECTED AN ALERT: no policy fired", file=sys.stderr)
        return 1
    return 0


def cmd_incidents(args) -> int:
    from repro.obs import FlightRecorder

    try:
        incidents = FlightRecorder.load_incidents(args.dir)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"could not read incidents from {args.dir!r}: {exc}")
    if not incidents:
        print(f"no incidents under {args.dir}")
        return 0
    if args.show is not None:
        by_id = {inc.incident_id: inc for inc in incidents}
        if args.show not in by_id:
            raise SystemExit(
                f"no incident #{args.show} under {args.dir} "
                f"(have {sorted(by_id)})"
            )
        print(by_id[args.show].render(last=args.frames))
        return 0
    print(f"{len(incidents)} incidents under {args.dir}")
    for inc in incidents:
        trace = inc.trace_id if inc.trace_id is not None else "-"
        print(f"  #{inc.incident_id:<4d} {inc.reason:24s} trace {trace!s:8s} "
              f"{len(inc.frames)} frames of {inc.total_recorded} recorded")
    return 0


def cmd_calibrate(args) -> int:
    from repro.core.calibrate import run_calibration

    device = known_devices()[args.device]
    cal = run_calibration(device, n_rows=args.rows, quick=args.quick)
    print(cal.ascii_heatmap("sptrsv"))
    print()
    print(cal.ascii_heatmap("spmv"))
    print()
    print(cal.derive_thresholds())
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import (
        dist_scaling,
        fig4,
        fig5,
        fig6,
        fig7,
        table1_2,
        table4,
        table5,
    )

    registry = {
        "table1_2": lambda: table1_2.render(table1_2.run()),
        "fig4": lambda: fig4.render(fig4.run(scale=args.scale)),
        "fig5": lambda: fig5.render(fig5.run(quick=args.quick)),
        "fig6": lambda: fig6.render(fig6.run(scale=args.scale)),
        "fig7": lambda: fig7.render(fig7.run(scale=args.scale)),
        "table4": lambda: table4.render(table4.run(scale=args.scale)),
        "table5": lambda: table5.render(table5.run(scale=args.scale)),
        "dist_scaling": lambda: dist_scaling.render(
            dist_scaling.run(scale=args.scale)
        ),
    }
    if args.name not in registry:
        raise SystemExit(
            f"unknown experiment {args.name!r}; choose from {sorted(registry)}"
        )
    print(registry[args.name]())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Block algorithms for parallel sparse triangular solve "
        "(ICPP 2020 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list devices, methods").set_defaults(fn=cmd_info)

    p = sub.add_parser("suite", help="list the benchmark suite")
    p.add_argument("--scale", type=float, default=0.2)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("solve", help="solve one system")
    p.add_argument("matrix", help="suite/representative name or .mtx path")
    p.add_argument("--method", default="recursive-block",
                   choices=list(SOLVERS) + ["all"])
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--scale", type=float, default=0.2,
                   help="suite scale when matrix is a generator name")
    p.add_argument("--plan", action="store_true", help="print the block plan")
    p.add_argument("--spy", action="store_true", help="ASCII sparsity plot")
    p.add_argument("--levels", action="store_true", help="level histogram")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("serve", help="replay a workload through SolveService")
    p.add_argument("--requests", type=int, default=40, help="stream length")
    p.add_argument("--matrices", type=int, default=6, help="distinct systems")
    p.add_argument("--rhs", type=int, default=1, help="columns per request")
    p.add_argument("--method", default="recursive-block", choices=list(SOLVERS))
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--capacity", type=int, default=8, help="plan-cache slots")
    p.add_argument("--workers", type=int, default=4,
                   help="pool threads for single submits and --async "
                   "(--batch runs on the calling thread)")
    p.add_argument("--batch", type=int, default=1,
                   help="submit in batches of this size (enables coalescing)")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="also write the stats snapshot to this path")
    p.add_argument("--async", dest="use_async", action="store_true",
                   help="front the service with the deadline-aware asyncio "
                   "ingress (priority classes, EDF dispatch, load shedding) "
                   "and pace a seeded synthetic trace through it")
    p.add_argument("--duration", type=float, default=2.0,
                   help="trace length in seconds (--async only)")
    p.add_argument("--rate", type=float, default=60.0,
                   help="mean arrival rate in req/s (--async only)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "fuzz",
        help="differentially fuzz all methods against the serial reference",
        description="Sample random triangular systems across every generator "
        "family, run every method (and the SolveService path) on them, and "
        "cross-check against the Algorithm 1 serial oracle.  Exits non-zero "
        "with a reproduction command on the first mismatch.  Family names: "
        "layered, hypersparse, chain, grid2d, grid3d, banded, uniform, "
        "rmat, ilu.",
    )
    p.add_argument("--rounds", type=int, default=50, help="systems to sample")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--methods", default="",
                   help="comma-separated method names (default: all)")
    p.add_argument("--families", default="",
                   help="comma-separated generator families (default: all)")
    p.add_argument("--size", type=int, default=140,
                   help="upper bound on sampled system size")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="relative comparison/residual tolerance")
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--max-failures", type=int, default=10,
                   help="stop after this many failures")
    p.add_argument("--no-service", action="store_true",
                   help="skip the SolveService path")
    p.add_argument("--no-minimize", action="store_true",
                   help="report failing cases without shrinking them")
    p.add_argument("--replay", default="",
                   help="re-run one case token (family:seed:size:L|U:k:dtype)")
    p.add_argument("--self-test", action="store_true",
                   help="verify the harness catches a sign-flipped solver")
    p.add_argument("--verbose", action="store_true",
                   help="print per-round failure progress")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "trace",
        help="trace one solve per method; check live traffic vs the model",
        description="Run each method on one matrix under a span tracer, "
        "print the nested span tree (planner phases, every plan segment), "
        "per-segment profiles, and the live b-write/x-load counters "
        "cross-checked against analysis.traffic.measured_traffic and the "
        "closed-form Tables 1-2 predictions.  Exits non-zero on a "
        "live-vs-measured mismatch.",
    )
    p.add_argument("--matrix", default=None,
                   help="suite/representative name or .mtx path "
                        "(default: a generated banded system)")
    p.add_argument("--method", default="",
                   help="comma-separated methods (default: the three block "
                        "schemes)")
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--size", type=int, default=512,
                   help="rows of the generated default matrix")
    p.add_argument("--nseg", type=int, default=4,
                   help="segments per block plan (recursive depth = log2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.2,
                   help="suite scale when --matrix names a suite entry")
    p.add_argument("--jsonl", help="write the spans as JSON lines here")
    p.add_argument("--prom", help="write Prometheus text metrics here")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "dist",
        help="shard one solve across simulated devices; print the schedule",
        description="Prepare one block plan, shard its segment DAG across "
        "N simulated devices with a registered cost-model scheduler, run "
        "the sharded solve, and print the per-device timeline, occupancy, "
        "and transfer volume.  --check additionally validates every "
        "scheduler invariant and bit-compares against the single-device "
        "path (bit-identity holds for every scheduler and sync mode).",
    )
    p.add_argument("matrix", help="suite/representative name or .mtx path")
    p.add_argument("--devices", type=int, default=2,
                   help="number of simulated devices")
    p.add_argument("--scheduler", default="eft",
                   help="placement policy: eft | lookahead-eft | superstep "
                        "(or any externally registered name)")
    p.add_argument("--sync", default="p2p", choices=["p2p", "barrier"],
                   help="dependency sync mode: per-edge p2p notifications "
                        "or bulk-synchronous barrier rounds")
    p.add_argument("--node-size", type=int, default=0,
                   help="devices per node of a two-tier hierarchical "
                        "interconnect (0 = flat single-tier link)")
    p.add_argument("--method", default="column-block",
                   help="block method to shard (column-block exposes the "
                        "widest DAG)")
    p.add_argument("--nseg", type=int, default=32,
                   help="segments per block plan (recursive depth = log2)")
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--scale", type=float, default=0.05,
                   help="suite scale when --matrix names a suite entry")
    p.add_argument("--check", action="store_true",
                   help="validate schedule invariants and bit-compare "
                        "against the single-device solve")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser(
        "stats",
        help="replay a workload with observability on; print live stats",
    )
    p.add_argument("--requests", type=int, default=40)
    p.add_argument("--matrices", type=int, default=6)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--watch", action="store_true",
                   help="print a stats snapshot every --interval seconds "
                        "while the replay runs")
    p.add_argument("--interval", type=float, default=0.5,
                   help="snapshot period for --watch (seconds)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "store",
        help="inspect, prune, or pre-populate a disk plan store",
        description="Manage a repro.serve.PlanStore directory: `ls` prints "
        "every entry's header (corrupt entries are flagged, never fatal), "
        "`gc` prunes corrupt/stale-version/expired/oversized entries, and "
        "`warm` replays a seeded workload through a store-backed service "
        "so a later process restart skips all pattern builds.",
    )
    ssub = p.add_subparsers(dest="store_cmd", required=True)
    sp = ssub.add_parser("ls", help="list store entries with headers")
    sp.add_argument("--path", required=True, help="store directory")
    sp.set_defaults(fn=cmd_store)
    sp = ssub.add_parser("gc", help="prune corrupt/stale/expired entries")
    sp.add_argument("--path", required=True, help="store directory")
    sp.add_argument("--max-bytes", type=int, default=None,
                    help="prune oldest entries until the store fits")
    sp.add_argument("--max-age-s", type=float, default=None,
                    help="prune entries older than this many seconds")
    sp.add_argument("--keep-stale", action="store_true",
                    help="keep entries written by other library versions")
    sp.set_defaults(fn=cmd_store)
    sp = ssub.add_parser("warm", help="pre-populate the store from a workload")
    sp.add_argument("--path", required=True, help="store directory")
    sp.add_argument("--requests", type=int, default=40, help="stream length")
    sp.add_argument("--matrices", type=int, default=6, help="distinct systems")
    sp.add_argument("--method", default="recursive-block",
                    choices=list(SOLVERS))
    sp.add_argument("--device", default="titan_rtx_scaled",
                    choices=list(known_devices()))
    sp.add_argument("--devices", type=int, default=1,
                    help="simulated devices (persists the DistSchedule)")
    sp.add_argument("--workers", type=int, default=4)
    sp.add_argument("--batch", type=int, default=8)
    sp.add_argument("--scale", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_store)

    p = sub.add_parser(
        "slo",
        help="replay a workload under SLO policies; print burn rates, "
             "alerts, incidents",
        description="Replay a seeded same-pattern workload through an "
        "instrumented service with one SLO policy per tenant (or one "
        "global policy), optionally delaying the first solves with a "
        "deterministic fault injector so the burn-rate alert fires at a "
        "known request index.  Prints the per-policy burn-rate table, "
        "every fired alert, every flight-recorder incident, and resolves "
        "the breached latency bucket's exemplar back to its span tree.",
    )
    p.add_argument("--requests", type=int, default=24, help="stream length")
    p.add_argument("--patterns", type=int, default=2,
                   help="distinct sparsity patterns in the workload")
    p.add_argument("--tenants", default="",
                   help="comma-separated tenant names, round-robin over "
                        "the stream (default: single 'default' tenant)")
    p.add_argument("--objective-ms", type=float, default=50.0,
                   help="latency objective in milliseconds")
    p.add_argument("--target", type=float, default=0.9,
                   help="fraction of windowed requests that must meet it")
    p.add_argument("--window", type=int, default=16,
                   help="slow window length in requests")
    p.add_argument("--fast-window", type=int, default=4,
                   help="fast window length in requests")
    p.add_argument("--burn-threshold", type=float, default=1.0)
    p.add_argument("--latency", default="wall", choices=("wall", "sim"),
                   help="judge host wall clock or deterministic sim time")
    p.add_argument("--fault-delay-ms", type=float, default=0.0,
                   help="inject this solve delay (0 = no injection)")
    p.add_argument("--max-faults", type=int, default=2,
                   help="number of delayed solves when injecting")
    p.add_argument("--ring", type=int, default=256,
                   help="flight-recorder capacity in frames")
    p.add_argument("--incident-dir", default="",
                   help="also write incident dumps as JSONL here")
    p.add_argument("--alerts-jsonl", default="",
                   help="append fired alerts as JSON lines here")
    p.add_argument("--expect-alert", action="store_true",
                   help="exit non-zero unless at least one alert fired")
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_slo)

    p = sub.add_parser(
        "incidents",
        help="list or render flight-recorder incident dumps",
    )
    p.add_argument("--dir", required=True,
                   help="directory holding incident-*.jsonl dumps")
    p.add_argument("--show", type=int, default=None,
                   help="render this incident id in full")
    p.add_argument("--frames", type=int, default=10,
                   help="ring frames to show per rendered incident")
    p.set_defaults(fn=cmd_incidents)

    p = sub.add_parser("calibrate", help="run the Figure 5 sweep")
    p.add_argument("--device", default="titan_rtx_scaled",
                   choices=list(known_devices()))
    p.add_argument("--rows", type=int, default=2048)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("experiment", help="regenerate a table/figure")
    p.add_argument("name", help="table1_2 | fig4 | fig5 | fig6 | fig7 | "
                                "table4 | table5 | dist_scaling")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
