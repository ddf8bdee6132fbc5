"""Command-line interface: run SuperFE without writing code.

Subcommands::

    python -m repro apps                       # list Table 3 applications
    python -m repro manifest --app Kitsune     # generated device programs
    python -m repro gen-trace --profile CAMPUS --flows 500 --out t.pcap
    python -m repro extract --app NPOD --pcap t.pcap --out features.csv
    python -m repro extract --app NPOD --trace ENTERPRISE --flows 300 \
        --out features.csv --software
    python -m repro extract --app NPOD --trace ENTERPRISE \
        --out features.csv --nics 4 --workers 4 --exec-backend process
    python -m repro bench-parallel --out BENCH_parallel.json
    python -m repro bench-soak --out BENCH_soak.json   # chaos recovery
    python -m repro telemetry --app NPOD --trace ENTERPRISE  # dashboard
    python -m repro telemetry --input run.jsonl --format prometheus

``extract`` writes one CSV row per feature vector: the group key columns
followed by the feature values (header included).
"""

from __future__ import annotations

import argparse
import csv
import sys

import repro.api as api
from repro.apps import APP_POLICIES, build_policy
from repro.core.faults import FaultPlan, FaultPlanError
from repro.core.observe import degradation_report, render_counters
from repro.core.parallel import BACKENDS
from repro.net.packet import int_to_ip
from repro.net.pcaplite import read_pcap, write_pcap
from repro.net.trace import TRACE_PROFILES, generate_trace
from repro.nicsim.engine import FeatureEngine


def _cmd_apps(args) -> int:
    print(f"{'Application':12s} {'Objective':26s} {'Dim':>5s} {'LOC':>4s}"
          f"  Engine path")
    for name, spec in APP_POLICIES.items():
        policy = spec.build()
        path, why = FeatureEngine(api.compile(policy).compiled).path()
        print(f"{name:12s} {spec.objective:26s} "
              f"{spec.expected_dim:5d} {policy.loc:4d}  {path}"
              + (f" ({why})" if why else ""))
    return 0


def _cmd_manifest(args) -> int:
    ex = api.compile(build_policy(args.app))
    switch, nic = ex.manifests()
    print(switch)
    print()
    print(nic)
    return 0


def _cmd_codegen(args) -> int:
    from repro.codegen import generate_microc, generate_p4
    ex = api.compile(build_policy(args.app))
    if args.target == "p4":
        source = generate_p4(ex.compiled, ex.mgpv_config)
    else:
        source = generate_microc(ex.compiled)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(source)
        print(f"wrote {source.count(chr(10))} lines to {args.out}")
    else:
        print(source)
    return 0


def _cmd_gen_trace(args) -> int:
    if args.profile not in TRACE_PROFILES:
        print(f"unknown profile {args.profile!r}; have "
              f"{sorted(TRACE_PROFILES)}", file=sys.stderr)
        return 2
    packets = generate_trace(args.profile, n_flows=args.flows,
                             seed=args.seed)
    write_pcap(args.out, packets)
    print(f"wrote {len(packets)} packets to {args.out}")
    return 0


def _key_columns(key: tuple) -> list[str]:
    """Render a group key: IPs dotted-quad, everything else as-is."""
    rendered = []
    for part in key:
        if isinstance(part, int) and part > 65535:
            rendered.append(int_to_ip(part))
        else:
            rendered.append(str(part))
    return rendered


def _cmd_extract(args) -> int:
    if args.app not in APP_POLICIES:
        print(f"unknown application {args.app!r}; have "
              f"{sorted(APP_POLICIES)}", file=sys.stderr)
        return 2
    if bool(args.pcap) == bool(args.trace):
        print("provide exactly one of --pcap or --trace",
              file=sys.stderr)
        return 2
    if args.nics < 1:
        print(f"--nics must be >= 1, got {args.nics}", file=sys.stderr)
        return 2
    if args.faults and args.software:
        print("--faults needs the hardware path; drop --software",
              file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.software and (args.workers > 1 or args.exec_backend):
        print("--workers/--exec-backend need the hardware path; drop "
              "--software", file=sys.stderr)
        return 2
    fault_plan = None
    if args.faults:
        try:
            fault_plan = FaultPlan.from_json(args.faults)
        except (FaultPlanError, OSError) as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
    telemetry = None
    if args.telemetry:
        from repro.core.telemetry import Telemetry, TelemetryConfig
        telemetry = Telemetry(TelemetryConfig(
            sample_rate=args.telemetry_sample))
    if args.pcap:
        packets = read_pcap(args.pcap)
    else:
        packets = generate_trace(args.trace, n_flows=args.flows,
                                 seed=args.seed)
    policy = build_policy(args.app)
    if args.software:
        extractor = api.compile(policy, software=True,
                                telemetry=telemetry)
    else:
        extractor = api.compile(
            policy, n_nics=args.nics, fault_plan=fault_plan,
            workers=args.workers if args.workers > 1 else None,
            backend=args.exec_backend, telemetry=telemetry)
    # The hardware path takes the columnar path; the software baseline
    # stays per-record (it is the unbatched oracle by definition).
    trace = (packets if args.software
             else api.PacketBatch.from_packets(packets))
    try:
        result = extractor.run(trace)
    except FaultPlanError as exc:
        print(f"bad fault plan: {exc}", file=sys.stderr)
        return 2

    try:
        frame = result.frame()
    except ValueError:
        frame = None       # data-dependent widths: write row by row
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        if frame is not None and len(frame):
            key_width = len(frame.keys[0])
            writer.writerow(
                [f"key{i}" for i in range(key_width)]
                + [f"f{i}" for i in range(frame.shape[1])])
            for key, row in zip(frame.keys, frame.matrix):
                writer.writerow(_key_columns(tuple(key))
                                + [f"{v:.6g}" for v in row])
        elif result.vectors:
            key_width = len(result.vectors[0].key)
            dim = len(result.vectors[0].values)
            writer.writerow(
                [f"key{i}" for i in range(key_width)]
                + [f"f{i}" for i in range(dim)])
            for vec in result.vectors:
                writer.writerow(_key_columns(tuple(vec.key))
                                + [f"{v:.6g}" for v in vec.values])
    mode = "software" if args.software else "SuperFE"
    degraded = sum(1 for v in result.vectors if v.degraded)
    suffix = f" ({degraded} degraded)" if degraded else ""
    print(f"{mode}: {len(result.vectors)} vectors{suffix} from "
          f"{len(packets)} packets -> {args.out}")
    if not args.software:
        # The switch->NIC link stage owns the Fig 12 byte accounting.
        ratio = result.dataplane.link.aggregation_ratio_bytes
        print(f"switch batching kept {ratio:.1%} of traffic bytes")
    if args.counters:
        print(render_counters(result.dataplane.counters(),
                              title="per-stage dataplane counters"))
    if args.chaos_report:
        print(render_counters(
            degradation_report(result.dataplane.counters()),
            title="chaos report (injected / recovered / degraded)"))
        # The executor's own ledger, surfaced without a Python call:
        # transport mode/fallbacks and the supervision restart history.
        health = result.dataplane.health()
        if health is not None:
            sections = {"transport": health.get("transport") or {}}
            supervision = health.get("supervision")
            if supervision is not None:
                sections["supervision"] = supervision
            print(render_counters(
                sections, title="cluster health (transport / "
                                "supervision)"))
    if args.telemetry:
        from repro.core.telemetry import write_jsonl
        lines = write_jsonl(
            args.telemetry,
            result.dataplane.telemetry_snapshot(),
            result.dataplane.telemetry_spans(),
            meta={"command": "extract", "app": args.app,
                  "sample_rate": args.telemetry_sample})
        print(f"wrote {lines} telemetry lines to {args.telemetry}")
    return 0


def _cmd_telemetry(args) -> int:
    from repro.core.telemetry import (
        Telemetry,
        TelemetryConfig,
        TelemetryError,
        prometheus_text,
        read_jsonl,
        render_dashboard,
        write_jsonl,
    )
    if bool(args.input) == bool(args.app):
        print("provide exactly one of --input or --app",
              file=sys.stderr)
        return 2
    if args.input:
        try:
            dump = read_jsonl(args.input)
        except (OSError, ValueError) as exc:
            print(f"bad telemetry dump: {exc}", file=sys.stderr)
            return 2
        if dump["snapshot"] is None:
            print(f"{args.input} has no metrics line", file=sys.stderr)
            return 2
        snapshot = dump["snapshot"]
        spans = [(s["name"], s["start_ns"], s["dur_ns"])
                 for s in dump["spans"]]
        title = f"superfe telemetry ({args.input})"
    else:
        if args.app not in APP_POLICIES:
            print(f"unknown application {args.app!r}; have "
                  f"{sorted(APP_POLICIES)}", file=sys.stderr)
            return 2
        try:
            tel = Telemetry(TelemetryConfig(
                sample_rate=args.sample_rate))
        except TelemetryError as exc:
            print(f"bad telemetry config: {exc}", file=sys.stderr)
            return 2
        packets = generate_trace(args.trace, n_flows=args.flows,
                                 seed=args.seed)
        result = api.compile(build_policy(args.app), n_nics=args.nics,
                             telemetry=tel).run(packets)
        snapshot = result.dataplane.telemetry_snapshot()
        spans = result.dataplane.telemetry_spans()
        title = (f"superfe telemetry ({args.app} on {args.trace}, "
                 f"{len(packets)} packets)")
        if args.out:
            write_jsonl(args.out, snapshot, spans,
                        meta={"command": "telemetry", "app": args.app,
                              "sample_rate": args.sample_rate})
            print(f"wrote telemetry dump to {args.out}")
    if args.format == "prometheus":
        print(prometheus_text(snapshot), end="")
    else:
        print(render_dashboard(snapshot, spans, title=title))
    return 0


def _trace_events_from_file(path: str) -> list[dict]:
    """Load ctx-tagged trace events from either export format: a
    Chrome ``trace_event`` JSON document (``write_chrome_trace``) or a
    telemetry JSON Lines dump with ``tevent`` lines."""
    import json
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError:
        doc = None                  # not one document: JSON Lines
    if isinstance(doc, dict):
        events = []
        for rec in doc.get("traceEvents", []):
            info = rec.get("args", {})
            events.append({
                "name": rec["name"],
                "start_ns": int(rec["ts"] * 1000),
                "dur_ns": int(rec["dur"] * 1000),
                "span_id": int(info["span_id"], 16),
                "parent_id": int(info["parent_span_id"], 16),
                "trace_id": int(info["trace_id"], 16),
                "seq": info["seq"],
                "pid": rec["pid"],
            })
        return events
    from repro.core.telemetry import read_jsonl
    return read_jsonl(path)["tevents"]


def _cmd_telemetry_trace(args) -> int:
    from repro.core.tracecontext import render_tree, write_chrome_trace
    try:
        events = _trace_events_from_file(args.input)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bad trace dump: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"{args.input} holds no trace events (was the run "
              f"traced? TelemetryConfig(trace=True))", file=sys.stderr)
        return 2
    print(render_tree(events))
    if args.chrome_out:
        write_chrome_trace(args.chrome_out, events)
        print(f"wrote Chrome trace to {args.chrome_out} "
              f"(open in chrome://tracing or Perfetto)")
    return 0


def _cmd_telemetry_watch(args) -> int:
    import json
    import time as time_mod
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")

    def fetch(path: str):
        with urllib.request.urlopen(base + path, timeout=5) as resp:
            return json.loads(resp.read().decode("utf-8"))

    ticks = 0
    while True:
        try:
            health = fetch("/health")
            flight = fetch("/debug/flight")
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"watch: {base} unreachable: {exc}", file=sys.stderr)
            return 1
        ingest = health.get("ingest") or {}
        cluster = health.get("cluster") or {}
        supervision = cluster.get("supervision") or {}
        transport = cluster.get("transport") or {}
        workers = cluster.get("workers") or []
        line = (f"[{time_mod.strftime('%H:%M:%S')}] "
                f"state={health.get('state', '?')} "
                f"queue={ingest.get('queue_depth', '-')}"
                f"/{ingest.get('queue_capacity', '-')} "
                f"shed={ingest.get('shed_rate', 0.0):.2%} "
                f"workers={sum(1 for w in workers if w.get('alive'))}"
                f"/{len(workers)} "
                f"restarts={supervision.get('restarts', 0)} "
                f"fallbacks={transport.get('fallback_chunks', 0)}")
        print(line, flush=True)
        for event in flight[-args.flight:] if args.flight else []:
            print(f"    {event.get('kind', '?'):24s} "
                  + " ".join(f"{k}={v}" for k, v in sorted(event.items())
                             if k not in ("kind", "t")), flush=True)
        ticks += 1
        if args.count and ticks >= args.count:
            return 0
        time_mod.sleep(args.interval)


def _cmd_bench_report(args) -> int:
    from repro.bench.report import BenchReportError, build_bench_report
    try:
        text = build_bench_report(args.dir)
    except BenchReportError as exc:
        print(f"bench-report: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote bench report to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_bench_parallel(args) -> int:
    import json

    from repro.bench.parallel import run_scaling
    workers = sorted({int(w) for w in args.workers.split(",")})
    if any(w < 1 for w in workers):
        print(f"--workers must all be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    record = run_scaling(n_flows=args.flows, n_nics=args.nics,
                         worker_counts=workers,
                         backend=args.exec_backend,
                         trace_profile=args.trace, seed=args.seed,
                         telemetry_path=args.telemetry)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"serial: {record['serial']['pps']:,.0f} pps over "
          f"{record['n_packets']} packets / {record['n_nics']} NICs")
    for run in record["runs"]:
        marker = "==" if run["equivalent"] else "!="
        transport = run.get("transport")
        wire = ("" if transport is None
                else f", {transport['mode']} "
                     f"{transport['bytes_per_batch']:,.0f} B/batch")
        print(f"{run['workers']} workers: {run['pps']:,.0f} pps "
              f"({run['speedup']:.2f}x, checksum {marker} serial"
              f"{wire})")
    gate = record["speedup_gate"]
    print(f"speedup gate [{gate['status']}]: {gate['reason']}")
    print(f"wrote {args.out} (cpu_count={record['cpu_count']}, "
          f"transport={record['transport']})")
    if not record["equivalent"]:
        return 1
    if args.enforce_gate and gate["status"] == "failed":
        print(f"--enforce-gate: {gate['reason']}", file=sys.stderr)
        return 3
    return 0


def _soak_flight_dump(record: dict) -> None:
    """Print the chaos pass's flight-recorder excerpt on failure exits
    — the same last-N events an ExecutorError would carry."""
    for event in record["chaos"].get("flight", []):
        print("  flight: "
              + " ".join(f"{k}={v}" for k, v in sorted(event.items())),
              file=sys.stderr)


def _cmd_bench_soak(args) -> int:
    import json

    slo_rules = None
    if args.slo_gate:
        from repro.core.telemetry import TelemetryError, parse_slo_rules
        try:
            slo_rules = parse_slo_rules(args.slo_gate)
        except TelemetryError as exc:
            print(f"bad --slo-gate: {exc}", file=sys.stderr)
            return 2

    from repro.bench.soak import run_soak
    record = run_soak(n_flows=args.flows, n_nics=args.nics,
                      workers=args.workers,
                      trace_profile=args.trace, seed=args.seed,
                      request_timeout_s=args.request_timeout,
                      stall_seconds=args.stall_seconds,
                      overload=args.overload,
                      telemetry_path=args.telemetry,
                      trace_out=args.trace_out,
                      flight_out=args.flight_out,
                      slo_rules=slo_rules)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    chaos = record["chaos"]
    recovery = chaos["recovery"]
    print(f"chaos pass: {chaos['restarts']} restart(s), "
          f"{chaos['redispatched_batches']} batch(es) redispatched, "
          f"{len(chaos['poison_batches'])} poison batch(es)")
    print(f"recovery latency: mean {recovery['mean_ms']:.1f} ms, "
          f"max {recovery['max_ms']:.1f} ms over {recovery['count']} "
          f"restart(s)")
    marker = "==" if chaos["equivalent"] else "!="
    print(f"chaos checksum {marker} serial "
          f"({chaos['degraded_vectors']} degraded vector(s))")
    overload = record["overload"]
    print(f"overload pass ({overload['policy']}): shed rate "
          f"{overload['shed_rate']:.2%}, {overload['n_vectors']} vectors")
    overhead = record["supervision_overhead"]
    print(f"supervision overhead: {overhead['overhead_pct']:+.1f}% "
          f"({overhead['supervised_s']:.3f}s vs "
          f"{overhead['unsupervised_s']:.3f}s unsupervised)")
    trace_summary = chaos.get("trace")
    if trace_summary is not None:
        print(f"trace: {trace_summary['events']} spans, "
              f"{trace_summary['stitched_batches']} batch(es) stitched "
              f"across the process boundary, "
              f"{trace_summary['orphans']} orphan(s)")
    if args.trace_out:
        print(f"wrote Chrome trace to {args.trace_out}")
    if args.flight_out:
        print(f"wrote flight-recorder dump to {args.flight_out}")
    print(f"wrote {args.out} "
          f"(effective_cores={record['effective_cores']})")
    if not chaos["equivalent"]:
        print("FAIL: chaos-pass vectors diverge from the serial "
              "baseline", file=sys.stderr)
        _soak_flight_dump(record)
        return 1
    if chaos["restarts"] < 1:
        print("FAIL: chaos plan produced no supervisor restarts",
              file=sys.stderr)
        _soak_flight_dump(record)
        return 1
    slo = record.get("slo")
    if slo is not None:
        if slo["breaches"]:
            for breach in slo["breaches"]:
                print(f"SLO BREACH: {breach['spec']} — measured "
                      f"{breach['value']:g}", file=sys.stderr)
            _soak_flight_dump(record)
            return 4
        print(f"slo gate passed ({len(slo['rules'])} rule(s))")
    return 0


def _cmd_bench_hotpath(args) -> int:
    import json

    from repro.bench.hotpath import run_hotpath, run_overhead
    record = run_hotpath(n_flows=args.flows, n_nics=args.nics,
                         trace_profile=args.trace, seed=args.seed,
                         repeats=args.repeats,
                         profile=not args.no_profile,
                         telemetry_path=args.telemetry)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for stage, row in record["stages"].items():
        print(f"{stage:12s}: {row['pps']:>12,.0f} pps "
              f"({row['seconds']:.4f}s)")
    for span, pct in record["latency_ns"].items():
        print(f"  {span:<22} p50={pct['p50']:>10,.0f}ns "
              f"p90={pct['p90']:>10,.0f}ns p99={pct['p99']:>10,.0f}ns")
    marker = "==" if record["equivalent"] else "!="
    print(f"checksum {marker} reference oracle; "
          f"{record['speedup_vs_baseline']:.2f}x vs "
          f"{record['baseline_pps']:,.1f} pps pre-optimization baseline")
    print(f"columnar batch path: {record['columnar_speedup']:.2f}x "
          f"over per-packet serial")
    print(f"wrote {args.out} (cpu_count={record['cpu_count']})")
    if not record["equivalent"]:
        print("FAIL: optimized vectors diverge from the reference "
              "oracle", file=sys.stderr)
        return 1
    if args.check_against:
        try:
            with open(args.check_against) as fh:
                committed = json.load(fh)
        except FileNotFoundError:
            print(f"no committed record at {args.check_against}; "
                  f"skipping regression gate")
            return 0
        gated = [("serial end-to-end", "end_to_end")]
        if "end_to_end_batch" in committed.get("stages", {}):
            gated.append(("columnar end-to-end", "end_to_end_batch"))
        for label, stage in gated:
            floor = committed["stages"][stage]["pps"] * (
                1.0 - args.max_regression)
            measured = record["stages"][stage]["pps"]
            if measured < floor:
                print(f"FAIL: {label} {measured:,.0f} pps is "
                      f">{args.max_regression:.0%} below the committed "
                      f"{committed['stages'][stage]['pps']:,.0f} pps",
                      file=sys.stderr)
                return 1
            print(f"regression gate passed: {label} {measured:,.0f} "
                  f"pps >= {floor:,.0f} pps floor")
    if args.telemetry_gate is not None:
        overhead = run_overhead(n_flows=args.flows, n_nics=args.nics,
                                trace_profile=args.trace,
                                seed=args.seed, repeats=args.repeats)
        frac = overhead["overhead_fraction"]
        budget = args.telemetry_gate / 100.0
        print(f"unsampled telemetry: {overhead['pps_unsampled']:,.0f} "
              f"pps vs {overhead['pps_off']:,.0f} pps off "
              f"({frac:+.1%} overhead)")
        if frac > budget:
            print(f"FAIL: enabled-but-unsampled telemetry overhead "
                  f"{frac:.1%} exceeds the {budget:.0%} budget",
                  file=sys.stderr)
            return 1
        print(f"telemetry overhead gate passed "
              f"({frac:.1%} <= {budget:.0%})")
    if args.trace_gate is not None:
        from repro.bench.hotpath import run_trace_overhead
        traced = run_trace_overhead(n_flows=args.flows,
                                    n_nics=args.nics,
                                    trace_profile=args.trace,
                                    seed=args.seed,
                                    repeats=args.repeats)
        frac = traced["overhead_fraction"]
        budget = args.trace_gate / 100.0
        print(f"trace propagation ({traced['workers']} workers, "
              f"process): {traced['pps_traced']:,.0f} pps vs "
              f"{traced['pps_off']:,.0f} pps off ({frac:+.1%} overhead)")
        if not traced["equivalent"]:
            print("FAIL: tracing-on vectors diverge from tracing-off",
                  file=sys.stderr)
            return 1
        if frac > budget:
            print(f"FAIL: trace propagation overhead {frac:.1%} "
                  f"exceeds the {budget:.0%} budget", file=sys.stderr)
            return 1
        print(f"trace overhead gate passed ({frac:.1%} <= {budget:.0%})")
    return 0


def _cmd_report(args) -> int:
    from repro.bench.report import build_report
    try:
        text = build_report(args.results)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SuperFE feature extraction (EuroSys'25 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the Table 3 applications") \
       .set_defaults(func=_cmd_apps)

    p = sub.add_parser("manifest",
                       help="show generated FE-Switch/FE-NIC programs")
    p.add_argument("--app", required=True)
    p.set_defaults(func=_cmd_manifest)

    p = sub.add_parser("codegen",
                       help="emit the generated P4 / Micro-C program")
    p.add_argument("--app", required=True)
    p.add_argument("--target", choices=("p4", "microc"), default="p4")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_codegen)

    p = sub.add_parser("gen-trace", help="generate a synthetic pcap")
    p.add_argument("--profile", required=True,
                   help="MAWI-IXP | ENTERPRISE | CAMPUS")
    p.add_argument("--flows", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("bench-parallel",
                       help="scaling benchmark of the shard-parallel "
                            "executor (writes a JSON record)")
    p.add_argument("--flows", type=int, default=400)
    p.add_argument("--nics", type=int, default=4)
    p.add_argument("--workers", default="1,2,4",
                   help="comma-separated worker counts (default 1,2,4)")
    p.add_argument("--exec-backend", choices=("thread", "process"),
                   default="process")
    p.add_argument("--trace", default="ENTERPRISE")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--out", default="BENCH_parallel.json")
    p.add_argument("--telemetry",
                   help="also dump the traced pass's metrics/spans as "
                        "JSON Lines to this path")
    p.add_argument("--enforce-gate", action="store_true",
                   help="exit 3 when the speedup gate fails (a skipped "
                        "gate on a starved host still exits 0 — its "
                        "reason is recorded in the JSON)")
    p.set_defaults(func=_cmd_bench_parallel)

    p = sub.add_parser("bench-soak",
                       help="supervised-executor soak: crash/stall "
                            "recovery, overload shedding, supervision "
                            "overhead (writes a JSON record)")
    p.add_argument("--flows", type=int, default=200)
    p.add_argument("--nics", type=int, default=4)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--trace", default="ENTERPRISE")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--request-timeout", type=float, default=2.0,
                   help="per-request deadline in seconds (default 2.0)")
    p.add_argument("--stall-seconds", type=float, default=None,
                   help="injected stall length (default: 2x the "
                        "request timeout, so the deadline trips)")
    p.add_argument("--overload", choices=("block", "shed", "degrade"),
                   default="shed",
                   help="overload policy for the streaming pass")
    p.add_argument("--out", default="BENCH_soak.json")
    p.add_argument("--telemetry",
                   help="also dump the chaos pass's metrics/spans/"
                        "trace events as JSON Lines to this path")
    p.add_argument("--trace-out",
                   help="export the chaos pass's stitched span tree "
                        "as Chrome trace_event JSON to this path")
    p.add_argument("--flight-out",
                   help="dump the chaos pass's cross-process "
                        "flight-recorder excerpt as JSON to this path")
    p.add_argument("--slo-gate", metavar="RULES",
                   help="comma-separated metric<=limit rules evaluated "
                        "on the chaos pass's telemetry snapshot "
                        "(e.g. 'supervisor.restarts<=3,"
                        "fallback_chunks<=0'); exit 4 on breach")
    p.set_defaults(func=_cmd_bench_soak)

    p = sub.add_parser("bench-hotpath",
                       help="per-stage hot-path micro-benchmark with "
                            "profile attribution and oracle checksums")
    p.add_argument("--flows", type=int, default=400)
    p.add_argument("--nics", type=int, default=4)
    p.add_argument("--trace", default="ENTERPRISE")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--no-profile", action="store_true",
                   help="skip the cProfile attribution pass")
    p.add_argument("--out", default="BENCH_hotpath.json")
    p.add_argument("--check-against",
                   help="committed record to gate against: fail when "
                        "end-to-end pps regresses more than "
                        "--max-regression below it")
    p.add_argument("--max-regression", type=float, default=0.20,
                   help="allowed fractional pps regression for "
                        "--check-against (default 0.20)")
    p.add_argument("--telemetry",
                   help="also dump the traced pass's metrics/spans as "
                        "JSON Lines to this path")
    p.add_argument("--telemetry-gate", type=float, default=None,
                   metavar="PCT",
                   help="measure enabled-but-unsampled telemetry "
                        "overhead and fail when it exceeds PCT percent")
    p.add_argument("--trace-gate", type=float, default=None,
                   metavar="PCT",
                   help="measure causal-trace propagation overhead on "
                        "the process backend and fail when it exceeds "
                        "PCT percent")
    p.set_defaults(func=_cmd_bench_hotpath)

    p = sub.add_parser("bench-report",
                       help="validate the committed BENCH_*.json "
                            "records and print one cross-bench trend "
                            "table")
    p.add_argument("--dir", default=".",
                   help="directory holding BENCH_*.json (default .)")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_bench_report)

    p = sub.add_parser("report",
                       help="assemble benchmark results into one report")
    p.add_argument("--results", help="results directory "
                   "(default: benchmarks/results)")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("extract", help="extract feature vectors to CSV")
    p.add_argument("--app", required=True)
    p.add_argument("--pcap", help="input pcap file")
    p.add_argument("--trace", help="synthetic trace profile instead")
    p.add_argument("--flows", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--software", action="store_true",
                   help="use the unbatched software path")
    p.add_argument("--nics", type=int, default=1,
                   help="terminate in a hash-steered cluster of N NICs")
    p.add_argument("--workers", type=int, default=1,
                   help="run cluster shards on N parallel workers")
    p.add_argument("--exec-backend", choices=BACKENDS, default=None,
                   help="shard executor backend (default: process when "
                        "--workers > 1)")
    p.add_argument("--counters", action="store_true",
                   help="print per-stage dataplane counters")
    p.add_argument("--faults",
                   help="JSON chaos schedule (FaultPlan) to inject")
    p.add_argument("--chaos-report", action="store_true",
                   help="print the injected/recovered/degraded ledger")
    p.add_argument("--telemetry",
                   help="collect typed metrics/spans and dump them as "
                        "JSON Lines to this path")
    p.add_argument("--telemetry-sample", type=float, default=1 / 64,
                   metavar="RATE",
                   help="span sample rate for --telemetry "
                        "(default 1/64; 0 = metrics only)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser(
        "telemetry",
        help="render a telemetry dashboard: from a JSONL dump "
             "(--input) or by running one traced extraction (--app)")
    p.add_argument("--input", help="JSON Lines dump written by "
                   "--telemetry / write_jsonl")
    p.add_argument("--app", help="run this application instead")
    p.add_argument("--trace", default="ENTERPRISE",
                   help="synthetic trace profile for --app runs")
    p.add_argument("--flows", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nics", type=int, default=1)
    p.add_argument("--sample-rate", type=float, default=1 / 64,
                   help="span sample rate for --app runs "
                        "(default 1/64)")
    p.add_argument("--out", help="also dump the --app run's "
                   "metrics/spans as JSON Lines here")
    p.add_argument("--format", choices=("dashboard", "prometheus"),
                   default="dashboard")
    p.set_defaults(func=_cmd_telemetry)

    # Nested verbs: `repro telemetry trace` / `repro telemetry watch`.
    # Without a verb the parent dashboard behavior above applies.
    tsub = p.add_subparsers(dest="telemetry_command")
    t = tsub.add_parser("trace",
                        help="reconstruct the cross-process span tree "
                             "from a trace dump")
    t.add_argument("--input", required=True,
                   help="Chrome trace JSON (--trace-out) or telemetry "
                        "JSON Lines dump with tevent lines")
    t.add_argument("--chrome-out",
                   help="also export as Chrome trace_event JSON here")
    t.set_defaults(func=_cmd_telemetry_trace)
    t = tsub.add_parser("watch",
                        help="poll a running serve_ops endpoint and "
                             "render a live terminal status line")
    t.add_argument("--url", required=True,
                   help="ops endpoint base URL (api.serve_ops)")
    t.add_argument("--interval", type=float, default=2.0,
                   help="poll interval in seconds (default 2.0)")
    t.add_argument("--count", type=int, default=0,
                   help="stop after N polls (default 0 = forever)")
    t.add_argument("--flight", type=int, default=0, metavar="N",
                   help="also print the last N flight-recorder events "
                        "each poll")
    t.set_defaults(func=_cmd_telemetry_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":      # pragma: no cover
    raise SystemExit(main())
