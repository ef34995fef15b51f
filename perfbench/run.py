"""The repository benchmark: three workloads on both clocks, one process, one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload udf_grid --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --list        # every metric with its unit and mapping

Every run measures all three sections (udf_grid, paged_rw, tenant_mix), so
every end-to-end metric is reported on every workload.  The workload names
the section the run is about:

* its set-up is repeated, before and during the run, and ``setup_s`` is the
  median;
* ``sim_s_per_query`` is the mean over its queries;
* the first set-up copy replays a prefix of its operations, which warms the
  process and checks determinism: the prefix must cost exactly the same
  simulated time, messages, bytes, events, buffer and page I/O as in the
  main run.  With ``--trace 1`` another copy replays it untraced after the
  run, as the baseline of ``trace.overhead_pct``.

``perfbench/out/digests.json`` keeps a digest of the simulated costs and
counts of every (workload, seed, seconds, sources) run so far; a run whose
digest differs from an earlier one's fails, traced or not, in any process.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` installs the layer wrappers of ``spans.py`` and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (every operation, drift, the span list) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SECTION_ORDER = ("udf_grid", "paged_rw", "tenant_mix")

import catalog  # noqa: E402

#: Median host ms of :func:`speed_probe_ms` on the machine the benchmark was
#: built on (2-vCPU x86 VM), at its usual speed.
REFERENCE_PROBE_MS = 0.45
#: Probes on each side of an operation that give its local host speed.
PROBE_WINDOW = 8


def speed_probe_ms() -> float:
    """Host ms for a fixed pure-Python kernel: dict updates, tuples, a sort.

    Host speed on a shared machine moves between states up to 1.8x apart
    that last from seconds to minutes, depending on neighbours.  The probe
    runs before every operation; scaling an operation's time by the probe's
    local median (see :func:`scale_to_reference`) removes most of that
    swing, and shares no code with the engine.
    """
    start = time.perf_counter()
    table = {}
    for i in range(1000):
        key = ("k", i % 97)
        table[key] = table.get(key, 0) + i
    rows = sorted((tuple(range(i, i + 4)) for i in range(200)), key=lambda r: -r[1])
    sum(r[0] for r in rows if r[2] % 3)
    return (time.perf_counter() - start) * 1000.0


def scale_to_reference(probes: List[float], step: int) -> float:
    """Factor taking host time at ``step`` to the reference host speed."""
    window = probes[max(0, step - PROBE_WINDOW): step + PROBE_WINDOW + 1]
    return REFERENCE_PROBE_MS / statistics.median(window)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, the rule repro.tenancy reports with."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def by_label(records) -> Dict[str, list]:
    grouped: Dict[str, list] = defaultdict(list)
    for record in records:
        grouped[record.label].append(record)
    return grouped


# -- end-to-end metrics ----------------------------------------------------------------------


def end_to_end(workload, setup_times, records) -> Dict[str, float]:
    udf = by_label(records["udf_grid"])
    paged = by_label(records["paged_rw"])
    lookups = [r for r in records["paged_rw"] if r.label != "write"]
    rounds = records["tenant_mix"]
    if workload == "udf_grid":
        sim_per_query = mean(r.sim_s for r in records["udf_grid"])
    elif workload == "paged_rw":
        sim_per_query = mean(r.sim_s for r in lookups)
    else:
        sim_per_query = sum(sum(r.detail["latencies"]) for r in rounds) / sum(
            r.detail["queries"] for r in rounds
        )
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s_per_query": sim_per_query,
    }
    for label in catalog.UDF_CLASSES:
        metrics[f"{label}_ms"] = statistics.median(r.ref_ms for r in udf[label])
    metrics["lookup_ms_p50"] = percentile([r.ref_ms for r in lookups], 0.50)
    metrics["lookup_ms_p90"] = percentile([r.ref_ms for r in lookups], 0.90)
    metrics["write_ms_p50"] = statistics.median(r.ref_ms for r in paged["write"])
    metrics["tenant_round_ms"] = statistics.median(r.ref_ms for r in rounds)
    metrics["interactive_sim_p99_s"] = percentile(
        [latency for r in rounds for latency in r.detail["interactive"]], 0.99
    )
    return metrics


# -- per-layer metrics -----------------------------------------------------------------------


def per_layer(tracer, records, paged_space, overhead_pct, shard_sites) -> Dict[str, float]:
    spans = tracer.per_op()
    events = tracer.events_per_op()

    def span_ms(ops, name, index=0):
        """Mean ms per operation in spans called ``name`` (total or self time)."""
        return mean(spans[r.op_id][name][index] * 1000.0 if name in spans[r.op_id] else 0.0
                    for r in ops)

    def span_s(name):
        return sum(entry[name][0] for entry in spans.values() if name in entry)

    udf = by_label(records["udf_grid"])
    single_site = [r for r in records["udf_grid"] if r.label != "scatter8"]
    paged_ops = records["paged_rw"]
    lookups = [r for r in paged_ops if r.label != "write"]
    writes = [r for r in paged_ops if r.label == "write"]
    rounds = records["tenant_mix"]

    decisions = {op: decision for op, decision in tracer.decisions}
    qerrors = []
    for r in lookups:
        estimate = max(1.0, float(decisions[r.op_id].plan.cardinality))
        actual = max(1.0, float(r.detail["rows"]))
        qerrors.append(max(estimate / actual, actual / estimate))

    m: Dict[str, float] = {
        "sql.parse_bind_ms": span_ms(lookups, "sql.bind"),
        "optimizer.optimize_ms": span_ms(lookups, "optimizer.optimize"),
        "optimizer.card_qerror_p50": percentile(qerrors, 0.50),
        "optimizer.card_qerror_p90": percentile(qerrors, 0.90),
        "optimizer.index_path_ratio": mean(
            1.0 if r.detail["index_lookups"] else 0.0 for r in lookups
        ),
        "planner.build_ms": span_ms(single_site, "planner.build_plan"),
    }
    for label in catalog.UDF_CLASSES:
        # Shard executors run on baton threads, which record no spans, so for
        # scatter8 this is the whole scatter-gather call.
        name = "distribution.execute" if label == "scatter8" else "executor.execute_plan"
        m[f"executor.run_ms.{label}"] = span_ms(udf[label], name)
    m["engine.self_ms"] = span_ms(single_site, "engine.execute", index=1)
    for label in catalog.UDF_CLASSES:
        ops = udf[label]
        op_events = [events[r.op_id] for r in ops]
        m[f"network.events_per_row.{label}"] = sum(op_events) / max(
            1, sum(r.detail["input_rows"] for r in ops)
        )
        # The scatter-gather driver steps its simulator from baton threads, so
        # its whole call stands in for the event loop.
        loop = "distribution.execute" if label == "scatter8" else "network.simulator_run"
        loop_s = sum(spans[r.op_id][loop][0] for r in ops if loop in spans[r.op_id])
        m[f"network.host_us_per_event.{label}"] = loop_s * 1e6 / max(1, sum(op_events))
    calls = sum(r.detail["udf_calls"] for r in single_site)
    hits = sum(r.detail["cache_hits"] for r in single_site)
    m.update({
        "network.messages_per_query": mean(r.detail["messages"] for r in single_site),
        "network.wire_bytes_per_query": mean(r.detail["wire_bytes"] for r in single_site),
        "network.send_stall_s": mean(r.detail["send_stall_s"] for r in single_site),
        "client.udf_calls_per_query": calls / len(single_site),
        "client.cache_hit_ratio": hits / max(1, hits + calls),
        "client.udf_ms": span_ms(single_site, "client.udf"),
        "storage.load_s": span_s("storage.load"),
        "storage.btree_build_s": span_s("storage.create_index.btree"),
        "storage.hash_build_s": span_s("storage.create_index.hash"),
    })
    hits = sum(r.detail["buffer_hits"] for r in paged_ops)
    misses = sum(r.detail["buffer_misses"] for r in paged_ops)
    written = sum(r.detail["page_writes"] for r in paged_ops)
    stored, live, inserted = paged_space
    m.update({
        "storage.buffer_hit_ratio": hits / max(1, hits + misses),
        "storage.evictions_per_op": mean(r.detail["evictions"] for r in paged_ops),
        "storage.pages_per_lookup": mean(
            r.detail["buffer_hits"] + r.detail["buffer_misses"] for r in lookups
        ),
        "storage.index_probe_ms": span_ms(lookups, "storage.index_probe"),
        "storage.page_reads_per_op": mean(r.detail["page_reads"] for r in paged_ops),
        "storage.page_writes_per_op": written / len(paged_ops),
        "storage.bytes_written_per_user_byte": written * 4096 / max(1, inserted),
        "storage.space_per_live_byte": stored / max(1, live),
        "storage.flush_ms": span_ms(writes, "storage.flush"),
        "storage.insert_ms": span_ms(writes, "storage.insert"),
        "storage.delete_ms": span_ms(writes, "storage.delete"),
        "adaptive.observe_ms": span_ms(lookups, "adaptive.observe"),
        "adaptive.stats_save_ms": span_ms(lookups, "adaptive.stats_save"),
        "adaptive.switches_per_query": mean(r.detail["switches"] for r in udf["switching"]),
        "adaptive.replans_per_query": mean(r.detail["replans"] for r in udf["replan"]),
        "adaptive.migrations_per_query": mean(r.detail["migrations"] for r in udf["replan"]),
    })
    queries = sum(r.detail["queries"] for r in rounds)
    m.update({
        "tenancy.admission_wait_sim_p99_s": percentile(
            [w for r in rounds for w in r.detail["waits"]], 0.99
        ),
        "tenancy.peak_admission_queue": max(r.detail["peak_queue"] for r in rounds),
        "tenancy.sim_qps": mean(r.detail["sim_qps"] for r in rounds),
        "tenancy.events_per_query": sum(r.detail["events"] for r in rounds) / queries,
        "distribution.events_per_query": mean(events[r.op_id] for r in udf["scatter8"]),
        "distribution.host_ms_per_shard": mean(
            r.host_ms / shard_sites for r in udf["scatter8"]
        ),
        "trace.overhead_pct": overhead_pct,
    })
    return m


# -- checks ----------------------------------------------------------------------------------


def drift_report(records) -> List[str]:
    """First- against last-quarter median host time of every class, as found."""
    lines = []
    for section in SECTION_ORDER:
        for label, group in by_label(records[section]).items():
            quarter = len(group) // 4
            if quarter < 1:
                continue
            first = statistics.median(r.ref_ms for r in group[:quarter])
            last = statistics.median(r.ref_ms for r in group[-quarter:])
            flag = "  DRIFT" if not 0.8 <= last / first <= 1.25 else ""
            lines.append(
                f"drift {section}.{label}: first quarter {first:.3f} ms, "
                f"last quarter {last:.3f} ms, ratio {last / first:.3f} "
                f"(n={len(group)}){flag}"
            )
    return lines


def event_report(tracer, records) -> List[str]:
    """Simulator events per query and per message each way, per udf_grid class."""
    events = tracer.events_per_op()
    lines = []
    for label, group in by_label(records["udf_grid"]).items():
        per_query = mean(events[r.op_id] for r in group)
        each_way = mean(r.detail["messages"] / 2.0 for r in group)
        lines.append(
            f"events {label}: {per_query:.0f} per query, {each_way:.1f} messages each way, "
            f"{per_query / max(1.0, each_way):.1f} events per message each way"
        )
    return lines


def digest(records) -> str:
    hasher = hashlib.sha256()
    for section in SECTION_ORDER:
        for record in records[section]:
            hasher.update(repr(record.counts).encode())
    return hasher.hexdigest()


def code_fingerprint() -> str:
    """A hash of the engine's and the benchmark's Python sources."""
    hasher = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirectories, files in os.walk(base):
            subdirectories[:] = sorted(d for d in subdirectories if d not in ("__pycache__", "out"))
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def same_as_earlier_runs(key: str, run_digest: str) -> bool:
    """Record this run's digest; False if an earlier run of the same key differed.

    Runs of one workload, seed and length on the same sources must repeat
    their simulated costs exactly, traced or not, in any process.
    """
    path = os.path.join(OUT, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as handle:
            known = json.load(handle)
    earlier = known.setdefault(key, run_digest)
    with open(path + ".tmp", "w") as handle:
        json.dump(known, handle, indent=1)
    os.replace(path + ".tmp", path)
    return earlier == run_digest


# -- the run ---------------------------------------------------------------------------------


def interleave(ops_by_section):
    """Yield (section, op) so that every section's operations span the whole run.

    Host speed on a shared machine drifts over seconds; spreading each
    section over the full run averages its timings over the same slow and
    fast phases instead of giving each section a different third of them.
    The order is a pure function of the operation counts.
    """
    done = {name: 0 for name in ops_by_section}
    total = sum(len(ops) for ops in ops_by_section.values())
    for _ in range(total):
        name = min(
            (n for n, ops in ops_by_section.items() if done[n] < len(ops)),
            key=lambda n: (done[n] + 1) / len(ops_by_section[n]),
        )
        yield name, ops_by_section[name][done[name]]
        done[name] += 1


def run_ops(section, state, ops, tracer, tally) -> list:
    records = []
    for op in ops:
        op_id = tracer.begin_op()
        try:
            record = section.run(state, op, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            print(f"error {section.name}.{op.label}: {type(exc).__name__}: {exc}")
            tally["attempted"] += 1
            tally["failed"] += 1
            continue
        record.op_id = op_id
        queries = record.detail.get("queries", 1)
        tally["attempted"] += queries
        tally["failed"] += record.detail.get("failed", 0 if record.ok else 1)
        if not record.ok:
            print(f"mismatch {section.name}.{op.label}: {op.sql or op.params}")
        records.append(record)
    return records


def run(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import sections as sections_module
        from spans import NullTracer, Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import the engine from src/: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        sections = {
            "udf_grid": sections_module.UdfGrid(),
            "paged_rw": sections_module.PagedRw(work),
            "tenant_mix": sections_module.TenantMix(),
        }
        budget = args.seconds / len(sections)
        inputs = {name: s.generate(args.seed, budget) for name, s in sections.items()}
        null = NullTracer()
        tracer = Tracer() if args.trace else null
        tally = {"attempted": 0, "failed": 0}

        primary = sections[args.workload]
        primary_inputs = inputs[args.workload]

        def timed_setup(with_tracer):
            """Build the primary section; record its time at reference speed.

            Probes just before and after the build give its local host speed.
            """
            gc.collect()
            probes = [speed_probe_ms() for _ in range(PROBE_WINDOW + 1)]
            start = time.perf_counter()
            state = primary.build(primary_inputs, with_tracer)
            seconds = time.perf_counter() - start
            probes += [speed_probe_ms() for _ in range(PROBE_WINDOW + 1)]
            setup_times.append(seconds * REFERENCE_PROBE_MS / statistics.median(probes))
            return state

        def replay(state):
            """Run the section's prefix untraced on a fresh copy, then drop it."""
            primary.attach_reference(state, primary_inputs)
            records = []
            for op in primary_inputs["ops"][: primary.replay_ops]:
                probe = speed_probe_ms()
                for record in run_ops(primary, state, [op], null, tally):
                    record.ref_ms = record.host_ms * REFERENCE_PROBE_MS / probe
                    records.append(record)
            primary.close(state)
            return records

        # Copy 0 replays a prefix untraced before the run: warm-up and the
        # determinism reference.
        setup_times: List[float] = []
        replayed = replay(timed_setup(null))

        if args.trace:
            tracer.install()
        states = {}
        try:
            for name in SECTION_ORDER:
                section = sections[name]
                if section is primary:
                    states[name] = timed_setup(tracer)
                else:
                    tracer.begin_op()
                    states[name] = section.build(inputs[name], tracer)
                section.attach_reference(states[name], inputs[name])
            steps = list(interleave({n: inputs[n]["ops"] for n in SECTION_ORDER}))
            # The remaining set-up copies are spread over the run, so their
            # median sees the same host phases as the operations.  A traced
            # run reports no setup_s and skips them.
            extra = 0 if args.trace else primary.setup_repeats - 2
            extra_at = {len(steps) * (k + 1) // (extra + 1) for k in range(extra)}
            records: Dict[str, list] = {name: [] for name in SECTION_ORDER}
            probes: List[float] = []
            gc.collect()
            for index, (name, op) in enumerate(steps):
                probes.append(speed_probe_ms())
                if index in extra_at:
                    primary.close(timed_setup(null))
                for record in run_ops(sections[name], states[name], [op], tracer, tally):
                    record.step = index
                    records[name].append(record)
            stored, live = sections["paged_rw"].space(states["paged_rw"])
            paged_space = (stored, live, states["paged_rw"]["user_bytes_inserted"])
        finally:
            if args.trace:
                tracer.uninstall()
            for name, state in states.items():
                sections[name].close(state)

        for group in records.values():
            for record in group:
                record.ref_ms = record.host_ms * scale_to_reference(probes, record.step)
        main_prefix = records[args.workload][: len(replayed)]
        if args.trace:
            # The untraced baseline of trace.overhead_pct: the same prefix on
            # another fresh copy, replayed after the traced run so that both
            # sides run in a warm process.
            baseline = replay(primary.build(primary_inputs, null))
            overhead = 100.0 * (
                sum(r.ref_ms for r in main_prefix) / sum(r.ref_ms for r in baseline) - 1.0
            )
            replayed += baseline
            main_prefix += main_prefix
        deterministic = [r.counts for r in replayed] == [r.counts for r in main_prefix]
        if not deterministic:
            print(f"determinism: the replayed {args.workload} prefix differs from the main run")
        for line in drift_report(records):
            print(line)
        print(f"host speed: probe median {statistics.median(probes):.4f} ms "
              f"against the reference {REFERENCE_PROBE_MS} ms")
        run_digest = digest(records)
        print(f"sim digest {run_digest}")
        key = f"{args.workload}:{args.seed}:{args.seconds}:{code_fingerprint()[:16]}"
        if not same_as_earlier_runs(key, run_digest):
            deterministic = False
            print(f"determinism: an earlier run of {key} had another sim digest")

        if args.trace:
            metrics = per_layer(
                tracer, records, paged_space, overhead, sections_module.SHARD_SITES
            )
            for line in event_report(tracer, records):
                print(line)
            paged_ops = {r.op_id for r in records["paged_rw"]}
            refreshes = sum(
                entry["storage.stats_refresh"][2] for op, entry in tracer.per_op().items()
                if op in paged_ops and "storage.stats_refresh" in entry
            )
            print(f"storage statistics refreshes during paged_rw operations: {refreshes}")
            units = catalog.units(catalog.PER_LAYER)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json"))
        else:
            metrics = end_to_end(args.workload, setup_times, records)
            units = catalog.units(catalog.END_TO_END)
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not computed: {sorted(missing)}")
        for name in units:
            print(f"{name:<42} {metrics[name]:>16.6g} {units[name]}")
        with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
                  "w") as handle:
            json.dump({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "setup_times_s": setup_times, "digest": run_digest,
                "probe_ms": probes,
                "metrics": metrics,
                "operations": {
                    name: [(r.label, r.host_ms, r.ref_ms, r.sim_s, r.ok) for r in group]
                    for name, group in records.items()
                },
            }, handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": deterministic and tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


def benchmark_json_mismatch() -> str:
    """Where BENCHMARK.json's metric names, units or directions differ from the catalog's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    for key, metrics in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[key]}
        if listed != {m.name: (m.unit, m.better) for m in metrics}:
            return key
    if [w["name"] for w in declared["workloads"]] != list(SECTION_ORDER):
        return "workloads"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=SECTION_ORDER)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)
    if args.list:
        print(catalog.describe())
        return 0
    mismatch = benchmark_json_mismatch()
    if mismatch:
        print(f"perfbench: BENCHMARK.json and catalog.py disagree: {mismatch}", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
