"""Every metric the benchmark reports: name, unit, and what it should move.

This table is the single source for metric names.  ``run.py --list`` prints
it, the runner checks each result against it, and later changes cite these
names for every performance claim.

End-to-end metrics are measured with tracing off.  Their host times are
scaled to the reference host speed (``run.py``'s speed probe), which takes
out most of a shared machine's speed swings.  Per-layer metrics come from a
separate run with ``--trace 1`` and are raw host time; each names the
end-to-end metric and the section it should move, so a change to one layer
can be checked against the numbers it claims to improve.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

#: The udf_grid query classes, in the order the client cycles through them.
UDF_CLASSES = (
    "naive_b64",
    "semi_join_b1",
    "semi_join_b64",
    "client_site_join_b1",
    "client_site_join_b64",
    "switching",
    "replan",
    "scatter8",
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    meaning: str
    moves: str = ""


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower",
           "median host seconds, at reference speed, to build the workload's own "
           "section before its first timed operation"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the run"),
    Metric("sim_s_per_query", "s", "lower",
           "mean simulated seconds per query of the workload's own section; "
           "identical for identical seeds"),
]
END_TO_END += [
    Metric(f"{name}_ms", "ms", "lower",
           f"median host ms per {name} query at reference speed (udf_grid section)")
    for name in UDF_CLASSES
]
END_TO_END += [
    Metric("lookup_ms_p50", "ms", "lower",
           "median host ms per indexed-column lookup at reference speed (paged_rw section)"),
    Metric("lookup_ms_p90", "ms", "lower",
           "p90 host ms per indexed-column lookup at reference speed (paged_rw section)"),
    Metric("write_ms_p50", "ms", "lower",
           "median host ms per write statement (inserts, a delete and a flush) at "
           "reference speed (paged_rw section)"),
    Metric("tenant_round_ms", "ms", "lower",
           "median host ms per 18-session MultiTenantEngine.run round at reference "
           "speed (tenant_mix section)"),
    Metric("interactive_sim_p99_s", "s", "lower",
           "p99 simulated latency of interactive queries pooled over all rounds "
           "(tenant_mix section)"),
]

PER_LAYER: List[Metric] = [
    Metric("sql.parse_bind_ms", "ms", "lower",
           "host ms in Binder.bind_sql per paged_rw lookup",
           "lookup_ms_p50 on paged_rw; little on udf_grid"),
    Metric("optimizer.optimize_ms", "ms", "lower",
           "host ms in Optimizer.optimize per paged_rw lookup",
           "lookup_ms_p50 on paged_rw; replan_ms on udf_grid"),
    Metric("optimizer.card_qerror_p50", "ratio", "lower",
           "median q-error of decision.plan.cardinality against rows returned "
           "(paged_rw lookups)",
           "lookup_ms_p90 on paged_rw"),
    Metric("optimizer.card_qerror_p90", "ratio", "lower",
           "p90 q-error of decision.plan.cardinality against rows returned "
           "(paged_rw lookups)",
           "lookup_ms_p90 on paged_rw"),
    Metric("optimizer.index_path_ratio", "ratio", "higher",
           "share of selective paged_rw lookups served by an index",
           "lookup_ms_p50 and lookup_ms_p90 on paged_rw"),
    Metric("planner.build_ms", "ms", "lower",
           "host ms in build_plan per udf_grid query",
           "every udf_grid class metric"),
]
PER_LAYER += [
    Metric(f"executor.run_ms.{name}", "ms", "lower",
           f"host ms in Executor.execute_plan per {name} query",
           f"{name}_ms on udf_grid")
    for name in UDF_CLASSES
]
PER_LAYER += [
    Metric("engine.self_ms", "ms", "lower",
           "host ms in Database.execute minus its traced children, per "
           "udf_grid query",
           "every udf_grid class metric"),
]
PER_LAYER += [
    Metric(f"network.events_per_row.{name}", "events/row", "lower",
           f"simulator events per input row of a {name} query",
           "semi_join_b64_ms on udf_grid; naive_b64_ms unchanged")
    for name in UDF_CLASSES
]
PER_LAYER += [
    Metric(f"network.host_us_per_event.{name}", "us", "lower",
           f"host us in Simulator.run per simulator event of a {name} query",
           "the _b1_ms classes on udf_grid")
    for name in UDF_CLASSES
]
PER_LAYER += [
    Metric("network.messages_per_query", "count", "lower",
           "messages both ways per udf_grid query",
           "sim_s_per_query on udf_grid and tenant_mix"),
    Metric("network.wire_bytes_per_query", "B", "lower",
           "bytes both ways per udf_grid query",
           "sim_s_per_query on udf_grid and tenant_mix"),
    Metric("network.send_stall_s", "s", "lower",
           "simulated seconds senders waited for a window slot, per udf_grid "
           "query",
           "sim_s_per_query on udf_grid and tenant_mix"),
    Metric("client.udf_calls_per_query", "count", "lower",
           "client UDF invocations per udf_grid query",
           "client_site_join_*_ms and sim_s_per_query on udf_grid"),
    Metric("client.cache_hit_ratio", "ratio", "higher",
           "client result-cache hits over UDF calls requested (udf_grid)",
           "client_site_join_*_ms and sim_s_per_query on udf_grid"),
    Metric("client.udf_ms", "ms", "lower",
           "host ms in the benchmark's own UDF callables per udf_grid query",
           "client_site_join_*_ms and sim_s_per_query on udf_grid"),
    Metric("storage.load_s", "s", "lower",
           "host seconds in create_table with its rows (paged_rw set-up)",
           "setup_s on paged_rw"),
    Metric("storage.btree_build_s", "s", "lower",
           "host seconds in StorageEngine.create_index for the B-tree",
           "setup_s on paged_rw"),
    Metric("storage.hash_build_s", "s", "lower",
           "host seconds in StorageEngine.create_index for the hash index",
           "setup_s on paged_rw"),
    Metric("storage.buffer_hit_ratio", "ratio", "higher",
           "buffer-pool hits over page requests (paged_rw operations)",
           "lookup_ms_* on paged_rw"),
    Metric("storage.evictions_per_op", "count", "lower",
           "buffer-pool evictions per paged_rw operation",
           "lookup_ms_* on paged_rw"),
    Metric("storage.pages_per_lookup", "count", "lower",
           "buffer-pool page requests per paged_rw lookup",
           "lookup_ms_* on paged_rw"),
    Metric("storage.index_probe_ms", "ms", "lower",
           "host ms in B-tree and hash index searches per paged_rw lookup",
           "lookup_ms_* on paged_rw"),
    Metric("storage.page_reads_per_op", "count", "lower",
           "blocks read from files per paged_rw operation",
           "lookup_ms_* on paged_rw"),
    Metric("storage.page_writes_per_op", "count", "lower",
           "blocks written to files per paged_rw operation",
           "write_ms_p50 on paged_rw"),
    Metric("storage.bytes_written_per_user_byte", "ratio", "lower",
           "page bytes written over bytes of rows inserted (paged_rw)",
           "write_ms_p50 on paged_rw"),
    Metric("storage.space_per_live_byte", "ratio", "lower",
           "bytes of heap and index files over bytes of live rows at the end "
           "(paged_rw)",
           "write_ms_p50 on paged_rw"),
    Metric("storage.flush_ms", "ms", "lower",
           "host ms in StorageEngine.flush per write statement",
           "write_ms_p50 on paged_rw"),
    Metric("storage.insert_ms", "ms", "lower",
           "host ms in Table.insert per write statement",
           "write_ms_p50 on paged_rw"),
    Metric("storage.delete_ms", "ms", "lower",
           "host ms in Table.delete per write statement",
           "write_ms_p50 on paged_rw"),
    Metric("adaptive.observe_ms", "ms", "lower",
           "host ms in RuntimeObserver.observe per paged_rw lookup",
           "lookup_ms_p50 on paged_rw"),
    Metric("adaptive.stats_save_ms", "ms", "lower",
           "host ms in StatisticsStore.save per paged_rw lookup",
           "lookup_ms_p50 on paged_rw"),
    Metric("adaptive.switches_per_query", "count", "lower",
           "strategy switches per switching query",
           "switching_ms and sim_s_per_query on udf_grid"),
    Metric("adaptive.replans_per_query", "count", "lower",
           "re-optimization attempts per replan query",
           "replan_ms and sim_s_per_query on udf_grid"),
    Metric("adaptive.migrations_per_query", "count", "lower",
           "plan migrations per replan query",
           "replan_ms and sim_s_per_query on udf_grid"),
    Metric("tenancy.admission_wait_sim_p99_s", "s", "lower",
           "p99 simulated admission wait over all tenant_mix queries",
           "interactive_sim_p99_s and tenant_round_ms on tenant_mix"),
    Metric("tenancy.peak_admission_queue", "count", "lower",
           "deepest admission queue over all rounds",
           "interactive_sim_p99_s and tenant_round_ms on tenant_mix"),
    Metric("tenancy.sim_qps", "1/s", "higher",
           "completed queries per simulated second, mean over rounds",
           "interactive_sim_p99_s and tenant_round_ms on tenant_mix"),
    Metric("tenancy.events_per_query", "count", "lower",
           "simulator events per tenant_mix query",
           "interactive_sim_p99_s and tenant_round_ms on tenant_mix"),
    Metric("distribution.events_per_query", "count", "lower",
           "simulator events per scatter8 query",
           "scatter8_ms on udf_grid"),
    Metric("distribution.host_ms_per_shard", "ms", "lower",
           "host ms per shard task of a scatter8 query",
           "scatter8_ms on udf_grid"),
    Metric("trace.overhead_pct", "%", "lower",
           "traced over untraced host time of the workload's replayed prefix, "
           "minus 100",
           "nothing: the cost of the traced run itself"),
]


def units(metrics: List[Metric]) -> Dict[str, str]:
    return {metric.name: metric.unit for metric in metrics}


def describe() -> str:
    """Every metric by name with its unit, meaning and (per layer) what it moves."""
    lines = ["End-to-end metrics (--trace 0):"]
    for metric in END_TO_END:
        lines.append(f"  {metric.name:<34} {metric.unit:<10} {metric.meaning}")
    lines.append("")
    lines.append("Per-layer metrics (--trace 1):  name  unit  meaning  -> moves")
    for metric in PER_LAYER:
        lines.append(f"  {metric.name:<40} {metric.unit:<10} {metric.meaning}")
        lines.append(f"  {'':<40} {'':<10} -> {metric.moves}")
    return "\n".join(lines)
