"""The three sections of the benchmark: inputs, set-up, operations, references.

Each section is a fixed list of operations generated from the seed; the
count follows from the ``--seconds`` budget through a calibrated cost per
operation, never from a wall-clock deadline, so simulated results and the
statistics the engine learns are identical for identical seeds.

* ``udf_grid``: in-memory, fits in memory.  Figure-1-style selections (a
  pushable server predicate plus a client UDF predicate) over ~8k rows whose
  UDF argument repeats (~25% distinct), on the paper's asymmetric network.
  The simulator, the strategy executors and the client do the work.
* ``paged_rw``: durable storage whose heap plus indexes (~165 pages) do not
  fit in the 32-page buffer pool.  Hash point lookups, selective one-sided
  B-tree ranges and narrow two-sided ranges, each shipping its answer to the
  client, with a write statement every tenth operation (inserts, a delete,
  one flush per statement, no fsync).
* ``tenant_mix``: rounds of the canonical 18-session mix (16 interactive
  point sessions, 2 bulk client-site-join sessions) under DRR fair queueing
  and SJF admission; the tail is a queueing property of tenancy and network.

Every operation's answer is checked against a reference that shares no code
with the engine: plain Python for udf_grid, stdlib ``sqlite3`` for paged_rw,
and for tenant_mix the single-session answer, itself checked in plain Python.
"""

from __future__ import annotations

import os
import random
import shutil
import sqlite3
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.optimizer.cost import CostSettings
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.distribution import DistributedDatabase
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database
from repro.tenancy import MultiTenantEngine
from repro.workloads.multitenant import (
    BULK_SQL,
    POINT_SQL,
    bulk_session,
    make_tenant_database,
    point_sessions,
)
from repro.workloads.sharding import make_cluster

from catalog import UDF_CLASSES


@dataclass
class Op:
    """One operation of a section: what to run and the parameters its reference needs."""

    label: str
    sql: str = ""
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class OpRecord:
    """What one executed operation cost and whether its answer was right."""

    section: str
    label: str
    host_ms: float
    sim_s: float
    ok: bool
    counts: Tuple = ()
    detail: Dict[str, Any] = field(default_factory=dict)
    #: The tracer's id for this operation (0 when untraced).
    op_id: int = 0
    #: Position in the run's interleaved schedule, and the host time scaled
    #: to the reference host speed measured around that position.
    step: int = 0
    ref_ms: float = 0.0


def _multiset(rows) -> Counter:
    return Counter(tuple(row) for row in rows)


def _ops_for(budget_s: float, cost_per_op_s: float, minimum: int) -> int:
    return max(minimum, int(round(budget_s / cost_per_op_s)))


# -- udf_grid ---------------------------------------------------------------------------

UDF_ROWS = 8000
UDF_DISTINCT = 2000  # Arg values drawn from 2000 → ~25% of rows carry a new one
GRP_WINDOW = 10  # the server predicate passes 10% of the rows
SHARD_SITES = 8
SHARD_ROWS = 96
SHARD_POINTS = 48
#: Host seconds one cycle through the eight classes takes (2-core x86 VM).
UDF_CYCLE_S = 0.3

UDF_CONFIGS = {
    "naive_b64": dict(config=StrategyConfig.naive(batch_size=64)),
    "semi_join_b1": dict(config=StrategyConfig.semi_join(batch_size=1)),
    "semi_join_b64": dict(config=StrategyConfig.semi_join(batch_size=64)),
    "client_site_join_b1": dict(config=StrategyConfig.client_site_join(batch_size=1)),
    "client_site_join_b64": dict(config=StrategyConfig.client_site_join(batch_size=64)),
    "switching": dict(
        config=StrategyConfig.semi_join(batch_size=64),
        switch_strategies=True,
        adaptive=True,
    ),
    "replan": dict(reoptimize=True),
}


class AffineUdf:
    """A seeded client UDF: ``(value * a + b) % 1000``; also the reference."""

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __call__(self, value: int) -> int:
        return (value * self.a + self.b) % 1000


def series_mean(series) -> float:
    return sum(series) / len(series)


class UdfGrid:
    name = "udf_grid"
    setup_repeats = 15
    replay_ops = len(UDF_CLASSES)

    def generate(self, seed: int, budget_s: float) -> Dict[str, Any]:
        rng = random.Random(f"udf_grid:{seed}")
        rows = [
            (i, rng.randrange(100), rng.randrange(UDF_DISTINCT), f"p{rng.randrange(10**6):06d}")
            for i in range(UDF_ROWS)
        ]
        score = AffineUdf(rng.randrange(1, 1000, 2), rng.randrange(1000))
        rank = AffineUdf(rng.randrange(1, 1000, 2), rng.randrange(1000))
        sectors = ["energy", "tech", "retail", "bonds"]
        trades = [
            (
                f"T{i:04d}",
                sectors[i % len(sectors)],
                [5 + rng.randrange(40) for _ in range(SHARD_POINTS)],
                i,
            )
            for i in range(SHARD_ROWS)
        ]
        ops: List[Op] = []
        for _ in range(_ops_for(budget_s, UDF_CYCLE_S, 2)):
            for label in UDF_CLASSES:
                # Seeded windows of fixed width keep every query's work close
                # to the class's mean, so a class median measures the host,
                # not which thresholds the seed drew.
                g = rng.randrange(100 - GRP_WINDOW)
                s = rng.randint(490, 510)
                where = f"T.Grp >= {g} AND T.Grp < {g + GRP_WINDOW} AND Score(T.Arg) > {s}"
                params = {"g": g, "s": s}
                if label == "replan":
                    r = rng.randint(340, 360)
                    where += f" AND Rank(T.Arg) < {r}"
                    params["r"] = r
                sql = f"SELECT T.Id, T.Pay FROM T WHERE {where}"
                if label == "scatter8":
                    x = round(rng.uniform(24.3, 24.7), 2)
                    params = {"x": x}
                    sql = f"SELECT T.Name FROM Trades T WHERE Score(T.Series) > {x}"
                ops.append(Op(label, sql, params))
        return {"rows": rows, "score": score, "rank": rank, "trades": trades, "ops": ops}

    def build(self, inputs: Dict[str, Any], tracer):
        wrap_udf = tracer.wrap_udf
        db = Database(network=NetworkConfig.paper_asymmetric(asymmetry=100.0))
        db.create_table(
            "T",
            [("Id", INTEGER), ("Grp", INTEGER), ("Arg", INTEGER), ("Pay", STRING)],
            rows=inputs["rows"],
        )
        db.register_client_udf(
            "Score", wrap_udf(inputs["score"]), result_dtype=INTEGER,
            result_size_bytes=8, selectivity=0.5,
        )
        db.register_client_udf(
            "Rank", wrap_udf(inputs["rank"]), result_dtype=INTEGER,
            result_size_bytes=8, selectivity=0.5,
        )
        cluster = DistributedDatabase(make_cluster(SHARD_SITES, SHARD_SITES))
        cluster.create_table(
            "Trades",
            [("Name", STRING), ("Sector", STRING), ("Series", TIME_SERIES), ("Bucket", INTEGER)],
            rows=[
                [name, sector, TimeSeries(points), bucket]
                for name, sector, points, bucket in inputs["trades"]
            ],
        )
        cluster.register_client_udf(
            "Score", wrap_udf(series_mean), result_dtype=FLOAT, result_size_bytes=8
        )
        return {"db": db, "cluster": cluster}

    def attach_reference(self, state, inputs) -> None:
        state["inputs"] = inputs

    def expected(self, inputs, op: Op) -> Counter:
        p = op.params
        if op.label == "scatter8":
            return Counter(
                (name,) for name, _, points, _ in inputs["trades"]
                if series_mean(points) > p["x"]
            )
        score, rank = inputs["score"], inputs["rank"]
        return Counter(
            (i, pay)
            for i, grp, arg, pay in inputs["rows"]
            if p["g"] <= grp < p["g"] + GRP_WINDOW and score(arg) > p["s"]
            and ("r" not in p or rank(arg) < p["r"])
        )

    def run(self, state, op: Op, tracer) -> OpRecord:
        if op.label == "scatter8":
            start = time.perf_counter()
            result = state["cluster"].execute(op.sql)
            host = time.perf_counter() - start
            events = -1
        else:
            db = state["db"]
            context = db.session.new_context()
            start = time.perf_counter()
            result = db.execute(op.sql, context=context, **UDF_CONFIGS[op.label])
            host = time.perf_counter() - start
            events = context.simulator.events_processed
        m = result.metrics
        ok = _multiset(result.rows) == self.expected(state["inputs"], op)
        counts = (
            repr(m.elapsed_seconds), m.downlink_messages, m.uplink_messages,
            m.downlink_bytes, m.uplink_bytes, m.udf_invocations, m.client_cache_hits,
            events, len(result.rows), m.strategy_switches, m.replan_attempts,
            m.plan_migrations, m.input_rows,
        )
        detail = {
            "events": events,
            "input_rows": m.input_rows,
            "messages": m.downlink_messages + m.uplink_messages,
            "wire_bytes": m.downlink_bytes + m.uplink_bytes,
            "send_stall_s": m.send_stall_seconds,
            "udf_calls": m.udf_invocations,
            "cache_hits": m.client_cache_hits,
            "switches": m.strategy_switches,
            "replans": m.replan_attempts,
            "migrations": m.plan_migrations,
        }
        return OpRecord(self.name, op.label, host * 1000.0, m.elapsed_seconds, ok, counts, detail)

    def close(self, state) -> None:
        pass


# -- paged_rw ---------------------------------------------------------------------------

PAGED_ROWS = 4000
PAGED_POOL_PAGES = 32
WRITE_EVERY = 10
ROWS_PER_WRITE = 12
#: Mean host seconds per paged_rw operation over the lookup/write mix.
PAGED_OP_S = 0.02
PAGED_NETWORK = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="paged-rw")
PAGED_COST = CostSettings(block_access_seconds=0.005)
LOOKUP_KINDS = ("hash", "btree_one_sided", "btree_two_sided")


def _user_bytes(row) -> int:
    return 16 + len(row[2]) + len(row[3])


class PagedRw:
    name = "paged_rw"
    setup_repeats = 3
    replay_ops = 3 * WRITE_EVERY

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir

    def generate(self, seed: int, budget_s: float) -> Dict[str, Any]:
        rng = random.Random(f"paged_rw:{seed}")

        def new_row(i):
            return (i, round(rng.uniform(0.0, 1000.0), 3), f"c{rng.randrange(PAGED_ROWS)}",
                    f"n{rng.randrange(10**6):06d}")

        rows = [new_row(i) for i in range(PAGED_ROWS)]
        live = list(range(PAGED_ROWS))
        next_id = PAGED_ROWS
        ops: List[Op] = []
        lookups = 0
        for index in range(_ops_for(budget_s, PAGED_OP_S, 2 * WRITE_EVERY)):
            if index % WRITE_EVERY == WRITE_EVERY - 1:
                inserts = [new_row(next_id + k) for k in range(ROWS_PER_WRITE)]
                next_id += ROWS_PER_WRITE
                victims = sorted(rng.sample(live, ROWS_PER_WRITE))
                live = sorted(set(live) - set(victims)) + [row[0] for row in inserts]
                ops.append(Op("write", params={"inserts": inserts, "victims": victims}))
                continue
            kind = LOOKUP_KINDS[lookups % len(LOOKUP_KINDS)]
            lookups += 1
            if kind == "hash":
                code = f"c{rng.randrange(PAGED_ROWS)}"
                where, sqlite_where, args = f"I.Code = '{code}'", "Code = ?", (code,)
            elif kind == "btree_one_sided":
                x = round(rng.uniform(1.0, 4.0), 3)
                if lookups % 2:
                    where, sqlite_where, args = f"I.Price < {x}", "Price < ?", (x,)
                else:
                    y = round(1000.0 - x, 3)
                    where, sqlite_where, args = f"I.Price > {y}", "Price > ?", (y,)
            else:
                a = round(rng.uniform(0.0, 997.0), 3)
                b = round(a + 2.0, 3)
                where = f"I.Price > {a} AND I.Price < {b}"
                sqlite_where, args = "Price > ? AND Price < ?", (a, b)
            ops.append(Op(
                kind,
                f"SELECT I.Id, I.Name FROM Items I WHERE {where}",
                {"sqlite": f"SELECT Id, Name FROM Items WHERE {sqlite_where}", "args": args},
            ))
        return {"rows": rows, "ops": ops}

    def build(self, inputs: Dict[str, Any], tracer):
        directory = tempfile.mkdtemp(prefix="paged-", dir=self.work_dir)
        db = Database(
            network=PAGED_NETWORK, storage_dir=directory, cost_settings=PAGED_COST,
            buffer_pool_size=PAGED_POOL_PAGES,
        )
        columns = [("Id", INTEGER), ("Price", FLOAT), ("Code", STRING), ("Name", STRING)]
        with tracer.span("storage.load"):
            db.create_table("Items", columns, rows=inputs["rows"])
        db.analyze("Items")
        db.execute("CREATE INDEX items_price ON Items (Price)")
        db.execute("CREATE INDEX items_code ON Items (Code) USING HASH")
        return {"db": db, "dir": directory, "table": db.catalog.table("Items")}

    def attach_reference(self, state, inputs) -> None:
        reference = sqlite3.connect(":memory:")
        reference.execute("CREATE TABLE Items (Id INTEGER, Price REAL, Code TEXT, Name TEXT)")
        reference.executemany("INSERT INTO Items VALUES (?, ?, ?, ?)", inputs["rows"])
        state["sqlite"] = reference
        state["user_bytes_inserted"] = 0

    def run(self, state, op: Op, tracer) -> OpRecord:
        db, reference = state["db"], state["sqlite"]
        files = db.storage.files
        buffers_before = db.storage.buffer_stats()
        reads_before, writes_before = files.blocks_read, files.blocks_written
        if op.label == "write":
            inserts, victims = op.params["inserts"], set(op.params["victims"])
            table = state["table"]
            start = time.perf_counter()
            with tracer.span("storage.insert"):
                for row in inserts:
                    table.insert(row)
            with tracer.span("storage.delete"):
                deleted = table.delete(lambda row: row[0] in victims)
            db.storage.flush()
            host = time.perf_counter() - start
            reference.executemany("INSERT INTO Items VALUES (?, ?, ?, ?)", inserts)
            reference.executemany("DELETE FROM Items WHERE Id = ?", [(v,) for v in victims])
            state["user_bytes_inserted"] += sum(_user_bytes(row) for row in inserts)
            ok = deleted == len(victims)
            sim, rows, extra = 0.0, deleted, ()
        else:
            start = time.perf_counter()
            result = db.execute(op.sql, optimize=True, deliver_results=True)
            host = time.perf_counter() - start
            expected = Counter(reference.execute(op.params["sqlite"], op.params["args"]))
            ok = _multiset(result.rows) == expected
            m = result.metrics
            sim, rows = m.elapsed_seconds, len(result.rows)
            extra = (repr(m.elapsed_seconds), m.index_lookups, m.index_pages_read)
        delta = db.storage.buffer_stats().delta(buffers_before)
        detail = {
            "rows": rows,
            "buffer_hits": delta.hits,
            "buffer_misses": delta.misses,
            "evictions": delta.evictions,
            "page_reads": files.blocks_read - reads_before,
            "page_writes": files.blocks_written - writes_before,
            "index_lookups": extra[1] if extra else 0,
        }
        counts = (op.label, rows, delta.hits, delta.misses, delta.evictions,
                  detail["page_reads"], detail["page_writes"]) + extra
        return OpRecord(self.name, op.label, host * 1000.0, sim, ok, counts, detail)

    def space(self, state) -> Tuple[int, int]:
        """(bytes of heap and index files, bytes of live rows) right now."""
        directory = state["dir"]
        stored = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory)
            if name.endswith((".tbl", ".btx", ".hsx"))
        )
        live = sum(_user_bytes(row) for row in state["sqlite"].execute("SELECT * FROM Items"))
        return stored, live

    def close(self, state) -> None:
        state["db"].close()
        if "sqlite" in state:
            state["sqlite"].close()
        shutil.rmtree(state["dir"], ignore_errors=True)


# -- tenant_mix -------------------------------------------------------------------------

POINT_SESSIONS = 16
POINT_QUERIES = 3
BULK_SESSIONS = 2
BULK_QUERIES = 2
BULK_SERIES = 512
QUANTUM_BYTES = 1024
#: Host seconds one 18-session round takes.
ROUND_S = 0.55


def tenant_workloads(round_seed: int):
    workloads = point_sessions(
        POINT_SESSIONS, queries_per_session=POINT_QUERIES, seed=round_seed
    )
    for index in range(BULK_SESSIONS):
        workloads.append(
            bulk_session(tenant_id=f"bulk{index}", queries=BULK_QUERIES,
                         seed=round_seed + 9000 + index)
        )
    return workloads


class TenantMix:
    name = "tenant_mix"
    setup_repeats = 15
    replay_ops = 1

    def generate(self, seed: int, budget_s: float) -> Dict[str, Any]:
        rng = random.Random(f"tenant_mix:{seed}")
        rounds = _ops_for(budget_s, ROUND_S, 2)
        return {"ops": [Op("round", params={"seed": rng.randrange(10**6)}) for _ in range(rounds)]}

    def build(self, inputs: Dict[str, Any], tracer):
        db = make_tenant_database(bulk_series=BULK_SERIES)
        captured: List[Tuple[str, Counter]] = []
        execute = db.execute

        def capturing_execute(sql, **options):
            result = execute(sql, **options)
            captured.append((sql, _multiset(result.rows)))
            return result

        db.execute = capturing_execute
        return {"db": db, "captured": captured}

    def attach_reference(self, state, inputs) -> None:
        """Single-session answers, each checked in plain Python over the table rows."""
        reference_db = make_tenant_database(bulk_series=BULK_SERIES)
        answers = {}
        for sql, table, threshold, strategy in (
            (POINT_SQL, "Quotes", 15, ExecutionStrategy.SEMI_JOIN),
            (BULK_SQL, "History", 10, ExecutionStrategy.CLIENT_SITE_JOIN),
        ):
            single = _multiset(reference_db.execute(sql, strategy=strategy).rows)
            plain = Counter(
                (row[0],) for row in reference_db.catalog.table(table).rows
                if series_mean(list(row[1])) > threshold
            )
            if single != plain:
                raise AssertionError(f"single-session answer of {sql!r} disagrees with plain Python")
            answers[sql] = single
        state["answers"] = answers

    def run(self, state, op: Op, tracer) -> OpRecord:
        db, captured = state["db"], state["captured"]
        captured.clear()
        start = time.perf_counter()
        engine = MultiTenantEngine(
            db, fair_queueing="drr", quantum_bytes=QUANTUM_BYTES,
            executor_slots=POINT_SESSIONS, admission_policy="sjf",
        )
        report = engine.run(tenant_workloads(op.params["seed"]))
        host = time.perf_counter() - start
        answers = state["answers"]
        failed = report.error_count + sum(
            1 for sql, rows in captured if answers.get(sql) != rows
        )
        if len(captured) != report.query_count - report.error_count:
            failed += 1
        records = report.records
        interactive = [r.latency_seconds for r in records if r.tenant_id.startswith("point")]
        counts = (repr(report.makespan_seconds), engine.simulator.events_processed,
                  report.peak_admission_queue) + tuple(
            (r.session_id, r.query_index, repr(r.arrived_at), repr(r.admitted_at),
             repr(r.completed_at), r.rows_returned)
            for r in records
        )
        detail = {
            "queries": report.query_count,
            "failed": failed,
            "events": engine.simulator.events_processed,
            "sim_qps": report.throughput_queries_per_second,
            "peak_queue": report.peak_admission_queue,
            "interactive": interactive,
            "waits": [r.admission_wait_seconds for r in records],
            "latencies": [r.latency_seconds for r in records],
        }
        sim = sum(detail["latencies"]) / max(1, len(records))
        return OpRecord(self.name, "round", host * 1000.0, sim, failed == 0, counts, detail)

    def close(self, state) -> None:
        pass
