"""The benchmark's workloads: data, pinned configuration, request streams.

Each workload is deployed through the program's public surface — a
:class:`~repro.systems.ZidianSystem` behind a
:class:`~repro.service.QueryService` — with every knob the run depends
on passed explicitly. ``README.md`` in this directory records why each
workload was chosen and what it measured.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.kv import codec
from repro.relational.compare import rows_bag_equal
from repro.service import QueryService
from repro.sql import execute as reference_execute
from repro.sql import plan_sql
from repro.systems import ZidianSystem
from repro.workloads import mot_generator
from repro.workloads.airca import TEMPLATES as AIRCA_TEMPLATES
from repro.workloads.airca import airca_baav_schema, generate_airca
from repro.workloads.mot import (
    NON_SCAN_FREE_TEMPLATES,
    generate_mot,
    mot_baav_schema,
)
from repro.workloads.traffic import (
    airca_delay_writer,
    airca_traffic_mix,
    zipf_sampler,
)

NAMES = ("point_lookup", "analytic_scan", "mixed_rw")

#: client-side block cache of every workload: the AIRCA hot set fits
#: it, the MOT BaaV store is about three times larger
CACHE_BYTES = 512 * 1024
ZIPF_ALPHA = 1.2
#: open-loop insert rate of the mixed_rw writer
WRITES_PER_S = 5.0

#: the configuration each workload pins; data seeds are fixed so the
#: data is the same on every run, and ``--seed`` drives the requests
CONFIGS: Dict[str, dict] = {
    "point_lookup": {
        "dataset": "airca", "scale": 6, "data_seed": 31,
        "transport": "local", "durability": "off", "fsync_policy": "group",
        "cache_capacity_bytes": CACHE_BYTES,
        "indexes": ["FLIGHT.tail_id", "FLIGHT.arr_delay:ordered"],
        "mvcc": True, "storage_nodes": 4,
    },
    "analytic_scan": {
        "dataset": "mot", "scale": 8, "data_seed": 29,
        "transport": "local", "durability": "off", "fsync_policy": "group",
        "cache_capacity_bytes": CACHE_BYTES,
        "indexes": [],
        "mvcc": True, "storage_nodes": 4,
    },
    # scale 2, not 6: a WAL-backed socket load of scale 6 takes ~24 s
    # and set-up runs three times per benchmark run. fsync_policy
    # "never": every WAL record is still written and flushed to the OS,
    # but no fsync waits on the host's disk, whose latency on a shared
    # machine stalled the node's reads by up to a third (see README.md)
    "mixed_rw": {
        "dataset": "airca", "scale": 2, "data_seed": 31,
        "transport": "socket", "durability": "wal", "fsync_policy": "never",
        "cache_capacity_bytes": CACHE_BYTES,
        "indexes": ["FLIGHT.tail_id", "FLIGHT.arr_delay:ordered"],
        "mvcc": True, "storage_nodes": 4,
        "writes_per_s": WRITES_PER_S,
    },
}


@dataclass
class Deployment:
    """One loaded system behind a query service."""

    workload: str
    system: ZidianSystem
    service: QueryService
    data_dir: Optional[str]
    setup_s: float

    @property
    def database(self):
        return self.system.database

    def close(self) -> None:
        try:
            self.service.close(timeout=30)
            self.system.close()
        finally:
            if self.data_dir is not None:
                shutil.rmtree(self.data_dir, ignore_errors=True)


def _generate(config: dict):
    if config["dataset"] == "airca":
        return (
            generate_airca(scale=config["scale"], seed=config["data_seed"]),
            airca_baav_schema(),
        )
    return (
        generate_mot(scale=config["scale"], seed=config["data_seed"]),
        mot_baav_schema(),
    )


def user_bytes(database) -> int:
    """Bytes of every user row in the KV codec's row encoding."""
    return sum(
        len(codec.encode_row(row))
        for relation in database
        for row in relation.rows
    )


def deploy(workload: str, work_dir: str) -> Deployment:
    """Generate the data, start the cluster, load it; timed as set-up."""
    config = CONFIGS[workload]
    data_dir = None
    if config["durability"] == "wal":
        data_dir = os.path.join(
            work_dir, f"wal-{os.getpid()}-{time.monotonic_ns()}"
        )
    start = time.perf_counter()
    database, baav_schema = _generate(config)
    system = ZidianSystem(
        "hbase",
        storage_nodes=config["storage_nodes"],
        cache_capacity_bytes=config["cache_capacity_bytes"],
        transport=config["transport"],
        durability=config["durability"],
        data_dir=data_dir,
        fsync_policy=config["fsync_policy"],
        indexes=config["indexes"],
    )
    try:
        system.load(database, baav_schema)
        service = QueryService(system, max_workers=2, mvcc=config["mvcc"])
    except BaseException:
        system.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
        raise
    setup_s = time.perf_counter() - start
    return Deployment(workload, system, service, data_dir, setup_s)


# --------------------------------------------------------------------------
# read streams
# --------------------------------------------------------------------------


def point_lookup_reads(database, seed: int) -> Iterator[Tuple[str, str]]:
    """Zipf-skewed keyed FLIGHT reads, tail_id probes, arr_delay ranges.

    The repository's AIRCA traffic mix with its scan class removed.
    """
    mix = airca_traffic_mix(database, scan=0.0, rng_alpha=ZIPF_ALPHA)
    weights = [c.weight for c in mix]
    rng = random.Random(seed)
    while True:
        klass = rng.choices(mix, weights=weights, k=1)[0]
        yield klass.name, klass.make_sql(rng)


def analytic_queries(database, seed: int) -> List[Tuple[str, str]]:
    """The non-scan-free MOT templates q7–q12, one instance each."""
    generated = mot_generator(seed).generate(
        database, per_template=1, templates=NON_SCAN_FREE_TEMPLATES
    )
    return [(q.template, q.sql) for q in generated]


def analytic_scan_reads(database, seed: int) -> Iterator[Tuple[str, str]]:
    """q7–q12 cycled in a fixed order."""
    queries = analytic_queries(database, seed)
    while True:
        yield from queries


def mixed_read_sql(template: str, flight_id: int) -> str:
    return AIRCA_TEMPLATES[template].format(fid=flight_id).strip()


def mixed_rw_reads(
    database, seed: int
) -> Iterator[Tuple[str, str, int]]:
    """Scan-free FLIGHT ⋈ DELAY reads (AIRCA q1/q5) on Zipf flights."""
    flight_rank = zipf_sampler(
        len(database.relation("FLIGHT").rows), ZIPF_ALPHA
    )
    rng = random.Random(seed)
    while True:
        flight_id = flight_rank(rng) + 1
        template = "q1" if rng.random() < 0.5 else "q5"
        yield template, mixed_read_sql(template, flight_id), flight_id


READ_STREAMS: Dict[str, Callable] = {
    "point_lookup": point_lookup_reads,
    "analytic_scan": analytic_scan_reads,
}


# --------------------------------------------------------------------------
# answer checks
# --------------------------------------------------------------------------


@dataclass
class ReferenceChecker:
    """Checks answers against the reference engine, once per distinct SQL.

    The reference is ``repro.sql.plan_sql`` + ``repro.sql.execute`` over
    the loaded relational database; bags are compared with
    ``rows_bag_equal``. Runs outside the timed region.
    """

    database: object
    _expected: Dict[str, List[tuple]] = field(default_factory=dict)

    def expected(self, sql: str) -> List[tuple]:
        rows = self._expected.get(sql)
        if rows is None:
            plan, _ = plan_sql(sql, self.database.schema)
            rows = reference_execute(plan, self.database).rows
            self._expected[sql] = rows
        return rows

    def wrong(self, answers: List[Tuple[str, List[tuple]]]) -> List[str]:
        """SQL of every answer that differs from the reference."""
        return [
            sql for sql, rows in answers
            if not rows_bag_equal(rows, self.expected(sql))
        ]


def delay_counts(database) -> Counter:
    """DELAY rows per flight id."""
    return Counter(row[1] for row in database.relation("DELAY").rows)


def rows_seen(template: str, rows: List[tuple]) -> int:
    """DELAY rows a q1/q5 answer reflects for its flight."""
    if template == "q1":
        return len(rows)
    return sum(row[1] for row in rows)  # q5: (cause, n, total_minutes)


@dataclass
class WriteLedger:
    """What the mixed_rw writer submitted and had acknowledged.

    ``acked`` counts inserts per flight whose ``apply_updates`` returned;
    ``submitted`` counts those handed to it. A read that starts after
    an acknowledgement must see that insert; a read cannot see an
    insert that was not yet submitted when it ended.
    """

    acked: Counter = field(default_factory=Counter)
    submitted: Counter = field(default_factory=Counter)
    acked_ids: List[Tuple[int, int]] = field(default_factory=list)


def make_writer(database, seed: int):
    """The DELAY insert stream of mixed_rw: ``index -> (flight, row)``."""
    stream, _ = airca_delay_writer(database, rng_alpha=ZIPF_ALPHA)
    rng = random.Random(seed ^ 0x5EED)

    def next_insert(index: int) -> Tuple[int, tuple]:
        _, inserts, _ = stream.make_update(rng, index)
        row = inserts[0]
        return row[1], row

    return next_insert


def verify_inserts(
    deployment: Deployment, ledger: WriteLedger, base: Counter
) -> List[str]:
    """After the run: every acknowledged insert is visible exactly once.

    Checked through SQL (by delay id and per flight) and through the
    relational store the system keeps.
    """
    problems: List[str] = []
    session = deployment.service.open_session("verify")
    try:
        for delay_id, flight_id in ledger.acked_ids:
            rows = session.execute(
                "select D.delay_id, D.flight_id from DELAY D "
                f"where D.delay_id = {delay_id}"
            ).rows
            if rows != [(delay_id, flight_id)]:
                problems.append(f"delay {delay_id}: SQL returned {rows}")
        for flight_id, count in sorted(ledger.acked.items()):
            rows = session.execute(mixed_read_sql("q1", flight_id)).rows
            if len(rows) != base[flight_id] + count:
                problems.append(
                    f"flight {flight_id}: {len(rows)} DELAY rows, expected "
                    f"{base[flight_id] + count}"
                )
    finally:
        session.close()
    stored = Counter(row[0] for row in deployment.database.relation("DELAY").rows)
    for delay_id, _ in ledger.acked_ids:
        if stored[delay_id] != 1:
            problems.append(
                f"delay {delay_id}: {stored[delay_id]} copies in the "
                "relational store"
            )
    return problems
