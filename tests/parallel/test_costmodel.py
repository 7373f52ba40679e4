from dataclasses import fields

import pytest

from repro.kv.backends import CASSANDRA, HBASE, KUDU, profile
from repro.parallel.costmodel import CostModel
from repro.parallel.metrics import ExecutionMetrics, StageCost, mean_metrics


class TestBackendProfiles:
    def test_lookup(self):
        assert profile("hbase") is HBASE
        assert profile("KUDU") is KUDU
        with pytest.raises(ValueError):
            profile("mysql")

    def test_scan_cost_ordering(self):
        """Kudu scans fastest, HBase slowest — the Table 3 ordering."""
        gets, values = 100_000, 1_000_000
        times = {
            p.name: p.get_cost_ms(gets, values)
            for p in (HBASE, KUDU, CASSANDRA)
        }
        assert times["kudu"] < times["cassandra"] < times["hbase"]

    def test_transfer_scales_with_links(self):
        assert HBASE.transfer_ms(1_000_000, links=4) == pytest.approx(
            HBASE.transfer_ms(1_000_000, links=1) / 4
        )

    def test_zero_bytes_free(self):
        assert HBASE.transfer_ms(0) == 0.0


class TestCostModel:
    def model(self, workers=8, nodes=4):
        return CostModel(KUDU, workers, nodes)

    def test_fetch_stage_counts(self):
        stage = self.model().fetch_stage("scan", 100, 1000, 50_000)
        assert stage.gets == 100
        assert stage.values == 1000
        assert stage.comm_bytes == 50_000
        assert stage.time_ms > 0

    def test_fetch_with_repartition_adds_comm(self):
        without = self.model().fetch_stage("x", 10, 10, 1000)
        with_rep = self.model().fetch_stage(
            "x", 10, 10, 1000, repartition_bytes=5000
        )
        assert with_rep.comm_bytes == without.comm_bytes + 5000
        assert with_rep.time_ms > without.time_ms

    def test_parallel_scalability_of_shuffle(self):
        """More workers -> shorter shuffle (Theorem 8's speedup)."""
        few = CostModel(KUDU, 2, 4).shuffle_stage("j", 10_000_000, 1_000_000)
        many = CostModel(KUDU, 8, 4).shuffle_stage("j", 10_000_000, 1_000_000)
        assert many.time_ms < few.time_ms

    def test_storage_scalability_of_fetch(self):
        """More storage nodes -> faster scans (horizontal scalability)."""
        few = CostModel(KUDU, 8, 2).fetch_stage("s", 100_000, 100_000, 10**7)
        many = CostModel(KUDU, 8, 8).fetch_stage("s", 100_000, 100_000, 10**7)
        assert many.time_ms < few.time_ms

    def test_write_stage(self):
        stage = self.model().write_stage("w", 100, 1000, 10_000)
        assert stage.time_ms > 0
        assert stage.comm_bytes == 10_000


class TestMetrics:
    def test_add_stage_accumulates(self):
        metrics = ExecutionMetrics()
        metrics.add_stage(StageCost("a", time_ms=5, comm_bytes=10, gets=1,
                                    values=2))
        metrics.add_stage(StageCost("b", time_ms=7, comm_bytes=20, gets=3,
                                    values=4))
        assert metrics.sim_time_ms == 12
        assert metrics.comm_bytes == 30
        assert metrics.n_get == 4
        assert metrics.data_values == 6
        assert len(metrics.stages) == 2

    def test_sim_time_s(self):
        metrics = ExecutionMetrics(sim_time_ms=1500.0)
        assert metrics.sim_time_s == 1.5

    def test_summary_and_breakdown(self):
        metrics = ExecutionMetrics()
        metrics.add_stage(StageCost("scan", time_ms=3))
        assert "scan" in metrics.breakdown()
        assert "time=" in metrics.summary()

    def test_mean_metrics(self):
        a = ExecutionMetrics(sim_time_ms=10, n_get=4, comm_bytes=100)
        b = ExecutionMetrics(sim_time_ms=20, n_get=8, comm_bytes=300)
        mean = mean_metrics([a, b])
        assert mean.sim_time_ms == 15
        assert mean.n_get == 6
        assert mean.comm_bytes == 200

    def test_mean_of_empty(self):
        assert mean_metrics([]).sim_time_ms == 0


#: ExecutionMetrics fields that are not summed counters
NON_COUNTERS = {"snapshot_epoch", "stages", "workers", "storage_nodes",
                "backend"}
#: StageCost counters whose ExecutionMetrics total has another name
STAGE_RENAMES = {"time_ms": "sim_time_ms", "gets": "n_get",
                 "values": "data_values", "round_trips": "n_round_trips"}


class TestMetricFields:
    """Every counter field is summed and averaged, found by walking the
    dataclass fields so a newly added counter is covered automatically."""

    counters = [f for f in fields(ExecutionMetrics)
                if f.name not in NON_COUNTERS]

    def test_add_stage_sums_every_stage_counter(self):
        stage = StageCost("s")
        stage_counters = [f.name for f in fields(StageCost)
                          if f.name not in ("name", "skew")]
        for i, name in enumerate(stage_counters, start=1):
            setattr(stage, name, i)
        metrics = ExecutionMetrics()
        metrics.add_stage(stage)
        metrics.add_stage(stage)
        for i, name in enumerate(stage_counters, start=1):
            assert getattr(metrics, STAGE_RENAMES.get(name, name)) == 2 * i

    def test_merge_sums_every_counter(self):
        a, b = ExecutionMetrics(snapshot_epoch=3), ExecutionMetrics()
        for i, f in enumerate(self.counters, start=1):
            setattr(a, f.name, i)
            setattr(b, f.name, 10 * i)
        a.merge(b)
        for i, f in enumerate(self.counters, start=1):
            assert getattr(a, f.name) == 11 * i, f.name
        assert a.snapshot_epoch == 3

    def test_mean_averages_every_counter(self):
        a, b = ExecutionMetrics(), ExecutionMetrics()
        for i, f in enumerate(self.counters, start=1):
            setattr(a, f.name, 2 * i)
            setattr(b, f.name, 2 * i + 1)
        mean = mean_metrics([a, b])
        for i, f in enumerate(self.counters, start=1):
            value = getattr(mean, f.name)
            if isinstance(f.default, float):
                assert value == 2 * i + 0.5, f.name
            else:
                assert value == 2 * i and isinstance(value, int), f.name
