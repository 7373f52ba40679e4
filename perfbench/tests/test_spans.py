"""The traced run's self-check: layer self times add up, nothing is
counted twice, and every wrapper sits on the name its caller uses."""

import time

import pytest

import run
import spans
import workloads


def _span(span_id, parent, name, op, start, end):
    return (span_id, parent, name, op, start, end)


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span(1, 0, "op.read", 1, 0, 100),
        _span(2, 1, "core.plan", 1, 10, 60),
        _span(3, 2, "codec.decode", 1, 20, 30),
        _span(4, 1, "parallel.engine", 1, 60, 90),
    ]
    times = spans.layer_times(trace)
    assert times.self_ns[("read", "op.read")] == 100 - 50 - 30
    assert times.self_ns[("read", "core.plan")] == 50 - 10
    assert times.self_ns[("read", "codec.decode")] == 10
    assert times.total_self_ns() == times.wall_ns["read"] == 100
    assert spans.check_nesting(trace) == []


def test_nesting_check_reports_double_counting():
    overlapping = [
        _span(1, 0, "op.read", 1, 0, 100),
        _span(2, 1, "a", 1, 10, 50),
        _span(3, 1, "b", 1, 40, 60),
        _span(4, 1, "c", 1, 90, 120),
    ]
    problems = spans.check_nesting(overlapping)
    assert any("overlap" in p for p in problems)
    assert any("leaves parent" in p for p in problems)


def test_wrappers_nest_and_time_generators_per_item():
    tracer = spans.Tracer()

    def inner(x):
        time.sleep(0.001)
        return x

    def items(n):
        for i in range(n):
            yield wrapped_inner(i)

    wrapped_inner = tracer._wrap_call("inner", inner)
    wrapped_items = tracer._wrap_gen("items", items)
    assert list(wrapped_items(3)) == [0, 1, 2]  # outside an op: no spans
    assert tracer.spans == []
    with tracer.op("op.read", 7):
        consumed = []
        for item in wrapped_items(3):
            consumed.append(item)
            time.sleep(0.002)  # the consumer's time is not the generator's
    names = [s[2] for s in tracer.spans]
    assert names.count("inner") == 3
    assert names.count("items") == 4  # three items and the final stop
    assert spans.check_nesting(tracer.spans) == []
    times = spans.layer_times(tracer.spans)
    assert times.total_self_ns() == times.wall_ns["read"]
    assert times.self_ns[("read", "op.read")] >= 6_000_000


def test_install_replaces_and_restores_the_looked_up_names():
    import repro.parallel.engine as engine
    import repro.systems.sql_over_nosql as facade
    from repro.kba import executor
    from repro.sql import parser

    tracer = spans.Tracer()
    tracer.install()
    try:
        assert facade.parse is not parser.parse
        assert engine.execute_node is not executor.execute_node
    finally:
        tracer.uninstall()
    assert facade.parse is parser.parse
    assert engine.execute_node is executor.execute_node


#: span names each workload must record; a wrapper on a name its caller
#: does not look up records nothing and fails here
EXPECTED = {
    "point_lookup": {
        "sql.parse", "sql.bind", "core.plan", "parallel.engine",
        "kba.operator", "baav.fetch", "cache.lookup", "codec.decode",
        "index.probe", "taav.fetch", "parallel.meter",
    },
    "analytic_scan": {
        "sql.parse", "sql.bind", "core.plan", "parallel.engine",
        "kba.operator", "baav.fetch", "cache.lookup", "codec.decode",
        "cluster.multi_get", "cluster.charge", "parallel.meter",
    },
    "mixed_rw": {
        "sql.parse", "core.plan", "baav.fetch", "rpc", "mvcc.commit",
        "maint.apply", "cluster.write",
    },
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_run_self_times_sum_to_traced_wall_time(workload, tmp_path):
    tracer = spans.Tracer()
    log = run.RunLog(speed=run.Speed(run.Kernel()))
    deployment = workloads.deploy(workload, str(tmp_path))
    try:
        if workload == "mixed_rw":
            run.run_mixed(deployment, 3, 1.0, tracer, log)
        else:
            run.run_reads(workload, deployment, 3, 1.0, tracer, log)
    finally:
        deployment.close()
    assert not tracer.installed
    assert log.failures == [] and log.wrong == [], log.failures + log.wrong
    assert log.overhead_ms, "no traced/untraced pair ran"

    assert spans.check_nesting(tracer.spans) == []
    times = spans.layer_times(tracer.spans)
    # every nanosecond of a traced op is some layer's self time, once
    assert times.total_self_ns() == sum(times.wall_ns.values())
    assert all(ns >= 0 for ns in times.self_ns.values())
    # traced ops are a subset of the reads timed from outside
    traced_read_ms = times.wall_ns["read"] / 1e6
    assert traced_read_ms <= sum(log.read_ms)
    recorded = {name for _, name in times.self_ns}
    assert EXPECTED[workload] <= recorded, EXPECTED[workload] - recorded
    if workload == "mixed_rw":
        assert times.ops.get("write", 0) >= 1, dict(times.ops)
