"""The benchmark command: exact counts repeat, answers are checked, and
a checkout without the program is refused."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads

ROOT = os.path.dirname(run.HERE)
COMMAND = [sys.executable, os.path.join("perfbench", "run.py")]


def _exact_counts(workload, seed, reads, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--exact-counts", str(reads)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, reads", [
    ("point_lookup", 300), ("analytic_scan", 6),
])
def test_exact_counts_repeat_for_one_seed(workload, reads):
    """Single client, no timers: paper, cache and index counts repeat
    exactly, also across interpreter hash seeds."""
    first = _exact_counts(workload, 5, reads, hash_seed=1)
    second = _exact_counts(workload, 5, reads, hash_seed=2)
    assert first["counters"]["reads"] == reads
    assert first == second


def test_reference_checker_flags_a_wrong_answer():
    from repro.workloads.airca import generate_airca

    database = generate_airca(scale=0.5, seed=31)
    checker = workloads.ReferenceChecker(database)
    sql = workloads.mixed_read_sql("q1", 3)
    right = checker.expected(sql)
    assert checker.wrong([(sql, list(right))]) == []
    assert checker.wrong([(sql, list(right) + [right[0]])]) == [sql]


def test_percentiles_use_nearest_rank_and_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.nearest(values, 50) == 50.0
    assert run.nearest(values, 90) == 90.0
    assert run.supported(100, 90) and not run.supported(100, 99)
    assert run.supported(1000, 99)


def test_local_factor_uses_the_samples_near_a_stretch():
    speed = run.Speed(kernel=None)
    speed.samples_ms = [4.5, 4.5, 9.0, 9.0, 9.0, 4.5]
    speed.times = [0.0, 0.5, 10.0, 10.5, 11.0, 20.0]
    assert speed.local_factor(10.2, 10.2) == 0.5
    assert speed.local_factor(0.2, 0.4) == 1.0
    # nothing within the window: the run's median
    assert speed.local_factor(5.0, 5.0) == run.REFERENCE_KERNEL_MS / 6.75


def test_calm_blocks_leave_out_the_most_stolen_half():
    # stolen ticks per block: 0 0 5 0 7 9 0 1
    steal = [100, 100, 100, 105, 105, 112, 121, 121, 122]
    assert run.calm_blocks(steal) == [0, 1, 3, 6]
    # nothing stolen: every block is kept
    assert run.calm_blocks([3, 3, 3, 3]) == [0, 1, 2]
    # stolen everywhere: the least stolen half is kept
    assert run.calm_blocks([0, 4, 6, 9, 19]) == [1, 2]
    assert run.calm_blocks([7]) == []


def test_stolen_ticks_reads_the_steal_column(tmp_path, monkeypatch):
    stat = tmp_path / "stat"
    stat.write_text("cpu  10 0 20 300 4 0 5 17 0 0\n"
                    "cpu0 5 0 10 150 2 0 2 9 0 0\n")
    monkeypatch.setattr(run, "PROC_STAT", str(stat))
    assert run.stolen_ticks() == 17
    monkeypatch.setattr(run, "PROC_STAT", str(tmp_path / "missing"))
    assert run.stolen_ticks() == 0


def test_environment_variables_are_dropped(monkeypatch):
    monkeypatch.setenv("REPRO_KV_TRANSPORT", "socket")
    monkeypatch.setenv("REPRO_MVCC", "0")
    dropped = run.prepare_environment()
    assert dropped == ["REPRO_KV_TRANSPORT", "REPRO_MVCC"]
    assert "REPRO_MVCC" not in os.environ


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        COMMAND + ["--workload", "point_lookup", "--seed", "1",
                   "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def airca_deployment(tmp_path_factory):
    """AIRCA on the local transport: enough for the mixed_rw loops."""
    deployment = workloads.deploy(
        "point_lookup", str(tmp_path_factory.mktemp("airca"))
    )
    yield deployment
    deployment.close()


def test_any_write_error_is_a_failed_operation(airca_deployment,
                                               monkeypatch):
    """A builtin exception on the write path (not only the program's
    own errors) counts as failed, and the writer goes on to the next
    scheduled write."""
    from repro.service.service import Session

    original = Session.apply_updates
    calls = []

    def flaky(self, *args, **kwargs):
        calls.append(1)
        if len(calls) % 2:
            raise KeyError("injected")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Session, "apply_updates", flaky)
    log = run.RunLog(speed=run.Speed(run.Kernel()))
    run.run_mixed(airca_deployment, 3, 1.0, None, log)
    assert len(calls) == 5  # one second at five writes per second
    assert len(log.failures) == 3
    assert all("KeyError" in failure for failure in log.failures)
    assert log.wrong == [] and log.missing_writes == 0
    assert log.failed == 3 and len(log.write_ms) == 2


def test_an_exception_escaping_the_writer_is_raised(airca_deployment,
                                                    monkeypatch):
    def broken_writer(database, seed):
        def next_insert(index):
            raise TypeError("injected")
        return next_insert

    monkeypatch.setattr(workloads, "make_writer", broken_writer)
    log = run.RunLog(speed=run.Speed(run.Kernel()))
    with pytest.raises(TypeError, match="injected"):
        run.run_mixed(airca_deployment, 3, 1.0, None, log)
