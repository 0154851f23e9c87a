"""Smoke tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run

_error = run.use_sources()
if _error:
    raise RuntimeError(_error)

import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = (16, 32)


def namespace_snapshot():
    """Identity of every attribute of the ``dsrigidity`` modules and classes."""
    snap = {}
    for mod in spans._package_modules():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = id(obj)
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for key, raw in vars(obj).items():
                    snap[(mod.__name__, f"{attr}.{key}")] = id(raw)
    return snap


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    before = namespace_snapshot()
    record = run.run_workload(workload, seed=1, seconds=0.1, trace=trace, size=TINY,
                              setup_repeats=1)
    assert namespace_snapshot() == before, "a wrapped attribute was not restored"
    expected = {m["name"]: m["unit"] for m in run.reported_metrics(trace)}
    assert {name: m["unit"] for name, m in record["metrics"].items()} == expected
    for metric in record["metrics"].values():
        assert math.isfinite(metric["value"])
    assert record["attempted"] == len(record["verdict_cpu_wall_reference_s"]) >= 1
    assert record["failed"] == len(record["failures"])
    if trace:
        assert record["metrics"]["failed_frac"]["value"] == record["failed"] / record["attempted"]
    assert record["env"]["numba_importable"] in (True, False)
    assert record["env"]["nodes_per_verdict"] > 0


def test_traced_pair_run_sees_the_layers():
    record = run.run_workload("pair_analytic", seed=2, seconds=0.1, trace=1, size=TINY)
    assert record["failed"] == 0, record["failures"]
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    assert metrics["kernels.nodes"] == 2 * TINY[0] * TINY[1]
    assert metrics["geometry.evaluate_fields.calls"] == 2
    assert metrics["geometry.eval_useful"] == 1.0
    assert metrics["jets.ops"] > 0
    assert metrics["transport.node_data.calls"] == 1


def test_inputs_depend_only_on_seed_and_index():
    first = inputs.make_input("pair_analytic", 3, 5, TINY)
    assert inputs.make_input("pair_analytic", 3, 5, TINY) == first
    assert inputs.make_input("pair_analytic", 4, 5, TINY) != first
    assert inputs.make_input("pair_analytic", 3, 6, TINY) != first


def test_wrong_exit_code_is_a_failure(tmp_path):
    case = inputs.write_input("sampled_grid", 1, 0, TINY, tmp_path)[0]
    result = workloads.Result(rc=1, stdout=b"", stderr="")
    reason, _ = workloads.grade(case, result)
    assert reason.startswith("exit 1, expected 0")
    reason, _ = workloads.grade(case, workloads.Result(None, b"", "", "RuntimeError: boom"))
    assert reason == "uncaught RuntimeError: boom"


def test_reruns_must_match_byte_for_byte():
    first = workloads.Result(0, b"record x residual=1e-12", "")
    assert workloads.same_output(first, workloads.Result(0, b"record x residual=1e-12", ""))
    assert not workloads.same_output(first, workloads.Result(0, b"record x residual=2e-12", ""))
    assert not workloads.same_output(first, workloads.Result(1, b"record x residual=1e-12", ""))


def test_recorder_restores_every_attribute():
    before = namespace_snapshot()
    recorder = spans.Recorder()
    with pytest.raises(ZeroDivisionError):
        with recorder.recording("verdict"):
            assert namespace_snapshot() != before
            raise ZeroDivisionError
    assert namespace_snapshot() == before
    assert [s[0] for s in recorder.spans] == ["verdict"]


def test_a_verdict_counts_once_however_many_checks_fail(tmp_path):
    case = inputs.write_input("pair_analytic", 1, 0, TINY, tmp_path)[0]
    tally = run.Tally()
    tally.add(case, ["exit 1, expected 0", "re-run is not byte-identical"])
    tally.add(case, [None, None], headroom=2.0)
    assert tally.attempted == 2
    assert [f["reason"] for f in tally.failures] == [
        "exit 1, expected 0; re-run is not byte-identical"
    ]


def test_pace_times_a_call_and_the_reference_beside_it():
    calls = []

    def reference_seconds(call_wall):
        calls.append(call_wall)
        return 0.5 if len(calls) == 1 else 0.25

    pace = run.Pace(reference_seconds)
    result, cpu, wall, ref = pace.timed(time.sleep, 0.2)
    assert result is None
    assert wall >= 0.2 > cpu
    assert ref == 0.375
    assert calls[0] == 0.0 and calls[1] == wall
    assert 0.0 < run.loop_seconds(0.0) < run.REFERENCE_MIN_S


def test_command_prints_result_as_last_line(monkeypatch, capsys):
    monkeypatch.setitem(workloads.DEFAULT_SIZES, "regraph_image", TINY)
    assert run.main(["--workload", "regraph_image", "--seed", "1", "--seconds", "0.1"]) == 0
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert "metric verdict_s" in out


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pair_analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
