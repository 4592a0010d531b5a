"""Tests of the benchmark itself: seeding, oracles, metric names, and the
contract that it refuses to run without the library's sources.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import common
import metrics
import oracles
import run
import workload_cli
import workload_convert
import workload_long_reconstruct
from common import Mismatch, Tracer

BENCHMARK_JSON = common.ROOT / "BENCHMARK.json"


@pytest.fixture(scope="module")
def lib():
    return common.load_library()


def digest(lib, name, seed):
    return run.input_digest(run.WORKLOADS[name].setup(lib, seed))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_inputs(lib, name):
    assert digest(lib, name, 7) == digest(lib, name, 7)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_other_seed_other_inputs(lib, name):
    assert digest(lib, name, 7) != digest(lib, name, 8)


class OneSpec:
    def __init__(self, spec):
        self.spec = spec

    def blocks(self):
        while True:
            yield [self.spec]


def run_convert(lib, spec):
    return run.run_loop(workload_convert.run_op, lib, OneSpec(spec), Tracer(), limit=1)


SPEC_169_550 = workload_convert.Spec("small", "169/550", Fraction(169, 550), (1, 3, 10**12))


def test_convert_accepts_the_true_expansion(lib):
    assert run_convert(lib, SPEC_169_550).failed == 0


def test_planted_wrong_expansion_counts_as_failed(lib):
    planted = lib.parse_expansion("0.23(45)")  # the expansion of 129/550
    fake = SimpleNamespace(**{n: getattr(lib, n) for n in lib.__all__})
    fake.expand = lambda x: planted if x == Fraction(169, 550) else lib.expand(x)
    res = run_convert(fake, SPEC_169_550)
    assert (res.failed, res.wrong) == (1, 1)


SPEC_LONG = workload_convert.Spec("long", "1/10007", Fraction(1, 10007), (1, 3, 10**12))


def test_convert_accepts_a_true_long_period(lib):
    assert run_convert(lib, SPEC_LONG).failed == 0


def test_long_reconstruct_fails_only_on_the_int_limit(lib):
    res = run_convert(lib, SPEC_LONG._replace(kind=workload_long_reconstruct.NAME))
    assert res.wrong == 0
    assert set(res.reasons) <= {"long_reconstruct: ValueError"}  # the known defect


def test_planted_wrong_long_period_counts_as_wrong(lib):
    true = lib.expand(SPEC_LONG.value)
    assert len(true.period) == 10006  # past the 4300-digit limit of int(str)
    flipped = "1" if true.period[5000] == "0" else "0"
    planted = lib.parse_expansion(str(true).replace(
        true.period, true.period[:5000] + flipped + true.period[5001:]))
    fake = SimpleNamespace(**{n: getattr(lib, n) for n in lib.__all__})
    fake.expand = lambda x: planted if x == SPEC_LONG.value else lib.expand(x)
    res = run_convert(fake, SPEC_LONG)
    assert (res.failed, res.wrong) == (1, 1)


def test_cli_oracle_rejects_the_planted_pin():
    spec = workload_cli.Spec(
        "expand", ("decimal", "expand", "169/550"),
        workload_cli._lines(workload_cli._expansion(Fraction(169, 550))),
    )
    assert spec.expected == "0.30(72)\n"
    workload_cli.check(spec, 0, "0.30(72)\n", "")
    with pytest.raises(Mismatch):
        workload_cli.check(spec, 0, "0.23(45)\n", "")


def test_cli_error_rule():
    spec = workload_cli.Spec("negative", ("decimal", "expand", "--", "-1/3"), None)
    workload_cli.check(spec, 1, "", "error: negative input\n")
    with pytest.raises(Mismatch):
        workload_cli.check(spec, 2, "", "usage: diagcf\nerror: bad\n")
    with pytest.raises(workload_cli.Crash):
        workload_cli.check(spec, 1, "", "Traceback (most recent call last):\nValueError: x\n")


def test_cli_oracles_agree_with_the_cli_in_process(lib):
    inputs = workload_cli.setup(lib, 3)
    ops = 2 * len(workload_cli.MIX)
    res = run.run_loop(workload_cli.run_in_process, lib, inputs, Tracer(), limit=ops)
    assert res.wrong == 0
    assert set(res.reasons) <= {"nan: ValueError"}  # the one known defect in the mix


def test_oracle_order_and_digits():
    assert oracles.order_of_10(7) == 6
    assert oracles.decimal_shape(550) == (2, 2)
    assert oracles.digits(Fraction(169, 550), 1, 6) == "307272"
    assert oracles.digits(Fraction(1, 7), 3, 2500) == ("285714" * 417)[:2500]
    assert oracles.is_order_of_10(10006, 10007)
    assert [oracles.digit(Fraction(169, 550), j) for j in range(1, 7)] == [3, 0, 7, 2, 7, 2]
    assert [oracles.calkin_wilf_at(n) for n in range(1, 6)] == [
        Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3), Fraction(3, 2)]


def test_self_time_subtracts_child_spans():
    tr = Tracer(keep_spans=True)
    tr.spans = [
        ["bench.op", 0.0, 10.0, None, 0],
        ["decimal_expansion.expand", 1.0, 4.0, 0, 0],
        ["decimal_expansion.expand", 5.0, 6.0, 0, 0],
    ]
    tr.ops = 1
    values = metrics.layer_values(tr)
    assert values["bench.self_s"] == 6.0
    assert values["decimal_expansion.self_s"] == 4.0
    assert values["decimal_expansion.expand_s"] == 2.0


def test_timings_scale_with_host_speed():
    res = run.LoopResult(10, 1.0, [0.002] * 10, 0, 0, {})
    plain = run.end_to_end("convert", [0.05], res, None)
    speed = common.HostSpeed()
    speed.samples = [2 * common.REFERENCE_S]  # a host at half the reference speed
    scaled = run.end_to_end("convert", [0.05], res, None, speed.factor)
    assert scaled["setup_s"] == pytest.approx(0.025)
    assert scaled["latency_p50_ms"] == pytest.approx(plain["latency_p50_ms"] / 2)
    assert scaled["throughput_ops_s"] == pytest.approx(plain["throughput_ops_s"] * 2)
    assert scaled["peak_rss_mb"] == pytest.approx(plain["peak_rss_mb"], rel=0.01)


def test_registry_matches_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    assert [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in metrics.END_TO_END] == doc["end_to_end"]
    assert [{"name": m.name, "unit": m.unit, "better": m.better}
            for m in metrics.PER_LAYER] == doc["per_layer"]
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


def bench_result(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "convert", "--seed", "1", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc, lines = bench_result(common.ROOT, "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= run.MIN_OPS
    expected = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(common.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc, lines = bench_result(tmp_path, "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
