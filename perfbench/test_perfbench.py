"""The benchmark's own tests: metric list, trace fidelity, smoke runs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if importlib.util.find_spec("carlitz") is None:
    sys.path.insert(0, str(ROOT / "src"))

from carlitz import checks, skew, tate  # noqa: E402
from carlitz.ffield import FieldContext  # noqa: E402
from carlitz.poly import irreducibles_of_degree  # noqa: E402
from carlitz.powersums import SeqCache  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from perfbench.run import (BASELINE_SHA256, BASELINE_TIMES, _compare,  # noqa: E402
                           baseline_digest)
from perfbench.spans import TRACED, Tracer, _bindings, _resolve  # noqa: E402
from perfbench.workloads import run_pass  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(root, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128
    assert ("setup_s", "s", "lower") in [(m["name"], m["unit"], m["better"])
                                         for m in spec["end_to_end"]]


def test_baseline_is_frozen_and_timed_for_every_operation():
    assert baseline_digest() == BASELINE_SHA256
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    times = json.loads(BASELINE_TIMES.read_text())
    assert list(times) == list(WORKLOADS)
    for workload in WORKLOADS:
        assert set(times[workload]["ops"]) == set(refs["full"][workload])
        assert times[workload]["setup_s"] > 0
        assert all(s > 0 for s in times[workload]["ops"].values())


def test_star_chain_span_counts():
    irreducibles_of_degree.cache_clear()
    cache = SeqCache(FieldContext(3))
    with Tracer() as tracer:
        rep = skew.star_chain_check(cache, 2)
    assert rep["skew_equals_star"] and rep["star_equals_strict_plus_power"]
    summary = tracer.summary()
    calls = summary["calls"]
    assert calls["skew.star_chain_check"] == 1
    assert calls["skew.frak_S"] == 2            # k = 0, 1
    assert calls["skew.frak_S_bruteforce"] == 2
    assert calls["mzv.partial_zeta"] == 5
    assert calls["mzv.multi_power_sum"] == 10   # 5 values x degrees 0, 1
    assert calls["poly.irreducibles_of_degree"] == 1
    # monics of degree 0 and 1 for the two oracles, degree 1 for the lcm
    assert summary["counters"]["poly.enumerate_monics.yielded"] == 7
    total = summary["total_s"]["skew.star_chain_check"]
    assert 0 < sum(summary["module_self_s"].values()) <= total * 1.001


def test_tracer_patches_by_name_imports_and_restores_them():
    originals = {(module, path): _resolve(module, path)
                 for module, path, *_ in TRACED}
    bound_before = {key: len(_bindings(fn)) for key, fn in originals.items()}
    power_sum = originals[("powersums", "power_sum")]
    with Tracer():
        # `from .powersums import power_sum` in tate and mzv, `import _packed
        # as kern` elsewhere: every binding goes through the tracer
        assert tate.power_sum is not power_sum
        assert checks.frak_S is not originals[("skew", "frak_S")]
        assert all(not _bindings(fn) for fn in originals.values())
    assert tate.power_sum is power_sum
    assert {key: len(_bindings(fn)) for key, fn in originals.items()} == bound_before


def test_traced_outputs_equal_untraced():
    for workload in WORKLOADS:
        _, plain = run_pass(workload, 5, smoke=True)
        with Tracer():
            _, traced = run_pass(workload, 5, smoke=True)
        assert [{k: v for k, v in op.items() if k != "s"} for op in plain] == \
            [{k: v for k, v in op.items() if k != "s"} for op in traced]


def test_a_wrong_or_missing_output_counts_as_failed():
    expected = {"a": {"status": "pass", "witness": "1 cases exact"}, "b": "digest"}
    ops = [{"key": "a", "s": 0.1, "out": {"status": "pass", "witness": "1 cases exact"}},
           {"key": "b", "s": 0.1, "out": "other"}]
    assert _compare(ops, expected)[:2] == (2, 1)
    assert _compare(ops[:1], expected)[:2] == (2, 1)
    assert _compare([dict(ops[0]), {"key": "b", "s": 0, "error": "boom"}], expected)[:2] == (2, 1)
    extra = ops[:1] + [{"key": "b", "s": 0.1, "out": "digest"}, {"key": "c", "s": 0, "out": ""}]
    attempted, failed, problems = _compare(extra, expected)
    assert (attempted, failed) == (2, 0) and problems == ["c: no reference"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    for trace, table in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [row[0] for row in table]
        assert [m["unit"] for m in result["metrics"].values()] == [row[1] for row in table]
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    busy = {"verify-default": "packed.kdivmod.calls",
            "shuffle-deep": "rawfrac.RawTPoly.mul.calls",
            "zeta-partial": "textio.format_tpoly.s",
            "tate-series": "tate.TateSeries.mul.calls"}[workload]
    assert layer[busy] > 0
    assert layer["src.lines"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "tate-series", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
