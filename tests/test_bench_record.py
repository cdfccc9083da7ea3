"""The ``BENCH_*.json`` writer stamps the host that produced the numbers."""

import importlib.util
import json
import os
from pathlib import Path

BENCH_LIB = Path(__file__).resolve().parents[1] / "benchmarks" / "_bench_lib.py"


def load_bench_lib():
    spec = importlib.util.spec_from_file_location("_bench_lib", BENCH_LIB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_update_bench_record_restamps_a_stale_host(tmp_path):
    path = tmp_path / "BENCH_example.json"
    path.write_text(json.dumps({
        "host": {"cpus": 999, "numpy": "0.0", "python": "0.0"},
        "other_section": {"kept": True}}))
    load_bench_lib().update_bench_record(str(path), "section", {"value": 1})
    record = json.loads(path.read_text())
    assert record["host"]["cpus"] == len(os.sched_getaffinity(0))
    assert record["host"]["python"] != "0.0"
    assert record["other_section"] == {"kept": True}
    assert record["section"] == {"value": 1}
