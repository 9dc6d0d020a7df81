"""tools/record_bench.py records only correct benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"


@pytest.fixture
def record_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_commit", lambda checkout: "0" * 40)
    return module


def fake_run(failed_seed=None, correct=True, failed=0):
    def run(checkout, args):
        assert args[:-1] == ["--seed"]
        seed = int(args[-1])
        bad = seed == failed_seed
        return {"correct": correct if bad else True, "attempted": 10, "failed": failed if bad else 0,
                "metrics": {"serve_single": {"latency_p50_ms": {"value": float(seed), "unit": "ms"}}}}

    return run


@pytest.mark.parametrize("correct,failed", [(False, 0), (True, 3), (False, 2)])
def test_incorrect_run_writes_no_file(record_bench, monkeypatch, tmp_path, correct, failed):
    monkeypatch.setattr(record_bench, "run_perfbench", fake_run(failed_seed=2, correct=correct, failed=failed))
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exc:
        record_bench.main([str(out)])
    assert str(exc.value) == f"perfbench run on seed 2 is not correct ({failed} failed); {out} not written"
    assert not out.exists()


def test_correct_runs_write_their_medians(record_bench, monkeypatch, tmp_path):
    monkeypatch.setattr(record_bench, "run_perfbench", fake_run())
    out = tmp_path / "BENCH_x.json"
    assert record_bench.main([str(out)]) == 0
    record = json.loads(out.read_text("utf-8"))
    assert record["seeds"] == [1, 2, 3] and len(record["runs"]) == 3
    assert record["median"] == {"serve_single": {"latency_p50_ms": 2.0}}
