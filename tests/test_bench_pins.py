"""Pinned bench files carry every row their CI guards read.

``scripts/bench_hotpath.py --guard-deep BENCH_hotpath.json`` compares
fresh deep-tree rows against the committed trajectory's ``after``
report. A pinned report without those rows leaves the guard nothing to
compare, so the guard fails and the trajectory writer refuses to write
one; this suite checks the committed file and both refusals.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_bench_hotpath():
    spec = importlib.util.spec_from_file_location(
        "bench_hotpath", ROOT / "scripts" / "bench_hotpath.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(names):
    return {"schema_version": 3, "label": "t", "commit": "t",
            "aggregate": {"wall_s_total": float(len(names))},
            "points": [{"name": name, "kind": "model", "wall_s": 1.0}
                       for name in names]}


def test_committed_trajectory_has_every_guarded_row():
    bench = load_bench_hotpath()
    pinned = json.loads((ROOT / "BENCH_hotpath.json").read_text())
    assert pinned["kind"] == "hotpath-trajectory"
    names = {point["name"] for point in pinned["after"]["points"]}
    guarded = [name for pair in bench.guarded_rows() for name in pair]
    assert len(guarded) == 2 * len(bench.DEEP_MODEL_POINTS)
    assert [name for name in guarded if name not in names] == []


def test_guard_fails_when_pinned_rows_are_missing(tmp_path, capsys):
    bench = load_bench_hotpath()
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps(report(["model/gamma/wiki-Vote/arith"])))
    assert bench.guard_deep(str(pinned)) == 1
    assert "pinned entry lacks" in capsys.readouterr().err


def test_combine_refuses_an_after_without_guarded_rows(tmp_path):
    bench = load_bench_hotpath()
    guarded = [name for pair in bench.guarded_rows() for name in pair]
    before = tmp_path / "before.json"
    before.write_text(json.dumps(report(guarded)))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(report(guarded[1:])))
    with pytest.raises(ValueError, match=guarded[0]):
        bench.combine(str(before), str(partial))
    full = tmp_path / "full.json"
    full.write_text(json.dumps(report(guarded)))
    trajectory = bench.combine(str(before), str(full))
    assert trajectory["comparison"]["aggregate_speedup"] == 1.0
