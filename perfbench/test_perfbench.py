"""Tests of the benchmark itself: generator, names, a reduced run, the DS gate."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus_gen
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_generator_is_deterministic(tmp_path):
    sizes = corpus_gen.generate(tmp_path / "a", 40, 8, seed=7)
    corpus_gen.generate(tmp_path / "b", 40, 8, seed=7)
    corpus_gen.generate(tmp_path / "c", 40, 8, seed=8)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")
    assert sizes["classes"] == 40 and sizes["requirements"] == 8
    assert len([name for name in first if name.endswith(".java")]) == 40
    gold = json.loads(first["gold.json"])
    assert len(gold) == 8
    assert all(2 <= len(classes) <= 6 for classes in gold.values())


def test_names_are_safe_and_match_benchmark_json():
    names = (
        list(run.WORKLOADS)
        + list(run.END_TO_END_UNITS)
        + list(run.PER_LAYER_UNITS)
    )
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for key, units in (
        ("end_to_end", run.END_TO_END_UNITS),
        ("per_layer", run.PER_LAYER_UNITS),
    ):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == units


@pytest.mark.parametrize(
    "workload",
    [
        run.Workload(
            "smoke-src", "trace --src", classes=30, requirements=6, threshold=0.15
        ),
        run.Workload(
            "smoke-facts",
            "trace --facts",
            classes=30,
            requirements=12,
            topics=10,
            incidences=40,
        ),
        run.Workload("smoke-extract", "extract", classes=30),
    ],
    ids=lambda w: w.name,
)
def test_reduced_traced_run_passes(tmp_path, workload):
    record = run.measure(workload, seed=3, seconds=0, trace=True, work=tmp_path)
    assert record["failures"] == []
    assert record["failed"] == 0 and record["attempted"] >= 4
    assert set(record["end_to_end"]) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in record["end_to_end"].values())
    assert set(record["per_layer"]) == set(run.PER_LAYER_UNITS)
    if workload.incidences is not None:
        assert record["per_layer"]["fca.incidences"] == workload.incidences
    spans = record["spans"]
    assert len({span["run"] for span in spans}) == 1
    assert all(span["start"] <= span["end"] for span in spans)


def test_speed_factor_uses_the_child_and_its_neighbours(tmp_path):
    bench = run.Run(tmp_path)
    slow = 2 * run.REFERENCE_S
    bench.references = [[slow, slow], [run.REFERENCE_S] * 2, [run.REFERENCE_S] * 2]
    bench.imports = [(2, 0.5)]
    assert bench.speed(2) == pytest.approx(1.0)
    assert bench.speed(1) == pytest.approx(0.75)
    assert bench.speed(0) == pytest.approx(2 / 3)
    assert bench.setup_s() == [pytest.approx(0.5)]


def test_wrong_gold_fails_the_ds_gate(tmp_path):
    gold = json.loads((run.DS / "gold.json").read_text(encoding="utf-8"))
    gold["Draw oval"] = ["MyRectangle"]
    wrong = tmp_path / "wrong-gold.json"
    wrong.write_text(json.dumps(gold), encoding="utf-8")
    bench = run.Run(tmp_path)
    assert run.ds_gate(bench, wrong) is False
    assert bench.attempted == 1 and len(bench.failures) == 1
    assert run.ds_gate(bench) is True
    assert bench.attempted == 2 and len(bench.failures) == 1


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "src-1k"]
        + ["--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
