"""Fast self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload once at a tiny size (its first two commands) with
tracing off and on, and checks that the run is correct and prints exactly
the metrics BENCHMARK.json names.  Also checks that the generators are
deterministic for a seed, that perfbench/layer_map.json names only defined
metrics and workloads, and that the benchmark refuses to run without the
program's sources.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

TINY = 2


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_determinism() -> None:
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a.commands == b.commands, name
        assert {d: a.doc_bytes(d) for d in a.docs} == {d: b.doc_bytes(d) for d in b.docs}, name
        c = workloads.build(name, 8)
        assert [c.doc_bytes(d) for d in c.docs] != [a.doc_bytes(d) for d in a.docs], name


def check_layer_map(spec: dict) -> None:
    with open(os.path.join(run.HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(run.PASS_SECONDS)
    for entry in layer_map["layers"]:
        assert set(entry["metrics"]) <= layer, entry["layer"]
        for pairing in entry["moves"] + entry["unchanged"]:
            assert pairing["metric"] in e2e | layer, pairing
            assert pairing["workload"] in names, pairing


def check_runs(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            result = run.run(name, 3, 1, bool(trace), limit=TINY)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (name, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0, (name, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)), metric
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values()), name


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "interactive",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, timeout=60,
        )
        assert proc.returncode != 0 and proc.stdout == b"", proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, run.SRC)
    spec = _spec()
    check_determinism()
    check_layer_map(spec)
    check_refuses_without_sources()
    check_runs(spec)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
