#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at small sizes.

    python3 bench/smoke.py

For every workload it runs the small configurations untraced and traced,
and asserts that

* every metric named in BENCHMARK.json is emitted with its unit, and the
  correctness gate passes;
* the per-layer counts repeat exactly between two traced runs of one seed;
* the gate trips (``correct`` false, ``failed`` > 0) when an expected value
  is made wrong.

It also asserts that ``run.py`` exits non-zero without a result line in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SEED = 7


def manifest() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def assert_metrics(result, specs, where):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        assert got is not None, f"{where}: metric {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{where}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {spec['name']} not a number"
    extra = set(result["metrics"]) - {spec["name"] for spec in specs}
    assert not extra, f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}"


def counts_of(result) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def check_gate_trips(name):
    """Make one expected value wrong and assert that the gate trips."""
    from workloads import SuiteWorkload, make_workload

    workload = make_workload(name, tiny=True)
    if isinstance(workload, SuiteWorkload):
        # expect one more instance per config than run_suite is asked for
        check = workload.check
        workload.check = lambda state, outputs: check(
            [s[:3] + (s[3] + 1,) + s[4:] for s in state], outputs
        )
    else:
        # the last field of a config is its expected dimension
        first = workload.configs[0]
        workload.configs[0] = first[:-1] + (first[-1] + 1,)
    result, _ = run.run(workload, SEED, 0, trace=False, tiny=True)
    assert not result["correct"] and result["failed"] > 0, (
        f"{name}: gate did not trip on a wrong expected value"
    )


def check_bare_directory():
    """run.py in a directory with only BENCHMARK.json and bench/ fails cleanly."""
    bare = run.BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite_rational", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the package"
    assert '"correct"' not in proc.stdout, "run.py printed a result without the package"


def main() -> int:
    spec = manifest()
    run.import_package()
    from workloads import WORKLOAD_NAMES, make_workload

    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES, "workload names differ"
    for name in WORKLOAD_NAMES:
        result, details = run.run(make_workload(name, tiny=True), SEED, 0, trace=False, tiny=True)
        assert result["correct"] and result["failed"] == 0, (name, details["wrong"])
        assert_metrics(result, spec["end_to_end"], f"{name} trace 0")
        first, _ = run.run(make_workload(name, tiny=True), SEED, 0, trace=True, tiny=True)
        second, _ = run.run(make_workload(name, tiny=True), SEED, 0, trace=True, tiny=True)
        assert first["correct"] and second["correct"], name
        assert_metrics(first, spec["per_layer"], f"{name} trace 1")
        assert counts_of(first) == counts_of(second), f"{name}: counts differ between runs"
        assert first["metrics"]["engine.mul_calls"]["value"] > 0, name
        if name == "quotient_gram":
            for key in ("cyclotomic.reduce_calls", "cyclotomic.gram_nonzero_share"):
                assert first["metrics"][key]["value"] > 0, (name, key)
        check_gate_trips(name)
        print(f"ok {name}")
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
