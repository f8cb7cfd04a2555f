"""The benchmark's own tests; run from the root of a checkout:

    python3 scfibench/selftest.py

Runs every workload for one second, untraced and traced, and checks that the
result line carries every metric of BENCHMARK.json with its unit and that
every op passed its checks.  Then it corrupts one pinned counter per pinned
workload and checks that the run reports failed ops (fail_frac > 0).
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work", "selftest")


def run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    return result


def check_metrics(result: dict, declared: list, what: str) -> None:
    got = result["metrics"]
    want = {metric["name"]: metric["unit"] for metric in declared}
    assert set(got) == set(want), f"{what}: metrics {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{what}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{what}: {name} not a number"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run(workload, trace)
            check_metrics(result, declared, f"{workload} trace={trace}")
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            print(f"ok   {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked")

    with open(os.path.join(HERE, "inputs", "pins.json")) as handle:
        pins = json.load(handle)
    corrupt = copy.deepcopy(pins)
    corrupt["cli-cold"]["0"]["flip"]["masked"] += 1
    corrupt["campaign-suite"]["0"]["comb"]["flip"]["masked"] += 1
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "corrupt-pins.json")
    with open(path, "w") as handle:
        json.dump(corrupt, handle)
    for workload in ("cli-cold", "campaign-suite"):
        result = run(workload, 0, "--pins", path)
        assert result["failed"] > 0 and not result["correct"], (workload, result)
        print(f"ok   {workload} with a corrupted pin: fail_frac "
              f"{result['failed'] / result['attempted']:.2f}")
    os.unlink(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
