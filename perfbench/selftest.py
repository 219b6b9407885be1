#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the driver (as run.py does), then runs every workload of
BENCHMARK.json at the tiny size, untraced and traced, and asserts that
each run passes its checks and prints every named metric with its unit
in a result that parses. Then it perturbs one pinned value per workload
and asserts the checks catch it: the gate is live. Takes seconds once
the build exists. Exits 1 on any failure.
"""
import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    driver = run.build()
    failures = []

    def runs(workload, trace, *extra):
        code, stdout = run.run_driver(driver, [
            "--workload", workload, "--seed", "0", "--seconds", "0.2",
            "--trace", str(trace), "--size", "tiny", *extra])
        if code != 0:
            failures.append(f"{workload} trace={trace}: driver exited {code}")
            return None
        try:
            return run.parse_result(stdout)
        except (RuntimeError, ValueError) as err:
            failures.append(f"{workload} trace={trace}: {err}")
            return None

    for workload in (w["name"] for w in spec["workloads"]):
        before = len(failures)
        for trace in (0, 1):
            result = runs(workload, trace)
            if result is None:
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append(
                    f"{workload} trace={trace}: {result['failed']} of "
                    f"{result['attempted']} checks failed")
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            if printed != units[trace]:
                failures.append(
                    f"{workload} trace={trace}: metrics {sorted(printed)} "
                    f"!= named {sorted(units[trace])} (or units differ)")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    failures.append(f"{workload}: {name} is not a number")
        result = runs(workload, 0, "--perturb-pin")
        if result is not None and (result["correct"] or
                                   result["failed"] == 0):
            failures.append(f"{workload}: a perturbed pin went unnoticed")
        verdict = "ok" if len(failures) == before else "FAILED"
        print(f"selftest: {workload} {verdict}", file=sys.stderr)

    for failure in failures:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
