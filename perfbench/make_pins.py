#!/usr/bin/env python3
"""Regenerates perfbench/pins.json from the current sources.

    python3 perfbench/make_pins.py [workload ...]

Runs each workload once per pinned input seed, at the full size and at
the self-test's tiny size, with --emit-pins and writes the observed
outputs as the new pins. Only do this when an output is meant to change,
and say why in the change that commits the new pins: a pin that moves
by accident is the regression the benchmark exists to catch.
"""
import json
import sys

import run

PINNED_SEEDS = 16


def main() -> int:
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    driver = run.build()
    path = run.HERE / "pins.json"
    doc = json.loads(path.read_text())
    for workload in workloads:
        for size in ("full", "tiny"):
            for seed in range(PINNED_SEEDS):
                code, stdout = run.run_driver(driver, [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", "1", "--trace", "0", "--size", size,
                    "--emit-pins"])
                entry = json.loads(stdout.splitlines()[-1])
                if code != 0 or entry["failed"] != 0:
                    print(f"{entry['id']}: checks failed, pins not written",
                          file=sys.stderr)
                    return 1
                doc["pins"][entry["id"]] = entry["pins"]
                print(entry["id"], file=sys.stderr)
    doc["pins"] = dict(sorted(doc["pins"].items()))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
