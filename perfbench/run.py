#!/usr/bin/env python3
"""The repo benchmark's entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the fairswap library and
the benchmark driver from source (Release) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs one workload in one driver process and
relays its result. The last stdout line is the result JSON:
{"correct", "attempted", "failed", "metrics"}. Build output goes to
stderr. Exits non-zero, printing no result, when the checkout has no
sources, the build fails, or the driver fails.

Workloads: paper_grid, heavy_zipf, flow_congested, epoch_game (see
perfbench/README.md). Extra options for the self-test and pin refresh:
--size full|tiny, --emit-pins, --perturb-pin.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_grid", "heavy_zipf", "flow_congested", "epoch_game")
DRIVER_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build() -> Path:
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no fairswap sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_driver",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    driver = out / "perfbench_driver"
    if not driver.is_file():
        raise RuntimeError(f"build produced no {driver}")
    return driver


def run_driver(driver: Path, args: list[str]) -> tuple[int, str]:
    """Runs the driver from the checkout root; returns (code, stdout)."""
    proc = subprocess.run(
        [str(driver), "--pins", str(HERE / "pins.json"),
         "--out", str(build_dir() / "out")] + args,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=DRIVER_TIMEOUT_S)
    return proc.returncode, proc.stdout


def parse_result(stdout: str) -> dict:
    """The last stdout line as a result object, shape-checked."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("driver printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("result has no attempted checks")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise RuntimeError(f"metric {name} is not {{value, unit}}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--emit-pins", action="store_true")
    parser.add_argument("--perturb-pin", action="store_true")
    opts = parser.parse_args()
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        driver = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--size", opts.size]
    if opts.emit_pins:
        args.append("--emit-pins")
    if opts.perturb_pin:
        args.append("--perturb-pin")
    try:
        code, stdout = run_driver(driver, args)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    if code != 0:
        print(f"perfbench: driver exited {code}", file=sys.stderr)
        return 3
    if opts.emit_pins:
        sys.stdout.write(stdout)
        return 0
    try:
        result = parse_result(stdout)
    except (RuntimeError, ValueError) as err:
        print(f"perfbench: bad driver output: {err}", file=sys.stderr)
        return 3
    for line in stdout.splitlines()[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
