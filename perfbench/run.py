#!/usr/bin/env python3
"""Build and run the allocator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from ../src) into .bench_build/, or
into $CARGO_TARGET_DIR when that is set; later calls only re-check the
build. Build output goes to stderr, so the last line on stdout is always
the benchmark's JSON result. See perfbench/NOTES.md.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "fleet-churn", "daemon-mixed")


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources next to perfbench/ "
                 "(expected src/CMakeLists.txt); run from a full checkout")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "mapa_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "mapa_perfbench"


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def self_test(binary: Path) -> int:
    """Checker self-test, then every workload at tiny size in both modes:
    each must be correct and emit exactly BENCHMARK.json's metrics with
    their units."""
    failures = 0
    if subprocess.run([str(binary), "--self-test"]).returncode != 0:
        failures += 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        print(f"self-test: BENCHMARK.json workloads {names}", file=sys.stderr)
        failures += 1
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = subprocess.run(
                [str(binary), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", trace, "--tiny"],
                capture_output=True, text=True)
            result = last_json(proc.stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (proc.returncode == 0 and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0
                  and got == want)
            print(f"self-test: {workload} --trace {trace}: "
                  f"{'ok' if ok else 'FAILED'}")
            if not ok:
                failures += 1
                print(proc.stderr, file=sys.stderr)
                for name in sorted(set(want) | set(got)):
                    if want.get(name) != got.get(name):
                        print(f"  {name}: want {want.get(name)} "
                              f"got {got.get(name)}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    binary = build()
    if sys.argv[1:] == ["--self-test"]:
        return self_test(binary)
    return subprocess.run([str(binary)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
