"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py        # from the root of a sphskel checkout

Checks, on tiny sizes (about a minute in all):

1. a run of every workload prints every end-to-end metric of
   ``BENCHMARK.json`` with its unit, and a traced run every per-layer metric
   and passes its check that the layers' self times account for the traced
   wall time within the tracing overhead;
2. a planted wrong expectation (Equal cases relabelled StrictlyLess in a
   copy of the catalog) and a planted wrong LP value (in a copy of the
   solver) make the failed count positive and the exit code non-zero;
3. in a directory holding only ``BENCHMARK.json`` and the benchmark, the
   command exits non-zero without printing a result.

The copies live under ``perfbench/out/selftest``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(BENCH_DIR, "out", "selftest")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# items of the traced runs: enough for the trace check to resolve, and even,
# so that as many items run traced first as untraced first
TRACED_SIZES = {"verify": "60", "supports": "12", "lp_random": "100"}

PLANTS = {
    # (file under src/sphskel, text, replacement, workloads it must fail)
    "catalog": ("catalog.py", "expected_relation=EQUAL", "expected_relation=STRICTLY_LESS",
                ("verify", "supports")),
    "solver": ("exactlp.py", "value=simplex.obj[-1],", "value=simplex.obj[-1] + 1,",
               ("lp_random",)),
}


def bench(cwd: str, *args: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result, names, units, prefixes) -> list[str]:
    problems = []
    if result is None or set(result) != RESULT_KEYS:
        return [f"last line is not a result object: {result!r}"]
    for prefix in prefixes:
        for name in names:
            entry = result["metrics"].get(prefix + name)
            if entry is None or entry.get("unit") != units[name]:
                problems.append(f"metric {prefix + name} missing or without unit {units[name]}")
    return problems


def main() -> int:
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    failures = []

    def expect(label: str, problems: list[str]) -> None:
        print(("PASS " if not problems else "FAIL ") + label)
        for p in problems:
            print("     " + p)
        failures.extend(problems)

    code, result, _ = bench(ROOT, "--size", "5", "--seconds", "0.5")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = check_metrics(result, e2e, e2e, [f"{w}." for w in workloads])
    if code != 0 or not result or result["failed"] or not result["correct"]:
        problems.append(f"tiny run: exit {code}, result {result}")
    expect("tiny run prints every end-to-end metric with its unit", problems)

    for w in workloads:
        code, result, output = bench(ROOT, "--workload", w, "--size", TRACED_SIZES[w],
                                     "--seconds", "0.1", "--trace", "1")
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        problems = check_metrics(result, layers, layers, [""])
        if code != 0:
            problems.append(f"traced run exit {code}")
        check = [ln for ln in output.splitlines() if " trace check: " in ln]
        if len(check) != 1 or not check[0].endswith(": ok"):
            problems.append(f"trace check line: {check}")
        expect(f"traced {w} run prints every per-layer metric with its unit "
               "and passes its trace check", problems)

    for plant, (filename, old, new, targets) in PLANTS.items():
        tree = os.path.join(SCRATCH, plant)
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tree, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(tree, "src", "sphskel", filename)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if old not in text:
            expect(f"plant {plant}", [f"{old!r} not found in {filename}"])
            continue
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(old, new))
        for w in targets:
            code, result, _ = bench(tree, "--workload", w, "--size", "60", "--seconds", "0.1")
            problems = []
            if code == 0 or not result or not result["failed"] or result["correct"]:
                counts = result and {k: result[k] for k in ("correct", "attempted", "failed")}
                problems.append(f"exit {code}, result {counts}")
            expect(f"planted {plant} fault fails {w} and exits non-zero", problems)

    empty = os.path.join(SCRATCH, "empty")
    shutil.copytree(BENCH_DIR, os.path.join(empty, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(SPEC, empty)
    code, result, _ = bench(empty, "--workload", workloads[0], "--seed", "1",
                            "--seconds", "1", "--trace", "0")
    expect("without the program the command exits non-zero and prints no result",
           [] if code != 0 and result is None else [f"exit {code}, result {result}"])

    print("selftest: " + ("ok" if not failures else f"{len(failures)} problem(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
