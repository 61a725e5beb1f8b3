"""Tiny-size smoke run of the benchmark: ``python3 perfbench/run.py --self-test``.

Checks that BENCHMARK.json is well formed, that the generator writes
byte-identical files for one seed, and that each workload, untraced and
traced, exits 0 and prints exactly the declared metrics with their units.
Traced warm runs are made twice: their counts must repeat exactly and their
span self times must cover the traced wall time within 10 %.
"""

from __future__ import annotations

import filecmp
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict, errors: list) -> None:
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            if not UNIT.fullmatch(m["unit"]):
                errors.append(f"bad unit {m['unit']!r} for {m['name']}")
    for name in names:
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        errors.append("a name is used twice")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"bound of {m['name']} outside (0, 0.25]")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        errors.append("setup_s is not declared")


def check_generator(tmp: Path, errors: list) -> None:
    for workload in ("ensemble", "fine_grid"):
        a, b, c = (tmp / f"{workload}-{k}" for k in "abc")
        gen.generate(a, workload, 1)
        gen.generate(b, workload, 1)
        gen.generate(c, workload, 2)
        files = sorted(p.name for p in a.iterdir())
        _, mismatch, missing = filecmp.cmpfiles(a, b, files, shallow=False)
        if mismatch or missing:
            errors.append(f"{workload}: seed 1 files differ: {mismatch + missing}")
        if all(filecmp.cmp(a / f, c / f, shallow=False) for f in files):
            errors.append(f"{workload}: seeds 1 and 2 give the same files")


def run(workload: str, trace: int, errors: list) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-300:]}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"{tag}: not correct: {proc.stdout.splitlines()[-2][:300]}")
    return result


def check_metrics(tag, result, declared, positive, errors) -> None:
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != declared:
        errors.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(declared))}")
    for name, entry in result.get("metrics", {}).items():
        value = entry["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{tag}: {name} = {value!r}")
        elif positive and value <= 0:
            errors.append(f"{tag}: {name} = {value} is not positive")


def main() -> int:
    errors: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec, errors)
    tmp = ROOT / ".perfbench_tmp" / "selftest"
    try:
        check_generator(tmp, errors)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        check_metrics(f"{name} trace=0", run(name, 0, errors), e2e, True, errors)
        first = run(name, 1, errors)
        check_metrics(f"{name} trace=1", first, layer, False, errors)
        if name == "cli_demo" or not first:
            continue
        second = run(name, 1, errors)
        for key in spans.COUNT_METRICS:
            if first["metrics"][key] != second["metrics"][key]:
                errors.append(f"{name}: count {key} differs between runs")
        cover = first["metrics"]["trace.span_coverage_pct"]["value"]
        if not 90.0 <= cover <= 110.0:
            errors.append(f"{name}: span self times cover {cover:.1f} % of wall")
    for e in errors:
        print(f"FAIL {e}")
    print("self-test:", "FAIL" if errors else "ok")
    return 1 if errors else 0
