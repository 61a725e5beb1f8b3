"""Compare parent and change runs, one row per workload x end-to-end metric.

    python3 perfbench/run.py --workload W --seed N ... >> parent.jsonl  # on the parent
    python3 perfbench/run.py --workload W --seed N ... >> change.jsonl  # on the change
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Each file holds whatever the runs printed; the ``{"record": ...}`` lines are
read and the rest ignored. Runs pair up in file order per workload, so make
them alternately (parent, change, parent, ...) with the same seeds; a
workload with a different number of runs on the two sides is refused. A
metric is compared only if every run of the workload, on both sides,
reports it (``op_p90_ms`` needs 100 ops in a run). Verdicts:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
- unresolved: the parent's own spread (IQR / median) is wider than the
  metric's bound, unless every change run beats every parent run;
- worse: the change median is worse than the parent's by more than the bound;
- no worse: within the bound.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path) -> dict:
    """Untraced runs by workload: list of metric dicts, in file order."""
    runs: dict[str, list] = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith('{"record"'):
            continue
        record = json.loads(line)["record"]
        if record["trace"] == 0:
            metrics = dict(record["metrics"])
            metrics.update({k: v for k, v in record["extra"].items()
                            if k.startswith(("cli_", "wall_")) or k == "op_p90_ms"})
            runs.setdefault(record["workload"], []).append(metrics)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better: str, bound: float):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if won >= 0.9 and sign * (cm - pm) > (p3 - p1):
        return won, "improved"
    if (p3 - p1) / abs(pm) > bound and not all_better:
        return won, "unresolved"
    if -sign * (cm - pm) / abs(pm) > bound:
        return won, "worse"
    return won, "no worse"


def main(parent_path, change_path) -> int:
    spec = json.loads(BENCHMARK.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_records(parent_path), load_records(change_path)
    print(f"{'workload':<10} {'metric':<22} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'won':>5}  verdict")
    worse = unpaired = False
    for workload in sorted(set(parent) & set(change)):
        if len(parent[workload]) != len(change[workload]):
            print(f"{workload:<10} {len(parent[workload])} parent runs against "
                  f"{len(change[workload])} change runs: not paired, skipped")
            unpaired = True
            continue
        names = sorted(set.intersection(
            *(set(r) for r in parent[workload] + change[workload])))
        for name in names:
            p = [r[name] for r in parent[workload]]
            c = [r[name] for r in change[workload]]
            # wall_X is judged like X; the other ungated extras (cli_*_ms,
            # op_p90_ms) are latencies, judged with op_p50_ms's bound
            m = declared.get(name.removeprefix("wall_"), declared["op_p50_ms"])
            won, word = verdict(p, c, m["better"], m["bound"])
            gated = "" if name in declared else " (not gated)"
            worse |= word == "worse" and name in declared
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:<10} {name:<22} {fmt.format(*quartiles(p)):>30} "
                  f"{fmt.format(*quartiles(c)):>30} {won:>5.2f}  {word}{gated}")
    if unpaired:
        return 2
    return 1 if worse else 0
