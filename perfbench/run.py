#!/usr/bin/env python3
"""socchange benchmark: one command per workload, seeded, self-checking.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl
    python3 perfbench/run.py --self-test

Run from the repository root. Load is a closed loop from this one process
(cold CLI commands run one at a time); BLAS threads are pinned to 1. The
second-to-last stdout line is the full record (seed, machine facts, extra
figures); the last line is the result: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:          # before numpy is imported, here or in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from importlib.metadata import PackageNotFoundError, version  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("cli_demo", "ensemble", "fine_grid")
DEFAULT_SEED = 1
SETUP_PROBES = 5
IMPORT_PROBES = 3

os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
sys.path.insert(0, str(SRC))


def _median(values):
    return statistics.median(values) if values else float("nan")


# ------------------------------------------------------------- machine ---

def _pkg_version(name):
    try:
        return version(name)
    except PackageNotFoundError:
        return None


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=20,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts() -> dict:
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _pkg_version("numpy"),
        "scipy": _pkg_version("scipy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "SOCCHANGE_NO_NUMBA": os.environ.get("SOCCHANGE_NO_NUMBA"),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux: KiB


@contextmanager
def workdir(tag: str):
    path = TMP / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


# ------------------------------------------------------------ workloads ---

def make_workload(name: str, wd: Path, seed: int, tiny: bool):
    import workloads
    if name == "cli_demo":
        return workloads.CliDemo(ROOT, wd, dict(os.environ))
    import socchange
    cls = workloads.Ensemble if name == "ensemble" else workloads.FineGrid
    return cls(socchange, wd, seed, nsites=(2 if tiny else None))


def setup_probe(args) -> int:
    """Child process: import, generate inputs, run one warm-up op, report."""
    import workloads
    with workdir(f"probe-{args.workload}") as wd:
        w = make_workload(args.workload, wd, args.seed, args.size == "tiny")
        if args.workload == "cli_demo":
            cmd = workloads.CLI_COMMANDS[0][1]
            proc = w.run(workloads.cli_argv(ROOT, cmd, wd / "warmup"))
            if proc.returncode != 0:
                return 1
        else:
            w.op(0)
        print("ready", flush=True)
    return 0


def measure_setup(args, n: int) -> tuple:
    """Fresh-process set-up times: start to ready after one warm-up op.

    Returns (wall seconds, cold reference seconds around each probe).
    """
    import calib
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    walls, refs = [], []
    before = calib.cold_reference(ROOT)
    for _ in range(n):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        after = calib.cold_reference(ROOT)
        walls.append(elapsed)
        refs.append((before + after) / 2)
        before = after
    return walls, refs


def run_warm(w, seconds: float):
    """Closed loop over whole pool cycles until ``seconds`` have passed.

    Each op is bracketed by runs of the host-speed reference (calib.py).
    """
    import calib
    import workloads
    walls, refs, failures, attempted = [], [], [], 0
    before = calib.reference()
    start = time.perf_counter()
    while True:
        for i in range(len(w)):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = w.op(i)
            except Exception as exc:        # any engine error fails the op
                failures.append(f"site {i}: {type(exc).__name__}: {exc}")
                before = calib.reference()
                continue
            elapsed = time.perf_counter() - t0
            after = calib.reference()
            walls.append(elapsed)
            refs.append((before + after) / 2)
            before = after
            try:
                w.verify(i, out)
            except workloads.CheckFailed as exc:
                failures.append(str(exc))
        if time.perf_counter() - start >= seconds:
            return walls, refs, failures, attempted


def run_cli(w, seconds: float):
    """Closed loop over whole rounds of the demo commands; a round is one op.

    The command mix is bimodal (``sensitivity --param r`` is the slow mode),
    so the op is the round, the README session a user runs; per-command
    medians go to the record. Each command is bracketed by runs of the
    cold host-speed reference (calib.py). Returns each round as a list of
    (wall, scaled) seconds per command.
    """
    import calib
    import workloads
    rounds, by_metric, failures = [], {}, []
    before = calib.cold_reference(ROOT)
    start = time.perf_counter()
    while True:
        commands, errors = [], []
        for metric, cmd in workloads.CLI_COMMANDS:
            out_dir = w.out_dir(len(rounds))
            elapsed, error = w.run_checked(
                cmd, out_dir, workloads.cli_argv(ROOT, cmd, out_dir))
            after = calib.cold_reference(ROOT)
            [at_ref] = calib.scaled([elapsed], [(before + after) / 2],
                                    calib.COLD_NOMINAL_S)
            before = after
            commands.append((elapsed, at_ref))
            by_metric.setdefault(metric, []).append(at_ref)
            if error:
                errors.append(error)
        rounds.append(commands)
        if errors:                  # one failure per failed round (op)
            failures.append("; ".join(errors))
        if time.perf_counter() - start >= seconds:
            return rounds, by_metric, failures, len(rounds)


def end_to_end(args, w, setup) -> tuple:
    """Gated times are at reference host speed (calib.py): warm ops scaled
    by the warm reference, CLI commands and set-up probes by the cold one.
    Wall times and the host speed go to the record."""
    import calib
    setup_walls, setup_refs = setup
    if args.workload == "cli_demo":
        rounds, by_metric, failures, attempted = run_cli(w, args.seconds)
        walls = [sum(c[0] for c in r) for r in rounds]
        times = [sum(c[1] for c in r) for r in rounds]
        # a median round built command by command: a run holds only four or
        # five rounds, and the median of whole rounds spread 0.074
        per_command = list(zip(*rounds))
        p50 = sum(_median([at_ref for _, at_ref in c]) for c in per_command)
        wall_p50 = sum(_median([wall for wall, _ in c]) for c in per_command)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        extra = {f"cli_{m}_ms": _median(v) * 1000.0 for m, v in by_metric.items()}
    else:
        walls, refs, failures, attempted = run_warm(w, args.seconds)
        times = calib.scaled(walls, refs)
        p50, wall_p50 = _median(times), _median(walls)
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        extra = {}
        if len(times) >= 100:      # at least ten samples above p90
            extra["op_p90_ms"] = statistics.quantiles(times, n=10)[-1] * 1000.0
    metrics = {
        "setup_s": (_median(calib.scaled(setup_walls, setup_refs,
                                         calib.COLD_NOMINAL_S)), "s"),
        "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
        "op_p50_ms": (p50 * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra["wall_setup_s"] = _median(setup_walls)
    extra["wall_ops_per_s"] = len(walls) / sum(walls) if walls else 0.0
    extra["wall_op_p50_ms"] = wall_p50 * 1000.0
    extra["host_speed"] = (sum(times) / sum(walls)) if walls else float("nan")
    extra["error_rate"] = len(failures) / attempted
    extra["samples"] = len(times)
    return metrics, extra, failures, attempted


# -------------------------------------------------------------- tracing ---

def import_metrics(n: int) -> dict:
    """Median per-package import times from ``python -X importtime``."""
    samples = {"import.total_ms": [], "import.scipy_ms": [],
               "import.numpy_ms": [], "import.socchange_self_ms": []}
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import socchange"], cwd=ROOT, timeout=120,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-200:]}")
        own = {"scipy": 0, "numpy": 0, "socchange": 0}
        total = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line[len("import time:"):].split("|")
            try:
                self_us, cumulative_us = int(parts[0]), int(parts[1])
            except ValueError:
                continue                    # the column-title line
            name = parts[2].strip()
            top = name.split(".")[0]
            if top in own:
                own[top] += self_us
            if name == "socchange":
                total = cumulative_us
        samples["import.total_ms"].append(total / 1000.0)
        samples["import.scipy_ms"].append(own["scipy"] / 1000.0)
        samples["import.numpy_ms"].append(own["numpy"] / 1000.0)
        samples["import.socchange_self_ms"].append(own["socchange"] / 1000.0)
    return {k: _median(v) for k, v in samples.items()}


def traced_warm(w):
    """One pool cycle, each op untraced and traced in alternating order."""
    import spans
    tracer = spans.Tracer()
    plain = traced = 0.0
    failures = []
    for i in range(len(w)):
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_run:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = w.op(i)
                elapsed = time.perf_counter() - t0
                w.verify(i, out)
            except Exception as exc:        # any engine or check failure
                failures.append(f"site {i}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced_run:
                    tracer.uninstall()
            if traced_run:
                traced += elapsed
            else:
                plain += elapsed
    layer = tracer.layer_metrics()
    return layer, plain, traced, failures, 2 * len(w)


def traced_cli(w):
    """One round of the demo commands, plain and under the span tracer."""
    import workloads
    layer, plain, traced, failures = {}, 0.0, 0.0, []
    for k, (_, cmd) in enumerate(workloads.CLI_COMMANDS):
        order = (False, True) if k % 2 == 0 else (True, False)
        for traced_run in order:
            out_dir = w.out_dir(2 * k + traced_run)
            argv = workloads.cli_argv(ROOT, cmd, out_dir)
            dump = w.workdir / f"spans{k}.json"
            if traced_run:
                argv = [argv[0], str(BENCH_DIR / "cli_traced.py"), str(dump),
                        *argv[3:]]
            elapsed, error = w.run_checked(cmd, out_dir, argv)
            if error:
                failures.append(error)
            if traced_run:
                traced += elapsed
                if dump.exists():
                    for key, value in json.loads(dump.read_text()).items():
                        layer[key] = layer.get(key, 0) + value
            else:
                plain += elapsed
    return layer, plain, traced, failures, 2 * len(workloads.CLI_COMMANDS)


def per_layer(args, w) -> tuple:
    if args.workload == "cli_demo":
        layer, plain, traced, failures, attempted = traced_cli(w)
    else:
        layer, plain, traced, failures, attempted = traced_warm(w)
    layer.update(import_metrics(1 if args.size == "tiny" else IMPORT_PROBES))
    layer["trace.overhead_pct"] = (traced - plain) / plain * 100.0
    layer["trace.span_coverage_pct"] = (layer.pop("trace.span_self_ms")
                                        / (traced * 1000.0) * 100.0)
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (layer.get(name, 0), unit)
               for name, unit in declared.items()}
    extra = {"traced_wall_ms": traced * 1000.0, "plain_wall_ms": plain * 1000.0}
    return metrics, extra, failures, attempted


# ----------------------------------------------------------------- main ---

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small pools and one set-up probe (self-test)")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two files of records from this command")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        print("run.py: --workload is required", file=sys.stderr)
        return 2
    missing = [p for p in (SRC / "socchange" / "__init__.py",
                           ROOT / "data" / "demo" / "scenario.cfg",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"run.py: not a socchange checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    load_before = os.getloadavg()
    setup = ([], []) if args.trace else measure_setup(
        args, 1 if args.size == "tiny" else SETUP_PROBES)
    with workdir(args.workload) as wd:
        w = make_workload(args.workload, wd, args.seed, args.size == "tiny")
        failures = w.prepare()
        if failures:                # a site failed its checks: nothing to time
            metrics, extra, attempted = {}, {}, len(w)
        elif args.trace:
            metrics, extra, failures, attempted = per_layer(args, w)
        else:
            metrics, extra, failures, attempted = end_to_end(args, w, setup)
    facts = machine_facts()
    facts["loadavg_before"] = load_before
    facts["loadavg_after"] = os.getloadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "setup_wall_s": setup[0],
        "setup_ref_s": setup[1],
        "metrics": {k: v for k, (v, _) in metrics.items()}, "extra": extra,
        "failures": failures[:20], "machine": facts,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
