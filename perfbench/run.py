"""The repository benchmark: one entry point for every workload.

Single run (the form the metric contract in ``BENCHMARK.json`` fixes)::

    python3 perfbench/run.py --workload fig3_sweep --seed 0 --seconds 15 --trace 0

prints every metric by name and unit, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Suite and comparison::

    python3 perfbench/run.py --workload all --runs 5 --out results.jsonl
    python3 perfbench/run.py --compare base.jsonl change.jsonl

Each workload runs in a fresh interpreter (``worker.py``) so peak memory
and set-up time belong to the workload, not to this harness. This file
uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0

#: Set-up samples per run: this many set-up-only interpreters plus the
#: measuring one.
SETUP_PROBES = 2

WORKLOAD_NAMES = ("fig3_sweep", "fig7_cdf", "profile2d_mc", "service_warm")

#: Thread pools pinned for every workload process: one BLAS thread, so
#: the OpenBLAS pool neither burns a second core for no wall-time gain
#: nor competes with the service's threads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "REPRO_TELEMETRY": "0"}


class BenchError(Exception):
    """A run that produced no result."""


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}; run "
                         "from the root of a full checkout")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Run ``worker.py args``; returns (seconds to READY, stdout after
    it). Raises :class:`BenchError` on failure or timeout."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    # A set-up that hangs before READY would block readline() forever.
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        if ready.strip() != "READY":
            proc.wait(max(deadline - time.monotonic(), 1.0))
            raise BenchError(f"workload set-up failed (exit {proc.returncode})")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload exceeded the run budget") from exc
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"workload exited with code {proc.returncode}")
    return ready_s, out


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             toy: bool = False) -> dict:
    """Set up several times, measure once; returns the run record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    if toy:
        base.append("--toy")
    setup = [_worker(base + ["--setup-only"], deadline)[0]
             for _ in range(SETUP_PROBES)]
    ready_s, out = _worker(base + ["--seconds", str(seconds),
                                   "--trace", str(int(trace))], deadline)
    setup.append(ready_s)
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        raise BenchError("workload printed no report")
    report = json.loads(lines[-1])
    if trace:
        metrics = dict(report["per_layer"] or {})
    else:
        metrics = dict(report["end_to_end"])
        metrics["setup_s"] = stats.median(setup) * report["setup_scale"]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "toy": toy, "setup_samples_s": setup,
            "metrics": metrics, "report": report}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def units() -> dict[str, str]:
    doc = contract()
    return {m["name"]: m["unit"]
            for m in doc["end_to_end"] + doc["per_layer"]}


def print_run(record: dict) -> None:
    rep = record["report"]
    unit = units()
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"(variant {rep['variant']}) trace={int(record['trace'])}: "
          f"{rep['ops']} untraced + {rep['traced_ops']} traced operations")
    for name, value in record["metrics"].items():
        print(f"  {name:28s} {value:14.6g} {unit.get(name, '')}")
    if rep.get("tail_percentile"):
        print(f"  (service.latency_tail_ms is p{rep['tail_percentile']:g} "
              f"of {rep['ops']} requests)")
    identical = {True: "yes", False: "no", None: "n/a"}[rep["bit_identical"]]
    print(f"  correctness: {rep['attempted'] - rep['failed']}/"
          f"{rep['attempted']} operations passed; reference bit-identical: "
          f"{identical}")
    for problem in rep["problems"]:
        print(f"  problem: {problem}")
    if rep["checks"]:
        print("  experiment checks (recorded, not gating): " + ", ".join(
            f"{k}={'PASS' if v else 'FAIL'}" for k, v in rep["checks"].items()))
    env = rep["fingerprint"]
    blas = env["blas"]
    print(f"  env: git {str(env['git_revision'])[:12]} python {env['python']} "
          f"numpy {env['numpy']} scipy {env['scipy']} blas "
          f"{blas.get('name')} {blas.get('version')} nproc {env['nproc']} "
          f"threads {env['thread_env']} src_lines {env['src_lines']}")


def result_line(record: dict) -> str:
    """The contract's last line for one run."""
    rep = record["report"]
    unit = units()
    return json.dumps({
        "correct": bool(rep["correct"]),
        "attempted": int(rep["attempted"]),
        "failed": int(rep["failed"]),
        "metrics": {name: {"value": value, "unit": unit.get(name, "")}
                    for name, value in record["metrics"].items()},
    })


def append_records(path: str, records: list[dict]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Suite and compare
# ----------------------------------------------------------------------

def run_suite(names, runs: int, seed: int, seconds: float, toy: bool,
              out: str | None) -> int:
    """Every workload ``runs`` times untraced (seeds seed..seed+runs-1)
    plus once traced; prints medians and quartiles per metric."""
    all_ok = True
    for name in names:
        records = [run_once(name, seed + k, seconds, False, toy)
                   for k in range(runs)]
        records.append(run_once(name, seed, seconds, True, toy))
        if out:
            append_records(out, records)
        all_ok &= all(r["report"]["correct"] for r in records)
        print(f"== {name}: {runs} untraced runs + 1 traced run")
        print(format_table(summarize(records), unit=units()))
    return 0 if all_ok else 1


def summarize(records: list[dict]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for record in records:
        for name, value in record["metrics"].items():
            values.setdefault(name, []).append(float(value))
    return values


def format_table(values: dict[str, list[float]], unit: dict) -> str:
    lines = [f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
             f"{'spread':>8s}  n"]
    for name, vals in values.items():
        q1, q2, q3 = stats.quartiles(vals)
        sp = (q3 - q1) / abs(q2) if q2 else 0.0
        lines.append(f"  {name:28s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                     f"{sp:8.1%}  {len(vals)} {unit.get(name, '')}")
    return "\n".join(lines)


def load_records(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): values}`` from a results file."""
    grouped: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                for name, value in record["metrics"].items():
                    grouped.setdefault((record["workload"], name),
                                       []).append(float(value))
    return grouped


def verdict(base: list[float], new: list[float], better: str,
            bound: float | None) -> str:
    """How ``new`` compares with ``base`` for one metric on one workload.

    With a bound (end-to-end metrics): ``unresolved`` when either side's
    run-to-run spread exceeds the bound — unless every new run beats
    every base run — else ``worse`` beyond the bound, ``better`` when
    the medians differ by more than the base spread, ``same`` otherwise.
    Without a bound (per-layer counters): ``equal`` or ``changed`` when
    each side repeats exactly, else no verdict.
    """
    if bound is None:
        if len(set(base)) == 1 and len(set(new)) == 1:
            return "equal" if base[0] == new[0] else "changed"
        return ""
    b2, n2 = stats.median(base), stats.median(new)
    if better == "higher":
        gain = (n2 - b2) / abs(b2) if b2 else 0.0
        all_better = min(new) > max(base)
    else:
        gain = (b2 - n2) / abs(b2) if b2 else 0.0
        all_better = max(new) < min(base)
    if max(stats.spread(base), stats.spread(new)) > bound:
        return "better (all runs)" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > stats.spread(base):
        return "better"
    return "same"


def compare(base_path: str, new_path: str) -> int:
    doc = contract()
    meta = {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}
    base, new = load_records(base_path), load_records(new_path)
    worse = False
    print(f"{'workload':14s} {'metric':28s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'delta':>8s}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, name = key
        m = meta.get(name, {})
        b, n = base[key], new[key]
        b1, b2, b3 = stats.quartiles(b)
        n1, n2, n3 = stats.quartiles(n)
        delta = (n2 - b2) / abs(b2) if b2 else 0.0
        # Per-layer timings have no bound and no verdict; counts do.
        v = ("" if m.get("bound") is None and m.get("unit") != "count"
             else verdict(b, n, m.get("better", "lower"), m.get("bound")))
        worse |= v == "worse"
        print(f"{workload:14s} {name:28s} "
              f"{b2:12.6g} [{b1:9.4g}, {b3:9.4g}] "
              f"{n2:12.6g} [{n1:9.4g}, {n3:9.4g}] {delta:+8.1%}  {v}")
    return 1 if worse else 0


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: the "
                             "contract's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload with --workload all")
    parser.add_argument("--toy", action="store_true",
                        help="seconds-long smoke sizes (no reference check)")
    parser.add_argument("--out", help="append run records (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two results files")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            parser.error("--workload or --compare is required")
        check_checkout()
        seconds = (args.seconds if args.seconds is not None
                   else contract()["run_seconds"])
        if args.workload == "all":
            return run_suite(WORKLOAD_NAMES, args.runs, args.seed, seconds,
                             args.toy, args.out)
        record = run_once(args.workload, args.seed, seconds,
                          bool(args.trace), args.toy)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        append_records(args.out, [record])
    print_run(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
