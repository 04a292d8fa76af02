"""End-to-end benchmark: batch, online, simulation and sweep workloads.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # every workload, untraced
    python3 benchmarks/e2e/run.py --traced             # per-layer breakdown
    python3 benchmarks/e2e/run.py --workload online --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --smoke              # tiny inputs, < 30 s

Each workload runs in its own fresh child process (``child.py``) with
BLAS thread pools pinned to one thread. The program is imported from
``src/`` of this checkout and sees only the inputs generated from
``--seed``. Every metric is printed as ``<workload> <metric> <value>
<unit>``, every failed check as ``CHECK FAILED``; the full record goes
to ``benchmarks/e2e/results/latest.json``. With a single workload the
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit status: 0 when every check passed, 1
when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import BENCH_DIR, RESULTS_DIR, ROOT, WORK_DIR, environment

WORKLOAD_NAMES = ("batch", "online", "mech", "sweep")

#: Must equal ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 15

#: Seconds of measurement per workload under ``--smoke``.
SMOKE_SECONDS = 0

#: A child still running after this long is killed (with its pool).
CHILD_TIMEOUT_S = 170


#: Environment every child runs with: BLAS pools pinned to one thread
#: (the pools are the parallelism under test) and a fixed hash seed.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    return env


def stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the child's process group (pool workers
    share it) and wait until all of it has gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_child(workload: str, args, run_dir: Path) -> dict | None:
    """One workload in a fresh process; its result, or None if it died."""
    out = run_dir / f"{workload}.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", "smoke" if args.smoke else "full",
        "--workdir", str(run_dir / workload),
        "--out", str(out),
        "--spawned-at", repr(time.time()),
    ]
    # The child's own output goes to stderr: stdout carries results only.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
        print(f"error: workload {workload} timed out", file=sys.stderr)
    finally:
        stop_group(proc)
    if code != 0 or not out.exists():
        print(f"error: workload {workload} exited with {code}", file=sys.stderr)
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def cross_checks(results: dict[str, dict]) -> list[str]:
    """Workloads that analyzed the same trace must agree on its digest."""
    seen: dict[str, tuple[str, str]] = {}
    problems = []
    for name, result in results.items():
        for scope, digest in result["fingerprints"].items():
            if scope not in seen:
                seen[scope] = (name, digest)
            elif seen[scope][1] != digest:
                problems.append(
                    f"{name} and {seen[scope][0]} disagree on the {scope} trace digest"
                )
    return problems


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help=f"measurement time per workload (default {RUN_SECONDS}; "
                        f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (tiny / mechanistic_tiny, 24 epochs)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    loadavg_before = os.getloadavg()
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        results = {}
        for name in workloads:
            result = run_child(name, args, run_dir)
            if result is None:
                return 2
            results[name] = result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = cross_checks(results)
    correct = not problems and all(r["correct"] for r in results.values())
    env = environment(WORK_DIR)
    env["child_env"] = PINNED_ENV
    env["loadavg_before"] = loadavg_before
    env["loadavg_after"] = os.getloadavg()
    record = {
        "env": env,
        "args": {k: getattr(args, k) for k in ("seed", "seconds", "trace", "smoke")},
        "correct": correct,
        "cross_checks": problems,
        "workloads": results,
    }
    (RESULTS_DIR / "latest.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        for check in result["checks"]:
            print(f"CHECK FAILED: {name}: {check}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if len(results) == 1:
        (result,) = results.values()
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }))
    else:
        print("all checks passed" if correct else "some checks failed")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
