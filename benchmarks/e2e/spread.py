"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs ``run.py`` once per (seed, workload), exactly as a regression
check would, for ``--sets`` sets of ``--runs`` seeds each (the same
seeds in every set), and prints per workload and metric the median and
the quartile spread ((Q3 - Q1) / median) of each set, next to the
metric's bound from BENCHMARK.json. With two or more sets it also
prints how far the last set's median moved from the first's. It exits
1 when a spread (``setup_s``'s excepted) or that drift exceeds the
bound. The numbers are written to ``benchmarks/e2e/results/spread.json``.

    python3 benchmarks/e2e/spread.py --runs 10
    python3 benchmarks/e2e/spread.py --runs 5 --sets 2 --workload online
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import (
    BENCH_DIR,
    RESULTS_DIR,
    ROOT,
    exceeds_bound,
    quartile_spread,
    worsening,
)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py --workload {workload} --seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> one value per seed
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    for s in range(args.sets):
        for seed in range(1, args.runs + 1):
            for w in workloads:
                out = run_once(w, seed, args.seconds)
                if not out["correct"] or out["failed"]:
                    raise SystemExit(f"{w} seed {seed}: checks failed")
                for m in metrics:
                    values[s][w][m["name"]].append(out["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed} {w} done", file=sys.stderr)

    # Verdicts: a spread above the bound, or a later set's median worse
    # than the first's by more than the bound, fails (setup_s's spread
    # is exempt); a spread above a third of the bound is flagged "wide".
    report, failed = {}, False
    print(f"{'workload':<8} {'metric':<16} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
                     for s in range(args.sets))
          + ("   drift" if args.sets > 1 else "") + "  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values[s][w][name] for s in range(args.sets)]
            medians = [statistics.median(v) for v in sets]
            spreads = [quartile_spread(v) for v in sets]
            drift = worsening(medians[0], medians[-1], m["better"])
            verdict = "ok"
            if max(spreads) > bound / 3:
                verdict = "wide"
            if name != "setup_s" and max(spreads) > bound:
                verdict = "SPREAD"
            if exceeds_bound(medians[0], medians[-1], m["better"], bound):
                verdict = "DRIFT"
            failed |= verdict in ("SPREAD", "DRIFT")
            report.setdefault(w, {})[name] = {
                "bound": bound, "values": sets, "medians": medians,
                "spreads": spreads, "drift": drift, "verdict": verdict,
            }
            print(f"{w:<8} {name:<16} {bound:>6.2f} "
                  + " ".join(f"{md:>12.5g} {sp:>8.4f}" for md, sp in zip(medians, spreads))
                  + (f" {drift:>+7.4f}" if args.sets > 1 else "") + f"  {verdict}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "spread.json").write_text(
        json.dumps({"runs": args.runs, "seconds": args.seconds, "metrics": report},
                   indent=1) + "\n",
        encoding="utf-8",
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
