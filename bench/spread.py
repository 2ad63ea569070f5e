"""Run-to-run spread of the end-to-end metrics, from the root of a checkout.

    python3 bench/spread.py --workloads honest_large --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --write bench/baseline.json

Runs the benchmark command of BENCHMARK.json once per workload and seed, one
run at a time, and reports for each metric the median of the runs and the
distance between their first and third quartiles as a share of the median,
next to the metric's bound.  ``--write`` stores the figures, with the
machine's description, in a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "system": platform.system(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write", help="JSON file to store the figures in")
    args = parser.parse_args(argv)

    report = {"machine": machine(), "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            took = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed} ({took:.0f} s): correct={result['correct']} {values}", flush=True)
        table = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            table[metric["name"]] = {
                "median": med, "spread": spread, "bound": metric["bound"],
                "unit": metric["unit"], "values": values,
            }
            print(f"  {metric['name']:<14} median {med:<12.5g} {metric['unit']:<6} "
                  f"spread {spread:6.1%}  bound {metric['bound']:.0%}")
        report["workloads"][name] = {"seeds": parse_seeds(args.seeds), "metrics": table}
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
