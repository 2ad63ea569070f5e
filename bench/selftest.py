"""Self-test of the benchmark at a tiny size, from the root of a checkout.

    python3 bench/selftest.py

For two seeds and every workload it checks that every metric named in
BENCHMARK.json is reported with its unit, that the counts of two traced runs
with the same seed are equal, that the traced and untraced runs give equal
digests, and that a corrupted expected digest turns every op into a failure.
It also checks that the benchmark exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (1, 2)
SECONDS = 0.2
BAD_DIGEST = "0" * 64


def main() -> int:
    run._import_program()
    import workloads
    from hostspeed import SpeedProbe
    from tracer import Tracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def reports_all(result, lines, wanted, label):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in wanted}
        printed = {ln.split()[0]: ln.split()[-1] for ln in lines if ln.startswith("  ")}
        expect(got == want and all(printed.get(k) == u for k, u in want.items()),
               f"{label}: every metric printed with its unit")
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")

    tiny = workloads.TINY
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            label = f"{name} seed {seed}"
            plain, lines = run.measure(name, seed, SECONDS, False, tiny)
            reports_all(plain, lines, spec["end_to_end"], label + " untraced")
            expect(plain["correct"] and plain["failed"] == 0, f"{label} untraced: all ops correct")

            traced = [run.measure(name, seed, SECONDS, True, tiny) for _ in range(2)]
            reports_all(*traced[0], spec["per_layer"], label + " traced")
            expect(traced[0][0]["correct"], f"{label} traced: all ops correct, digests equal")
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                for r, _ in traced
            ]
            expect(counts[0] == counts[1] and any(counts[0].values()),
                   f"{label} traced: counts repeat exactly")

            workload = workloads.WORKLOADS[name](tiny)
            probe = SpeedProbe()
            items = run.setup(workload, seed, SECONDS, probe)[0]
            timed = run.timed_run(workload, items, seed, 0, tiny.min_ops, probe)
            untraced = run.fixed_run(workload, items, seed, tiny.min_ops, probe)
            with Tracer():
                traced = run.fixed_run(workload, items, seed, tiny.min_ops, probe)
            expect(timed.prefix == untraced.prefix == traced.prefix,
                   f"{label}: timed, untraced and traced digests equal")

            for trace in (False, True):
                bad, _ = run.measure(name, seed, SECONDS, trace, tiny, expected=BAD_DIGEST)
                expect(not bad["correct"] and bad["failed"] == bad["attempted"] > 0,
                       f"{label} trace={int(trace)}: corrupted digest fails every op")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources: non-zero exit, no result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
