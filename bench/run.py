"""Benchmark of the ppcplab verifiers, run from the root of a checkout.

    python3 bench/run.py --workload honest_large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

A closed loop: one process, one caller, no threads; the next op starts when
the previous one returns.  ``--trace 0`` times ops for ``--seconds`` (and at
least ``Profile.min_ops`` ops) and reports the end-to-end metrics.
``--trace 1`` runs the first ``min_ops`` ops twice, untraced and then under
the tracer, and reports the per-layer metrics; a fixed op count makes every
count repeat exactly for a seed.  Times are scaled to a nominal host speed
by ``hostspeed.SpeedProbe``; the raw figures are printed too.  Each run
prints its metrics by name with units and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"

SETUP_MIN_REPEATS = 3
SETUP_TARGET_S = 1.5  # cheap setups repeat until this much time is spent
SETUP_MAX_REPEATS = 200
HARD_STOP_S = 150.0  # a run ends here even short of min_ops, so it exits within 180 s


def _import_program():
    """Import ppcplab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ppcplab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ppcplab sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import ppcplab

    if Path(ppcplab.__file__).resolve().parent != (src / "ppcplab").resolve():
        raise SystemExit(f"bench: imported ppcplab from {ppcplab.__file__}, not {src}")


def _expected_digest(workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload, {}).get(str(seed))


def setup(workload, seed: int, seconds: float, probe):
    """Build the inputs several times; returns (items, median setup seconds
    raw and scaled, median scaled seconds per setup phase)."""
    from workloads import Phases

    starts, raw, phase_runs = [], [], []
    items = None
    while len(raw) < SETUP_MIN_REPEATS or (sum(raw) < SETUP_TARGET_S and len(raw) < SETUP_MAX_REPEATS):
        items = None
        gc.collect()
        probe.sample()
        phases = Phases()
        start = time.perf_counter()
        items = workload.setup(seed, seconds, phases)
        raw.append(time.perf_counter() - start)
        starts.append(start)
        phase_runs.append(phases.seconds)
    probe.sample()
    scales = [probe.scale_at(s) for s in starts]
    scaled = statistics.median(t * f for t, f in zip(raw, scales))
    phases = {k: statistics.median(r[k] * f for r, f in zip(phase_runs, scales)) for k in phase_runs[0]}
    return items, statistics.median(raw), scaled, phases


class Loop:
    """Closed loop over a workload's ops.  Per op it keeps the op's latency
    and the length of its whole turn (op, gate and digest), both raw, and
    chains the op's protocol fields into a digest."""

    def __init__(self, workload, items, seed: int, probe, digest_ops: int):
        self.workload, self.items, self.seed, self.probe = workload, items, seed, probe
        self.digest_ops = digest_ops
        self.starts: list[float] = []
        self.latency: list[float] = []
        self.turn: list[float] = []
        self.ok: list[bool] = []
        self.chain = hashlib.sha256()
        self.prefix = None  # digest after the first digest_ops ops

    def step(self, i: int) -> None:
        self.probe.maybe_sample()
        start = time.perf_counter()
        try:
            result = self.workload.op(self.items, i, self.seed)
        except Exception:
            took = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            ok, fields = False, "raised"
        else:
            took = time.perf_counter() - start
            try:
                ok = self.workload.check(self.items, i, result)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            fields = self.workload.fields(result)
        self.chain.update(json.dumps(fields, separators=(",", ":")).encode())
        if i + 1 == self.digest_ops:
            self.prefix = self.chain.hexdigest()
        self.starts.append(start)
        self.latency.append(took)
        self.ok.append(ok)
        self.turn.append(time.perf_counter() - start)

    def scaled(self, values: list[float]) -> list[float]:
        self.probe.sample()
        return [v * self.probe.scale_at(s) for v, s in zip(values, self.starts)]


def timed_run(workload, items, seed: int, seconds: float, min_ops: int, probe) -> Loop:
    """Ops for ``seconds`` and at least ``min_ops`` of them (at most one pass
    over the pool when every op must see a new input)."""
    loop = Loop(workload, items, seed, probe, min_ops)
    limit = len(items) if workload.bounded_by_pool else None
    gc.collect()
    start = time.perf_counter()
    i = 0
    while limit is None or i < limit:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i >= min_ops) or elapsed >= HARD_STOP_S:
            break
        loop.step(i)
        i += 1
    return loop


def fixed_run(workload, items, seed: int, count: int, probe) -> Loop:
    loop = Loop(workload, items, seed, probe, count)
    gc.collect()
    for i in range(count):
        loop.step(i)
    return loop


def _gate_digest(prefix, expected, lines) -> bool:
    if expected is None:
        lines.append(f"digest of first ops: {prefix} (no recorded digest for this seed)")
        return True
    match = prefix == expected
    lines.append(f"digest of first ops: {prefix} ({'matches' if match else 'DIFFERS from'} recorded)")
    return match


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def measure(name: str, seed: int, seconds: float, trace: bool, profile=None, expected=None):
    """Run one workload; returns (result dict, human-readable lines).
    ``expected`` overrides the recorded digest of the first ops, which exists
    for the full-size profile only."""
    import workloads
    from hostspeed import NOMINAL_MS, SpeedProbe

    profile = profile or workloads.FULL
    if expected is None and profile is workloads.FULL:
        expected = _expected_digest(name, seed)
    workload = workloads.WORKLOADS[name](profile)
    probe = SpeedProbe()
    items, setup_raw, setup_s, phases = setup(workload, seed, seconds, probe)
    lines = [f"workload {name}  seed {seed}"]
    if not trace:
        loop = timed_run(workload, items, seed, seconds, profile.min_ops, probe)
        attempted = len(loop.ok)
        failed = loop.ok.count(False)
        if loop.prefix is None or not _gate_digest(loop.prefix, expected, lines):
            failed = attempted
        latency = loop.scaled(loop.latency)
        busy = sum(loop.scaled(loop.turn))
        metrics = {
            "ops_per_s": (attempted / busy, "1/s"),
            "op_ms_p50": (1e3 * statistics.median(latency), "ms"),
            "op_ms_p90": (1e3 * _p90(latency), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "ok_share": ((attempted - failed) / attempted, "share"),
        }
        lines.append(f"ops {attempted} in {sum(loop.turn):.2f} s, failed {failed}, "
                     f"reference kernel {probe.median_ms():.3f} ms (nominal {NOMINAL_MS} ms)")
        lines.append(f"raw: ops_per_s {attempted / sum(loop.turn):.4g}, "
                     f"op_ms_p50 {1e3 * statistics.median(loop.latency):.4g}, "
                     f"op_ms_p90 {1e3 * _p90(loop.latency):.4g}, setup_s {setup_raw:.4g}")
        lines.append(f"  {'failed_share':<40} {failed / attempted:<20.6g} share")
    else:
        from tracer import Tracer

        count = profile.min_ops
        plain = fixed_run(workload, items, seed, count, probe)
        tracer = Tracer()
        with tracer:
            traced = fixed_run(workload, items, seed, count, probe)
        plain_s, traced_s = sum(plain.scaled(plain.turn)), sum(traced.scaled(traced.turn))
        attempted = count
        failed = sum(not (a and b) for a, b in zip(plain.ok, traced.ok))
        same = plain.prefix == traced.prefix
        lines.append(f"traced digest {'equals' if same else 'DIFFERS from'} untraced digest")
        if not same or not _gate_digest(plain.prefix, expected, lines):
            failed = attempted
        # self and stage times come from the traced pass; scale them like it
        factor = traced_s / sum(traced.turn)
        metrics = {k: (v * factor if u == "s" else v, u) for k, (v, u) in tracer.layer_metrics().items()}
        metrics["setup.generate_s"] = (phases["generate"], "s")
        metrics["setup.oracle_s"] = (phases["oracle"], "s")
        metrics["setup.honest_tables_s"] = (phases["honest_tables"], "s")
        metrics["trace.ops"] = (count, "count")
        metrics["trace.untraced_s"] = (plain_s, "s")
        metrics["trace.traced_s"] = (traced_s, "s")
        metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
        metrics["trace.reference_ms"] = (probe.median_ms(), "ms")
        lines.append(f"ops {count} untraced {sum(plain.turn):.3f} s, traced {sum(traced.turn):.3f} s (raw)")
        lines.append("self-time shares of the traced run:")
        shares = sorted(
            ((v / traced_s, k) for k, (v, u) in metrics.items() if k.endswith(".self_s")),
            reverse=True,
        )
        lines.extend(f"    {k:<44} {share:6.1%}" for share, k in shares if share >= 0.001)
    lines.extend(f"  {k:<40} {v!s:<20} {u}" if isinstance(v, int) else f"  {k:<40} {v:<20.6g} {u}"
                 for k, (v, u) in metrics.items())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick all or one of {sorted(workloads.WORKLOADS)}")
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
