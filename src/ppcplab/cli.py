"""Command-line driver: verification, attacks, scaling reports, reductions,
and instance generation.

Exit codes: 0 accept/yes (for ``attack``: the empirical rate stayed within
the analytic bound), 1 reject/no, 2 usage or parse error.  Every report is a
deterministic function of the instance and --seed except wall_time_ms.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .arithmetize import BooleanTable
from .awsat import (
    _fallback_tables,
    awsat_parameters,
    honest_branch_tables,
    pad_to_odd,
    verify_awsat,
)
from .formula import (
    ClassTag,
    GuardError,
    brute_force_awsat,
    brute_force_wsat,
    parse_awsat,
    parse_pwsat,
    render_awsat,
    render_pwsat,
)
from .pcpverify import (
    ADVERSARIES,
    VerifierConfig,
    protocol_parameters,
    resource_report,
    soundness_experiment,
    verify_w1,
    verify_w2,
)
from .reductions import (
    gen_planted_yes,
    gen_random,
    gen_random_awsat,
    independent_set_to_wsat,
    parse_graph,
)
from .sumcheck import RandomTape, derive_seed, table_committed_prover

REPORT_VERSION = 1

# the widest cube ``verify`` builds 2^m-entry tables for (the golden corpus reaches 13)
MAX_VERIFY_M = 16


def _is_awsat_text(text: str) -> bool:
    return any(
        line.strip().startswith("b ") for line in text.splitlines() if line.strip()
    )


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    for key, value in report.items():
        if key == "stages":
            for st in value:
                parts = " ".join(f"{k}={v}" for k, v in st.items())
                print(f"stage: {parts}")
        else:
            print(f"{key}: {value}")


def _stage_dicts(verdict) -> list[dict]:
    return [dataclasses.asdict(s) for s in verdict.stages]


def _load_table_file(path: str, m: int) -> BooleanTable:
    tokens = Path(path).read_text().split()
    true_vars = [int(t) for t in tokens]
    if any(v < 1 for v in true_vars):
        raise ValueError("table files list the true variable indices (positive integers)")
    return BooleanTable.from_assignment(set(true_vars), m)


def _int_list(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _verifiable_width(m: int) -> int:
    if m > MAX_VERIFY_M:
        raise GuardError(f"m={m} exceeds the widest verifiable cube, m={MAX_VERIFY_M}")
    return m


def cmd_verify(args) -> int:
    text = Path(args.path).read_text()
    config = VerifierConfig(epsilon=args.epsilon, explicit_prime=args.prime)
    started = time.perf_counter()
    if _is_awsat_text(text):
        instance = parse_awsat(text)
        if args.prover != "honest":
            raise ValueError("alternating instances support only the honest prover")
        m = _verifiable_width(instance.formula.m)
        instance = pad_to_odd(instance) if instance.l % 2 == 0 else instance
        tables = honest_branch_tables(instance) or _fallback_tables(instance)
        tape = RandomTape(args.seed)
        verdict = verify_awsat(instance, tables, table_committed_prover, tape, config)
        prime = awsat_parameters(instance, config).prime
        tag = "awsat"
    else:
        formula = parse_pwsat(text)
        m = _verifiable_width(formula.m)
        if args.prover == "honest":
            decision, witness = brute_force_wsat(formula)
            true_set = witness.true_set if decision else frozenset(
                range(1, min(formula.k, formula.num_vars) + 1)
            )
            table = BooleanTable.from_assignment(true_set, m)
        elif args.prover.startswith("table:"):
            table = _load_table_file(args.prover.split(":", 1)[1], m)
        else:
            raise ValueError(f"unknown prover {args.prover!r}")
        verifier = verify_w1 if formula.class_tag is ClassTag.G12N else verify_w2
        verdict = verifier(formula, table_committed_prover(table), RandomTape(args.seed), config)
        prime = protocol_parameters(formula, config).prime
        tag = formula.class_tag.value
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "report_version": REPORT_VERSION,
        "command": "verify",
        "instance": args.path,
        "class": tag,
        "m": m,
        "prime": prime,
        "seed": args.seed,
        "prover": args.prover,
        "verdict": "accept" if verdict.accepted else "reject",
        "rejection_stage": verdict.stage,
        "rejection_round": verdict.rejection_round,
        "random_bits": verdict.meter.random_bits,
        "proof_bits": verdict.meter.proof_bits,
        "oracle_queries": verdict.meter.oracle_queries,
        "stages": _stage_dicts(verdict),
        "wall_time_ms": round(elapsed_ms, 3),
    }
    _print_report(report, args.json)
    return 0 if verdict.accepted else 1


def cmd_solve(args) -> int:
    text = Path(args.path).read_text()
    if _is_awsat_text(text):
        instance = parse_awsat(text)
        decision = brute_force_awsat(instance)
        print("yes" if decision else "no")
        return 0 if decision else 1
    formula = parse_pwsat(text)
    decision, witness = brute_force_wsat(formula)
    if decision:
        print("yes " + " ".join(str(v) for v in sorted(witness.true_set)))
        return 0
    print("no")
    return 1


def cmd_attack(args) -> int:
    formula = parse_pwsat(Path(args.path).read_text())
    config = VerifierConfig(epsilon=args.epsilon, explicit_prime=args.prime)
    result = soundness_experiment(formula, args.adversary, args.trials, args.seed, config)
    report = {
        "report_version": REPORT_VERSION,
        "command": "attack",
        "instance": args.path,
        "seed": args.seed,
        **result,
        "within_bound": result["acceptance_rate"] <= result["analytic_bound"],
    }
    _print_report(report, args.json)
    return 0 if report["within_bound"] else 1


def cmd_scaling(args) -> int:
    print("m,prime,random_bits,proof_bits,random_norm,proof_norm")
    for j in range(args.per_m):
        rows = resource_report(range(args.m_min, args.m_max + 1), seed=derive_seed(args.seed, j))
        for row in rows:
            print(
                f"{row.m},{row.prime},{row.random_bits},{row.proof_bits},"
                f"{row.random_norm:.3f},{row.proof_norm:.3f}"
            )
    return 0


def cmd_reduce(args) -> int:
    graph = parse_graph(Path(args.path).read_text())
    formula = independent_set_to_wsat(graph, args.k)
    sys.stdout.write(render_pwsat(formula))
    return 0


def cmd_gen(args) -> int:
    if args.kind == "planted":
        formula = gen_planted_yes(args.n, args.k, args.clauses, args.seed)
        sys.stdout.write(render_pwsat(formula))
    elif args.kind == "random":
        formula = gen_random(
            args.n, args.clauses, args.k, args.seed,
            ClassTag(args.cls), args.max_len,
        )
        sys.stdout.write(render_pwsat(formula))
    else:
        sizes = _int_list("--block-sizes", args.block_sizes)
        weights = _int_list("--block-weights", args.block_weights)
        instance = gen_random_awsat(args.n, sizes, weights, args.clauses, args.seed)
        sys.stdout.write(render_awsat(instance))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppcplab",
        description="Sum-check verification lab for weighted satisfiability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the probabilistic verifier on an instance")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--prover", default="honest", help="honest | table:FILE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="brute-force ground truth")
    p.add_argument("path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("attack", help="measure an adversary's acceptance rate")
    p.add_argument("path")
    p.add_argument("--adversary", choices=ADVERSARIES, default="adaptive")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("scaling", help="metered resource report as CSV")
    p.add_argument("--m-min", type=int, default=3)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--per-m", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("reduce", help="Independent Set graph to pwsat text")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("gen", help="emit a generated instance")
    p.add_argument("kind", choices=["planted", "random", "awsat"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--clauses", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class", dest="cls", default="g12n", choices=["g12n", "g21p"])
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--block-sizes", default="")
    p.add_argument("--block-weights", default="")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # parse and guard errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
