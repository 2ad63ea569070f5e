"""Golden protocol corpus: tagged records of everything the verifiers let a
caller observe.

Each record is a (tag, text) pair; ``corpus.json`` keeps one sha256 of the
text per tag, in generation order.  ``tests/test_golden.py`` regenerates the
records and names the first tag whose text changed.  The records cover:

  * ``repr(Verdict)`` of honest, adaptive and garbage provers on negated
    2-CNF and on positive CNF at padded lengths 1..5,
  * every ``run_sumcheck`` transcript inside those runs (coefficients,
    challenges, running claims),
  * verifier parameters, 20-trial soundness experiments, the branch
    protocol at 1, 3 and 5 blocks,
  * CLI ``verify`` / ``attack --json`` reports without ``wall_time_ms``,
  * the closed-form random and proof bit counts for m = 1..13,
  * the verdicts on proofs whose final assignment reads are malformed.

Rewrite the corpus only for an intended observable change:

    PYTHONPATH=src python3 tests/golden/record.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterator

from ppcplab import pcpverify
from ppcplab.arithmetize import BooleanTable
from ppcplab.awsat import (
    BranchProofTables,
    awsat_parameters,
    enumerate_universal,
    honest_branch_tables,
    pad_to_odd,
    verify_awsat,
)
from ppcplab.cli import main as cli_main
from ppcplab.formula import AwsatInstance, ClassTag, WeightedFormula, brute_force_wsat
from ppcplab.pcpverify import (
    ADVERSARIES,
    VerifierConfig,
    resource_report,
    soundness_experiment,
    verify_w1,
    verify_w2,
    w1_ideal_random_bits,
    w1_parameters,
    w1_proof_bits,
    w2_ideal_random_bits,
    w2_parameters,
    w2_proof_bits,
)
from ppcplab.reductions import gen_planted_yes, gen_random, gen_random_awsat
from ppcplab.sumcheck import (
    RandomGarbageProver,
    RandomTape,
    TableCommittedProver,
    adaptive_cheater,
    derive_seed,
    table_committed_prover,
)

CORPUS = Path(__file__).with_name("corpus.json")
Record = tuple[str, str]

CONFIGS = {
    "default": VerifierConfig(),
    "eps0.1": VerifierConfig(epsilon=0.1),
    "reps3": VerifierConfig(ml_test_reps=3),
    "p1009": VerifierConfig(explicit_prime=1009),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def w1_formulas() -> list[tuple[str, WeightedFormula]]:
    g12n = ClassTag.G12N
    return [
        ("tiny_yes", WeightedFormula(3, ((-1, -2), (-1, -3)), g12n, 1)),
        ("tiny_no", WeightedFormula(2, ((-1, -2),), g12n, 2)),
        ("unit_clause", WeightedFormula(4, ((-1,), (-2, -3), (-3, -4)), g12n, 2)),
        ("pinned_m4", WeightedFormula(3, ((-1, -2),), g12n, 2, m=4)),
        ("planted", gen_planted_yes(6, 2, 6, 11)),
        ("random_a", gen_random(6, 7, 3, 5)),
        ("random_b", gen_random(8, 8, 4, 9)),
    ]


def w2_formulas() -> list[tuple[str, WeightedFormula]]:
    """Two positive-CNF formulas per padded length L = 1..5, each with one
    clause of length exactly L."""
    out = []
    for L in range(1, 6):
        for k, seed in ((1, 3), (2, 4)):
            base = gen_random(6, 5, k, 100 * L + seed, ClassTag.G21P, max_len=L)
            clauses = (tuple(range(1, L + 1)),) + base.clauses[1:]
            out.append((f"L{L}_k{k}", WeightedFormula(6, clauses, ClassTag.G21P, k)))
    return out


def _table_for(formula: WeightedFormula) -> BooleanTable:
    decision, witness = brute_force_wsat(formula)
    true_set = witness.true_set if decision else range(1, min(formula.k, formula.num_vars) + 1)
    return BooleanTable.from_assignment(true_set, formula.m)


def _off_weight_table(formula: WeightedFormula) -> BooleanTable:
    """Satisfies every clause but misses the weight target: no variable true
    for negated 2-CNF, every variable true for positive CNF."""
    true_set = () if formula.class_tag is ClassTag.G12N else range(1, formula.num_vars + 1)
    return BooleanTable.from_assignment(true_set, formula.m)


def _provers(formula: WeightedFormula, seed: int) -> dict[str, Callable[[], object]]:
    table, off = _table_for(formula), _off_weight_table(formula)
    return {
        "honest": lambda: table_committed_prover(table),
        "adaptive": lambda: adaptive_cheater(table_committed_prover(table)),
        "garbage": lambda: RandomGarbageProver(derive_seed(seed, 1)),
        "off_weight": lambda: table_committed_prover(off),
        "off_weight_adaptive": lambda: adaptive_cheater(table_committed_prover(off)),
    }


# ---------------------------------------------------------------------------
# Transcript capture
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def captured_sumchecks() -> Iterator[list]:
    """Collects every run the verifiers start through ``pcpverify.run_sumcheck``."""
    runs: list = []
    original = pcpverify.run_sumcheck

    def capture(*args, **kwargs):
        run = original(*args, **kwargs)
        runs.append(run)
        return run

    pcpverify.run_sumcheck = capture
    try:
        yield runs
    finally:
        pcpverify.run_sumcheck = original


def transcript_text(run) -> str:
    rounds = [
        [t.index, [c.value for c in t.claimed.coeffs], t.challenge.value, t.running.value]
        for t in run.transcripts
    ]
    final = None if run.final_expected is None else run.final_expected.value
    return json.dumps(
        {"verdict": repr(run.verdict), "point": [v.value for v in run.final_point],
         "final": final, "rounds": rounds}
    )


def traced_verdict(tag: str, call: Callable[[], object]) -> list[Record]:
    with captured_sumchecks() as runs:
        verdict = call()
    out = [(f"{tag}/verdict", repr(verdict))]
    out += [(f"{tag}/sumcheck{i}", transcript_text(run)) for i, run in enumerate(runs)]
    return out


# ---------------------------------------------------------------------------
# Record groups
# ---------------------------------------------------------------------------


def verdict_records() -> list[Record]:
    out = []
    jobs = [("w1", name, f, verify_w1) for name, f in w1_formulas()]
    jobs += [("w2", name, f, verify_w2) for name, f in w2_formulas()]
    for kind, name, formula, verifier in jobs:
        for seed in (0, 1, 2):
            for pname, make in _provers(formula, seed).items():
                tag = f"verify/{kind}/{name}/{pname}/s{seed}"
                out += traced_verdict(
                    tag, lambda: verifier(formula, make(), RandomTape(derive_seed(seed, 40)))
                )
        cfg = CONFIGS["p1009"]
        out += traced_verdict(
            f"verify/{kind}/{name}/honest/p1009",
            lambda: verifier(formula, table_committed_prover(_table_for(formula)), RandomTape(9), cfg),
        )
    return out


def parameter_records() -> list[Record]:
    out = []
    for name, formula in w1_formulas():
        for cname, cfg in CONFIGS.items():
            p = w1_parameters(formula, cfg)
            out.append((f"params/w1/{name}/{cname}", repr((p.m, p.reps, p.total_rounds, p.prime))))
    for name, formula in w2_formulas():
        for cname, cfg in CONFIGS.items():
            p = w2_parameters(formula, cfg)
            fields = (p.m, p.padded_len, p.reps, p.total_rounds, p.degree, p.prime)
            out.append((f"params/w2/{name}/{cname}", repr(fields)))
    return out


def soundness_records() -> list[Record]:
    out = []
    formulas = w1_formulas() + w2_formulas()
    for name, formula in formulas:
        if brute_force_wsat(formula)[0]:
            continue
        for adversary in ADVERSARIES:
            result = soundness_experiment(formula, adversary, 20, 17)
            out.append((f"soundness/{name}/{adversary}", repr(sorted(result.items()))))
    return out


def _awsat_instances() -> list[tuple[str, AwsatInstance]]:
    return [
        ("l1", gen_random_awsat(5, (5,), (2,), 4, 1)),
        ("l3_a", gen_random_awsat(6, (2, 2, 2), (1, 1, 1), 3, 2)),
        ("l3_b", gen_random_awsat(6, (2, 2, 2), (1, 1, 1), 6, 8)),
        ("l2_padded", pad_to_odd(gen_random_awsat(5, (3, 2), (1, 1), 3, 4))),
        ("l5", gen_random_awsat(8, (2, 2, 1, 2, 1), (1, 1, 0, 1, 0), 4, 3)),
        ("infeasible", gen_random_awsat(4, (1, 2, 1), (2, 0, 0), 2, 5)),
    ]


def _fallback_tables(instance: AwsatInstance) -> BranchProofTables:
    """A table family for every prefix, each naming the block's first
    ``kw`` variables: a wrong proof whenever the instance is a no-instance."""
    m = instance.formula.m
    tables = {}
    for branch in enumerate_universal(instance):
        for i, (block, kw) in enumerate(zip(instance.blocks, instance.block_weights)):
            if (i + 1) % 2 == 1:
                key = (i + 1, branch.prefix_key(i + 1))
                tables[key] = BooleanTable.from_assignment(block[:kw], m)
    return BranchProofTables(tables)


def awsat_records() -> list[Record]:
    out = []
    for name, instance in _awsat_instances():
        p = awsat_parameters(instance)
        out.append((f"awsat/{name}/params", repr((p.m, p.reps, p.branches, p.prime))))
        tables = honest_branch_tables(instance) or _fallback_tables(instance)
        factories = {
            "honest": table_committed_prover,
            "adaptive": lambda t: adaptive_cheater(table_committed_prover(t)),
            "garbage": lambda t: RandomGarbageProver(23),
            "empty": lambda t: table_committed_prover(BooleanTable.from_true_codes((), t.arity)),
        }
        for fname, factory in factories.items():
            for seed in (0, 1):
                out += traced_verdict(
                    f"awsat/{name}/{fname}/s{seed}",
                    lambda: verify_awsat(instance, tables, factory, RandomTape(seed)),
                )
        missing = BranchProofTables({})
        out.append((
            f"awsat/{name}/missing",
            repr(verify_awsat(instance, missing, table_committed_prover, RandomTape(0))),
        ))
    return out


CLI_INSTANCES = {
    "yes.pwsat": "p pwsat g12n 3 2 1\n-1 -2 0\n-1 -3 0\n",
    "no.pwsat": "p pwsat g12n 2 1 2\n-1 -2 0\n",
    "w2.pwsat": "p pwsat g21p 3 1 1\n1 2 3 0\n",
    "w2no.pwsat": "p pwsat g21p 3 2 1\n1 2 0\n3 0\n",
    "a.awsat": "p pwsat g12n 4 1 3\nb 1 1 1 0\nb 2 1 2 3 0\nb 3 1 4 0\n-2 -3 0\n",
    "table.txt": "1\n",
    "wrong.txt": "1 2\n",
}

CLI_RUNS = [
    ["verify", "yes.pwsat", "--seed", "3"],
    ["verify", "yes.pwsat", "--seed", "31", "--epsilon", "0.1"],
    ["verify", "yes.pwsat", "--prime", "1009"],
    ["verify", "yes.pwsat", "--prover", "table:table.txt"],
    ["verify", "yes.pwsat", "--prover", "table:wrong.txt", "--seed", "2"],
    ["verify", "no.pwsat", "--seed", "3"],
    ["verify", "w2.pwsat", "--seed", "1"],
    ["verify", "w2no.pwsat", "--seed", "4"],
    ["verify", "a.awsat", "--seed", "5"],
    ["attack", "no.pwsat", "--trials", "20", "--seed", "5"],
    ["attack", "no.pwsat", "--trials", "20", "--adversary", "committed"],
    ["attack", "no.pwsat", "--trials", "20", "--adversary", "random", "--prime", "11"],
    ["attack", "w2no.pwsat", "--trials", "20", "--seed", "2"],
]


def cli_records() -> list[Record]:
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for fname, text in CLI_INSTANCES.items():
            (root / fname).write_text(text)
        for argv in CLI_RUNS:
            args = [str(root / a) if a in CLI_INSTANCES else a for a in argv]
            args = [a.replace("table:", f"table:{root}/") for a in args]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(args + ["--json"])
            report = json.loads(buf.getvalue())
            report.pop("wall_time_ms", None)
            text = json.dumps({"exit": code, "report": report}, sort_keys=True)
            out.append(("cli/" + " ".join(argv), text.replace(f"{root}/", "")))
    return out


def bits_records() -> list[Record]:
    out = []
    for m in range(1, 14):
        for prime in (5, 101, 65537, 2**31 - 1):
            rows = []
            for reps in (1, 5 * m):
                rows.append(("w1", reps, w1_ideal_random_bits(m, reps, prime), w1_proof_bits(m, reps, prime)))
                for L in range(1, 6):
                    rows.append((
                        f"w2L{L}", reps,
                        w2_ideal_random_bits(m, L, reps, prime), w2_proof_bits(m, L, reps, prime),
                    ))
            out.append((f"bits/m{m}/p{prime}", repr(rows)))
    rows = resource_report(range(1, 5), seed=3)
    out.append(("bits/resource_report", repr(rows)))
    return out


class MalformedFinalReads(TableCommittedProver):
    """Honest until the main sum-check starts; from then on every assignment
    answer is a plain int instead of a field element."""

    def __init__(self, table: BooleanTable):
        super().__init__(table)
        self._started = False

    def begin_sumcheck(self, spec, claim) -> None:
        super().begin_sumcheck(spec, claim)
        self._started = True

    def assignment_query(self, point):
        value = super().assignment_query(point)
        return value.value if self._started else value


def malformed_records() -> list[Record]:
    """The table satisfies every clause, so each run reaches the final reads."""
    out = []
    jobs = [("w1", name, f, verify_w1) for name, f in w1_formulas()]
    jobs += [("w2", name, f, verify_w2) for name, f in w2_formulas()]
    for kind, name, formula, verifier in jobs:
        prover = MalformedFinalReads(_off_weight_table(formula))
        verdict = verifier(formula, prover, RandomTape(6))
        out.append((f"malformed/{kind}/{name}", repr(verdict)))
    return out


GROUPS = (
    verdict_records,
    parameter_records,
    soundness_records,
    awsat_records,
    cli_records,
    bits_records,
    malformed_records,
)


def records() -> list[Record]:
    return [rec for group in GROUPS for rec in group()]


def corpus() -> dict[str, str]:
    out: dict[str, str] = {}
    for tag, text in records():
        if tag in out:
            raise ValueError(f"duplicate golden tag {tag!r}")
        out[tag] = digest(text)
    return out


def main() -> int:
    data = corpus()
    CORPUS.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data)} records to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
