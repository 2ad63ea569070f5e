"""The benchmark's three workloads: seeded inputs, the timed op, the
correctness gate of every op, and the protocol-fixed fields each op feeds to
the digest.

Every input derives from the ``--seed`` given to the benchmark; the program
receives only the generated instances.  Ops call the program through module
attributes (``pcpverify.verify_w1``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Any

from ppcplab import awsat, formula, pcpverify, reductions, sumcheck
from ppcplab.arithmetize import BooleanTable
from ppcplab.formula import Assignment, AwsatInstance, ClassTag, WeightedFormula


@dataclass(frozen=True)
class Profile:
    """Input sizes.  ``FULL`` is the benchmark; ``TINY`` serves the self-test."""

    min_ops: int  # every run makes at least this many ops; the digest covers exactly these
    w1_vars: int
    w1_clauses: int
    w2_vars: int
    w2_clauses: int
    planted_k: int
    honest_ops_per_second: int  # honest pool size per second of run (every op a new formula)
    attack_pool: int
    attack_trials: int
    no_configs: tuple  # (num_vars, k, num_clauses) of attack no-instances
    awsat_pool: int
    awsat_shapes: tuple  # (block sizes, block weights); even l is padded to odd
    awsat_branch_range: tuple[int, int]


# W1 at m=12 (4000 clauses) and W2 at m=11 (2000 clauses).
FULL = Profile(
    min_ops=100,
    w1_vars=100,
    w1_clauses=4000,
    w2_vars=100,
    w2_clauses=2000,
    planted_k=3,
    honest_ops_per_second=13,
    attack_pool=128,
    attack_trials=24,
    # the acceptance suite's no-corpus sizes: m=3
    no_configs=((4, 2, 8), (4, 3, 8), (4, 3, 7), (5, 3, 8), (4, 2, 7)),
    awsat_pool=96,
    # 15..36 universal branches at m=4, 3 to 5 blocks
    awsat_shapes=(
        ((3, 6, 3), (1, 2, 1)),
        ((2, 7, 3), (1, 2, 1)),
        ((3, 8, 3), (1, 2, 1)),
        ((2, 9, 3), (1, 2, 1)),
        ((3, 4, 3, 4), (1, 1, 1, 1)),
        ((2, 5, 2, 4, 2), (1, 1, 1, 1, 1)),
        ((2, 6, 2, 4, 2), (1, 1, 1, 1, 1)),
        ((2, 5, 3, 6), (1, 1, 1, 1)),
    ),
    awsat_branch_range=(15, 36),
)

TINY = Profile(
    min_ops=6,
    w1_vars=12,
    w1_clauses=20,
    w2_vars=10,
    w2_clauses=12,
    planted_k=2,
    honest_ops_per_second=0,
    attack_pool=4,
    attack_trials=3,
    no_configs=((4, 2, 8), (4, 3, 7)),
    awsat_pool=2,
    awsat_shapes=(((2, 3, 2), (1, 1, 1)),),
    awsat_branch_range=(3, 3),
)


def _rng(seed: int, *tags) -> random.Random:
    # str seeds hash deterministically (sha512), independent of PYTHONHASHSEED
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _tape_seed(seed: int, op: int) -> int:
    return (seed % (1 << 31)) * (1 << 32) + op


class Phases:
    """Wall time of the three setup phases."""

    def __init__(self):
        self.seconds = {"generate": 0.0, "oracle": 0.0, "honest_tables": 0.0}

    def timed(self, phase: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[phase] += time.perf_counter() - start


def verdict_fields(verdict) -> list:
    """Protocol-fixed fields of a verdict, by name; new fields never enter."""
    m = verdict.meter
    return [
        ["accepted", verdict.accepted],
        ["stage", verdict.stage],
        ["rejection_round", verdict.rejection_round],
        ["meter", [m.random_bits, m.proof_bits, m.oracle_queries]],
        ["stages", [
            [s.name, s.rounds, s.random_bits, s.proof_bits, s.oracle_queries, s.accepted]
            for s in verdict.stages
        ]],
    ]


# ---------------------------------------------------------------------------
# honest_large
# ---------------------------------------------------------------------------


def planted_g21p(num_vars: int, k: int, num_clauses: int, length: int, rng: random.Random):
    """Positive CNF with a planted weight-k witness: every clause holds a
    planted variable.  The first clause has exactly ``length`` literals, the
    rest 1..length, so the padded length is ``length``."""
    planted = rng.sample(range(1, num_vars + 1), k)
    clauses = []
    for j in range(num_clauses):
        size = length if j == 0 else rng.randint(1, length)
        chosen = rng.sample(range(1, num_vars + 1), size)
        if not any(v in planted for v in chosen):
            pick = rng.choice([v for v in planted if v not in chosen])
            chosen[rng.randrange(size)] = pick
        clauses.append(tuple(sorted(chosen)))
    f = WeightedFormula(num_vars, tuple(clauses), ClassTag.G21P, k)
    return f, Assignment(frozenset(planted))


@dataclass
class HonestItem:
    formula: WeightedFormula
    table: BooleanTable
    witness_ok: bool


class HonestLarge:
    """One honest verify_w1 / verify_w2 call per op, each on a new planted
    yes-instance: even ops W1 at m=12, odd ops W2 at m=11 with L cycling 2..5."""

    name = "honest_large"
    bounded_by_pool = True

    def __init__(self, profile: Profile):
        self.profile = profile

    def pool_size(self, seconds: float) -> int:
        return max(self.profile.min_ops, math.ceil(self.profile.honest_ops_per_second * seconds))

    def setup(self, seed: int, seconds: float, phases: Phases) -> list[HonestItem]:
        prof = self.profile
        items = []
        for i in range(self.pool_size(seconds)):
            rng = _rng(seed, self.name, i)
            if i % 2 == 0:
                f, wit = phases.timed(
                    "generate", reductions.gen_planted_yes_with_witness,
                    prof.w1_vars, prof.planted_k, prof.w1_clauses, rng.getrandbits(32),
                )
            else:
                length = 2 + (i // 2) % 4
                f, wit = phases.timed(
                    "generate", planted_g21p, prof.w2_vars, prof.planted_k, prof.w2_clauses, length, rng,
                )
            ok = phases.timed("oracle", formula.satisfies, f, wit)
            ok = ok and wit.weight == f.k
            table = phases.timed("honest_tables", BooleanTable.from_assignment, wit.true_set, f.m)
            items.append(HonestItem(f, table, ok))
        return items

    def op(self, items, i: int, seed: int):
        item = items[i]
        tape = sumcheck.RandomTape(_tape_seed(seed, i))
        prover = sumcheck.table_committed_prover(item.table)
        if item.formula.class_tag is ClassTag.G12N:
            verdict = pcpverify.verify_w1(item.formula, prover, tape)
        else:
            verdict = pcpverify.verify_w2(item.formula, prover, tape)
        return verdict, tape

    def check(self, items, i: int, result) -> bool:
        verdict, tape = result
        f = items[i].formula
        if not (items[i].witness_ok and verdict.accepted):
            return False
        if f.class_tag is ClassTag.G12N:
            p = pcpverify.w1_parameters(f)
            ideal = pcpverify.w1_ideal_random_bits(p.m, p.reps, p.prime)
            proof = pcpverify.w1_proof_bits(p.m, p.reps, p.prime)
        else:
            p = pcpverify.w2_parameters(f)
            ideal = pcpverify.w2_ideal_random_bits(p.m, p.padded_len, p.reps, p.prime)
            proof = pcpverify.w2_proof_bits(p.m, p.padded_len, p.reps, p.prime)
        return (
            verdict.meter.random_bits == ideal + tape.overhead_bits
            and verdict.meter.proof_bits == proof
        )

    def fields(self, result) -> list:
        return verdict_fields(result[0])


# ---------------------------------------------------------------------------
# attack_small
# ---------------------------------------------------------------------------


class AttackSmall:
    """One soundness_experiment call per op on a fixed pool of m=3
    no-instances of both fragments; the adversary cycles adaptive, committed,
    random."""

    name = "attack_small"
    bounded_by_pool = False

    def __init__(self, profile: Profile):
        self.profile = profile

    def setup(self, seed: int, seconds: float, phases: Phases) -> list[WeightedFormula]:
        prof = self.profile
        pool: list[WeightedFormula] = []
        # Every seed gets the same mix of fragments, sizes and g21p clause
        # lengths (which set the round count), so seeds differ only in the
        # clauses drawn.
        for slot in range(prof.attack_pool):
            tag = ClassTag.G12N if slot % 2 == 0 else ClassTag.G21P
            n, k, ncl = prof.no_configs[(slot // 2) % len(prof.no_configs)]
            max_len = 2 + (slot // 2) % 2
            for attempt in itertools.count():
                if attempt > 100_000:
                    raise RuntimeError("no-instance pool not filled")
                rng = _rng(seed, self.name, slot, attempt)
                f = phases.timed(
                    "generate", reductions.gen_random, n, ncl, k, rng.getrandbits(32), tag, max_len,
                )
                if f.m != 3 or (tag is ClassTag.G21P and f.max_clause_len != max_len):
                    continue
                if phases.timed("oracle", formula.brute_force_wsat, f)[0]:
                    continue
                pool.append(f)
                break
        return pool

    def op(self, items, i: int, seed: int):
        f = items[i % len(items)]
        adversary = pcpverify.ADVERSARIES[i % len(pcpverify.ADVERSARIES)]
        return pcpverify.soundness_experiment(f, adversary, self.profile.attack_trials, _tape_seed(seed, i))

    def check(self, items, i: int, result) -> bool:
        slack = 3 * math.sqrt(0.25 / result["trials"])
        return (
            result["trials"] == self.profile.attack_trials
            and result["acceptance_rate"] <= result["analytic_bound"] + slack
        )

    def fields(self, result) -> list:
        return sorted([k, v] for k, v in result.items())


# ---------------------------------------------------------------------------
# awsat_branches
# ---------------------------------------------------------------------------


@dataclass
class AwsatItem:
    instance: AwsatInstance
    tables: Any  # BranchProofTables, or None when honest_branch_tables found none
    branches: int


class AwsatBranches:
    """One verify_awsat call per op on a fixed set of alternating
    yes-instances with many universal branches."""

    name = "awsat_branches"
    bounded_by_pool = False

    def __init__(self, profile: Profile):
        self.profile = profile

    def setup(self, seed: int, seconds: float, phases: Phases) -> list[AwsatItem]:
        prof = self.profile
        low, high = prof.awsat_branch_range
        items = []
        for slot in range(prof.awsat_pool):
            # every seed gets the same mix of shapes and clause counts
            sizes, weights = prof.awsat_shapes[slot % len(prof.awsat_shapes)]
            ncl = 2 + (slot // len(prof.awsat_shapes)) % 3
            for attempt in itertools.count():
                if attempt > 10_000:
                    raise RuntimeError("no alternating yes-instance found")
                rng = _rng(seed, self.name, slot, attempt)
                inst = phases.timed(
                    "generate", reductions.gen_random_awsat,
                    sum(sizes), sizes, weights, ncl, rng.getrandbits(32),
                )
                if inst.l % 2 == 0:
                    inst = awsat.pad_to_odd(inst)
                branches = len(awsat.enumerate_universal(inst))
                if not low <= branches <= high:
                    raise ValueError(f"shape {sizes} gives {branches} branches")
                if not phases.timed("oracle", formula.brute_force_awsat, inst):
                    continue
                # None here means the two oracles disagree; the ops then fail
                tables = phases.timed("honest_tables", awsat.honest_branch_tables, inst)
                items.append(AwsatItem(inst, tables, branches))
                break
        return items

    def op(self, items, i: int, seed: int):
        item = items[i % len(items)]
        if item.tables is None:
            raise ValueError("brute_force_awsat says yes, honest_branch_tables found no tables")
        tape = sumcheck.RandomTape(_tape_seed(seed, i))
        return awsat.verify_awsat(item.instance, item.tables, sumcheck.table_committed_prover, tape)

    def check(self, items, i: int, verdict) -> bool:
        if not verdict.accepted:
            return False
        per_branch: dict[str, int] = {}
        for stage in verdict.stages:
            tag = stage.name.split(".", 1)[0]
            per_branch[tag] = per_branch.get(tag, 0) + stage.proof_bits
        return (
            len(per_branch) == items[i % len(items)].branches
            and len(set(per_branch.values())) == 1
        )

    def fields(self, verdict) -> list:
        return verdict_fields(verdict)


WORKLOADS = {w.name: w for w in (HonestLarge, AttackSmall, AwsatBranches)}
