"""Universal-branch verification for alternating weighted SAT.

The verifier enumerates every weight-constrained choice for the universally
quantified blocks.  Per branch it substitutes the chosen values, simplifies
the formula, assembles the branch's assignment oracle from prefix-keyed
odd-block tables, and runs the negated-2-CNF protocol with one weight
sum-check per odd block.  The proof accepts only if every branch accepts.

Table discipline: the table for odd block j is keyed by the universal choices
in blocks below j only, so two branches sharing a universal prefix are forced
to receive identical existential answers; this is what makes the quantifier
semantics sound.  With a single block the run delegates verbatim to the plain
W[1] verifier, so the l = 1 transcript is identical to verify_w1's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .arithmetize import BooleanTable
from .field import PrimeField, select_prime  # select_prime: unused, bench/tracer.py wraps it here
from .formula import (
    Assignment,
    AwsatInstance,
    GuardError,
    UNSAT,
    satisfies,
    simplify,
)
from .pcpverify import (
    ProtocolParameters,
    VerifierConfig,
    protocol_parameters,
    run_g12n_protocol,  # the clause-product pass; bench/tracer.py times it under this name
    verify_w1,
    _StageLog,
)
from .sumcheck import ProverStrategy, RandomTape, ResourceMeter, Verdict

ProverFactory = Callable[[BooleanTable], ProverStrategy]


class MissingTableError(ValueError):
    """The proof lacks a table for some (block, prefix) pair."""


def _choices_key(block_indices, choices) -> str:
    parts = []
    for bi, chosen in zip(block_indices, choices):
        parts.append(f"{bi}:" + ",".join(str(v) for v in sorted(chosen)))
    return "|".join(parts)


@dataclass(frozen=True)
class UniversalBranch:
    """One exactly-weight choice of subsets for all universal blocks,
    together with the canonical prefix encodings used for table lookup."""

    even_indices: tuple[int, ...]  # 1-based block numbers, ascending
    choices: tuple[frozenset[int], ...]

    def prefix_key(self, block_j: int) -> str:
        """Encoding of the universal choices in blocks strictly below j."""
        upto = [
            (bi, ch)
            for bi, ch in zip(self.even_indices, self.choices)
            if bi < block_j
        ]
        return _choices_key([b for b, _ in upto], [c for _, c in upto])

    def key(self) -> str:
        return _choices_key(self.even_indices, self.choices)

    def substitution(self, instance: AwsatInstance) -> dict[int, bool]:
        """Even-block variables: chosen ones true, the rest false."""
        sub: dict[int, bool] = {}
        for bi, chosen in zip(self.even_indices, self.choices):
            for v in instance.blocks[bi - 1]:
                sub[v] = v in chosen
        return sub


def enumerate_universal(instance: AwsatInstance) -> list[UniversalBranch]:
    """Every combination of exactly-weight subsets of the even blocks, in
    lexicographic order.  With no even blocks there is exactly one empty
    branch."""
    even = [
        (i + 1, instance.blocks[i], instance.block_weights[i])
        for i in range(instance.l)
        if (i + 1) % 2 == 0
    ]
    total = 1
    for _, block, kw in even:
        total *= math.comb(len(block), kw)
        if total > 10**6:
            raise GuardError("universal branch count exceeds 10^6")
    indices = tuple(bi for bi, _, _ in even)
    pools = [list(itertools.combinations(block, kw)) for _, block, kw in even]
    branches = []
    for combo in itertools.product(*pools):
        branches.append(UniversalBranch(indices, tuple(frozenset(c) for c in combo)))
    return branches


@dataclass
class BranchProofTables:
    """The assignment part of an alternating proof: one boolean table per
    (odd block, universal prefix).  Shared prefixes share one object."""

    tables: dict[tuple[int, str], BooleanTable]

    def lookup(self, block_j: int, prefix_key: str) -> BooleanTable:
        table = self.tables.get((block_j, prefix_key))
        if table is None:
            raise MissingTableError(f"no table for block {block_j}, prefix {prefix_key!r}")
        return table

    def merge(self, branch: UniversalBranch, instance: AwsatInstance) -> BooleanTable:
        """Branch assignment oracle: the union of this branch's odd-block
        tables, masked so block j's table only speaks for block j's codes."""
        m = instance.formula.m
        values = [0] * (1 << m)
        for i in range(instance.l):
            block_j = i + 1
            if block_j % 2 == 0:
                continue
            table = self.lookup(block_j, branch.prefix_key(block_j))
            if table.arity != m:
                raise MissingTableError(f"table for block {block_j} has arity {table.arity}, need {m}")
            for v in instance.blocks[i]:
                values[v - 1] = table.values[v - 1]
        return BooleanTable(m, tuple(values))


def honest_branch_tables(instance: AwsatInstance) -> Optional[BranchProofTables]:
    """Witness search: a consistent family of odd-block tables accepted on
    every branch, or None when the instance is a no-instance.

    The recursion mirrors the quantifier game; a winning existential choice is
    recorded under its universal prefix, so later branches that share the
    prefix reuse the same choice."""
    total = 1
    for block, kw in zip(instance.blocks, instance.block_weights):
        total *= math.comb(len(block), kw)
        if total > 10**7:
            raise GuardError("witness search tree exceeds 10^7 branches")
    blocks = instance.blocks
    weights = instance.block_weights
    l = instance.l
    formula = instance.formula

    def search(i: int, even_prefix: tuple, trues: frozenset[int]):
        if i == l:
            return satisfies(formula, Assignment(trues)), {}
        block_j = i + 1
        subsets = itertools.combinations(blocks[i], weights[i])
        if block_j % 2 == 1:
            key = _choices_key([b for b, _ in even_prefix], [c for _, c in even_prefix])
            for s in subsets:
                ok, found = search(i + 1, even_prefix, trues | frozenset(s))
                if ok:
                    found[(block_j, key)] = frozenset(s)
                    return True, found
            return False, {}
        merged: dict = {}
        for s in subsets:
            ok, found = search(i + 1, even_prefix + ((block_j, frozenset(s)),), trues | frozenset(s))
            if not ok:
                return False, {}
            merged.update(found)
        return True, merged

    ok, found = search(0, (), frozenset())
    if not ok:
        return None
    m = instance.formula.m
    return BranchProofTables(
        {key: BooleanTable.from_assignment(chosen, m) for key, chosen in found.items()}
    )


def pad_to_odd(instance: AwsatInstance) -> AwsatInstance:
    """Append an empty existential block with weight 0 to an even-l instance;
    quantifying over the unique empty subset leaves the alternation value
    unchanged."""
    if instance.l % 2 == 1:
        raise ValueError("instance already has an odd number of blocks")
    return AwsatInstance(
        formula=instance.formula,
        blocks=instance.blocks + ((),),
        block_weights=instance.block_weights + (0,),
    )


def awsat_parameters(
    instance: AwsatInstance, config: Optional[VerifierConfig] = None
) -> ProtocolParameters:
    """Prime and round budget for the branch protocol: one weight check per
    odd block, and epsilon shared out over the universal branches."""
    return protocol_parameters(
        instance.formula,
        config,
        weight_checks=(instance.l + 1) // 2,
        branches=len(enumerate_universal(instance)),
    )


def _infeasible_verdict(instance: AwsatInstance, meter: ResourceMeter) -> Optional[Verdict]:
    # A block that cannot supply an exactly-weight subset decides the whole
    # alternation at its nesting depth: a universal block vacuously accepts,
    # an existential block has no move.
    for i, (block, kw) in enumerate(zip(instance.blocks, instance.block_weights)):
        if kw > len(block):
            universal = (i + 1) % 2 == 0
            if universal:
                return Verdict(True, meter.snapshot(), stage=None, stages=())
            return Verdict(
                False, meter.snapshot(), rejection_round=None,
                stage=f"block{i + 1}.infeasible", stages=(),
            )
    return None


def verify_awsat(
    instance: AwsatInstance,
    tables: BranchProofTables,
    prover_factory: ProverFactory,
    tape: RandomTape,
    config: Optional[VerifierConfig] = None,
) -> Verdict:
    """Branch-by-branch verification of an alternating instance (odd l).

    The per-branch soundness target is epsilon / (branch count), so the union
    over branches still meets the configured epsilon.  A branch whose
    substitution already falsifies a clause rejects the proof outright, as
    does a missing prefix table."""
    if instance.l % 2 == 0:
        raise ValueError("verification needs an odd number of blocks; use pad_to_odd first")
    cfg = config or VerifierConfig()
    meter = ResourceMeter()
    degenerate = _infeasible_verdict(instance, meter)
    if degenerate is not None:
        return degenerate
    if instance.l == 1:
        branch = enumerate_universal(instance)[0]
        try:
            table = tables.merge(branch, instance)
        except MissingTableError:
            return Verdict(False, meter.snapshot(), rejection_round=None,
                           stage="b0.tables", stages=())
        return verify_w1(instance.formula, prover_factory(table), tape, cfg)

    branches = enumerate_universal(instance)
    m = instance.formula.m
    params = awsat_parameters(instance, cfg)
    fld = PrimeField(params.prime)
    log = _StageLog(meter)
    weight_checks = [
        (f"weight{i + 1}", kw, BooleanTable.from_true_codes([v - 1 for v in block], m))
        for i, (block, kw) in enumerate(zip(instance.blocks, instance.block_weights))
        if i % 2 == 0
    ]
    for idx, branch in enumerate(branches):
        prefix = f"b{idx}."
        reduced = simplify(instance.formula, branch.substitution(instance))
        if reduced is UNSAT:
            log.close(prefix + "simplify", 0, False)
            return Verdict(False, meter.snapshot(), rejection_round=None,
                           stage=prefix + "simplify", stages=tuple(log.reports))
        try:
            branch_table = tables.merge(branch, instance)
        except MissingTableError:
            log.close(prefix + "tables", 0, False)
            return Verdict(False, meter.snapshot(), rejection_round=None,
                           stage=prefix + "tables", stages=tuple(log.reports))
        prover = prover_factory(branch_table)
        ok, stage, rnd = run_g12n_protocol(
            reduced, prover, tape, meter, log, fld, params, weight_checks, prefix=prefix,
        )
        if not ok:
            return Verdict(False, meter.snapshot(), rejection_round=rnd,
                           stage=stage, stages=tuple(log.reports))
    return Verdict(True, meter.snapshot(), stages=tuple(log.reports))
