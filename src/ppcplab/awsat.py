"""Universal-branch verification for alternating weighted SAT.

The verifier enumerates every weight-constrained choice for the universally
quantified blocks.  Per branch it substitutes the chosen values, simplifies
the formula, assembles the branch's assignment oracle from prefix-keyed
odd-block tables, and runs the negated-2-CNF protocol with one weight
sum-check per odd block.  The proof accepts only if every branch accepts.

Table discipline: the table for odd block j is keyed by the universal choices
in blocks below j only, and the verifier reads the proof once, into tables of
its own, before any branch runs.  So two branches sharing a universal prefix
receive identical existential answers, whatever the prover does between
branches; this is what makes the quantifier semantics sound.  With a single
block the run delegates verbatim to the plain W[1] verifier, so the l = 1
transcript is identical to verify_w1's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import pool
from .arithmetize import BooleanTable
from .field import select_prime  # unused here; bench/tracer.py wraps this name
from .formula import AwsatInstance, GuardError, alternation_moves, simplify
from .pcpverify import (
    ProtocolParameters,
    VerifierConfig,
    protocol_parameters,
    run_g12n_protocol,  # the clause-product pass; bench/tracer.py times it under this name
    verify_w1,
    _plain_attr,
    _StageLog,
    _unpatched,
    _walk_accepting_passes,
)
from .sumcheck import ProverStrategy, RandomTape, Verdict, table_committed_prover

ProverFactory = Callable[[BooleanTable], ProverStrategy]


def _choices_key(pairs) -> str:
    """Canonical encoding of (block, chosen subset) pairs."""
    return "|".join(f"{bi}:" + ",".join(str(v) for v in sorted(chosen)) for bi, chosen in pairs)


@dataclass(frozen=True)
class UniversalBranch:
    """One exactly-weight choice of subsets for all universal blocks,
    together with the canonical prefix encodings used for table lookup."""

    even_indices: tuple[int, ...]  # 1-based block numbers, ascending
    choices: tuple[frozenset[int], ...]

    def prefix_key(self, block_j: int) -> str:
        """Encoding of the universal choices in blocks strictly below j."""
        return _choices_key(
            [(bi, ch) for bi, ch in zip(self.even_indices, self.choices) if bi < block_j]
        )

    def substitution(self, instance: AwsatInstance) -> dict[int, bool]:
        """Even-block variables: chosen ones true, the rest false."""
        sub: dict[int, bool] = {}
        for bi, chosen in zip(self.even_indices, self.choices):
            for v in instance.blocks[bi - 1]:
                sub[v] = v in chosen
        return sub


def universal_branch_count(instance: AwsatInstance) -> int:
    """How many branches ``enumerate_universal`` lists, without listing
    them: the product of C(|block|, k) over the even blocks, under the same
    10^6 guard."""
    total = 1
    for block, kw in zip(instance.blocks[1::2], instance.block_weights[1::2]):
        total *= math.comb(len(block), kw)
        if total > 10**6:
            raise GuardError("universal branch count exceeds 10^6")
    return total


def enumerate_universal(instance: AwsatInstance) -> list[UniversalBranch]:
    """Every combination of exactly-weight subsets of the even blocks, in
    lexicographic order.  With no even blocks there is exactly one empty
    branch."""
    universal_branch_count(instance)
    indices = tuple(range(2, instance.l + 1, 2))
    pools = [
        [frozenset(c) for c in itertools.combinations(block, kw)]
        for block, kw in zip(instance.blocks[1::2], instance.block_weights[1::2])
    ]
    return [UniversalBranch(indices, combo) for combo in itertools.product(*pools)]


@dataclass
class BranchProofTables:
    """The assignment part of an alternating proof: one boolean table of
    arity m per (odd block, universal prefix).  Shared prefixes share one
    object."""

    tables: dict[tuple[int, str], BooleanTable]

    def merge(self, branch: UniversalBranch, instance: AwsatInstance) -> Optional[BooleanTable]:
        """Branch assignment oracle: the union of this branch's odd-block
        tables, masked so block j's table only speaks for block j's codes;
        None when some odd block has no table for the branch's prefix."""
        m = instance.formula.m
        values = bytearray(1 << m)
        for block_j, block in zip(itertools.count(1, 2), instance.blocks[::2]):
            table = self.tables.get((block_j, branch.prefix_key(block_j)))
            if table is None:
                return None
            for v in block:
                values[v - 1] = table.values[v - 1]
        return BooleanTable(m, values)


def honest_branch_tables(instance: AwsatInstance) -> Optional[BranchProofTables]:
    """Witness search: a consistent family of odd-block tables accepted on
    every branch, or None when the instance is a no-instance (``ppcplab
    verify`` then checks ``_fallback_tables``).

    The recursion plays the quantifier game over ``alternation_moves``.
    Every literal is negated, so a clause that the chosen variables falsify
    stays falsified below, and the search never enters such a child.  When
    some block has no exactly-weight choice, nothing is pruned and the
    first such block decides the game.  A winning existential choice is
    recorded under its universal prefix, so later branches that share the
    prefix reuse the same choice.  The prefix key grows by one
    ``_choices_key`` part per universal choice, and each distinct
    existential choice gets one table, shared by every key that picks it."""
    moves, leaf = alternation_moves(instance)
    depth = len(moves)
    parts = {
        i: [_choices_key([(i + 1, choice)]) for choice, _, _ in moves[i]]
        for i in range(1, depth, 2)
    }

    def search(i: int, key: str, trues: int) -> Optional[dict]:
        if i == depth:
            return {} if leaf else None
        if i % 2 == 0:  # 0-based even index: 1-based odd block, existential
            for choice, mask, conflict in moves[i]:
                t = trues | mask
                if t & conflict:
                    continue
                found = search(i + 1, key, t)
                if found is not None:
                    found[(i + 1, key)] = choice
                    return found
            return None
        merged: dict = {}
        for (_, mask, conflict), part in zip(moves[i], parts[i]):
            t = trues | mask
            if t & conflict:
                return None
            found = search(i + 1, f"{key}|{part}" if key else part, t)
            if found is None:
                return None
            merged.update(found)
        return merged

    found = search(0, "", 0)
    if found is None:
        return None
    m = instance.formula.m
    shared = {choice: BooleanTable.from_assignment(choice, m) for choice in set(found.values())}
    return BranchProofTables({key: shared[choice] for key, choice in found.items()})


def _fallback_tables(instance: AwsatInstance) -> BranchProofTables:
    """A table family for every prefix, each naming its block's first
    ``kw`` variables: a wrong proof whenever the instance is a no-instance,
    which ``ppcplab verify`` checks in place of the honest one.  Each block
    has one table, shared by all its prefixes."""
    m = instance.formula.m
    firsts = [
        (j, BooleanTable.from_assignment(block[:kw], m))
        for j, block, kw in zip(itertools.count(1, 2), instance.blocks[::2], instance.block_weights[::2])
    ]
    return BranchProofTables({
        (j, branch.prefix_key(j)): table
        for branch in enumerate_universal(instance)
        for j, table in firsts
    })


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
        branches=universal_branch_count(instance),
    )


def _read_proof(tables, m: int) -> BranchProofTables:
    """The proof, read once into a ``BranchProofTables`` of the verifier's
    own tables: one with no tables unless the proof is exactly a
    ``BranchProofTables`` holding exactly a dict, whose keys are exactly
    tuples of a plain int and a plain str and whose values are exactly
    ``BooleanTable``s with exactly a ``bytes`` of 2^m entries 0 or 1 as
    values (all that ``merge`` reads), checked by one C-level ``max``.
    Attributes are read through ``_plain_attr``, so no prover code runs
    here, and each table is rebuilt from its values, immutable bytes, so
    nothing the prover does to its objects later reaches a branch."""
    entries = _plain_attr(tables, BranchProofTables, "tables")
    if type(entries) is not dict:
        return BranchProofTables({})
    copied = {}
    for key, table in entries.items():
        values = _plain_attr(table, BooleanTable, "values")
        if not (
            type(key) is tuple and len(key) == 2 and type(key[0]) is int and type(key[1]) is str
            and type(values) is bytes and len(values) == 1 << m and max(values) <= 1
        ):
            return BranchProofTables({})
        copied[key] = BooleanTable(m, values)
    return BranchProofTables(copied)


def _infeasible_verdict(instance: AwsatInstance, log: _StageLog) -> Optional[Verdict]:
    # A block that cannot supply an exactly-weight subset decides the whole
    # alternation at its nesting depth: a universal block vacuously accepts,
    # an existential block has no move.
    for i, (block, kw) in enumerate(zip(instance.blocks, instance.block_weights)):
        if kw > len(block):
            universal = (i + 1) % 2 == 0
            return log.verdict() if universal else log.reject(f"block{i + 1}.infeasible", 0)
    return None


def _branch_prover(
    tables: BranchProofTables,
    branch: UniversalBranch,
    instance: AwsatInstance,
    prover_factory: ProverFactory,
) -> Optional[ProverStrategy]:
    """The prover for one branch, or None when the proof has no table for it
    or the factory raises or returns anything but a ``ProverStrategy``:
    either way the branch has no proof to check."""
    table = tables.merge(branch, instance)
    if table is None:
        return None
    try:
        prover = prover_factory(table)
    except Exception:  # a factory fault is a malformed proof, as in ask_prover
        return None
    return prover if issubclass(type(prover), ProverStrategy) else None


def _weight_checks(instance: AwsatInstance) -> list:
    """One weight check per odd block j: its stage name, the block's weight
    and the block's table."""
    m = instance.formula.m
    return [
        (f"weight{j}", kw, BooleanTable.from_assignment(block, m))
        for j, block, kw in zip(itertools.count(1, 2), instance.blocks[::2], instance.block_weights[::2])
    ]


def _run_branches(
    instance: AwsatInstance,
    tables: BranchProofTables,
    branches: list[UniversalBranch],
    part: range,
    prover_factory: ProverFactory,
    tape: RandomTape,
    log: _StageLog,
    params: ProtocolParameters,
    weight_checks: list,
) -> Optional[Verdict]:
    """The branches numbered ``part``, in order, on one tape and one log:
    the first rejection, or None when every one accepts."""
    for idx in part:
        branch = branches[idx]
        prefix = f"b{idx}."
        reduced = simplify(instance.formula, branch.substitution(instance))
        if reduced is None:
            return log.reject(prefix + "simplify", 0)
        prover = _branch_prover(tables, branch, instance, prover_factory)
        if prover is None:
            return log.reject(prefix + "tables", 0)
        rejected = run_g12n_protocol(
            reduced, prover, tape, log, params, weight_checks, prefix=prefix,
        )
        if rejected is not None:
            return rejected
    return None


def _branch_range(
    instance: AwsatInstance,
    tables: BranchProofTables,
    branches: list[UniversalBranch],
    part: range,
    params: ProtocolParameters,
    weight_checks: list,
    tape: RandomTape,
) -> tuple:
    """A helper's part of ``verify_awsat``: the branches numbered ``part``
    with honest provers over the verifier's ``tables``, on the caller's
    tape as it stood at the call, after the draws of the accepting branches
    below ``part``.  Returns the range's log, its rejecting verdict or None,
    and the tape's end state."""
    _walk_accepting_passes(tape, params, len(weight_checks), part.start)
    log = _StageLog()
    rejected = _run_branches(
        instance, tables, branches, part, table_committed_prover, tape, log, params, weight_checks,
    )
    return log, rejected, tape.getstate()


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
    does a missing prefix table or a ``prover_factory`` that raises or
    returns no ``ProverStrategy`` (a rejection at ``b{idx}.tables`` with 0
    rounds).  The proof is read once, before the first branch, into tables
    the verifier owns (``_read_proof``): a proof that is not well formed
    reads as one with no tables, and a proof rewritten after that read,
    say by ``prover_factory``, changes no branch's oracle.

    The branches are cut into one range per CPU (``pool.ranges``), and
    ``pool.run_beside`` runs the first on the caller's own tape while a
    helper runs each other one (``_branch_range``).  Each task carries the
    caller's own objects, pickled: the instance, the tables the verifier
    read, the branches, the parameters (so a ``VerifierConfig`` subclass
    reaches the helper as the numbers it gave), the weight checks and the
    tape as it stood at the call.  A helper reaches its
    range's tape by drawing alone: every stage is public-coin, so a branch
    that accepts draws a fixed schedule whatever the prover answers
    (``_walk_accepting_passes``).  The caller merges the ranges in order,
    the first rejection deciding (the helpers after it drop their ranges),
    and reruns a range no helper answered, so the verdict, every stage
    report and the tape's end state are those of the run in one process.
    Every branch runs in process when ``pool.ranges`` gives one range, the
    tape is not exactly a ``RandomTape``, ``prover_factory`` is not
    ``table_committed_prover``, a name ``bench/tracer.py`` rebinds
    (``_UNTRACED``, ``pcpverify._unpatched``) is not its own, or ``pickle``
    cannot carry a task (say, an instance of a locally defined class)."""
    if instance.l % 2 == 0:
        raise ValueError("verification needs an odd number of blocks; use pad_to_odd first")
    cfg = config or VerifierConfig()
    tables = _read_proof(tables, instance.formula.m)
    log = _StageLog()
    degenerate = _infeasible_verdict(instance, log)
    if degenerate is not None:
        return degenerate
    if instance.l == 1:
        prover = _branch_prover(tables, enumerate_universal(instance)[0], instance, prover_factory)
        if prover is None:
            return log.reject("b0.tables", 0)
        return verify_w1(instance.formula, prover, tape, cfg)

    branches = enumerate_universal(instance)
    params = awsat_parameters(instance, cfg)
    weight_checks = _weight_checks(instance)

    def run_here(part: range) -> Optional[Verdict]:
        return _run_branches(
            instance, tables, branches, part, prover_factory, tape, log, params, weight_checks,
        )

    splittable = (
        type(tape) is RandomTape
        and prover_factory is table_committed_prover
        and _unpatched()
        and (run_g12n_protocol, simplify, enumerate_universal, awsat_parameters, BranchProofTables.merge)
        == _UNTRACED
    )
    parts = pool.ranges(len(branches)) if splittable else [range(len(branches))]
    rejected, answers = pool.run_beside(
        [
            (__name__, "_branch_range", (instance, tables, branches, part, params, weight_checks, tape))
            for part in parts[1:]
        ],
        lambda: run_here(parts[0]),
        # a rejection, the caller's or a helper's, decides: the ranges after
        # it are not waited for
        lambda got: isinstance(got, Verdict) or (got is not None and got[1] is not None),
    )
    for part, got in zip(parts[1:], answers):
        if rejected is not None:
            break
        if got is None:
            rejected = run_here(part)
        else:
            part_log, part_rejected, end = got
            tape.setstate(end)
            rejected = log.extend(part_log, part_rejected)
    return rejected or log.verdict()


# verify_awsat splits its branches only while the names bench/tracer.py
# rebinds here hold this module's own functions
_UNTRACED = (run_g12n_protocol, simplify, enumerate_universal, awsat_parameters, BranchProofTables.merge)
