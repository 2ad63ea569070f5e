"""End-to-end verifiers for weighted SAT, the multilinearity spot-test, and
resource accounting.

Both fragments run one clause-product protocol: negated 2-CNF is the
positive-CNF protocol at padded length L = 2 with literal factor A(x) in
place of 1 - A(x) (see ``arithmetize.summand_value``).  ``run_protocol``
stages one pass, in this fixed order so transcripts replay:

  1. multilinearity test of the proof's assignment oracle, one line read
     (three points of an axis-parallel line) per repetition,
  2. draw the m random clause weights,
  3. main sum-check over (z, x_1..x_L) with claim 0 (the instance is
     satisfied),
  4. one weight sum-check per configured block with the claimed weight.

Stages 3 and 4 are one loop.  Each stage builds its statement (a frozen
``SummandSpec``: the schedule and the summand's data, no code), runs the
sum-check on it, reads the assignment oracle at the statement's
``read_points`` (L metered reads in the main stage, one in a weight stage)
and checks ``summand_value`` there against the last running claim.  That is
the only final check.  The verifier keeps residues mod p, plain ints, and
computes and meters by the prime of its parameters.  A statement carries p
and its own clause code arrays, so the final check reads no cache.  The
prover receives its own copy of each statement and residues on both wires:
claims and challenges, and every point it answers at, with p.  It answers
with residues too, read only if exactly plain ints in [0, p)
(``sumcheck.proof_residues``).  The verifier reads nothing it hands out, so
nothing the prover writes, even past a frozen class, reaches a check or a
meter.  An honest prover compiles its own plan from the statement.

``verify_w1`` and ``verify_w2`` run one pass with a weight check over the real
variables; the branch protocol in ``awsat`` runs one pass per universal
branch.  The verifier computes the clause indicators and the clause-weight
extension itself and never reads them from the proof; only round-polynomial
coefficients and assignment values count as proof bits.  The weight check is
restricted to the real-variable block, so weight parked on dummy codes never
counts.  A large pass over a plain committed table runs its line test, the
main final check's read-free factor and its weight stage on a helper beside
the main sum-check (``_split_pass``), through ``pool.run_beside``, with the
same outputs.

``protocol_parameters`` selects the prime from the total round budget of one
pass (sum-check rounds plus one term per multilinearity repetition) and the
number of passes, so a single union bound covers the run.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .arithmetize import (
    BooleanTable,
    Point,
    SummandSpec,
    build_w1_summand,
    build_w2_summand,
    build_weight_summand,
    clause_indicator_eval,  # unused here; bench/tracer.py wraps this name
    mle_eval,  # unused here; bench/tracer.py wraps this name
    read_points,
    summand_factor,
    summand_value,
    with_reads,
)
from .field import MAX_MODULUS, is_prime, select_prime
from .formula import (
    ClassMismatchError,
    ClassTag,
    GuardError,
    WeightedFormula,
    brute_force_wsat,
)
from . import pool
from .reductions import gen_planted_yes_with_witness
from .sumcheck import (
    ProverStrategy,
    RandomTape,
    ResourceMeter,
    StageReport,
    Verdict,
    adaptive_cheater,
    ask_prover,
    derive_seed,
    draw_field_element,
    proof_residues,
    run_sumcheck,
    table_committed_prover,
    RandomGarbageProver,
    TableCommittedProver,
)


@dataclass(frozen=True)
class VerifierConfig:
    """Knobs shared by every verifier: target soundness, multilinearity-test
    repetitions (default 5m), and an optional explicit prime override used by
    experiments that want to separate "bound holds" from "bound is tight"."""

    epsilon: float = 0.5
    ml_test_reps: Optional[int] = None
    explicit_prime: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.epsilon <= 0.5:
            raise ValueError("epsilon must lie in (0, 1/2]")
        if self.ml_test_reps is not None and self.ml_test_reps < 1:
            raise ValueError("at least one multilinearity repetition is required")

    def reps_for(self, m: int) -> int:
        return self.ml_test_reps if self.ml_test_reps is not None else 5 * m


def _read_assignment(
    prover: ProverStrategy,
    points: Sequence[Point],
    meter: ResourceMeter,
    p: int,
) -> Optional[tuple[int, ...]]:
    """Metered reads of the assignment oracle, one ``assignment_query`` per
    point: ceil(log2 p) proof bits and one query each, whatever comes back.
    Returns the residues read, or None if any answer is malformed or any
    query raises."""
    meter.proof_bits += len(points) * (p - 1).bit_length()
    meter.oracle_queries += len(points)
    answers = tuple([ask_prover(prover, "assignment_query", q, p) for q in points])
    return proof_residues(answers, len(points), p)


def multilinearity_test(
    prover: ProverStrategy,
    m: int,
    reps: int,
    tape: RandomTape,
    meter: ResourceMeter,
    p: int,
) -> tuple[bool, Optional[int]]:
    """Axis-parallel three-point collinearity test.

    Each repetition draws a line (``RandomTape.draw_line``): an axis, a point
    for the other coordinates and three distinct axis values.  It asks the
    prover for the three values at once (``line_query``, handed the
    residues and p) and checks that the oracle's restriction is affine
    there.  Per repetition: ceil(log2 m) + (m + 3) * ceil(log2 p) ideal
    random bits and three reads of ceil(log2 p) proof bits, metered whatever
    comes back.  Rejects on the first failing repetition;
    an answer that is not exactly a tuple of three plain ints in [0, p), or
    a query that raises, fails its repetition.  The meters move once, at
    the end, by the bits drawn over the test and by the reads of every
    repetition that ran, the rejecting one included.
    """
    start = tape.bits_drawn
    ran, failed = reps, None
    for rep in range(1, reps + 1):
        head, tail, ts = tape.draw_line(m, p)
        f = proof_residues(ask_prover(prover, "line_query", head, tail, ts, p), 3, p)
        t0, t1, t2 = ts
        if f is None or (f[2] - f[0]) * (t1 - t0) % p != (f[1] - f[0]) * (t2 - t0) % p:
            ran = failed = rep
            break
    meter.random_bits += tape.bits_drawn - start
    meter.proof_bits += 3 * ran * (p - 1).bit_length()
    meter.oracle_queries += 3 * ran
    return failed is None, failed


class _StageLog(ResourceMeter):
    """A run's meter and the one ledger its verdict is built from: each
    closed stage adds a ``StageReport`` of the meters it moved."""

    def __init__(self):
        super().__init__()
        self._mark = self.snapshot()
        self.reports: list[StageReport] = []

    def close(self, name: str, rounds: int, accepted: bool) -> None:
        now = self.snapshot()
        self.reports.append(
            StageReport(
                name=name,
                rounds=rounds,
                random_bits=now.random_bits - self._mark.random_bits,
                proof_bits=now.proof_bits - self._mark.proof_bits,
                oracle_queries=now.oracle_queries - self._mark.oracle_queries,
                accepted=accepted,
            )
        )
        self._mark = now

    def verdict(self) -> Verdict:
        """An accept, carrying every closed stage's report."""
        return Verdict(True, self.snapshot(), stages=tuple(self.reports))

    def reject(self, stage: str, rounds: int, rnd: Optional[int] = None) -> Verdict:
        """A rejection at ``stage``, round ``rnd``, closing that stage's report."""
        self.close(stage, rounds, False)
        return Verdict(False, self.snapshot(), rnd, stage, tuple(self.reports))

    def extend(self, part: "_StageLog", rejected: Optional[Verdict]) -> Optional[Verdict]:
        """Append the stage reports of ``part``, the log of a later part of
        the run, and add its meters: the rejection at ``rejected``'s stage
        and round, or None when ``rejected`` is None (that part accepted)."""
        self.reports += part.reports
        self.random_bits += part.random_bits
        self.proof_bits += part.proof_bits
        self.oracle_queries += part.oracle_queries
        self._mark = self.snapshot()
        if rejected is None:
            return None
        return Verdict(False, self.snapshot(), rejected.rejection_round, rejected.stage, tuple(self.reports))


@dataclass(frozen=True)
class ProtocolParameters:
    """Budget of one verifier invocation: ``total_rounds`` counts one pass
    ((L+1)m main rounds, m per weight check, one per multilinearity
    repetition); the prime bounds the union over ``branches`` passes."""

    m: int
    padded_len: int
    reps: int
    branches: int
    total_rounds: int
    degree: int
    prime: int


def protocol_parameters(
    formula: WeightedFormula,
    config: Optional[VerifierConfig] = None,
    weight_checks: int = 1,
    branches: int = 1,
) -> ProtocolParameters:
    """Padded length, rounds, degree and prime for ``branches`` passes of the
    clause-product protocol; each pass gets soundness target
    epsilon / branches, so the union over passes meets the configured epsilon."""
    cfg = config or VerifierConfig()
    m = formula.m
    L = 2 if formula.class_tag is ClassTag.G12N else max(formula.max_clause_len, 1)
    reps = cfg.reps_for(m)
    total = (L + 1) * m + weight_checks * m + reps
    degree = max(L + 1, 3)
    prime = cfg.explicit_prime
    if prime is None:
        prime = select_prime(total, degree, cfg.epsilon / max(branches, 1))
    elif prime <= max(degree, 2):
        # the reference prover interpolates at the nodes 0..degree, which
        # must stay distinct mod p; the multilinearity test needs three
        # distinct coordinates
        raise ValueError(f"prime override {prime} too small for degree {degree} rounds")
    elif prime > MAX_MODULUS:
        raise ValueError(f"prime override {prime} exceeds the 2^61 - 1 cap")
    elif not is_prime(prime):
        raise ValueError(f"prime override {prime} is not prime")
    return ProtocolParameters(m, L, reps, branches, total, degree, prime)


# bench/tracer.py wraps these names and bench/workloads.py calls them
w1_parameters = w2_parameters = protocol_parameters


WeightCheck = tuple[str, int, Optional[BooleanTable]]


def run_protocol(
    formula: WeightedFormula,
    prover: ProverStrategy,
    tape: RandomTape,
    log: _StageLog,
    params: ProtocolParameters,
    weight_checks: Sequence[WeightCheck],
    prefix: str = "",
) -> Optional[Verdict]:
    """One full clause-product verification pass over an existing log: the
    rejecting verdict, or None when every stage accepts.

    The verifier computes and meters by ``params.prime``: each statement
    carries it as an int, the prover is handed a copy of each statement
    (``run_sumcheck``), and every point it is asked at is a tuple of
    residues.

    Shared between the plain verifiers (one weight check over the real
    variables) and the branch protocol (one weight check per odd block).  A
    stage reads every assignment value of its final check before it judges
    any of them, so its metered proof bits never depend on the proof's
    content.
    """
    m, L, reps, p = formula.m, params.padded_len, params.reps, params.prime
    ok, rep = multilinearity_test(prover, m, reps, tape, log, p)
    if not ok:
        return log.reject(prefix + "mltest", rep, rep)
    log.close(prefix + "mltest", reps, True)

    weights = [draw_field_element(tape, p, log) for _ in range(m)]
    for name, claim, block_table in [("main", 0, None), *weight_checks]:
        # one statement per stage, built through the module-level names that
        # bench/tracer.py wraps to split the main stage from the weight stage
        if name != "main":
            spec = build_weight_summand(m, p, block_table)
        else:
            spec = _main_summand(formula, p, weights, L)
        rejected = _run_stage(prefix + name, spec, claim, prover, tape, log)
        if rejected is not None:
            return rejected
    return None


def _main_summand(formula: WeightedFormula, p: int, weights: Sequence[int], L: int) -> SummandSpec:
    """The main stage's statement, over the clause weights ``weights``."""
    if formula.class_tag is ClassTag.G12N:
        return build_w1_summand(formula, p, weights)
    return build_w2_summand(formula, p, weights, L)


def _run_stage(
    name: str, spec: SummandSpec, claim: int, prover: ProverStrategy, tape: RandomTape, log: _StageLog
) -> Optional[Verdict]:
    """One stage on ``log``: the sum-check of ``spec`` with ``claim``, the
    reads at its final point and the final check there; the rejecting
    verdict, or None when the stage accepts."""
    run = run_sumcheck(spec, claim, prover, tape, log)
    if not run.verdict.accepted:
        return log.reject(name, len(run.transcripts), run.verdict.rejection_round)
    point = run.final_point
    reads = _read_assignment(prover, read_points(spec, point), log, spec.p)
    if reads is None or summand_value(spec, point, reads) != run.final_expected:
        return log.reject(name, spec.num_vars, 0)
    log.close(name, spec.num_vars, True)
    return None


def _walk_accepting_passes(
    tape: RandomTape,
    params: ProtocolParameters,
    weight_checks: int,
    passes: int,
    lines: bool = True,
    residues: bool = True,
) -> list[int]:
    """Draw from ``tape`` what ``passes`` accepting ``run_protocol`` passes
    with ``weight_checks`` weight checks draw, without running them, and
    return the residues drawn.

    The multilinearity test and every sum-check are public-coin, so no
    draw depends on the prover's answers, and a pass that accepts draws
    this fixed schedule: ``reps`` lines, then one residue mod p per clause
    weight and one per sum-check round, (L + 1) m in the main stage and m
    in each weight check.  ``lines`` or ``residues`` False leaves that part
    of each pass out: a split pass (``_split_pass``) walks its lines alone,
    or its clause weights and main rounds alone."""
    m, p = params.m, params.prime
    count = m + (params.padded_len + 1) * m + weight_checks * m
    drawn: list[int] = []
    for _ in range(passes):
        if lines:
            for _ in range(params.reps):
                tape.draw_line(m, p)
        if residues:
            drawn += [tape.draw_int(p) for _ in range(count)]
    return drawn


# bench/tracer.py times each branch pass through this name in awsat
run_g12n_protocol = run_protocol


@functools.lru_cache(maxsize=16)
def _real_block(n: int, m: int) -> BooleanTable:
    """The real-variable block, codes 0..n-1 of the m-cube: frozen, so one
    table serves every verification of that size."""
    return BooleanTable.from_true_codes(range(n), m)


def _verify(
    formula: WeightedFormula,
    prover: ProverStrategy,
    tape: RandomTape,
    config: Optional[VerifierConfig],
) -> Verdict:
    params = protocol_parameters(formula, config)
    if type(tape) is RandomTape and formula.m >= _SPLIT_M and _unpatched() and len(pool.ranges(2)) == 2:
        values = _committed_values(prover, formula.m)
        if values is not None:
            split = _split_pass(formula, prover, tape, params, values)
            if split is not None:
                return split
    log = _StageLog()
    return run_protocol(
        formula, prover, tape, log, params,
        [("weight", formula.k, _real_block(formula.num_vars, formula.m))],
    ) or log.verdict()


def verify_w1(
    formula: WeightedFormula,
    prover: ProverStrategy,
    tape: RandomTape,
    config: Optional[VerifierConfig] = None,
) -> Verdict:
    """Full verifier for weighted negated 2-CNF: multilinearity test, random
    clause weights, main sum-check with claim 0 over 3m rounds, and a weight
    sum-check with claim k over the real-variable block.

    A pass splits over two CPUs (``_split_pass``) when m >= ``_SPLIT_M``
    (7: below it the pipes cost more than the stages that move), the
    prover is exactly a ``TableCommittedProver`` over exactly a
    ``BooleanTable`` of exact ``bytes``, the tape is exactly a
    ``RandomTape``, ``_unpatched()`` holds and ``pool.ranges(2)`` gives two
    ranges, so there are two CPUs and the call runs in no part of another
    split.  A helper then runs the line test, the main final check's
    read-free factor and the weight stage (``pool.run_beside``) while the
    caller runs the main sum-check.  That factor, w(z) * prod_i C_i(z, x_i),
    is a function of the statement and the final point alone, and the point
    is the main rounds' challenges, which the tape alone fixes, so the
    helper computes the very value the final check needs.  The verdict,
    every stage report and meter and the tape's end state equal the run in
    one process."""
    if formula.class_tag is not ClassTag.G12N:
        raise ClassMismatchError("verify_w1 requires class g12n")
    return _verify(formula, prover, tape, config)


def verify_w2(
    formula: WeightedFormula,
    prover: ProverStrategy,
    tape: RandomTape,
    config: Optional[VerifierConfig] = None,
) -> Verdict:
    """Verifier for weighted positive CNF with clauses padded to length L; the
    main sum-check runs (L+1)*m rounds and the final check reads L assignment
    values.

    A pass splits over two CPUs under ``verify_w1``'s conditions (m >=
    ``_SPLIT_M``, a plain committed table, a plain tape, no rebound name,
    two ranges).  The helper's factor w(z) * prod_i C_i(z, x_i) over the
    L positions is the final check's, since it depends on the statement and
    the final point alone, and the tape alone fixes the point; the outputs
    equal the run in one process."""
    if formula.class_tag is not ClassTag.G21P:
        raise ClassMismatchError("verify_w2 requires class g21p")
    return _verify(formula, prover, tape, config)


_UNPATCHED = (verify_w1, verify_w2, run_sumcheck)


def _unpatched() -> bool:
    """Whether ``verify_w1``, ``verify_w2`` and ``run_sumcheck`` are this module's own:
    no split runs otherwise, so a traced or patched run sees all the work."""
    return (verify_w1, verify_w2, run_sumcheck) == _UNPATCHED


# ---------------------------------------------------------------------------
# Closed-form bit accounting
# ---------------------------------------------------------------------------


def axis_bits(m: int) -> int:
    return (m - 1).bit_length() if m > 1 else 0


def protocol_random_bits(m: int, L: int, reps: int, prime: int) -> int:
    """Random bits excluding rejection-sampling overhead: weights m, main
    (L+1)m, weight check m, plus (m + 3) field draws and one axis draw per
    multilinearity repetition."""
    B = (prime - 1).bit_length()
    return ((L + 1) * m + m + reps * (m + 3) + m) * B + reps * axis_bits(m)


def protocol_proof_bits(m: int, L: int, reps: int, prime: int) -> int:
    """Proof bits: L + 2 coefficients per clause-code round, 3 per
    variable-code round, L final assignment reads, the weight check's 3 per
    round plus one read, and 3 reads per multilinearity repetition."""
    B = (prime - 1).bit_length()
    return ((L + 2) * m + 3 * L * m + L + 3 * m + 1 + 3 * reps) * B


# bench/workloads.py gates every honest_large op on these four names
def w1_ideal_random_bits(m: int, reps: int, prime: int) -> int:
    return protocol_random_bits(m, 2, reps, prime)


def w1_proof_bits(m: int, reps: int, prime: int) -> int:
    return protocol_proof_bits(m, 2, reps, prime)


w2_ideal_random_bits, w2_proof_bits = protocol_random_bits, protocol_proof_bits


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceRow:
    m: int
    prime: int
    random_bits: int
    proof_bits: int
    random_norm: float
    proof_norm: float


def _planted_for_m(m: int, seed: int):
    # 2^(m-1) clauses always fit: C(2^m, 2) - C(k, 2) >= 2^(m-1) for every m >= 1
    k = 1 if m == 1 else 2
    return gen_planted_yes_with_witness(1 << m, k, 1 << (m - 1), derive_seed(seed, 7700 + m))


def resource_report(
    widths: Iterable[int],
    config: Optional[VerifierConfig] = None,
    seed: int = 0,
) -> list[ResourceRow]:
    """Meter honest verifications and normalize by m * log2 m: one row per
    cube width m of ``widths``, verified on a planted instance sized so its
    derived width is exactly m."""
    widths = list(widths)
    for m in widths:
        if not 1 <= m <= 10:
            raise GuardError(f"m={m} outside the desk-scale range 1..10")
    rows = []
    for m in widths:
        formula, assignment = _planted_for_m(m, seed)
        table = BooleanTable.from_assignment(assignment.true_set, m)
        params = protocol_parameters(formula, config)
        tape = RandomTape(derive_seed(seed, m))
        verdict = verify_w1(formula, table_committed_prover(table), tape, config)
        norm = max(m * math.log2(m), 1.0)
        rows.append(
            ResourceRow(
                m=m,
                prime=params.prime,
                random_bits=verdict.meter.random_bits,
                proof_bits=verdict.meter.proof_bits,
                random_norm=verdict.meter.random_bits / norm,
                proof_norm=verdict.meter.proof_bits / norm,
            )
        )
    return rows


ADVERSARIES = ("adaptive", "committed", "random")


def _accepted_in(
    formula: WeightedFormula, adversary: str, trials: range, base_seed: int, config: Optional[VerifierConfig]
) -> int:
    """How many of the experiment's trials numbered ``trials`` accept.  Trial
    t runs on the tape ``derive_seed(base_seed, t)`` with a new prover, so a
    range gives the same count in the caller and in a helper."""
    verifier = verify_w1 if formula.class_tag is ClassTag.G12N else verify_w2
    m = formula.m
    committed = BooleanTable.from_true_codes(range(min(formula.k, 1 << m)), m)
    accepted = 0
    for t in trials:
        tape = RandomTape(derive_seed(base_seed, t))
        if adversary == "adaptive":
            prover = adaptive_cheater(table_committed_prover(committed))
        elif adversary == "committed":
            prover = table_committed_prover(committed)
        else:
            prover = RandomGarbageProver(derive_seed(derive_seed(base_seed, t), 1))
        if verifier(formula, prover, tape, config).accepted:
            accepted += 1
    return accepted


def _split_accepted(
    formula: WeightedFormula,
    adversary: str,
    trials: int,
    base_seed: int,
    config: Optional[VerifierConfig],
) -> int:
    """The accepted count over ``range(trials)``, summed over the ranges
    that the caller and the helpers count; a range no helper answered
    reruns in the caller, so the sum equals the in-process count."""
    parts = pool.ranges(trials) if _unpatched() else [range(trials)]
    here, answers = pool.run_beside(
        [(__name__, "_accepted_in", (formula, adversary, part, base_seed, config)) for part in parts[1:]],
        lambda: _accepted_in(formula, adversary, parts[0], base_seed, config),
    )
    return here + sum(
        _accepted_in(formula, adversary, part, base_seed, config) if got is None else got
        for part, got in zip(parts[1:], answers)
    )


# A pass of a W1 or W2 statement splits (``_split_pass``) from this cube
# width on: below it the task's pipes and the helper's start cost more than
# the line test, the main factor and the weight stage that move off the
# caller's path
_SPLIT_M = 7


def _plain_attr(obj, cls, name: str):
    """Attribute ``name`` of ``obj``, or None unless ``obj`` is exactly a
    ``cls`` whose attributes sit in a plain dict under plain str names:
    reading it runs no method of ``obj``, of its type or of its names."""
    attrs = vars(obj) if type(obj) is cls else None
    if type(attrs) is not dict or not all(type(key) is str for key in attrs):
        return None
    return attrs.get(name)


def _committed_values(prover: ProverStrategy, m: int) -> Optional[bytes]:
    """The table bytes of ``prover``, or None unless it is exactly a
    ``TableCommittedProver`` holding exactly the ``BooleanTable`` that those
    bytes, 2^m entries 0 or 1, make at arity m: the same attributes, of the
    same types and values, and none that shadows a method.  Then a prover
    that a helper builds from the bytes gives every answer this one gives,
    and reading it runs no prover code."""
    table = _plain_attr(prover, TableCommittedProver, "table")
    values = _plain_attr(table, BooleanTable, "values")
    if type(values) is not bytes or len(values) != 1 << m or values.translate(None, b"\0\1"):
        return None
    held, own = vars(table), vars(BooleanTable(m, values))
    if (
        held.keys() != own.keys()
        or not vars(prover).keys() <= {"table", "_spec", "_folder"}
        or any(type(held[key]) is not type(own[key]) for key in own)
        or any(type(code) is not int for code in held["_ones"])
    ):
        return None
    return values if held == own else None


def _split_pass(
    formula: WeightedFormula,
    prover: ProverStrategy,
    tape: RandomTape,
    params: ProtocolParameters,
    values: bytes,
) -> Optional[Verdict]:
    """One ``_verify`` pass over two processes, or None, with the tape back
    where it stood, when it must run in process after all.

    The pass is public-coin, so the tape alone fixes what an accepting pass
    draws (``_walk_accepting_passes``).  The caller builds the main
    statement, whose code arrays the clause weights do not change, and
    sends an idle helper its own objects, pickled: the parameters, that
    statement with the formula's clauses left out (the code arrays carry
    them, as bytes when every code fits one, so the task stays small), the
    table bytes and the tape as it stands at the call.  The helper
    (``_pass_stages``) runs the line test, walks the clause weights and the
    main rounds to the main stage's final point, computes the summand's
    read-free factor there (``summand_factor``) and runs the weight stage.
    Meanwhile the caller walks the line test's draws, draws the clause
    weights, metered into the main stage, and runs the main sum-check and
    its reads.  Its final check takes ``with_reads`` of the helper's
    factor, which depends on the statement and the point alone, so it is
    the value ``summand_value`` gives in process, and it is taken only if
    the helper walked to the caller's own weights and point.  The stage
    logs are merged in stage order, and the tape ends where the stage that
    decides left it.

    If the main rounds reject, the helper is dropped, and the line test
    reruns here from the saved tape, since in process its rejection would
    come first.  A helper that dies or raises, or walks to another point,
    gives None, and so does a task ``pickle`` cannot carry."""
    m, L, p = params.m, params.padded_len, params.prime
    start = tape.getstate()
    # the code arrays do not depend on the clause weights, so the statement
    # is built before they are drawn, and given them once they are
    unweighted = _main_summand(formula, p, (0,) * m, L)
    main = _StageLog()
    spec = unweighted

    def run_here():
        nonlocal spec
        _walk_accepting_passes(tape, params, 0, 1, residues=False)
        weights = tuple([draw_field_element(tape, p, main) for _ in range(m)])
        spec = dataclasses.replace(unweighted, weights=weights)
        run = run_sumcheck(spec, 0, prover, tape, main)
        if not run.verdict.accepted:
            return main.reject("main", len(run.transcripts), run.verdict.rejection_round)
        return run, _read_assignment(prover, read_points(spec, run.final_point), main, p)

    # the statement goes without the formula's clauses, whose code arrays it
    # carries, as bytes when every code fits one
    try:
        codes = tuple(map(bytes, unweighted.codes))
    except ValueError:
        codes = unweighted.codes
    statement = dataclasses.replace(unweighted, formula=dataclasses.replace(formula, clauses=()), codes=codes)
    here, (got,) = pool.run_beside(
        [(__name__, "_pass_stages", (params, statement, values, tape))],
        run_here,
        lambda got: isinstance(got, Verdict),
    )
    if isinstance(here, Verdict):
        log = _StageLog()
        end = tape.getstate()
        tape.setstate(start)
        ok, rep = multilinearity_test(prover, m, params.reps, tape, log, p)
        if not ok:
            return log.reject("mltest", rep, rep)
        tape.setstate(end)
        log.close("mltest", params.reps, True)
        return log.extend(main, here)
    if got is None:
        tape.setstate(start)
        return None
    log, line_rejected, drawn, factor, weight, weight_rejected, end = got
    if line_rejected is not None:
        tape.setstate(end)
        return line_rejected
    run, reads = here
    if drawn != [*spec.weights, *run.final_point]:
        tape.setstate(start)
        return None
    if reads is None or with_reads(spec, factor, reads) != run.final_expected:
        return log.extend(main, main.reject("main", spec.num_vars, 0))
    main.close("main", spec.num_vars, True)
    log.extend(main, None)
    tape.setstate(end)
    return log.extend(weight, weight_rejected) or log.verdict()


def _pass_stages(params: ProtocolParameters, statement: SummandSpec, values: bytes, tape: RandomTape) -> tuple:
    """A helper's part of ``_split_pass``, on the caller's parameters, its
    main statement without the formula's clauses, the table bytes and the
    caller's tape as it stood at the call.  Returns the line test's log and
    its rejecting verdict or None, then, if it accepted, the residues walked
    (clause weights and main rounds), the read-free factor at the main
    stage's final point and the weight stage's log and rejecting verdict or
    None, and last the tape's end state.  The factor reads only the
    formula's n and m, and the code arrays carry the clauses."""
    m, p, formula = params.m, params.prime, statement.formula
    prover = TableCommittedProver(BooleanTable(m, values))
    lines = _StageLog()
    ok, rep = multilinearity_test(prover, m, params.reps, tape, lines, p)
    if not ok:
        return lines, lines.reject("mltest", rep, rep), None, None, None, None, tape.getstate()
    lines.close("mltest", params.reps, True)
    drawn = _walk_accepting_passes(tape, params, 0, 1, lines=False)
    factor = summand_factor(dataclasses.replace(statement, weights=tuple(drawn[:m])), tuple(drawn[m:]))
    weight = _StageLog()
    block = _real_block(formula.num_vars, m)
    rejected = _run_stage("weight", build_weight_summand(m, p, block), formula.k, prover, tape, weight)
    return lines, None, drawn, factor, weight, rejected, tape.getstate()


def soundness_experiment(
    formula: WeightedFormula,
    adversary: str,
    trials: int,
    base_seed: int,
    config: Optional[VerifierConfig] = None,
) -> dict:
    """Monte-Carlo acceptance rate of an adversary on a no-instance.

    Refuses yes-instances (the experiment would measure completeness, not
    soundness) and negative trial counts.  The analytic bound is (total
    rounds) * degree / p for the adaptive cheater, 2m/p for a committed wrong
    table (random-weight separation), and 2/p for uniform garbage (the chance
    of passing the round-1 consistency equation).

    The trials are independent, so ``pool.ranges`` cuts them into one range
    per CPU: the caller counts the first, and ``pool.run_beside``'s helpers
    the others (``_accepted_in``), each on the caller's own formula and
    config, pickled, so a ``VerifierConfig`` subclass counts alike on every
    side.  Every trial runs in process when ``pool.ranges`` gives one range,
    ``_unpatched()`` fails or ``pickle`` cannot carry the task (say, a
    config of a locally defined class).  The result does not depend on the
    split."""
    if adversary not in ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}, pick one of {ADVERSARIES}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    decision, _ = brute_force_wsat(formula)
    if decision:
        raise ValueError("soundness experiments require a no-instance")
    params = protocol_parameters(formula, config)
    m = formula.m
    accepted = _split_accepted(formula, adversary, trials, base_seed, config)
    if adversary == "adaptive":
        bound = min(params.total_rounds * params.degree / params.prime, 1.0)
    elif adversary == "committed":
        bound = min(2 * m / params.prime, 1.0)
    else:
        bound = 2 / params.prime
    return {
        "adversary": adversary,
        "trials": trials,
        "accepted": accepted,
        "acceptance_rate": accepted / trials if trials else 0.0,
        "analytic_bound": bound,
        "prime": params.prime,
        "total_rounds": params.total_rounds,
    }
