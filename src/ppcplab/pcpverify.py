"""End-to-end verifiers for weighted SAT, the multilinearity spot-test, and
resource accounting.

Both fragments run one clause-product protocol: negated 2-CNF is the
positive-CNF protocol at padded length L = 2 with literal factor A(x) in
place of 1 - A(x) (see ``arithmetize.summand_value``).  ``run_protocol``
stages one pass, in this fixed order so transcripts replay:

  1. multilinearity test of the proof's assignment oracle,
  2. draw the m random clause weights,
  3. main sum-check over (z, x_1..x_L) with claim 0 (the instance is
     satisfied),
  4. one weight sum-check per configured block with the claimed weight.

Stages 3 and 4 are one loop.  Each stage builds its statement (a frozen
``SummandSpec``: the schedule and the summand's data, no code), runs the
sum-check on it, reads the assignment oracle at the statement's
``read_points`` (L metered reads in the main stage, one in a weight stage)
and checks ``summand_value`` there against the last running claim.  That is
the only final check.  The prover receives the statement and nothing of the
verifier's but its field: the claim, the challenges and the read points it
gets are copies, so nothing it writes reaches the final check.  An honest
prover compiles its own plan from the statement.

``verify_w1`` and ``verify_w2`` run one pass with a weight check over the real
variables; the branch protocol in ``awsat`` runs one pass per universal
branch.  The verifier computes the clause indicators and the clause-weight
extension itself and never reads them from the proof; only round-polynomial
coefficients and assignment values count as proof bits.  The weight check is
restricted to the real-variable block, so weight parked on dummy codes never
counts.

``protocol_parameters`` selects the prime from the total round budget of one
pass (sum-check rounds plus one term per multilinearity repetition) and the
number of passes, so a single union bound covers the run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .arithmetize import (
    BooleanTable,
    build_w1_summand,
    build_w2_summand,
    build_weight_summand,
    clause_indicator_eval,  # unused here; bench/tracer.py wraps this name
    mle_eval,  # unused here; bench/tracer.py wraps this name
    read_points,
    summand_value,
)
from .field import FieldElement, PrimeField, select_prime
from .formula import (
    ClassMismatchError,
    ClassTag,
    GuardError,
    WeightedFormula,
    brute_force_wsat,
)
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
    proof_int,
    run_sumcheck,
    table_committed_prover,
    RandomGarbageProver,
)

Point = tuple[FieldElement, ...]


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
    oracle: Callable[[Point], FieldElement],
    point: Sequence[FieldElement],
    meter: ResourceMeter,
    fld: PrimeField,
) -> Optional[int]:
    """One metered read of the assignment oracle: ceil(log2 p) proof bits and
    one query, whatever comes back.  Returns the answer's residue, or None
    for a malformed answer or a query that raises."""
    meter.proof_bits += fld.bits
    meter.oracle_queries += 1
    return proof_int(ask_prover(oracle, tuple(point)), fld.modulus)


def multilinearity_test(
    oracle: Callable[[Point], FieldElement],
    m: int,
    reps: int,
    tape: RandomTape,
    meter: ResourceMeter,
    fld: PrimeField,
) -> tuple[bool, Optional[int]]:
    """Axis-parallel three-point collinearity test.

    Each repetition draws an axis, a point, and three distinct coordinates,
    then checks the oracle's restriction is affine there.  Per repetition:
    ceil(log2 m) + (m + 3) * ceil(log2 p) ideal random bits and
    3 * ceil(log2 p) proof bits.  Rejects on the first failing repetition;
    an answer that is not a well-formed element of Z_p, or a query that
    raises, fails its repetition.
    """
    p = fld.modulus
    for rep in range(1, reps + 1):
        before = tape.bits_drawn
        axis = tape.draw_int(m)
        *coords, t0 = tape.draw_ints(p, m + 1)
        t1 = tape.draw_int_excluding(p, {t0})
        t2 = tape.draw_int_excluding(p, {t0, t1})
        meter.random_bits += tape.bits_drawn - before
        # the three points share every coordinate but the axis
        head = tuple([FieldElement(v, fld) for v in coords[:axis]])
        tail = tuple([FieldElement(v, fld) for v in coords[axis + 1 :]])
        values = [
            _read_assignment(oracle, head + (FieldElement(t, fld),) + tail, meter, fld)
            for t in (t0, t1, t2)
        ]
        f0, f1, f2 = values
        if None in values or (f2 - f0) * (t1 - t0) % p != (f1 - f0) * (t2 - t0) % p:
            return False, rep
    return True, None


class _StageLog:
    def __init__(self, meter: ResourceMeter):
        self._meter = meter
        self._mark = meter.snapshot()
        self.reports: list[StageReport] = []

    def close(self, name: str, rounds: int, accepted: bool) -> None:
        now = self._meter.snapshot()
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
        # the honest prover interpolates at the nodes 0..degree, which must stay
        # distinct mod p; the multilinearity test needs three distinct coordinates
        raise ValueError(f"prime override {prime} too small for degree {degree} rounds")
    return ProtocolParameters(m, L, reps, branches, total, degree, prime)


# bench/tracer.py wraps these names and bench/workloads.py calls them
w1_parameters = w2_parameters = protocol_parameters


WeightCheck = tuple[str, int, Optional[BooleanTable]]


def run_protocol(
    formula: WeightedFormula,
    prover: ProverStrategy,
    tape: RandomTape,
    meter: ResourceMeter,
    log: _StageLog,
    fld: PrimeField,
    params: ProtocolParameters,
    weight_checks: Sequence[WeightCheck],
    prefix: str = "",
) -> tuple[bool, Optional[str], Optional[int]]:
    """One full clause-product verification pass over an existing meter/log.

    Shared between the plain verifiers (one weight check over the real
    variables) and the branch protocol (one weight check per odd block).  A
    stage reads every assignment value of its final check before it judges
    any of them, so its metered proof bits never depend on the proof's
    content.
    """
    m, L, reps = formula.m, params.padded_len, params.reps
    ok, rep = multilinearity_test(prover.assignment_query, m, reps, tape, meter, fld)
    log.close(prefix + "mltest", rep if not ok else reps, ok)
    if not ok:
        return False, prefix + "mltest", rep

    weights = [draw_field_element(tape, fld, meter).value for _ in range(m)]
    for name, claim, block_table in [("main", 0, None), *weight_checks]:
        # one statement per stage, built through the module-level names that
        # bench/tracer.py wraps to split the main stage from the weight stage
        if name != "main":
            spec = build_weight_summand(m, fld, block_table)
        elif formula.class_tag is ClassTag.G12N:
            spec = build_w1_summand(formula, fld, weights)
        else:
            spec = build_w2_summand(formula, fld, weights, L)
        run = run_sumcheck(spec, fld(claim), prover, tape, meter)
        if not run.verdict.accepted:
            log.close(prefix + name, len(run.transcripts), False)
            return False, prefix + name, run.verdict.rejection_round
        point = run.final_point
        oracle = prover.assignment_query
        # the prover reads fresh copies: the verifier's point is never handed out
        reads = [
            _read_assignment(oracle, [FieldElement(x.value, fld) for x in q], meter, fld)
            for q in read_points(spec, point)
        ]
        ok = None not in reads and (
            summand_value(spec, point, reads).value == run.final_expected.value
        )
        log.close(prefix + name, spec.num_vars, ok)
        if not ok:
            return False, prefix + name, 0
    return True, None, None


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
    meter = ResourceMeter()
    log = _StageLog(meter)
    ok, stage, rnd = run_protocol(
        formula, prover, tape, meter, log, PrimeField(params.prime), params,
        [("weight", formula.k, _real_block(formula.num_vars, formula.m))],
    )
    return Verdict(ok, meter.snapshot(), rejection_round=None if ok else rnd,
                   stage=stage, stages=tuple(log.reports))


def verify_w1(
    formula: WeightedFormula,
    prover: ProverStrategy,
    tape: RandomTape,
    config: Optional[VerifierConfig] = None,
) -> Verdict:
    """Full verifier for weighted negated 2-CNF: multilinearity test, random
    clause weights, main sum-check with claim 0 over 3m rounds, and a weight
    sum-check with claim k over the real-variable block."""
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
    values."""
    if formula.class_tag is not ClassTag.G21P:
        raise ClassMismatchError("verify_w2 requires class g21p")
    return _verify(formula, prover, tape, config)


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
    # local import keeps the module dependency one-directional
    from .reductions import gen_planted_yes_with_witness

    n = 1 << m
    k = 1 if m == 1 else 2
    legal = math.comb(n, 2) - math.comb(k, 2)
    ncl = min(1 << (m - 1), legal)
    return gen_planted_yes_with_witness(n, k, ncl, derive_seed(seed, 7700 + m))


def resource_report(
    target: Iterable[int] | WeightedFormula,
    config: Optional[VerifierConfig] = None,
    seed: int = 0,
) -> list[ResourceRow]:
    """Meter honest verifications and normalize by m * log2 m.

    ``target`` is either a g12n formula (verified as given, so it must be a
    yes-instance small enough for the brute-force witness search) or an
    iterable of cube widths m, each verified on a planted instance sized so
    its derived width is exactly m.
    """
    jobs: list[tuple[WeightedFormula, BooleanTable]] = []
    if isinstance(target, WeightedFormula):
        decision, witness = brute_force_wsat(target)
        if not decision:
            raise ValueError("resource_report needs a yes-instance for the honest run")
        jobs.append((target, BooleanTable.from_assignment(witness.true_set, target.m)))
    else:
        for m in target:
            if not 1 <= m <= 10:
                raise GuardError(f"m={m} outside the desk-scale range 1..10")
            formula, assignment = _planted_for_m(m, seed)
            jobs.append((formula, BooleanTable.from_assignment(assignment.true_set, formula.m)))
    rows = []
    for formula, table in jobs:
        params = protocol_parameters(formula, config)
        tape = RandomTape(derive_seed(seed, formula.m))
        verdict = verify_w1(formula, table_committed_prover(table), tape, config)
        norm = max(formula.m * math.log2(formula.m), 1.0)
        rows.append(
            ResourceRow(
                m=formula.m,
                prime=params.prime,
                random_bits=verdict.meter.random_bits,
                proof_bits=verdict.meter.proof_bits,
                random_norm=verdict.meter.random_bits / norm,
                proof_norm=verdict.meter.proof_bits / norm,
            )
        )
    return rows


ADVERSARIES = ("adaptive", "committed", "random")


def soundness_experiment(
    formula: WeightedFormula,
    adversary: str,
    trials: int,
    base_seed: int,
    config: Optional[VerifierConfig] = None,
) -> dict:
    """Monte-Carlo acceptance rate of an adversary on a no-instance.

    Refuses yes-instances (the experiment would measure completeness, not
    soundness).  The analytic bound is (total rounds) * degree / p for the
    adaptive cheater, 2m/p for a committed wrong table (random-weight
    separation), and 2/p for uniform garbage (the chance of passing the
    round-1 consistency equation)."""
    if adversary not in ADVERSARIES:
        raise ValueError(f"unknown adversary {adversary!r}, pick one of {ADVERSARIES}")
    decision, _ = brute_force_wsat(formula)
    if decision:
        raise ValueError("soundness experiments require a no-instance")
    params = protocol_parameters(formula, config)
    verifier = verify_w1 if formula.class_tag is ClassTag.G12N else verify_w2
    m = formula.m
    committed = BooleanTable.from_true_codes(range(min(formula.k, 1 << m)), m)
    accepted = 0
    for t in range(trials):
        tape = RandomTape(derive_seed(base_seed, t))
        if adversary == "adaptive":
            prover = adaptive_cheater(table_committed_prover(committed))
        elif adversary == "committed":
            prover = table_committed_prover(committed)
        else:
            prover = RandomGarbageProver(derive_seed(derive_seed(base_seed, t), 1))
        if verifier(formula, prover, tape, config).accepted:
            accepted += 1
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
