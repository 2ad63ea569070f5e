"""The generic sum-check round protocol, proof-side strategies, and exact
random-bit / proof-bit metering.

One round: the prover supplies a univariate polynomial g'_i for the current
variable; the verifier checks g'_i(0) + g'_i(1) against the running claim,
draws a random field element r_i, and continues with the claim g'_i(r_i).
After the last round the caller performs the final direct evaluation, since
only the caller knows which factors it computes itself and which it must read
from the proof.  The statement a prover receives (``SummandSpec``) is plain
data: the table-committed prover compiles its ``ProductPlan`` from it and
folds that, and the reference prover (``honest_round_poly``) sums the
statement's ``summand_value`` over an assignment oracle point by point.

Field elements are drawn by rejection sampling from ceil(log2 p)-bit blocks;
rejected blocks still count toward the bits drawn (and are tracked separately
so closed-form bit counts can be checked exactly).
"""

from __future__ import annotations

import functools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Callable, Optional, Sequence

from .arithmetize import (
    BooleanTable,
    ProductPlan,
    SummandSpec,
    _tensor,
    compile_plan,
    mle_eval,
    read_points,
    summand_value,
)
from .field import FieldElement, PrimeField, UniPoly, interpolate, node_inverse

Point = tuple[FieldElement, ...]

_SEED_MASK = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Per-stage/per-trial seed: the index is appended below the seed's low
    32 bits, reduced to 64 bits."""
    return ((seed & _SEED_MASK) * (1 << 32) + index) & _SEED_MASK


class RandomTape:
    """Deterministic seeded randomness with exact bit accounting.

    ``bits_drawn`` counts every bit ever pulled from the generator;
    ``overhead_bits`` is the part spent on rejected or discarded draws.
    Identical seeds replay identical tapes.
    """

    def __init__(self, seed: int):
        self.seed = seed & _SEED_MASK
        self._rng = random.Random(self.seed)
        self.bits_drawn = 0
        self.overhead_bits = 0

    def draw_int(self, n: int) -> int:
        """Uniform value in [0, n), costing ceil(log2 n) bits per attempt."""
        if n < 1:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        width = (n - 1).bit_length()
        while True:
            v = self._rng.getrandbits(width)
            self.bits_drawn += width
            if v < n:
                return v
            self.overhead_bits += width

    def draw_ints(self, n: int, k: int) -> list[int]:
        """k uniform values in [0, n): the same generator calls, values,
        ``bits_drawn`` and ``overhead_bits`` as k calls to ``draw_int(n)``,
        with the k first attempts drawn in one pass."""
        if n < 1:
            raise ValueError("n must be positive")
        if n == 1:
            return [0] * k
        width = (n - 1).bit_length()
        getrandbits = self._rng.getrandbits
        out = [v for v in [getrandbits(width) for _ in range(k)] if v < n]
        attempts = k
        while len(out) < k:
            v = getrandbits(width)
            attempts += 1
            if v < n:
                out.append(v)
        self.bits_drawn += attempts * width
        self.overhead_bits += (attempts - k) * width
        return out

    def draw_int_excluding(self, n: int, exclude) -> int:
        """Uniform value in [0, n) outside ``exclude``; discarded hits count as
        overhead."""
        if n <= len(exclude):
            raise ValueError("no admissible values remain")
        width = (n - 1).bit_length() if n > 1 else 0
        while True:
            v = self.draw_int(n)
            if v not in exclude:
                return v
            self.overhead_bits += width


class ResourceMeter:
    """Counts random bits drawn, proof bits read, and proof oracle queries."""

    def __init__(self):
        self.random_bits = 0
        self.proof_bits = 0
        self.oracle_queries = 0

    def snapshot(self) -> "MeterSnapshot":
        return MeterSnapshot(self.random_bits, self.proof_bits, self.oracle_queries)


@dataclass(frozen=True)
class MeterSnapshot:
    random_bits: int
    proof_bits: int
    oracle_queries: int


def draw_field_element(tape: RandomTape, fld: PrimeField, meter: ResourceMeter) -> FieldElement:
    before = tape.bits_drawn
    v = tape.draw_int(fld.modulus)
    meter.random_bits += tape.bits_drawn - before
    return fld(v)


@dataclass(frozen=True)
class RoundTranscript:
    index: int
    claimed: UniPoly
    challenge: FieldElement
    running: FieldElement


@dataclass(frozen=True)
class StageReport:
    name: str
    rounds: int
    random_bits: int
    proof_bits: int
    oracle_queries: int
    accepted: bool


@dataclass(frozen=True)
class Verdict:
    """Accept/reject with the failing stage and round (0 means the final
    direct evaluation) plus a resource snapshot."""

    accepted: bool
    meter: MeterSnapshot
    rejection_round: Optional[int] = None
    stage: Optional[str] = None
    stages: tuple[StageReport, ...] = ()

    def __post_init__(self):
        if self.accepted and self.rejection_round is not None:
            raise ValueError("an accepting verdict cannot carry a rejection round")


class ProverStrategy(ABC):
    """Source of round polynomials and assignment values.

    ``begin_sumcheck`` is invoked at the start of each sum-check instance so a
    single strategy can serve the multi-stage verifier.
    """

    def begin_sumcheck(self, spec: SummandSpec, claim: FieldElement) -> None:
        pass

    @abstractmethod
    def round_poly(self, i: int, challenges: Point, current_claim: FieldElement) -> UniPoly:
        ...

    @abstractmethod
    def assignment_query(self, point: Point) -> FieldElement:
        ...


@dataclass(frozen=True)
class SumcheckRun:
    verdict: Verdict
    final_point: Point
    final_expected: Optional[FieldElement]
    transcripts: tuple[RoundTranscript, ...]


def proof_int(value, p: int) -> Optional[int]:
    """The residue mod p of a prover-supplied field element, or None unless it
    is exactly a ``FieldElement`` of exactly a ``PrimeField`` of modulus p
    holding a plain ``int``.  The verifier computes only on what this returns,
    so no method of a prover-supplied object ever runs on its side."""
    if type(value) is not FieldElement or type(value.value) is not int:
        return None
    fld = value.field
    if type(fld) is not PrimeField or type(fld.modulus) is not int or fld.modulus != p:
        return None
    return value.value % p


def _proof_coeffs(poly, degree: int, p: int) -> Optional[list[int]]:
    """Residues of a round polynomial's coefficients, or None unless it is
    exactly a ``UniPoly`` of at most degree + 1 well-formed coefficients.
    ``UniPoly`` keeps the sequence it is given; a plain tuple or list has no
    overridable length or iteration, a subclass of either could."""
    if type(poly) is not UniPoly or type(poly.coeffs) not in (tuple, list):
        return None
    if len(poly.coeffs) > degree + 1:
        return None
    coeffs = [proof_int(c, p) for c in poly.coeffs]
    return None if None in coeffs else coeffs


def ask_prover(callback: Callable, *args):
    """What a prover callback returns, or None if it raises.  To the verifier
    a prover exception is a malformed answer; only ``Exception`` is caught, so
    an interrupt still ends the run."""
    try:
        return callback(*args)
    except Exception:
        return None


def _horner(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def run_sumcheck(
    spec: SummandSpec,
    claim: FieldElement,
    prover: ProverStrategy,
    tape: RandomTape,
    meter: ResourceMeter,
) -> SumcheckRun:
    """Drive the round protocol for ``spec`` against ``prover``.

    Per round the verifier reads (d_i + 1) * ceil(log2 p) proof bits and draws
    one field element.  Malformed prover output (not exactly a ``UniPoly`` of
    ``FieldElement``s holding ints, too many coefficients, wrong field, or an
    exception) is a rejection at that round, never a crash; an exception in
    ``begin_sumcheck`` is a malformed first round.  The verifier evaluates the
    coefficients itself and compares plain ints.  The final direct evaluation
    is left to the caller, which receives the fully instantiated point and the
    last running claim: field elements the prover never held, since each round
    hands it fresh copies of the challenges so far and of the running claim.
    """
    fld = spec.field
    p = fld.modulus
    if claim.field.modulus != p:
        raise ValueError("claim must live in the summand's field")
    a = claim.value % p
    try:
        prover.begin_sumcheck(spec, claim)
        started = True
    except Exception:
        started = False
    # the verifier's challenges and running claims (the transcript and the
    # final point) are never handed out, so nothing the prover writes into
    # its copies reaches them
    handed: list[FieldElement] = []
    transcripts: list[RoundTranscript] = []
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        poly = ask_prover(prover.round_poly, i, tuple(handed), fld(a)) if started else None
        meter.proof_bits += (d + 1) * fld.bits
        coeffs = _proof_coeffs(poly, d, p)
        # g(0) + g(1) is the constant coefficient plus the sum of all of them
        # (a list emptied after construction reads as the zero polynomial)
        if coeffs is None or (sum(coeffs[:1]) + sum(coeffs)) % p != a:
            return SumcheckRun(
                Verdict(False, meter.snapshot(), rejection_round=i),
                tuple([t.challenge for t in transcripts]),
                None,
                tuple(transcripts),
            )
        r = draw_field_element(tape, fld, meter)
        a = _horner(coeffs, r.value, p)
        handed.append(fld(r.value))
        transcripts.append(RoundTranscript(i, poly, r, fld(a)))
    return SumcheckRun(
        Verdict(True, meter.snapshot()),
        tuple([t.challenge for t in transcripts]),
        fld(a),
        tuple(transcripts),
    )


def honest_round_poly(
    spec: SummandSpec,
    oracle: Callable[[Point], FieldElement],
    prefix: Sequence[FieldElement],
    i: int,
) -> UniPoly:
    """Exact round polynomial of ``spec`` over the assignment ``oracle``, by
    direct partial summation.

    Evaluates the partial sum at the d_i + 1 points 0..d_i and interpolates.
    Exponential in the number of free variables; intended for small summands
    and as the reference the fast prover is checked against.
    """
    if len(prefix) != i - 1:
        raise ValueError("prefix must instantiate exactly the first i-1 variables")
    fld = spec.field
    d = spec.degree_bounds[i - 1]
    free = spec.num_vars - i
    pts = []
    for t in range(d + 1):
        tv = fld(t)
        total = fld.zero
        for mask in range(1 << free):
            suffix = tuple(fld((mask >> (free - 1 - j)) & 1) for j in range(free))
            pt = tuple(prefix) + (tv,) + suffix
            total = total + summand_value(spec, pt, [oracle(q) for q in read_points(spec, pt)])
        pts.append((tv, total))
    return interpolate(pts)


def _product_sum(tables: Sequence[Sequence[int]], p: int) -> int:
    """Sum over the cube of the entrywise product of equal-length tables, mod
    p: one nested ``map(mul)`` and a single reduction at the end (the
    products of a few residues stay small ints)."""
    acc = tables[0]
    for tbl in tables[1:]:
        acc = map(mul, acc, tbl)
    return sum(acc) % p


@functools.lru_cache(maxsize=16)
def _difference_row(n: int) -> tuple[int, ...]:
    """(-1)^(k+1) C(n, k) for k = 1..n."""
    return tuple([(-1) ** (k + 1) * math.comb(n, k) for k in range(1, n + 1)])


def _extend(values: list[int], count: int, p: int) -> list[int]:
    """Extend ``values``, in place, to the values at t = 0..count-1 (mod p)
    of the polynomial of degree below n = len(values) with the given values
    at 0..n-1: its n-th finite difference vanishes, so
    v(t) = sum_{k=1..n} (-1)^(k+1) C(n, k) v(t - k)."""
    n = len(values)
    row = _difference_row(n)
    for _ in range(count - n):
        values.append(sum(map(mul, row, reversed(values[-n:]))) % p)
    return values


class PlanFolder:
    """Folds a ProductPlan's factor tables as challenges bind variables.

    Every factor is multilinear in each variable of its block, so binding
    a variable at r is the exact affine map lo + r * (hi - lo) per entry,
    and the per-round sums over the remaining cube are exactly the honest
    round polynomial values.  ``round_values`` needs the lo halves and the
    steps hi - lo anyway, and keeps them, so the bind of its round is one
    pass of (a + r * d) % p; a reset or the next block drops them.

    Of each block only the plan's window is held: the first W entries of
    every table plus the constant it holds past W.  While the remaining cube
    is larger than W, the current variable is a top code bit, so the window
    lies in the lo half and the hi half is all constants: binding maps each
    window entry a to a + r * (c - a), and the (half - W) constant entries of
    the lo half add (half - W) * prod(c) to every round value.  Once the cube
    has shrunk to W, the plain fold takes over.

    A head with a declared weight tensor (``head_weights``) folds its tables
    only.  In head round i the round value at t is (1 - t + r_i t) * s * q(t):
    s is the product of the bound weight factors and q sums the tensor's
    unbound suffix w[:half] times the tables.  w[:half] is a prefix of the
    tensor of r_2..r_m, built once.  q has one degree less than the round
    polynomial, so it is summed at one point fewer, and its last value comes
    from its vanishing finite difference.

    Each block's round values carry the product of every other block's bound
    value as a multiplier.  Once the head is bound at z*, its proxy scalars
    already are the tails' cube sums (``ProductPlan``'s contract), so the
    folder keeps one list of block values: the head value, then each tail's
    bound proxy until that tail is bound, and its value after that.
    """

    def __init__(self, plan: ProductPlan):
        self.plan = plan
        self._p = plan.field.modulus
        if plan.head_weights is not None:
            self._weight_suffix = _tensor([(1, r) for r in plan.head_weights[1:]], self._p)
        self._reset()

    def _reset(self):
        plan = self.plan
        self._bound: list[int] = []
        # the weight factors while the weight-tensor head is being folded
        self._head_weights = plan.head_weights
        self._scale = 1
        self._load(plan.head_tables, plan.head_window)
        self._stage = 0  # 0 = head block, j >= 1 = tail j-1
        self._mult = 1

    def _load(self, tables: Sequence[Sequence[int]], window: Optional[int]) -> None:
        """Hold the first ``window`` entries of each table and, when the
        window is short of the cube, the constant every table holds past it
        (else None).  Tables are never written to, only replaced, so they are
        not copied."""
        self._size = len(tables[0])
        self._kept = None
        if window is None or window >= self._size:
            self._tables, self._consts = tables, None
        else:
            self._tables = [t[:window] for t in tables]
            self._consts = [t[window] for t in tables]

    def sync(self, challenges: Point) -> None:
        vals = [c.value for c in challenges]
        if vals[: len(self._bound)] != self._bound:
            self._reset()
        for v in vals[len(self._bound) :]:
            self._bind(v)

    def _split(self) -> tuple[list, list, list]:
        """The lo and hi halves of every table in the current variable (hi
        is all constants while the window lies in the lo half), and hi - lo."""
        tables, consts = self._tables, self._consts
        if consts is None:
            half = len(tables[0]) >> 1
            lo, hi = [tbl[:half] for tbl in tables], [tbl[half:] for tbl in tables]
        else:
            lo, hi = tables, [[c] * len(tbl) for tbl, c in zip(tables, consts)]
        return lo, hi, [list(map(sub, h, l)) for l, h in zip(lo, hi)]

    def round_values(self, degree: int) -> list[int]:
        """Values of the current round polynomial at t = 0..degree.  The
        halves and steps are kept for this round's ``_bind``."""
        p = self._p
        lo, hi, step = self._kept = self._split()
        rest = 0
        if self._consts is not None:
            rest = ((self._size >> 1) - len(lo[0])) * math.prod(self._consts)
        weights = self._head_weights
        if weights is None:
            fixed, points = [], degree + 1
        else:
            # weight-tensor head (whole-cube, so rest is 0 and the multiplier
            # 1): every slice also holds the unbound suffix, and q has degree
            # len(lo)
            fixed, points = [self._weight_suffix[: len(lo[0])]], min(degree, len(lo)) + 1
        out = []
        for t in range(points):
            if t == 0:
                cur = lo
            elif t == 1:
                cur = hi
            else:
                cur = [list(map(add, c, s)) for c, s in zip(cur, step)]
            out.append((_product_sum(fixed + cur, p) + rest) * self._mult % p)
        if weights is None:
            return out
        r, scale = weights[len(self._bound)], self._scale
        return [(1 - t + r * t) * scale * q % p for t, q in enumerate(_extend(out, degree + 1, p))]

    def _bind(self, r: int) -> None:
        """Bind the current variable at r: entry a of a lo half, with step d,
        becomes (a + r * d) % p.  The halves and steps are the ones this
        round's ``round_values`` kept, if it ran."""
        p = self._p
        half = self._size >> 1
        if self._head_weights is not None:
            w = self._head_weights[len(self._bound)]
            self._scale = self._scale * (1 - r + w * r) % p
        lo, _, step = self._kept or self._split()
        self._kept = None
        self._tables = [[(a + r * d) % p for a, d in zip(l, s)] for l, s in zip(lo, step)]
        if self._consts is not None and half == len(self._tables[0]):
            self._consts = None
        self._size = half
        self._bound.append(r % p)
        if half == 1:
            self._advance()

    def _advance(self) -> None:
        p = self._p
        plan = self.plan
        scalars = [tbl[0] for tbl in self._tables]
        if self._stage == 0:
            self._head_weights = None
            head = self._scale * math.prod(scalars[: plan.num_standalone]) % p
            self._blocks = [head, *scalars[plan.num_standalone :]]
            if not plan.num_tails:
                return
            z_star = tuple(plan.field(v) for v in self._bound[: plan.block_vars])
            self._tail_tables = plan.build_tails(z_star)
        else:
            self._blocks[self._stage] = math.prod(scalars) % p
            if self._stage == plan.num_tails:
                return
        self._stage += 1
        self._load(self._tail_tables[self._stage - 1], plan.tail_window)
        others = self._blocks[: self._stage] + self._blocks[self._stage + 1 :]
        self._mult = math.prod(others) % p


class GenericHonestProver(ProverStrategy):
    """Honest prover over an assignment oracle: round polynomials by direct
    summation of the statement's summand; exponential, for small specs."""

    def __init__(self, assignment_oracle: Callable[[Point], FieldElement]):
        self._oracle = assignment_oracle
        self._spec: Optional[SummandSpec] = None

    def begin_sumcheck(self, spec: SummandSpec, claim: FieldElement) -> None:
        self._spec = spec

    def round_poly(self, i: int, challenges: Point, current_claim: FieldElement) -> UniPoly:
        return honest_round_poly(self._spec, self._oracle, challenges, i)

    def assignment_query(self, point: Point) -> FieldElement:
        return self._oracle(tuple(point))


class TableCommittedProver(ProverStrategy):
    """Prover committed to one assignment table: round polynomials come from
    folding the plan it compiles from each statement over the table's exact
    multilinear extension, queries from direct evaluation."""

    def __init__(self, table: BooleanTable):
        self.table = table
        self._spec: Optional[SummandSpec] = None
        self._folder: Optional[PlanFolder] = None

    def begin_sumcheck(self, spec: SummandSpec, claim: FieldElement) -> None:
        self._spec = spec
        self._folder = PlanFolder(compile_plan(spec, self.table))

    def round_poly(self, i: int, challenges: Point, current_claim: FieldElement) -> UniPoly:
        spec = self._spec
        d = spec.degree_bounds[i - 1]
        self._folder.sync(challenges)
        fld = spec.field
        vals = self._folder.round_values(d)
        # the coefficients are the node inverse times the values at 0..d; all
        # d + 1 of them, trailing zeros included, as the wire format wants
        inverse = node_inverse(fld.modulus, d)
        return UniPoly(tuple([FieldElement(sum(map(mul, row, vals)), fld) for row in inverse]), d)

    def assignment_query(self, point: Point) -> FieldElement:
        return mle_eval(self.table, point)


def table_committed_prover(table: BooleanTable) -> TableCommittedProver:
    return TableCommittedProver(table)


class AdaptiveCheater(ProverStrategy):
    """The canonical soundness adversary: it always satisfies the round
    consistency equation by absorbing the current discrepancy into the linear
    coefficient, pushing the error into later rounds.  Assignment queries are
    answered honestly from the wrapped strategy."""

    def __init__(self, base: ProverStrategy):
        self.base = base

    def begin_sumcheck(self, spec: SummandSpec, claim: FieldElement) -> None:
        self.base.begin_sumcheck(spec, claim)

    def round_poly(self, i: int, challenges: Point, current_claim: FieldElement) -> UniPoly:
        honest = self.base.round_poly(i, challenges, current_claim)
        fld = current_claim.field
        values = [c.value for c in honest.coeffs]
        delta = current_claim - fld(values[0] + sum(values))  # g(0) + g(1)
        if delta.value == 0:
            return honest
        coeffs = list(honest.coeffs)
        while len(coeffs) < 2:
            coeffs.append(fld.zero)
        coeffs[1] = coeffs[1] + delta
        return UniPoly(tuple(coeffs), honest.bound)

    def assignment_query(self, point: Point) -> FieldElement:
        return self.base.assignment_query(point)


def adaptive_cheater(base: ProverStrategy) -> AdaptiveCheater:
    return AdaptiveCheater(base)


class RandomGarbageProver(ProverStrategy):
    """Emits uniformly random coefficients and query answers; its own seeded
    generator, independent of the verifier's tape."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed & _SEED_MASK)
        self._spec: Optional[SummandSpec] = None

    def begin_sumcheck(self, spec: SummandSpec, claim: FieldElement) -> None:
        self._spec = spec

    def round_poly(self, i: int, challenges: Point, current_claim: FieldElement) -> UniPoly:
        fld = self._spec.field
        d = self._spec.degree_bounds[i - 1]
        coeffs = tuple(fld(self._rng.randrange(fld.modulus)) for _ in range(d + 1))
        return UniPoly(coeffs, d)

    def assignment_query(self, point: Point) -> FieldElement:
        fld = point[0].field
        return fld(self._rng.randrange(fld.modulus))
