"""The generic sum-check round protocol, proof-side strategies, and exact
random-bit / proof-bit metering.

One round: the prover supplies a univariate polynomial g'_i for the current
variable; the verifier checks g'_i(0) + g'_i(1) against the running claim,
draws a random residue r_i mod p, and continues with the claim g'_i(r_i).
The verifier keeps residues, plain ints, and both wires carry them: claims,
challenges and read points go out as residues, with p; round i comes back as
a tuple of d_i + 1 residues, an assignment read as one residue and a line
read (three points of an axis-parallel line) as a tuple of three, the proof
symbols each is metered for.  ``proof_residues`` is the one check of what
comes back.  After the last round the caller performs the final direct
evaluation, since only the caller knows which factors it computes itself and
which it must read from the proof.  The statement a prover receives (``SummandSpec``) is
plain data: the table-committed prover compiles its ``ProductPlan`` from it
and folds that, and the reference prover (``honest_round_poly``) sums the
statement's ``summand_value`` over an assignment oracle point by point and
interpolates (the one user of ``FieldElement``).

Residues are drawn by rejection sampling from ceil(log2 p)-bit blocks;
rejected blocks still count toward the bits drawn (and are tracked separately
so closed-form bit counts can be checked exactly).
"""

from __future__ import annotations

import functools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import FrozenInstanceError, dataclass
from itertools import compress, repeat
from operator import add, mul, sub
from typing import Callable, NamedTuple, Optional, Sequence

from .arithmetize import (
    BooleanTable,
    Point,
    ProductPlan,
    SummandSpec,
    _tensor,
    compile_plan,
    mle_eval,
    mle_line,
    read_points,
    summand_value,
)
from .field import PrimeField, UniPoly, interpolate

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

    def getstate(self) -> tuple:
        """The generator's state and both bit counts, as plain data."""
        return self._rng.getstate(), self.bits_drawn, self.overhead_bits

    def setstate(self, state: tuple) -> None:
        """Continue from ``state``, as ``getstate`` gave it: the same draws
        and the same counts as the tape it came from."""
        rng_state, self.bits_drawn, self.overhead_bits = state
        self._rng.setstate(rng_state)

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

    def draw_line(
        self, m: int, p: int
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, int, int]]:
        """A random axis-parallel line of Z_p^m and three distinct points on
        it: the coordinates before the axis, those after it, and three
        distinct axis values t0, t1, t2.

        The same generator calls, values, ``bits_drawn`` and
        ``overhead_bits`` as ``draw_int(m)`` for the axis, m + 1 calls to
        ``draw_int(p)`` for the m coordinates and t0 (the axis's own
        coordinate is drawn and dropped), then ``draw_int(p)`` until a value
        new to the axis comes up, for t1 and for t2: rejected and repeated
        values count as overhead.  The first m + 1 field attempts are drawn
        in one pass."""
        if m < 1 or p < 3:
            raise ValueError("a line needs m >= 1 and three distinct values mod p")
        getrandbits = self._rng.getrandbits
        axis = drawn = 0
        if m > 1:
            width = (m - 1).bit_length()
            axis = getrandbits(width)
            drawn = width
            while axis >= m:
                axis = getrandbits(width)
                drawn += width
            self.overhead_bits += drawn - width
        width = (p - 1).bit_length()
        vals = [v for v in [getrandbits(width) for _ in range(m + 1)] if v < p]
        attempts = m + 1
        while len(vals) <= m:
            v = getrandbits(width)
            attempts += 1
            if v < p:
                vals.append(v)
        t0 = t1 = t2 = vals[m]
        while t1 == t0 or t1 >= p:
            t1 = getrandbits(width)
            attempts += 1
        while t2 == t0 or t2 == t1 or t2 >= p:
            t2 = getrandbits(width)
            attempts += 1
        self.bits_drawn += drawn + attempts * width
        self.overhead_bits += (attempts - m - 3) * width
        return tuple(vals[:axis]), tuple(vals[axis + 1 : m]), (t0, t1, t2)


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


def draw_field_element(tape: RandomTape, p: int, meter: ResourceMeter) -> int:
    """A uniform residue mod p, metered."""
    before = tape.bits_drawn
    v = tape.draw_int(p)
    meter.random_bits += tape.bits_drawn - before
    return v


class RoundTranscript(NamedTuple):
    """A verified round: the d + 1 coefficient residues the verifier read and
    the degree bound d, then the challenge and the new running claim, all
    residues mod p.  The coefficients are the round's message itself, a
    tuple of ints, which nobody can change.  A named tuple, so neither a
    plain write nor ``object.__setattr__`` changes a field (a plain write
    raises ``FrozenInstanceError``, as a frozen dataclass's does), and equal
    to the plain tuple of its fields."""

    index: int
    coeffs: tuple[int, ...]
    bound: int
    challenge: int
    running: int

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


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
    single strategy can serve the multi-stage verifier; the statement it
    receives is the prover's own copy.  The claim, the challenges
    r_1..r_{i-1} and the running claim are residues mod p, and round i's
    answer is a tuple of exactly d_i + 1 plain ints in [0, p), lowest degree
    first.

    ``assignment_query(point, p)`` answers the assignment oracle at a tuple
    of residues mod p with exactly one plain int in [0, p).
    ``line_query(head, tail, ts, p)`` answers it at the three points
    head + (t,) + tail, t in ``ts``, of one axis-parallel line, with exactly
    a tuple of three such ints; the multilinearity test asks each of its
    repetitions this way, before any statement (and so p) is handed out,
    which is why p travels with the query.  By default it asks
    ``assignment_query`` point by point, so a point-by-point prover need not
    define it.
    """

    def begin_sumcheck(self, spec: SummandSpec, claim: int) -> None:
        pass

    @abstractmethod
    def round_poly(self, i: int, challenges: tuple[int, ...], claim: int) -> tuple[int, ...]:
        ...

    @abstractmethod
    def assignment_query(self, point: Point, p: int) -> int:
        ...

    def line_query(self, head: Point, tail: Point, ts: Point, p: int) -> tuple[int, ...]:
        return tuple([self.assignment_query(head + (t,) + tail, p) for t in ts])


@dataclass(frozen=True)
class SumcheckRun:
    """A run's verdict and transcripts; the final point is its challenges,
    and ``final_expected`` the last running claim (None on a rejection)."""

    verdict: Verdict
    final_point: tuple[int, ...]
    final_expected: Optional[int]
    transcripts: tuple[RoundTranscript, ...]


def proof_residues(message, n: int, p: int) -> Optional[tuple[int, ...]]:
    """A prover's message if it is exactly a tuple of n plain ints in [0, p),
    else None: the one check of a round message, a line read and the final
    reads.  A plain tuple of plain ints has no overridable method and cannot
    change after it is read, so the verifier computes on it directly and no
    method of a prover-supplied object ever runs on its side."""
    if type(message) is not tuple or len(message) != n:
        return None
    for c in message:
        if type(c) is not int or not 0 <= c < p:
            return None
    return message


def ask_prover(prover, name: str, *args):
    """What the prover's method ``name`` returns, or None if looking it up or
    calling it raises.  To the verifier a prover exception is a malformed
    answer; only ``Exception`` is caught, so an interrupt still ends the
    run."""
    try:
        return getattr(prover, name)(*args)
    except Exception:
        return None


def _horner(coeffs: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _shallow_copy(obj, **fields):
    """A new object of ``obj``'s class holding its attributes, ``fields``
    replaced, made without ``__init__`` or ``__post_init__``; None stays
    None.  ``copy.copy`` of a frozen dataclass makes the same object the
    long way round, through ``__reduce_ex__``."""
    if obj is None:
        return None
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **fields)
    return new


def run_sumcheck(
    spec: SummandSpec,
    claim: int,
    prover: ProverStrategy,
    tape: RandomTape,
    meter: ResourceMeter,
) -> SumcheckRun:
    """Drive the round protocol for ``spec`` against ``prover``.

    Per round the verifier reads (d_i + 1) * ceil(log2 p) proof bits and draws
    one field element.  Malformed prover output (anything but exactly a tuple
    of d_i + 1 plain ints in [0, p), or an exception) is a rejection at that
    round, never a crash; an exception in ``begin_sumcheck`` is a malformed
    first round.  The verifier evaluates the coefficients itself and compares
    residues.  The final direct evaluation is left to the caller, which
    receives the fully instantiated point and the last running claim.

    ``begin_sumcheck`` is handed a shallow copy of ``spec`` holding shallow
    copies of its formula and block (``_shallow_copy``: new objects, no
    revalidation).  Everything else in a statement is an int or a tuple of
    ints, which nobody can change, and the verifier reads p, the bit width
    it meters by and the final check's code arrays from its own ``spec``
    only, so no write the prover forces into what it is handed reaches a
    check or a meter.
    """
    p = spec.p
    bits = (p - 1).bit_length()
    a = claim % p
    handout = _shallow_copy(
        spec, formula=_shallow_copy(spec.formula), block=_shallow_copy(spec.block)
    )
    try:
        prover.begin_sumcheck(handout, a)
        started = True
    except Exception:
        started = False
    challenges: tuple[int, ...] = ()
    transcripts: list[RoundTranscript] = []
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        poly = ask_prover(prover, "round_poly", i, challenges, a) if started else None
        meter.proof_bits += (d + 1) * bits
        coeffs = proof_residues(poly, d + 1, p)
        # g(0) + g(1) is the constant coefficient plus the sum of all of them
        if coeffs is None or (coeffs[0] + sum(coeffs)) % p != a:
            verdict = Verdict(False, meter.snapshot(), rejection_round=i)
            return SumcheckRun(verdict, challenges, None, tuple(transcripts))
        r = draw_field_element(tape, p, meter)
        a = _horner(coeffs, r, p)
        challenges += (r,)
        transcripts.append(RoundTranscript(i, coeffs, d, r, a))
    return SumcheckRun(Verdict(True, meter.snapshot()), challenges, a, tuple(transcripts))


def honest_round_poly(
    spec: SummandSpec,
    oracle: Callable[[Point, int], int],
    prefix: Sequence[int],
    i: int,
) -> UniPoly:
    """Exact round polynomial of ``spec`` over the assignment ``oracle``, by
    direct partial summation.

    ``prefix`` holds the residues r_1..r_{i-1}.  Evaluates the partial sum
    at the d_i + 1 points 0..d_i, asking ``oracle(point, p)`` for a residue
    at every read point, and interpolates.  Exponential in the number of
    free variables; intended for small summands and as the reference the
    fast prover is checked against.
    """
    if len(prefix) != i - 1:
        raise ValueError("prefix must instantiate exactly the first i-1 variables")
    p = spec.p
    fld = PrimeField(p)
    d = spec.degree_bounds[i - 1]
    free = spec.num_vars - i
    pts = []
    for t in range(d + 1):
        total = 0
        for mask in range(1 << free):
            suffix = tuple((mask >> (free - 1 - j)) & 1 for j in range(free))
            pt = tuple(prefix) + (t,) + suffix
            reads = [oracle(q, p) for q in read_points(spec, pt)]
            total += summand_value(spec, pt, reads)
        pts.append((fld(t), fld(total)))
    return interpolate(pts)


# A whole-cube block of two tables, each at least 15/16 zeros, folds over
# its nonzero entries from this many entries on.  Folding a weighted
# two-table head through all its rounds that way, against the dense fold:
# at 1/16 ones per table, +1% at 128 entries and -13% at 256; at 1/8 ones,
# +11% at 256 (hence the zero share); at 3% ones, +33% at 16 entries and
# -15% at 128.  One table gains nothing at 1/16 ones (its dense round is
# two C-level sums), so it stays dense.
_SPARSE_MIN = 256

# A whole-cube block of two to 15 tables, each exactly ``bytes`` of 0s and
# 1s, sums its first round and takes its first bind by byte lanes from this
# many entries on: two tables from 256, three or more from 32.  The first
# round and bind against the dense ones, 2 cores, CPython 3.11.7, tables 97%
# or 50% ones: two tables +3% to +19% at 128 entries, -2% to -6% at 256 and
# -18% to -24% at 2,048; three tables -7% to -17% at 32 entries; five or
# more -36% to -76% from 32 on.  One table does not gain (+44% to +138%
# unweighted, -1% to +46% weighted): its dense round is two C-level sums.
# The 8- and 16-entry blocks at m <= 4 stay dense.
_LANE_MIN = 256
_LANE_MIN_MANY = 32
_LANE_MAX_TABLES = 15

# per class 16 x + y of an entry (x tables at (1, 0), y at (0, 1)), the
# translation that maps that class to 1 and every other byte to 0
_SELECT = tuple(bytes(c) + b"\x01" + bytes(255 - c) for c in range(256))

# (1 - t)^x as coefficient lists, lowest first, x = 0.._LANE_MAX_TABLES
_ONE_MINUS_T = tuple(
    tuple((-1) ** i * math.comb(x, i) for i in range(x + 1))
    for x in range(_LANE_MAX_TABLES + 1)
)


@functools.lru_cache(maxsize=8)
def _lane_ones(lanes: int) -> int:
    """The int whose big-endian bytes are ``lanes`` bytes of 1."""
    return int.from_bytes(b"\x01" * lanes, "big")


def _lanes(table: bytes, half: int) -> tuple[int, int]:
    """A 0/1 table's lo and hi halves as ints, one byte lane per entry, so
    that sums and bitwise operations of such ints act entry by entry while
    no lane passes 255.  The byte order is given, as Python 3.10 needs."""
    return int.from_bytes(table[:half], "big"), int.from_bytes(table[half:], "big")


@functools.lru_cache(maxsize=8)
def _indices(size: int) -> tuple[int, ...]:
    """0..size-1, kept: ``compress`` over a range makes an int per entry."""
    return tuple(range(size))


def _nonzeros(table: Sequence[int]) -> dict[int, int]:
    """The nonzero entries of a table, by index."""
    idx = list(compress(_indices(len(table)), table))
    return dict(zip(idx, map(table.__getitem__, idx)))


def _entrywise_product(u: list[list[int]], v: list[list[int]]) -> list[list[int]]:
    """The coefficient lists of u * v, entry by entry, for polynomials in t
    given as lists of per-entry coefficient lists, lowest first."""
    out: list = [None] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            prod = map(mul, x, y)
            out[i + j] = list(prod) if out[i + j] is None else list(map(add, out[i + j], prod))
    return out


class PlanFolder:
    """Folds a ProductPlan's factor tables as challenges bind variables,
    forward only: each ``sync`` extends the bound prefix, as the verifier's
    challenges do, and a folder never rewinds.

    Every factor is multilinear in each variable of its block, so binding
    a variable at r is the exact affine map a + r * (b - a) from each lo-half
    entry a and its hi-half partner b, one pass per table, and the per-round
    sums over the remaining cube are exactly the honest round polynomial,
    which ``round_values`` returns as its coefficients.  A block of one or
    two tables (of a compiled plan: every tail, every weight statement, a
    clause-code head at L <= 2) sums its round as coefficients directly:
    with steps da = a1 - a0 and db = b1 - b0 over the lo and hi halves,
    sum (a0 + t da)(b0 + t db) is c0 + c1 t + c2 t^2 with c0 = sum a0 b0,
    c1 = sum (a0 db + da b0) and c2 = sum da db (with one table, c0 = sum a0
    and c1 = sum da).  A block of k >= 3 tables (a W2 head at L >= 3)
    multiplies its affine factors two at a time into per-entry coefficient
    lists, c0 = a0 b0, c2 = da db and c1 = a1 b1 - c0 - c2 (an odd last
    table stays affine), multiplies those lists entry by entry until two
    polynomials remain, and sums the products of their coefficient lists
    into q's k + 1 coefficients (at k = 3 the odd table enters only there).

    Of a block of two tables the plan's window applies to, only the window
    is held: the first W entries of each table, the constant c it holds
    past W, and one scale g.  A weight-tensor head is whole-cube, and so is
    a windowed block of any other table count, which no plan compiled for
    a verifier's statement has (a weight statement with B = 1 is one
    table).  While the remaining cube is larger than W, the current variable
    is a top code bit, so the window lies in the lo half and the hi half is
    all constants: binding maps each window entry a to a + r * (c - a), so
    every entry stands at c + g * (a - c) for the entry a it was loaded
    with, and a bind only sets g to g * (1 - r).  A round's coefficients
    then come from the sums of the loaded window, taken once at load: in t
    every lo-half entry is c + (1 - t) g (a - c), and the (half - W)
    constant entries add (half - W) * prod(c).  Once the cube has shrunk
    to W, the window is rebuilt as c + g * (a - c) and the plain fold takes
    over.

    A whole-cube block of two tables, each at least 15/16 zeros and at
    least ``_SPARSE_MIN`` entries long, starts in the sparse phase, chosen
    from the tables alone.  Of a compiled plan that is a W1 head, whose
    clause-code tables are nonzero only at the clauses touching a true
    variable, and a two-table weight statement or W1 tail whose true codes
    reach the top half of the cube.  Each table is then a dict of its
    nonzero entries; a round sums c0, c1 and c2 over the co-support only,
    the indices j < half where both tables are nonzero at j or j + half,
    and a bind merges each nonzero entry into its index below half.  Once a
    bind leaves no more entries than the tables' nonzero entries number,
    the block goes back to dense lists and the plain fold.

    Any other whole-cube block of two to ``_LANE_MAX_TABLES`` tables, each
    exactly ``bytes`` of 0s and 1s (one C-level ``max`` each) and at least
    ``_LANE_MIN`` entries long (``_LANE_MIN_MANY`` from three tables on),
    is a lane block, chosen from the tables alone: of a compiled plan, a W2
    head at L >= 2 and a W1 head too dense for the sparse phase.  Its first
    round reads each table's lo and hi halves as byte lanes of one int each
    (``_lane_coefficients``): an entry with every table at (0, 1), (1, 0)
    or (1, 1) adds w[j] (1 - t)^x t^y, x and y counting the tables at
    (1, 0) and at (0, 1), and any other adds nothing, so q is a sum over
    the (x, y) classes present.  Its first bind maps each lane value
    2 lo + hi through [0, r, 1 - r, 1], and the block folds densely from
    the second round on.

    A head with a declared weight tensor (``head_weights``) folds its tables
    only.  Head round i's polynomial is (1 + (r_i - 1) t) * s * q(t): s is
    the product of the bound weight factors and q sums the tensor's unbound
    suffix w[:half] times the tables, so the lo and hi halves of the first
    table are weighted by it before they are summed.  w[:half] is a prefix
    of the tensor of r_2..r_m.  A dense head builds its w[:half] once, when
    it is loaded, and each later round reads a prefix of it.  A sparse head
    never builds the whole tensor: it reads each w[j] it needs as the
    product of an entry of the tensor's high half and one of its low half,
    and builds w[:half] only when it turns dense.

    Each block's round polynomial is scaled by one multiplier: s in the
    head, which has no other block's value to carry, and in a tail the
    product of every other block's bound value.  Once the head is bound at
    z*, its proxy scalars already are the tails' cube sums (``ProductPlan``'s
    contract), so the folder keeps one list of block values: the head value,
    then each tail's bound proxy until that tail is bound, and its value
    after that.
    """

    def __init__(self, plan: ProductPlan):
        self.plan = plan
        self._p = plan.p
        # w[:half] of the first dense head round, and w's two halves
        self._prefix: Optional[list[int]] = None
        self._halves: Optional[tuple[list[int], list[int], int]] = None
        # a held window's scale and sums, set here too so that every folder
        # gains its attributes in one order and they keep one shared layout
        self._scale = 1
        self._moments: Optional[tuple[int, int, int]] = None
        self._bound: tuple[int, ...] = ()
        self._mult = 1
        self._weights = plan.head_weights  # the current block's, None past the head
        self._load(plan.head_tables, plan.window if self._weights is None else None)
        self._stage = 0  # 0 = head block, j >= 1 = tail j-1

    def _load(self, tables: Sequence[Sequence[int]], window: Optional[int]) -> None:
        """Hold, for a block of two tables whose window is short of the
        cube, the first ``window`` entries of each table, the constant each
        holds past it and the window's sums (else the constants are None);
        or, for a whole-cube block the sparse phase takes, each table's
        nonzero entries; or else the tables themselves, marked as a lane
        block if they make one.  Tables are never written to, only replaced,
        so they are not copied."""
        self._size = size = len(tables[0])
        self._sparse = self._lanes = False
        if window is not None and window < size and len(tables) == 2:
            # the window at scale 1, with the sums its rounds read
            self._tables = held = [t[:window] for t in tables]
            self._consts = consts = [t[window] for t in tables]
            self._scale = 1
            (a, b), (ca, cb) = held, consts
            both = ca * cb
            e1 = cb * sum(a) + ca * sum(b) - 2 * window * both
            self._moments = (both, e1, sum(map(mul, a, b)) - e1 - window * both)
            return
        self._tables, self._consts = tables, None
        if (
            size >= _SPARSE_MIN
            and len(tables) == 2
            and all(16 * t.count(0) >= 15 * size for t in tables)
        ):
            self._tables = [_nonzeros(t) for t in tables]
            self._sparse = True
            return
        self._lanes = (
            2 <= len(tables) <= _LANE_MAX_TABLES
            and size >= (_LANE_MIN if len(tables) == 2 else _LANE_MIN_MANY)
            and all(type(t) is bytes for t in tables)
            and max(map(max, tables)) <= 1
        )
        if self._weights is not None:
            self._keep_prefix()

    def sync(self, challenges: tuple[int, ...]) -> None:
        """Bind the challenges past the bound prefix.  The fold binds
        forward only: challenges that do not extend the bound prefix raise
        ValueError, which a verifier takes as a malformed round."""
        bound = self._bound
        if challenges[: len(bound)] != bound:
            raise ValueError("the challenges must extend the bound prefix")
        for r in challenges[len(bound) :]:
            self._bind(r)

    def round_values(self, degree: int) -> list[int]:
        """The current round polynomial's degree + 1 coefficients mod p,
        lowest first."""
        p = self._p
        if self._sparse:
            q = self._sparse_coefficients()
        elif self._lanes:
            q = self._lane_coefficients()
        elif self._consts is not None:
            q = self._window_coefficients()
        elif len(self._tables) > 2:
            q = self._product_coefficients()
        else:
            q = self._coefficients()
        if self._weights is not None:
            # times 1 + (r_i - 1) t
            step = self._weights[len(self._bound)] - 1
            q = [a + step * b for a, b in zip(q + [0], [0] + q)]
        mult = self._mult
        return [c * mult % p for c in q] + [0] * (degree + 1 - len(q))

    def _window_coefficients(self) -> list[int]:
        """c0, c1 and c2 of the current round's cube sum while the window
        lies in the lo half.  Every entry there stands at c + g (a - c) for
        the entry a it was loaded with, so in t the lo half sums to
        half * prod(c) + (1 - t) g e1 + (1 - t)^2 g^2 e2: e1 sums each
        table's loaded deviations a - c times the other table's constant,
        and e2 the products of the two tables' deviations."""
        p = self._p
        g = self._scale
        c, e1, e2 = self._moments
        s1 = g * e1 % p
        base = (self._size >> 1) * c + s1
        s2 = g * g * e2 % p
        return [(base + s2) % p, (-s1 - 2 * s2) % p, s2]

    def _coefficients(self) -> list[int]:
        """c0, c1 (and c2, for two tables) of the current round's cube sum
        over one or two tables, mod p; in a weighted head the first table's
        halves carry the weight suffix."""
        p = self._p
        tables = self._tables
        half = self._size >> 1
        a = tables[0]
        lo, hi = a[:half], a[half:]
        if self._weights is not None:
            # map stops at the halves' end: w[:half] without the slice
            w = self._prefix
            lo, hi = map(mul, w, lo), map(mul, w, hi)
        if len(tables) == 1:
            s0 = sum(lo)
            return [s0 % p, (sum(hi) - s0) % p]
        b = tables[1]
        c0 = c1 = c2 = 0
        # zip stops at the end of b's hi half, so b0 runs over its lo half
        for a0, a1, b0, b1 in zip(lo, hi, b, b[half:]):
            da, db = a1 - a0, b1 - b0
            c0 += a0 * b0
            c1 += a0 * db + da * b0
            c2 += da * db
        return [c0 % p, c1 % p, c2 % p]

    def _lane_coefficients(self) -> list[int]:
        """q's k + 1 coefficients in the first round of a block of k <= 15
        0/1 tables, read as byte lanes: each table's lo and hi halves are
        one int each, and per entry j, x counts the tables at (1, 0) and y
        those at (0, 1), one lane sum each.  An entry where some table is at
        (0, 0) adds nothing; any other adds w[j] (1 - t)^x t^y, its tables
        at (1, 1) being 1.  So q sums, over the classes 16 x + y present,
        the class's weight sum times (1 - t)^x t^y: a ``count`` per class,
        or in a weighted head one ``translate`` and one ``compress`` over
        w[:half].  x + y <= k, so no live entry is class 255, which marks
        the dead ones."""
        half = self._size >> 1
        ones = _lane_ones(half)
        live, x, y = ones, 0, 0
        for t in self._tables:
            lo, hi = _lanes(t, half)
            both = lo & hi
            x += lo ^ both
            y += hi ^ both
            live &= lo | hi
        classes = (16 * x + y | (ones ^ live) * 255).to_bytes(half, "big")
        present = set(classes)
        present.discard(255)
        if self._weights is None:
            sums = [(c, classes.count(c)) for c in present]
        else:
            w = self._prefix
            sums = [(c, sum(compress(w, classes.translate(_SELECT[c])))) for c in present]
        q = [0] * (len(self._tables) + 1)
        for c, s in sums:
            for i, b in enumerate(_ONE_MINUS_T[c >> 4], start=c & 15):
                q[i] += b * s
        return [c % self._p for c in q]

    def _sparse_coefficients(self) -> list[int]:
        """``_coefficients`` of two tables over their co-support: the indices
        j < half where both tables are nonzero at j or at j + half, since at
        any other j one of them is 0 at both and the j-th terms vanish.  In a
        weighted head the first table's lo and hi entries carry w[j]."""
        p = self._p
        half = self._size >> 1
        mask = half - 1
        a, b = self._tables
        cosupport = {j & mask for j in a}.intersection([j & mask for j in b])
        weights = repeat(1) if self._weights is None else self._weights_at(cosupport)
        ga, gb = a.get, b.get
        c0 = c1 = c2 = 0
        for j, w in zip(cosupport, weights):
            a0, a1, b0, b1 = w * ga(j, 0), w * ga(j | half, 0), gb(j, 0), gb(j | half, 0)
            da, db = a1 - a0, b1 - b0
            c0 += a0 * b0
            c1 += a0 * db + da * b0
            c2 += da * db
        return [c0 % p, c1 % p, c2 % p]

    def _weights_at(self, indices: set[int]) -> list[int]:
        """w[j] for each j of ``indices``, the product of one entry of the
        high and one of the low half of the tensor of r_2..r_m (every
        round's w[:half] is a prefix of it), which is never built whole."""
        if self._halves is None:
            rest = [(1, r) for r in self._weights[1:]]
            h = len(rest) // 2
            self._halves = (
                _tensor(rest[:h], self._p), _tensor(rest[h:], self._p), len(rest) - h
            )
        high, low, shift = self._halves
        mask = (1 << shift) - 1
        return [high[j >> shift] * low[j & mask] for j in indices]

    def _keep_prefix(self) -> None:
        """Keep w[:half], the tensor of r_{i+1}..r_m in round i, for the
        dense rounds from this one on, each of which reads a prefix of it."""
        self._prefix = _tensor([(1, r) for r in self._weights[len(self._bound) + 1 :]], self._p)

    def _product_coefficients(self) -> list[int]:
        """q's k + 1 coefficients for k >= 3 tables.  Each table is
        a0 + t da over its lo and hi halves; pairs of tables multiply into
        per-entry coefficient lists (c1 = a1 b1 - c0 - c2 saves a product),
        an odd last table stays affine and goes first, the first two
        polynomials multiply entry by entry until two remain, and those two
        are summed as the products of their coefficient lists.  In a
        weighted head the first table's halves, in the first pair, carry the
        weight suffix."""
        half = self._size >> 1
        halves = [(t[:half], t[half:]) for t in self._tables]
        if self._weights is not None:
            # map stops at the halves' end: w[:half] without the slice
            w, (lo, hi) = self._prefix, halves[0]
            halves[0] = (list(map(mul, w, lo)), list(map(mul, w, hi)))
        polys = []
        if len(halves) % 2:
            lo, hi = halves.pop()
            polys.append([lo, list(map(sub, hi, lo))])
        for (a0, a1), (b0, b1) in zip(halves[::2], halves[1::2]):
            c0 = list(map(mul, a0, b0))
            c2 = list(map(mul, map(sub, a1, a0), map(sub, b1, b0)))
            polys.append([c0, list(map(sub, map(sub, map(mul, a1, b1), c0), c2)), c2])
        while len(polys) > 2:
            polys[:2] = [_entrywise_product(*polys[:2])]
        u, v = polys
        q = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                q[i + j] += sum(map(mul, x, y))
        return [c % self._p for c in q]

    def _bind(self, r: int) -> None:
        """Bind the current variable at r: one pass of (a + r * (b - a)) % p
        per table, b the hi-half partner of the lo-half entry a; while the
        window lies in the lo half, only its scale moves, and the window is
        rebuilt once the cube has shrunk to it; in the sparse phase, over
        each table's nonzero entries, turning dense once the block holds no
        more entries than they number; in a lane block, by one lookup of
        each entry's lane 2a + b in [0, r, 1 - r, 1]."""
        p = self._p
        half = self._size >> 1
        if self._weights is not None:
            w = self._weights[len(self._bound)]
            self._mult = self._mult * (1 - r + w * r) % p
        if self._sparse:
            self._tables = [self._sparse_bind(t, r, half) for t in self._tables]
        elif self._lanes:
            # each entry's lane 2 a + b, through a + r (b - a) at its four (a, b)
            get = (0, r % p, (1 - r) % p, 1).__getitem__
            bound = []
            for t in self._tables:
                lo, hi = _lanes(t, half)
                bound.append(list(map(get, (2 * lo + hi).to_bytes(half, "big"))))
            self._tables, self._lanes = bound, False
        elif self._consts is None:
            # zip stops at the end of the hi half, so a runs over the lo half
            self._tables = [
                [(a + r * (b - a)) % p for a, b in zip(t, t[half:])] for t in self._tables
            ]
        else:
            g = self._scale = self._scale * (1 - r) % p
            if half == len(self._tables[0]):
                self._tables = [
                    [(c + g * (a - c)) % p for a in t] for t, c in zip(self._tables, self._consts)
                ]
                self._consts = None
        self._size = half
        self._bound += (r % p,)
        if self._sparse and half <= max(1, sum(map(len, self._tables))):
            self._densify()
        if half == 1:
            self._advance()

    def _sparse_bind(self, t: dict[int, int], r: int, half: int) -> dict[int, int]:
        """(a + r * (b - a)) % p, as (1 - r) a + r b, at every index j < half
        where the table is nonzero at j or at j + half."""
        p = self._p
        s = (1 - r) % p
        out = {j: s * a % p for j, a in t.items() if j < half}
        get = out.get
        for j, b in t.items():
            if j >= half:
                j ^= half
                out[j] = (get(j, 0) + r * b) % p
        return out

    def _densify(self) -> None:
        """Back to dense tables, and in a weighted head to the weight prefix
        the dense rounds read."""
        dense = []
        for t in self._tables:
            row = [0] * self._size
            for j, v in t.items():
                row[j] = v
            dense.append(row)
        self._tables = dense
        self._sparse = False
        if self._weights is not None:
            self._keep_prefix()

    def _advance(self) -> None:
        p = self._p
        plan = self.plan
        scalars = [tbl[0] for tbl in self._tables]
        if self._stage == 0:
            head = self._mult * math.prod(scalars[: plan.num_standalone]) % p
            self._blocks = [head, *scalars[plan.num_standalone :]]
            if not plan.num_tails:
                return
            self._tail_tables = plan.build_tails(self._bound[: plan.block_vars])
        else:
            self._blocks[self._stage] = math.prod(scalars) % p
            if self._stage == plan.num_tails:
                return
        self._stage += 1
        self._weights = None
        self._load(self._tail_tables[self._stage - 1], plan.window)
        others = self._blocks[: self._stage] + self._blocks[self._stage + 1 :]
        self._mult = math.prod(others) % p


class GenericHonestProver(ProverStrategy):
    """Honest prover over an assignment oracle: round polynomials by direct
    summation of the statement's summand (``honest_round_poly``, padded to
    the wire's d + 1 residues); exponential, for small specs."""

    def __init__(self, assignment_oracle: Callable[[Point, int], int]):
        self._oracle = assignment_oracle
        self._spec: Optional[SummandSpec] = None

    def begin_sumcheck(self, spec: SummandSpec, claim: int) -> None:
        self._spec = spec

    def round_poly(self, i: int, challenges: tuple[int, ...], claim: int) -> tuple[int, ...]:
        spec = self._spec
        poly = honest_round_poly(spec, self._oracle, challenges, i)
        return tuple([c.value for c in poly.padded(spec.degree_bounds[i - 1]).coeffs])

    def assignment_query(self, point: Point, p: int) -> int:
        return self._oracle(point, p)


class TableCommittedProver(ProverStrategy):
    """Prover committed to one assignment table: round polynomials come from
    folding the plan it compiles from each statement over the table's exact
    multilinear extension, queries from direct evaluation (a line's three
    points from one ``mle_line``)."""

    def __init__(self, table: BooleanTable):
        self.table = table
        self._spec: Optional[SummandSpec] = None
        self._folder: Optional[PlanFolder] = None

    def begin_sumcheck(self, spec: SummandSpec, claim: int) -> None:
        self._spec = spec
        self._folder = PlanFolder(compile_plan(spec, self.table))

    def round_poly(self, i: int, challenges: tuple[int, ...], claim: int) -> tuple[int, ...]:
        self._folder.sync(challenges)
        return tuple(self._folder.round_values(self._spec.degree_bounds[i - 1]))

    def assignment_query(self, point: Point, p: int) -> int:
        return mle_eval(self.table, point, p)

    def line_query(self, head: Point, tail: Point, ts: Point, p: int) -> tuple[int, ...]:
        return mle_line(self.table, head, tail, ts, p)


def table_committed_prover(table: BooleanTable) -> TableCommittedProver:
    return TableCommittedProver(table)


class AdaptiveCheater(ProverStrategy):
    """The canonical soundness adversary: it always satisfies the round
    consistency equation by absorbing the current discrepancy into the linear
    coefficient, pushing the error into later rounds.  Assignment queries are
    answered honestly from the wrapped strategy."""

    def __init__(self, base: ProverStrategy):
        self.base = base
        self._p = 0

    def begin_sumcheck(self, spec: SummandSpec, claim: int) -> None:
        self._p = spec.p
        self.base.begin_sumcheck(spec, claim)

    def round_poly(self, i: int, challenges: tuple[int, ...], claim: int) -> tuple[int, ...]:
        honest = self.base.round_poly(i, challenges, claim)
        delta = (claim - honest[0] - sum(honest)) % self._p  # claim - g(0) - g(1)
        if delta == 0:
            return honest
        return (honest[0], (honest[1] + delta) % self._p, *honest[2:])

    def assignment_query(self, point: Point, p: int) -> int:
        return self.base.assignment_query(point, p)

    def line_query(self, head: Point, tail: Point, ts: Point, p: int) -> tuple[int, ...]:
        return self.base.line_query(head, tail, ts, p)


def adaptive_cheater(base: ProverStrategy) -> AdaptiveCheater:
    return AdaptiveCheater(base)


class RandomGarbageProver(ProverStrategy):
    """Emits uniformly random coefficients and query answers; its own seeded
    generator, independent of the verifier's tape."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed & _SEED_MASK)
        self._spec: Optional[SummandSpec] = None

    def begin_sumcheck(self, spec: SummandSpec, claim: int) -> None:
        self._spec = spec

    def round_poly(self, i: int, challenges: tuple[int, ...], claim: int) -> tuple[int, ...]:
        p = self._spec.p
        return tuple([self._rng.randrange(p) for _ in range(self._spec.degree_bounds[i - 1] + 1)])

    def assignment_query(self, point: Point, p: int) -> int:
        return self._rng.randrange(p)
