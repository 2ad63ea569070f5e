"""Arithmetization of weighted CNF over a prime field.

Clauses and variables are coded as m-bit strings (variable i gets code i-1,
clause j gets code j, most significant bit first; codes beyond the real
counts are dummy slots).  The module builds the functions over Z_p whose
boolean-cube totals witness satisfiability and assignment weight; points,
oracle reads and values are residues mod p, plain ints:

  * ``mle_line``              the unique multilinear extension of a boolean table
                              at the points of one axis-parallel line, affine
                              there (``mle_eval`` at one point),
  * ``clause_indicator_eval`` the extension of "x codes the variable at a given
                              position of clause z".

A sum-check statement is a ``SummandSpec``: frozen data with no code in it.
``build_w1_summand`` (negated 2-CNF, L = 2) and ``build_w2_summand``
(positive CNF, padded length L) state the randomly weighted unsatisfaction
product w(z) * prod_i C_i(z, x_i) * F(A(x_i)) over clauses padded to length
L, whose literal factor F is A for negated 2-CNF and 1 - A for positive CNF;
summed over the cube it vanishes exactly when the assignment satisfies every
clause (with high probability over the clause weights).
``build_weight_summand`` states A(z) * B(z), whose cube total counts the true
variables inside an optional block.  Three functions give a statement its
meaning, for any assignment oracle A:

  * ``read_points``    where the summand reads A at a point,
  * ``summand_value``  the summand there, from those reads; the verifier's
                       final check and the reference prover use it alike.
                       It is ``summand_factor``, the part that reads no
                       oracle, times the read part ``with_reads``,
  * ``compile_plan``   the honest prover's ``ProductPlan`` over a committed
                       assignment table: the exact product-of-multilinear-
                       factors structure it folds round by round.

The plan works block by block (clause codes first, then each variable-code
block); while the clause block is active, every variable block is
represented by its summed-out proxy table, which agrees with the true inner
sum everywhere by multilinearity.

Points are evaluated through eq tables: the eq table of a point lists
chi_c(point) for every code c of the m-cube, an MSB-first tensor product
(the clause-weight table is another), built as the outer product of two
half-width tensors from m = 6 on.  With v_i(c), the code of the variable at
position i of clause c, taken from the code arrays the statement carries
(one tuple per position), the clause indicator is sum_c eq_z[c] * eq_x[v_i(c)]
over the real clauses, summed row by row over the two halves of z so eq_z
is never built; the plan's head proxies look the literal factor up at
v_i(c), and each tail scatters eq_{z*} into per-variable sums; all L tails
share one eq table of z*.  The clause weights enter the plan as a declared
tensor factor beside its head tables, never as a table.

The n variable codes fill only the window 0..W-1, W = 2^bitlen(n - 1), of
the m-cube: eq_x is built over the window's coordinates alone, and the plan
declares, per variable-code block, the window past which its tables are
constant (widened to cover the highest true code of the committed tables).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from operator import mul
from typing import Callable, Optional, Sequence

from .formula import ClassMismatchError, ClassTag, WeightedFormula

Point = tuple[int, ...]


def code_bits(code: int, width: int) -> tuple[int, ...]:
    """MSB-first bits of a variable or clause code."""
    return tuple((code >> (width - 1 - j)) & 1 for j in range(width))


@dataclass(frozen=True)
class BooleanTable:
    """Dense truth table over the m-cube; entry ``values[code]`` is f at the
    MSB-first bit pattern of ``code``.  The entries are held as an immutable
    ``bytes`` of 0s and 1s, one byte per code, whatever equal value (True,
    1.0) they were given as; indexing or iterating it gives plain ints."""

    arity: int
    values: bytes
    _ones: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        values = self.values
        if type(values) is bytes or type(values) is bytearray:
            # one C-level pass that drops the 0s and 1s; an empty table fails
            # the length check below
            if values.translate(None, b"\0\1"):
                raise ValueError("table entries must be 0 or 1")
            values = bytes(values)
        else:
            # (0, 1).index compares by ==, like ``in``: True, False and 1.0
            # map to the bytes 0 and 1, and an unhashable entry is a
            # ValueError, not a TypeError
            try:
                values = bytes(map((0, 1).index, values))
            except ValueError:
                raise ValueError("table entries must be 0 or 1") from None
        if len(values) != 1 << self.arity:
            raise ValueError(f"expected {1 << self.arity} entries, got {len(values)}")
        object.__setattr__(self, "values", values)
        # the true codes in order, one C-level search each: the tables here
        # hold few of them (an assignment of weight k, a block of n codes)
        ones, at = [], values.find(1)
        while at != -1:
            ones.append(at)
            at = values.find(1, at + 1)
        object.__setattr__(self, "_ones", tuple(ones))

    @classmethod
    def from_true_codes(cls, codes: Sequence[int], arity: int) -> "BooleanTable":
        values = bytearray(1 << arity)
        for c in codes:
            if not 0 <= c < len(values):
                raise ValueError(f"code {c} outside the cube codes 0..{len(values) - 1}")
            values[c] = 1
        return cls(arity, values)

    @classmethod
    def from_assignment(cls, true_set, arity: int) -> "BooleanTable":
        """Variable i maps to code i-1; everything else (dummies included) is 0."""
        return cls.from_true_codes([v - 1 for v in true_set], arity)

    def ones(self) -> tuple[int, ...]:
        return self._ones

    def top_code(self) -> int:
        """Highest true code, or -1 for the all-zero table."""
        return self._ones[-1] if self._ones else -1


def code_window(top_code: int) -> int:
    """W = 2^bitlen(top_code): the fewest leading codes 0..W-1, W a power of
    two, that hold every code up to ``top_code`` (W = 1 when it is 0 or -1)."""
    return 1 << max(top_code, 0).bit_length()


@functools.lru_cache(maxsize=256)
def _line_index(
    ones: tuple[int, ...], arity: int, axis: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """How many true codes have bit ``axis`` 0, and for those codes, then
    for the ones where it is 1: the positions of each code's arity - 1
    shared cube-indicator factors in xs + [1 - x for x in xs], xs being the
    coordinates off the axis: j where the code's bit is 1, arity - 1 + j
    where it is 0 (MSB first).  Keyed by the true codes, not the table, so a
    table holds no index and the key hashes only its few true codes; built
    on first use, since setup builds many tables that are never
    evaluated."""
    shared = arity - 1
    split: tuple[list, list] = ([], [])
    for code in ones:
        bits = [(code >> (arity - 1 - j)) & 1 for j in range(arity)]
        on_axis = bits.pop(axis)
        split[on_axis].append(tuple([j if b else shared + j for j, b in enumerate(bits)]))
    return len(split[0]), tuple(split[0] + split[1])


def mle_line(
    table: BooleanTable,
    head: Sequence[int],
    tail: Sequence[int],
    ts: Sequence[int],
    p: int,
) -> tuple[int, ...]:
    """The multilinear extension of ``table`` at head + (t,) + tail for each t
    of ``ts``, mod p: points of one axis-parallel line, the axis being
    coordinate len(head).  The extension is the sum, over the table's
    1-cells, of their cube indicators.  Each indicator is one product of the
    m - 1 looked-up shared factors, x_j or 1 - x_j, summed into s0 or s1 by
    the code's axis bit; the line is affine in t, s0 + t (s1 - s0)."""
    shared = [*head, *tail]
    if len(shared) + 1 != table.arity:
        raise ValueError(f"line has {len(shared) + 1} coordinates, table arity is {table.arity}")
    get = (shared + [1 - x for x in shared]).__getitem__
    zeros, index = _line_index(table.ones(), table.arity, len(head))
    prods = [math.prod(map(get, idx)) for idx in index]
    s0 = sum(prods[:zeros])
    step = sum(prods[zeros:]) - s0
    return tuple([(s0 + t * step) % p for t in ts])


def mle_eval(table: BooleanTable, point: Sequence[int], p: int) -> int:
    """Evaluate the multilinear extension of ``table`` at a point of Z_p^m:
    ``mle_line`` on the line through the point along its last coordinate."""
    if len(point) != table.arity:
        raise ValueError(f"point has {len(point)} coordinates, table arity is {table.arity}")
    return mle_line(table, point[:-1], (), point[-1:], p)[0]


# From this many coordinates on, an eq or weight tensor is built (or summed
# against) as two half-width tensors: below it the halves cost more Python
# steps than they save multiplications.
_SPLIT_WIDTH = 6


def _split_at(width: int) -> int:
    """How many leading coordinates form the high half of a width-``width``
    tensor: width // 2 from ``_SPLIT_WIDTH`` on, else 0 (no split)."""
    return width // 2 if width >= _SPLIT_WIDTH else 0


def _tensor(factors: Sequence[tuple[int, int]], p: int) -> list[int]:
    """Entry c is prod_j factors[j][bit j of c] mod p, bits MSB-first: the
    tensor product of per-coordinate (bit 0, bit 1) pairs.  Doubling takes
    2^(m+1) multiplications; a wide table is the outer product of its two
    half-width tensors instead, 2^m plus the halves."""
    h = _split_at(len(factors))
    if h:
        low = _tensor(factors[h:], p)
        return [a * b % p for a in _tensor(factors[:h], p) for b in low]
    table = [1]
    for lo, hi in reversed(factors):
        table = [t * lo % p for t in table] + [t * hi % p for t in table]
    return table


def _eq_table(point: Sequence[int], p: int) -> list[int]:
    """chi_c(point) = prod_j (point_j if bit j of c else 1 - point_j) for
    every code c of the cube."""
    return _tensor([((1 - x) % p, x % p) for x in point], p)


def clause_indicator_eval(
    codes: Sequence[int],
    num_vars: int,
    z_point: Sequence[int],
    x_point: Sequence[int],
    p: int,
) -> int:
    """Multilinear extension over Z_p, jointly in z and x, of the boolean
    indicator "x is the variable at one position of clause z", given that
    position's code array: ``codes[c]`` is the code of clause c's variable
    there, every code below ``num_vars``.  Dummy clause codes contribute
    nothing.

    Every variable code lies below W = code_window(n - 1), so its cube
    indicator is prod (1 - x_j) over the top m - log2 W coordinates times an
    entry of the eq table of the low ones: eq_x is built over that window
    only.  eq_z is the outer product of the eq tables of z's high and low
    coordinates and is never built: clause a||b (high part a, low part b)
    contributes eqz_hi[a] * eqz_lo[b] * eq_x[v_i(a||b)], so the sum runs
    row by row, one multiplication by eqz_hi[a] per row."""
    m = len(z_point)
    if len(x_point) != m:
        raise ValueError("z and x must have the same number of coordinates")
    low = (num_vars - 1).bit_length()
    eqx = _eq_table(x_point[m - low :], p)
    top = math.prod([1 - x for x in x_point[: m - low]]) % p
    h = _split_at(m)
    eqz_lo = _eq_table(z_point[h:], p)
    width = len(eqz_lo)
    vals = [eqx[vc] for vc in codes]
    rows = zip(_eq_table(z_point[:h], p), range(0, len(vals), width))
    total = sum([a * sum(map(mul, eqz_lo, vals[j : j + width])) for a, j in rows])
    return total % p * top % p


TailsBuilder = Callable[[Sequence[int]], list[list[list[int]]]]


@dataclass(frozen=True)
class ProductPlan:
    """Product-of-multilinear-factors structure for an honest prover.

    Variables come in blocks of ``block_vars``: one head block followed by
    ``num_tails`` tail blocks.  ``head_tables`` holds, over the head block,
    first ``num_standalone`` genuine factors and then one summed-out proxy per
    tail (in tail order).  Once the head block is bound at a point z*,
    ``build_tails(z*)``, given z*'s residues, returns every tail's factor
    tables over its own block, in tail order.

    The proxy contract is load-bearing: the multilinear extension of proxy i
    at z* must equal the cube sum of the product of tail i's tables at z*.
    A folder takes each unbound tail's sum from its bound proxy and never
    sums the tail itself, so a plan that breaks the contract folds to wrong
    round polynomials.

    ``window`` (None: the whole block cube) declares the variable-code
    window W of every block but a weight-tensor head: a power of two past
    which each table of the block is constant, so a folder needs only the
    first W entries and one constant per table.  The tables themselves
    always cover the whole block cube.

    ``head_weights`` (None: no such factor), residues r_1..r_{block_vars},
    declares one more head factor beside the tables: their tensor
    prod_j (1, r_j), entry c being the product of r_j over the 1-bits j of c.
    It is never stored as a table: bound at r*_1..r*_{i-1}, it is the scalar
    prod_{j<i} (1 - r*_j + r_j r*_j) times (1 - t + r_i t) times the tensor
    of r_{i+1}..r_{block_vars}.  Such a head is whole-cube.
    """

    p: int
    block_vars: int
    head_tables: tuple[Sequence[int], ...]
    num_standalone: int
    build_tails: Optional[TailsBuilder] = None
    window: Optional[int] = None
    head_weights: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not self.head_tables or self.num_tails < 0 or (
            (self.num_tails > 0) != (self.build_tails is not None)
        ):
            raise ValueError("head must carry a table, and one proxy table per tail")
        size = 1 << self.block_vars
        if any(len(t) != size for t in self.head_tables):
            raise ValueError("head tables must cover the whole block cube")
        w = self.window
        if w is not None and (not 0 < w <= size or w & (w - 1)):
            raise ValueError(f"the window must be a power of two in 1..{size}")
        if self.head_weights is not None and len(self.head_weights) != self.block_vars:
            raise ValueError("a weight-tensor head needs one weight per block variable")

    @property
    def num_tails(self) -> int:
        return len(self.head_tables) - self.num_standalone

    @property
    def num_vars(self) -> int:
        return self.block_vars * (1 + self.num_tails)


@dataclass(frozen=True)
class SummandSpec:
    """One sum-check statement, as plain data the verifier can hand out:
    ints, tuples of ints, a formula and a table, nothing callable.

    The schedule is the variable count, the per-variable degree bounds and
    the prime p.  The summand's data is either a clause product over
    (z, x_1..x_L), given by the formula, the clause weights r_1..r_m as ints
    and ``codes``, one code array per position 1..L (``codes[i - 1][c]`` is
    the code of the variable at position i of clause c), or, with no
    formula, the weight summand A(z) * B(z) over z, given by its block
    table B (None: B is 1).  ``read_points``, ``summand_value`` and
    ``compile_plan`` read everything they need from these fields, never
    from a cache, so a statement means the same to whoever holds it and a
    write into one copy reaches no other."""

    num_vars: int
    degree_bounds: tuple[int, ...]
    p: int
    formula: Optional[WeightedFormula] = None
    weights: tuple[int, ...] = ()
    codes: tuple[tuple[int, ...], ...] = ()
    block: Optional[BooleanTable] = None

    def __post_init__(self):
        if len(self.degree_bounds) != self.num_vars:
            raise ValueError("one degree bound per variable is required")


def read_points(spec: SummandSpec, point: Point) -> list[Point]:
    """The points at which the summand reads the assignment oracle A: the L
    tail blocks x_1..x_L of a clause product, the whole point of a weight
    summand."""
    if len(point) != spec.num_vars:
        raise ValueError(f"point must have {spec.num_vars} coordinates")
    if spec.formula is None:
        return [tuple(point)]
    m = spec.formula.m
    return [tuple(point[i * m : (i + 1) * m]) for i in range(1, len(spec.codes) + 1)]


def summand_value(spec: SummandSpec, point: Point, reads: Sequence[int]) -> int:
    """The summand at ``point``, a residue mod p, given the oracle's answers
    at its ``read_points`` as residues: ``summand_factor`` times the read
    part (``with_reads``).

    A weight summand is A(z) * B(z).  A clause product is
    w(z) * prod_i C_i(z, x_i) * F(a_i), where a_i stands for A(x_i) and
    w(z) = prod_j ((1 - z_j) + r_j z_j) is the multilinear extension of the
    clause weight prod_j r_j^{z_j}.  The literal factor F is A for negated
    2-CNF and 1 - A for positive CNF: on boolean points it is 1 exactly when
    the clause's literal at x_i is false."""
    return with_reads(spec, summand_factor(spec, point), reads)


def summand_factor(spec: SummandSpec, point: Point) -> int:
    """The part of the summand at ``point`` that reads no oracle: B(z) for a
    weight summand (1 with no block), w(z) * prod_i C_i(z, x_i) for a clause
    product.  It depends on the statement and the point alone, so whoever
    holds both computes the value the final check needs."""
    p = spec.p
    if spec.formula is None:
        return mle_eval(spec.block, point, p) if spec.block is not None else 1
    n, m = spec.formula.num_vars, spec.formula.m
    z = point[:m]
    val = math.prod([(1 - zj) + r * zj for zj, r in zip(z, spec.weights)]) % p
    for i, codes_i in enumerate(spec.codes, start=1):
        val = val * clause_indicator_eval(codes_i, n, z, point[i * m : (i + 1) * m], p) % p
    return val


def with_reads(spec: SummandSpec, factor: int, reads: Sequence[int]) -> int:
    """The summand from its ``summand_factor`` and the oracle's answers at
    its ``read_points``: A(z) * B(z), or the factor times prod_i F(a_i)."""
    p = spec.p
    if spec.formula is None:
        return reads[0] * factor % p
    negated = spec.formula.class_tag is ClassTag.G12N
    for a in reads:
        factor = factor * (a if negated else 1 - a) % p
    return factor


# the byte translation 0 <-> 1: 1 - A over a table's bytes
_COMPLEMENT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def compile_plan(spec: SummandSpec, table: BooleanTable) -> ProductPlan:
    """The honest prover's ProductPlan for ``spec`` over its committed
    assignment table.  A clause statement's head holds, per position, the
    literal factor F(A) at each clause's variable code beside the declared
    clause-weight tensor: one ``bytes`` column of 0s and 1s per position,
    zero at the dummy clause codes, which with at most 256 variables is one
    ``translate`` of the position's codes through F(A)'s first 256 entries
    and otherwise a gather.  Tail i, built once the head is bound at z*,
    scatters the eq tensor of z* into per-code sums, reduced once, beside
    F."""
    p = spec.p
    formula = spec.formula
    m = spec.num_vars if formula is None else formula.m
    if table.arity != m:
        raise ValueError("assignment table arity must equal m")
    if formula is None:
        # the tables' bytes are read in place: a folder never writes to them
        head: list[Sequence[int]] = [table.values]
        top = table.top_code()
        if spec.block is not None:
            head.append(spec.block.values)
            top = max(top, spec.block.top_code())
        # past the highest true code of A and of B both tables are 0
        return ProductPlan(
            p=p,
            block_vars=m,
            head_tables=tuple(head),
            num_standalone=len(head),
            window=code_window(top),
        )
    size = 1 << m
    # F(A) is the table's bytes themselves for g12n, and 1 - A one byte
    # translation of them for g21p (entries are 0 and 1, so no reduction)
    values = table.values
    factor = values if formula.class_tag is ClassTag.G12N else values.translate(_COMPLEMENT)
    codes = spec.codes
    dummies = bytes(size - formula.num_clauses)
    if formula.num_vars <= 256:
        # every code fits a byte: one translation per column through F(A)'s
        # first 256 entries, padded to a translation table's 256 (no code
        # reads the pad)
        lookup = factor[:256].ljust(256, b"\0")
        head = [bytes(codes_i).translate(lookup) + dummies for codes_i in codes]
    else:
        head = [bytes([factor[vc] for vc in codes_i]) + dummies for codes_i in codes]
    # past every variable code and every true code of the table, each
    # tail's clause factor is 0 and its literal factor F(0) is constant
    window = code_window(max(formula.num_vars - 1, table.top_code()))
    beyond = [0] * (size - window)
    h = _split_at(m)

    def build_tails(z_star: Sequence[int]) -> list[list[list[int]]]:
        # tail i's clause factor at x is the sum of chi_c(z*) over the
        # clauses c whose position-i variable has code x; where _tensor
        # would split, eq_{z*} is the outer product of its two half tensors
        # left unreduced, since the per-code sums are reduced anyway
        pairs = [((1 - z) % p, z) for z in z_star]
        if h:
            low = _tensor(pairs[h:], p)
            eqz = [a * b for a in _tensor(pairs[:h], p) for b in low]
        else:
            eqz = _tensor(pairs, p)
        tails = []
        for codes_i in codes:
            ctab = [0] * window
            for ez, vc in zip(eqz, codes_i):
                ctab[vc] += ez
            tails.append([[v % p for v in ctab] + beyond, factor])
        return tails

    return ProductPlan(
        p=p,
        block_vars=m,
        head_tables=tuple(head),
        num_standalone=0,
        build_tails=build_tails,
        window=window,
        head_weights=spec.weights,
    )


def _clause_product_summand(
    formula: WeightedFormula, p: int, weights: Sequence[int], L: int
) -> SummandSpec:
    """Statement over (z, x_1..x_L) whose cube total is the randomly weighted
    count of unsatisfied clauses, with the code arrays of its L positions.

    Clauses shorter than L repeat their last variable; on boolean points the
    repeated factor is 1 exactly when the clause is unsatisfied, so padding
    never changes the cube total."""
    if L < formula.max_clause_len:
        raise ValueError(f"padded length {L} below longest clause {formula.max_clause_len}")
    m = formula.m
    if len(weights) != m:
        raise ValueError("need one clause weight per code bit")
    bounds = (1 + L,) * m + (2,) * (L * m)
    residues = tuple([r % p for r in weights])
    clauses = formula.clauses
    # the class fixes every literal's sign, so a code is one operation on
    # it: ~lit = -lit - 1 for g12n, lit - 1 for g21p.  Position 0 reads each
    # clause's first literal and L - 1 its last (no clause is longer than
    # L); only the middle positions test the length
    middle = range(1, L - 1)
    if formula.class_tag is ClassTag.G12N:
        cols = [[~c[0] for c in clauses]]
        cols += [[~(c[i] if len(c) > i else c[-1]) for c in clauses] for i in middle]
        cols.append([~c[-1] for c in clauses])
    else:
        cols = [[c[0] - 1 for c in clauses]]
        cols += [[(c[i] if len(c) > i else c[-1]) - 1 for c in clauses] for i in middle]
        cols.append([c[-1] - 1 for c in clauses])
    codes = tuple(map(tuple, cols[:L]))
    return SummandSpec((L + 1) * m, bounds, p, formula, residues, codes)


def build_w1_summand(formula: WeightedFormula, p: int, weights: Sequence[int]) -> SummandSpec:
    """Negated-2-CNF statement: w(z) * C_1(z,x1) A(x1) * C_2(z,x2) A(x2)."""
    if formula.class_tag is not ClassTag.G12N:
        raise ClassMismatchError("the 2-round-per-variable summand needs class g12n")
    return _clause_product_summand(formula, p, weights, 2)


def build_w2_summand(
    formula: WeightedFormula, p: int, weights: Sequence[int], padded_len: int
) -> SummandSpec:
    """Positive-CNF statement: w(z) * prod_i C_i(z,xi) (1 - A(xi)), i = 1..L."""
    if formula.class_tag is not ClassTag.G21P:
        raise ClassMismatchError("the positive-clause summand needs class g21p")
    return _clause_product_summand(formula, p, weights, padded_len)


def build_weight_summand(
    m: int, p: int, block_table: Optional[BooleanTable] = None
) -> SummandSpec:
    """Statement A(z) * B(z); its cube total counts the true variables inside
    the block (B is identically 1 when no block is given)."""
    if block_table is not None and block_table.arity != m:
        raise ValueError("block table arity must equal m")
    return SummandSpec(m, (2,) * m, p, block=block_table)
