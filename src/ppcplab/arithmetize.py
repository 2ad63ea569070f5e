"""Arithmetization of weighted CNF over a prime field.

Clauses and variables are coded as m-bit strings (variable i gets code i-1,
clause j gets code j, most significant bit first; codes beyond the real
counts are dummy slots).  The module builds the field-valued functions whose
boolean-cube totals witness satisfiability and assignment weight:

  * ``mle_eval``              the unique multilinear extension of a boolean table,
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
                       final check and the reference prover use it alike,
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
position i of clause c, taken from the formula's cached code arrays (one
tuple per position), the clause indicator is sum_c eq_z[c] * eq_x[v_i(c)]
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

from .field import FieldElement, PrimeField
from .formula import ClassMismatchError, ClassTag, WeightedFormula

Point = tuple[FieldElement, ...]


def code_bits(code: int, width: int) -> tuple[int, ...]:
    """MSB-first bits of a variable or clause code."""
    return tuple((code >> (width - 1 - j)) & 1 for j in range(width))


@dataclass(frozen=True)
class BooleanTable:
    """Dense truth table over the m-cube; entry ``values[code]`` is f at the
    MSB-first bit pattern of ``code``."""

    arity: int
    values: tuple[int, ...]
    _ones: tuple[int, ...] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        if len(self.values) != 1 << self.arity:
            raise ValueError(f"expected {1 << self.arity} entries, got {len(self.values)}")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("table entries must be 0 or 1")
        object.__setattr__(
            self, "_ones", tuple(c for c, v in enumerate(self.values) if v)
        )

    @classmethod
    def from_true_codes(cls, codes: Sequence[int], arity: int) -> "BooleanTable":
        values = [0] * (1 << arity)
        for c in codes:
            if not 0 <= c < len(values):
                raise ValueError(f"code {c} outside the cube codes 0..{len(values) - 1}")
            values[c] = 1
        return cls(arity, tuple(values))

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
def _factor_index(ones: tuple[int, ...], arity: int) -> tuple[tuple[int, ...], ...]:
    """For each true code, the positions of its ``arity`` cube-indicator
    factors in xs + [1 - x for x in xs]: j where bit j is 1, arity + j where
    it is 0 (MSB first).  Keyed by the true codes, not the table, so a table
    holds no index and the key hashes only its few true codes; built on first
    use, since setup builds many tables that are never evaluated."""
    return tuple(
        [
            tuple([j if (code >> (arity - 1 - j)) & 1 else arity + j for j in range(arity)])
            for code in ones
        ]
    )


def mle_eval(table: BooleanTable, point: Sequence[FieldElement]) -> FieldElement:
    """Evaluate the multilinear extension of ``table`` at a field point: the
    sum, over the table's 1-cells, of their cube indicators there (exact).
    Each indicator is one product of m looked-up factors, x_j or 1 - x_j,
    reduced once at the end; the factor positions come from the table's
    cached index of its true codes."""
    if len(point) != table.arity:
        raise ValueError(f"point has {len(point)} coordinates, table arity is {table.arity}")
    fld = point[0].field
    xs = [x.value for x in point]
    get = (xs + [1 - x for x in xs]).__getitem__
    index = _factor_index(table.ones(), table.arity)
    return FieldElement(sum([math.prod(map(get, idx)) for idx in index]), fld)


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


def _eq_table(point: Sequence[FieldElement], p: int) -> list[int]:
    """chi_c(point) = prod_j (point_j if bit j of c else 1 - point_j) for
    every code c of the cube."""
    return _tensor([((1 - x.value) % p, x.value % p) for x in point], p)


@functools.lru_cache(maxsize=8)
def _formula_codes(formula: WeightedFormula) -> tuple[tuple[int, ...], ...]:
    """For each position 1..max_clause_len, the code of the variable at that
    position of every clause; short clauses repeat their last variable.
    Built once per formula and shared by the honest prover's plan and the
    verifier's final check, so the arrays are tuples: nobody can write into
    what the other reads.  The cache is small: each formula's arrays are as
    long as its clause list."""
    return tuple(
        tuple([abs(lits[i] if len(lits) > i else lits[-1]) - 1 for lits in formula.clauses])
        for i in range(formula.max_clause_len)
    )


def _position_codes(formula: WeightedFormula, position: int) -> tuple[int, ...]:
    """Code of the variable at a 1-based position of every clause; past the
    longest clause every clause repeats its last variable."""
    codes = _formula_codes(formula)
    return codes[min(position, len(codes)) - 1]


def clause_indicator_eval(
    formula: WeightedFormula,
    position: int,
    z_point: Sequence[FieldElement],
    x_point: Sequence[FieldElement],
) -> FieldElement:
    """Multilinear extension, jointly in z and x, of the boolean indicator
    "x is the variable at ``position`` of clause z".  Dummy clause codes
    contribute nothing.

    Every variable code lies below W = code_window(n - 1), so its cube
    indicator is prod (1 - x_j) over the top m - log2 W coordinates times an
    entry of the eq table of the low ones: eq_x is built over that window
    only.  eq_z is the outer product of the eq tables of z's high and low
    coordinates and is never built: clause a||b (high part a, low part b)
    contributes eqz_hi[a] * eqz_lo[b] * eq_x[v_i(a||b)], so the sum runs
    row by row, one multiplication by eqz_hi[a] per row."""
    if position < 1:
        raise ValueError("positions are 1-based")
    if formula.class_tag is ClassTag.G12N and position > 2:
        raise ValueError("g12n clauses have positions 1 and 2 only")
    m = formula.m
    if len(z_point) != m or len(x_point) != m:
        raise ValueError("points must have m coordinates")
    fld = z_point[0].field
    p = fld.modulus
    low = (formula.num_vars - 1).bit_length()
    eqx = _eq_table(x_point[m - low :], p)
    top = math.prod([1 - x.value for x in x_point[: m - low]]) % p
    h = _split_at(m)
    eqz_lo = _eq_table(z_point[h:], p)
    width = len(eqz_lo)
    vals = [eqx[vc] for vc in _position_codes(formula, position)]
    rows = zip(_eq_table(z_point[:h], p), range(0, len(vals), width))
    total = sum([a * sum(map(mul, eqz_lo, vals[j : j + width])) for a, j in rows])
    return FieldElement(total % p * top, fld)


TailsBuilder = Callable[[Point], list[list[list[int]]]]


@dataclass(frozen=True)
class ProductPlan:
    """Product-of-multilinear-factors structure for an honest prover.

    Variables come in blocks of ``block_vars``: one head block followed by
    ``num_tails`` tail blocks.  ``head_tables`` holds, over the head block,
    first ``num_standalone`` genuine factors and then one summed-out proxy per
    tail (in tail order).  Once the head block is bound at a point z*,
    ``build_tails(z*)`` returns every tail's factor tables over its own block,
    in tail order.

    The proxy contract is load-bearing: the multilinear extension of proxy i
    at z* must equal the cube sum of the product of tail i's tables at z*.
    A folder takes each unbound tail's sum from its bound proxy and never
    sums the tail itself, so a plan that breaks the contract folds to wrong
    round values.

    ``head_window`` and ``tail_window`` (None: the whole block cube) declare
    the variable-code window W of the head and of every tail: a power of two
    past which each table of the block is constant, so a folder needs only
    the first W entries and one constant per table.  The tables themselves
    always cover the whole block cube.

    ``head_weights`` (None: no such factor), residues r_1..r_{block_vars},
    declares one more head factor beside the tables: their tensor
    prod_j (1, r_j), entry c being the product of r_j over the 1-bits j of c.
    It is never stored as a table: bound at r*_1..r*_{i-1}, it is the scalar
    prod_{j<i} (1 - r*_j + r_j r*_j) times (1 - t + r_i t) times the tensor
    of r_{i+1}..r_{block_vars}.  Such a head is whole-cube.
    """

    field: PrimeField
    block_vars: int
    head_tables: tuple[tuple[int, ...], ...]
    num_standalone: int
    build_tails: Optional[TailsBuilder] = None
    head_window: Optional[int] = None
    tail_window: Optional[int] = None
    head_weights: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if not self.head_tables or self.num_tails < 0 or (
            (self.num_tails > 0) != (self.build_tails is not None)
        ):
            raise ValueError("head must carry a table, and one proxy table per tail")
        size = 1 << self.block_vars
        if any(len(t) != size for t in self.head_tables):
            raise ValueError("head tables must cover the whole block cube")
        for w in (self.head_window, self.tail_window):
            if w is not None and (not 0 < w <= size or w & (w - 1)):
                raise ValueError(f"windows must be powers of two in 1..{size}")
        if self.head_weights is not None and (
            len(self.head_weights) != self.block_vars or self.head_window is not None
        ):
            raise ValueError(
                "a weight-tensor head needs one weight per block variable and no head window"
            )

    @property
    def num_tails(self) -> int:
        return len(self.head_tables) - self.num_standalone

    @property
    def num_vars(self) -> int:
        return self.block_vars * (1 + self.num_tails)


@dataclass(frozen=True)
class SummandSpec:
    """One sum-check statement, as plain data the verifier can hand out.

    The schedule is the variable count, the per-variable degree bounds and
    the field.  The summand's data is either a clause product over
    (z, x_1..x_L), given by the formula, its padded length L and the clause
    weights r_1..r_m as ints, or, with no formula, the weight summand
    A(z) * B(z) over z, given by its block table B (None: B is 1).  Only
    ``read_points``, ``summand_value`` and ``compile_plan`` know the shape
    this data describes."""

    num_vars: int
    degree_bounds: tuple[int, ...]
    field: PrimeField
    formula: Optional[WeightedFormula] = None
    padded_len: int = 0
    weights: tuple[int, ...] = ()
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
    return [tuple(point[i * m : (i + 1) * m]) for i in range(1, spec.padded_len + 1)]


def summand_value(
    spec: SummandSpec, point: Point, reads: Sequence[int | FieldElement]
) -> FieldElement:
    """The summand at ``point``, given the oracle's answers at its
    ``read_points``.

    A weight summand is A(z) * B(z).  A clause product is
    w(z) * prod_i C_i(z, x_i) * F(a_i), where a_i stands for A(x_i) and
    w(z) = prod_j ((1 - z_j) + r_j z_j) is the multilinear extension of the
    clause weight prod_j r_j^{z_j}.  The literal factor F is A for negated
    2-CNF and 1 - A for positive CNF: on boolean points it is 1 exactly when
    the clause's literal at x_i is false."""
    fld = spec.field
    if spec.formula is None:
        return reads[0] * (mle_eval(spec.block, point) if spec.block is not None else fld.one)
    formula, m = spec.formula, spec.formula.m
    z = point[:m]
    negated = formula.class_tag is ClassTag.G12N
    w = math.prod([(1 - zj.value) + r * zj.value for zj, r in zip(z, spec.weights)])
    val = FieldElement(w, fld)
    for i, a in enumerate(reads, start=1):
        factor = a if negated else fld.one - a
        val = val * clause_indicator_eval(formula, i, z, point[i * m : (i + 1) * m]) * factor
    return val


def compile_plan(spec: SummandSpec, table: BooleanTable) -> ProductPlan:
    """The honest prover's ProductPlan for ``spec`` over its committed
    assignment table."""
    fld = spec.field
    p = fld.modulus
    formula = spec.formula
    m = spec.num_vars if formula is None else formula.m
    if table.arity != m:
        raise ValueError("assignment table arity must equal m")
    if formula is None:
        head: list[tuple[int, ...]] = [tuple(table.values)]
        top = table.top_code()
        if spec.block is not None:
            head.append(tuple(spec.block.values))
            top = max(top, spec.block.top_code())
        # past the highest true code of A and of B both tables are 0
        return ProductPlan(
            field=fld,
            block_vars=m,
            head_tables=tuple(head),
            num_standalone=len(head),
            head_window=code_window(top),
        )
    size = 1 << m
    negated = formula.class_tag is ClassTag.G12N
    factor = [v if negated else (1 - v) % p for v in table.values]
    codes = [_position_codes(formula, i) for i in range(1, spec.padded_len + 1)]
    dummies = [0] * (size - formula.num_clauses)
    head = [tuple([factor[vc] for vc in codes_i] + dummies) for codes_i in codes]
    # past every variable code and every true code of the table, each
    # tail's clause factor is 0 and its literal factor F(0) is constant
    window = code_window(max(formula.num_vars - 1, table.top_code()))
    beyond = [0] * (size - window)

    def build_tails(z_star: Point) -> list[list[list[int]]]:
        # tail i's clause factor at x is the sum of chi_c(z*) over the
        # clauses c whose position-i variable has code x
        eqz = _eq_table(z_star, p)
        tails = []
        for codes_i in codes:
            ctab = [0] * window
            for ez, vc in zip(eqz, codes_i):
                ctab[vc] += ez
            tails.append([[v % p for v in ctab] + beyond, factor])
        return tails

    return ProductPlan(
        field=fld,
        block_vars=m,
        head_tables=tuple(head),
        num_standalone=0,
        build_tails=build_tails,
        tail_window=window,
        head_weights=spec.weights,
    )


def _clause_product_summand(
    formula: WeightedFormula, fld: PrimeField, weights: Sequence[int], L: int
) -> SummandSpec:
    """Statement over (z, x_1..x_L) whose cube total is the randomly weighted
    count of unsatisfied clauses.

    Clauses shorter than L repeat their last variable; on boolean points the
    repeated factor is 1 exactly when the clause is unsatisfied, so padding
    never changes the cube total."""
    if L < formula.max_clause_len:
        raise ValueError(f"padded length {L} below longest clause {formula.max_clause_len}")
    m = formula.m
    if len(weights) != m:
        raise ValueError("need one clause weight per code bit")
    bounds = (1 + L,) * m + (2,) * (L * m)
    residues = tuple([r % fld.modulus for r in weights])
    return SummandSpec((L + 1) * m, bounds, fld, formula, L, residues)


def build_w1_summand(
    formula: WeightedFormula, fld: PrimeField, weights: Sequence[int]
) -> SummandSpec:
    """Negated-2-CNF statement: w(z) * C_1(z,x1) A(x1) * C_2(z,x2) A(x2)."""
    if formula.class_tag is not ClassTag.G12N:
        raise ClassMismatchError("the 2-round-per-variable summand needs class g12n")
    return _clause_product_summand(formula, fld, weights, 2)


def build_w2_summand(
    formula: WeightedFormula, fld: PrimeField, weights: Sequence[int], padded_len: int
) -> SummandSpec:
    """Positive-CNF statement: w(z) * prod_i C_i(z,xi) (1 - A(xi)), i = 1..L."""
    if formula.class_tag is not ClassTag.G21P:
        raise ClassMismatchError("the positive-clause summand needs class g21p")
    return _clause_product_summand(formula, fld, weights, padded_len)


def build_weight_summand(
    m: int, fld: PrimeField, block_table: Optional[BooleanTable] = None
) -> SummandSpec:
    """Statement A(z) * B(z); its cube total counts the true variables inside
    the block (B is identically 1 when no block is given)."""
    if block_table is not None and block_table.arity != m:
        raise ValueError("block table arity must equal m")
    return SummandSpec(m, (2,) * m, fld, block=block_table)
