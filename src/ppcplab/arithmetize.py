"""Arithmetization of weighted CNF over a prime field.

Clauses and variables are coded as m-bit strings (variable i gets code i-1,
clause j gets code j, most significant bit first; codes beyond the real
counts are dummy slots).  The module builds the field-valued functions whose
boolean-cube totals witness satisfiability and assignment weight:

  * ``mle_eval``              the unique multilinear extension of a boolean table,
  * ``clause_indicator_eval`` the extension of "x codes the variable at a given
                              position of clause z",
  * ``clause_product``        the randomly weighted unsatisfaction product
                              w(z) * prod_i C_i(z, x_i) * F(A(x_i)) over clauses
                              padded to length L; its literal factor F is A for
                              negated 2-CNF and 1 - A for positive CNF.  Summed
                              over the cube it vanishes exactly when the
                              assignment satisfies every clause (with high
                              probability over the clause weights),
  * ``build_w1_summand``      that product as a summand for negated 2-CNF (L = 2),
  * ``build_w2_summand``      the same for positive CNF at padded length L,
  * ``build_weight_summand``  A(z) * B(z), whose cube total counts the true
                              variables inside an optional block.

Each summand also carries a ``ProductPlan``: the exact product-of-multilinear-
factors structure an honest prover folds round by round.  The plan works block
by block (clause codes first, then each variable-code block); while the clause
block is active, every variable block is represented by its summed-out proxy
table, which agrees with the true inner sum everywhere by multilinearity.

Points are evaluated through eq tables: the eq table of a point lists
chi_c(point) for every code c of the m-cube, built as one MSB-first tensor
product in 2^m multiplications mod p (the clause-weight table is the same
tensor product).  With v_i(c), the code of the variable at position i of
clause c, taken from one code array per position, the clause indicator is
sum_c eq_z[c] * eq_x[v_i(c)] over the real clauses, the plan's head proxies
look the literal factor up at v_i(c), and each tail scatters eq_{z*} into
per-variable sums; all L tails share one eq table of z*.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
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
            values[c] = 1
        return cls(arity, tuple(values))

    @classmethod
    def from_assignment(cls, true_set, arity: int) -> "BooleanTable":
        """Variable i maps to code i-1; everything else (dummies included) is 0."""
        return cls.from_true_codes([v - 1 for v in true_set], arity)

    def ones(self) -> tuple[int, ...]:
        return self._ones


def mle_eval(table: BooleanTable, point: Sequence[FieldElement]) -> FieldElement:
    """Evaluate the multilinear extension of ``table`` at a field point.

    Sparse tables are evaluated as a sum of cube indicators over their 1-cells,
    dense ones by per-coordinate folding; both are exact.
    """
    if len(point) != table.arity:
        raise ValueError(f"point has {len(point)} coordinates, table arity is {table.arity}")
    fld = point[0].field
    p = fld.modulus
    ones = table.ones()
    size = 1 << table.arity
    if len(ones) * table.arity * 2 < size:
        pos = [x.value % p for x in point]
        neg = [(1 - x.value) % p for x in point]
        width = table.arity
        total = 0
        for code in ones:
            acc = 1
            for j in range(width):
                acc = acc * (pos[j] if (code >> (width - 1 - j)) & 1 else neg[j]) % p
            total += acc
        return FieldElement(total, fld)
    vals = list(table.values)
    for x in point:
        half = len(vals) >> 1
        xv = x.value
        vals = [(vals[i] + xv * (vals[half + i] - vals[i])) % p for i in range(half)]
    return FieldElement(vals[0], fld)


@dataclass(frozen=True)
class ClauseWeights:
    """The random per-bit clause weights r_1..r_m.  A clause code z gets weight
    prod_j r_j^{z_j}; its multilinear extension is prod_j ((1-z_j) + r_j z_j)."""

    r: tuple[FieldElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        if not self.r:
            raise ValueError("at least one weight is required")

    @property
    def m(self) -> int:
        return len(self.r)

    @property
    def field(self) -> PrimeField:
        return self.r[0].field

    def extension_at(self, z: Sequence[FieldElement]) -> FieldElement:
        if len(z) != self.m:
            raise ValueError("point width does not match the number of weights")
        p = self.field.modulus
        acc = 1
        for zj, rj in zip(z, self.r):
            acc = acc * ((1 - zj.value) + rj.value * zj.value) % p
        return FieldElement(acc, self.field)

    def bool_table(self) -> list[int]:
        """Weight of every clause code, indexed MSB-first."""
        return _tensor([(1, rj.value) for rj in self.r], self.field.modulus)


def _tensor(factors: Sequence[tuple[int, int]], p: int) -> list[int]:
    """Entry c is prod_j factors[j][bit j of c] mod p, bits MSB-first: the
    tensor product of per-coordinate (bit 0, bit 1) pairs, in 2^m
    multiplications."""
    table = [1]
    for lo, hi in reversed(factors):
        table = [t * lo % p for t in table] + [t * hi % p for t in table]
    return table


def _eq_table(point: Sequence[FieldElement], p: int) -> list[int]:
    """chi_c(point) = prod_j (point_j if bit j of c else 1 - point_j) for
    every code c of the cube."""
    return _tensor([((1 - x.value) % p, x.value % p) for x in point], p)


def _position_codes(formula: WeightedFormula, position: int) -> list[int]:
    """Code of the variable at a 1-based position of every clause; short
    clauses repeat their last variable."""
    i = position - 1
    return [abs(lits[i] if len(lits) > i else lits[-1]) - 1 for lits in formula.clauses]


def clause_indicator_eval(
    formula: WeightedFormula,
    position: int,
    z_point: Sequence[FieldElement],
    x_point: Sequence[FieldElement],
) -> FieldElement:
    """Multilinear extension, jointly in z and x, of the boolean indicator
    "x is the variable at ``position`` of clause z".  Dummy clause codes
    contribute nothing."""
    if position < 1:
        raise ValueError("positions are 1-based")
    if formula.class_tag is ClassTag.G12N and position > 2:
        raise ValueError("g12n clauses have positions 1 and 2 only")
    m = formula.m
    if len(z_point) != m or len(x_point) != m:
        raise ValueError("points must have m coordinates")
    fld = z_point[0].field
    p = fld.modulus
    eqz = _eq_table(z_point, p)
    eqx = _eq_table(x_point, p)
    codes = _position_codes(formula, position)
    return FieldElement(sum(ez * eqx[vc] for ez, vc in zip(eqz, codes)), fld)


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
    """

    field: PrimeField
    block_vars: int
    head_tables: tuple[tuple[int, ...], ...]
    num_standalone: int
    build_tails: Optional[TailsBuilder] = None

    def __post_init__(self):
        if self.num_tails < 0 or (self.num_tails > 0) != (self.build_tails is not None):
            raise ValueError("head must carry one proxy table per tail")
        size = 1 << self.block_vars
        if any(len(t) != size for t in self.head_tables):
            raise ValueError("head tables must cover the whole block cube")

    @property
    def num_tails(self) -> int:
        return len(self.head_tables) - self.num_standalone

    @property
    def num_vars(self) -> int:
        return self.block_vars * (1 + self.num_tails)


@dataclass(frozen=True)
class SummandSpec:
    """A multivariate summand: variable count, per-variable degree bounds, a
    pointwise evaluator, and (when the factor structure is known) a plan
    builder that turns a committed assignment table into a ProductPlan."""

    num_vars: int
    degree_bounds: tuple[int, ...]
    evaluator: Callable[[Point], FieldElement]
    field: PrimeField
    plan_builder: Optional[Callable[[BooleanTable], ProductPlan]] = None

    def __post_init__(self):
        if len(self.degree_bounds) != self.num_vars:
            raise ValueError("one degree bound per variable is required")


def clause_product(
    formula: WeightedFormula,
    weights: ClauseWeights,
    point: Point,
    values: Sequence[FieldElement],
) -> FieldElement:
    """w(z) * prod_i C_i(z, x_i) * F(a_i) at ``point`` = (z, x_1..x_L), where
    a_i = ``values[i-1]`` stands for A(x_i).  The literal factor F is A for
    negated 2-CNF and 1 - A for positive CNF: on boolean points it is 1
    exactly when the clause's literal at x_i is false."""
    m = formula.m
    z = point[:m]
    negated = formula.class_tag is ClassTag.G12N
    val = weights.extension_at(z)
    for i, a in enumerate(values, start=1):
        xi = point[i * m : (i + 1) * m]
        factor = a if negated else weights.field.one - a
        val = val * clause_indicator_eval(formula, i, z, xi) * factor
    return val


def _clause_product_summand(
    formula: WeightedFormula,
    assignment_oracle: Callable[[Point], FieldElement],
    weights: ClauseWeights,
    L: int,
) -> SummandSpec:
    """Summand over (z, x_1..x_L) whose cube total is the randomly weighted
    count of unsatisfied clauses.

    Clauses shorter than L repeat their last variable; on boolean points the
    repeated factor is 1 exactly when the clause is unsatisfied, so padding
    never changes the cube total."""
    if L < formula.max_clause_len:
        raise ValueError(f"padded length {L} below longest clause {formula.max_clause_len}")
    m = formula.m
    if weights.m != m:
        raise ValueError("need one clause weight per code bit")
    fld = weights.field
    negated = formula.class_tag is ClassTag.G12N

    def evaluator(point: Point) -> FieldElement:
        if len(point) != (L + 1) * m:
            raise ValueError(f"point must have {L + 1}m coordinates")
        values = [assignment_oracle(tuple(point[i * m : (i + 1) * m])) for i in range(1, L + 1)]
        return clause_product(formula, weights, point, values)

    def plan_builder(table: BooleanTable) -> ProductPlan:
        if table.arity != m:
            raise ValueError("assignment table arity must equal m")
        p = fld.modulus
        size = 1 << m
        factor = [v if negated else (1 - v) % p for v in table.values]
        codes = [_position_codes(formula, i) for i in range(1, L + 1)]
        dummies = [0] * (size - formula.num_clauses)
        head = [tuple(weights.bool_table())]
        head += [tuple([factor[vc] for vc in codes_i] + dummies) for codes_i in codes]

        def build_tails(z_star: Point) -> list[list[list[int]]]:
            # tail i's clause factor at x is the sum of chi_c(z*) over the
            # clauses c whose position-i variable has code x
            eqz = _eq_table(z_star, p)
            tails = []
            for codes_i in codes:
                ctab = [0] * size
                for ez, vc in zip(eqz, codes_i):
                    ctab[vc] += ez
                tails.append([[v % p for v in ctab], factor])
            return tails

        return ProductPlan(
            field=fld,
            block_vars=m,
            head_tables=tuple(head),
            num_standalone=1,
            build_tails=build_tails,
        )

    bounds = (1 + L,) * m + (2,) * (L * m)
    return SummandSpec((L + 1) * m, bounds, evaluator, fld, plan_builder)


def build_w1_summand(
    formula: WeightedFormula,
    assignment_oracle: Callable[[Point], FieldElement],
    weights: ClauseWeights,
) -> SummandSpec:
    """Negated-2-CNF summand: w(z) * C_1(z,x1) A(x1) * C_2(z,x2) A(x2)."""
    if formula.class_tag is not ClassTag.G12N:
        raise ClassMismatchError("the 2-round-per-variable summand needs class g12n")
    return _clause_product_summand(formula, assignment_oracle, weights, 2)


def build_w2_summand(
    formula: WeightedFormula,
    assignment_oracle: Callable[[Point], FieldElement],
    weights: ClauseWeights,
    padded_len: int,
) -> SummandSpec:
    """Positive-CNF summand: w(z) * prod_i C_i(z,xi) (1 - A(xi)), i = 1..L."""
    if formula.class_tag is not ClassTag.G21P:
        raise ClassMismatchError("the positive-clause summand needs class g21p")
    return _clause_product_summand(formula, assignment_oracle, weights, padded_len)


def build_weight_summand(
    assignment_oracle: Callable[[Point], FieldElement],
    m: int,
    fld: PrimeField,
    block_table: Optional[BooleanTable] = None,
) -> SummandSpec:
    """Summand A(z) * B(z); its cube total counts the true variables inside the
    block (B is identically 1 when no block is given)."""
    if block_table is not None and block_table.arity != m:
        raise ValueError("block table arity must equal m")

    def evaluator(point: Point) -> FieldElement:
        if len(point) != m:
            raise ValueError("point must have m coordinates")
        val = assignment_oracle(tuple(point))
        if block_table is not None:
            val = val * mle_eval(block_table, point)
        return val

    def plan_builder(table: BooleanTable) -> ProductPlan:
        if table.arity != m:
            raise ValueError("assignment table arity must equal m")
        head: list[tuple[int, ...]] = [tuple(table.values)]
        if block_table is not None:
            head.append(tuple(block_table.values))
        return ProductPlan(
            field=fld,
            block_vars=m,
            head_tables=tuple(head),
            num_standalone=len(head),
        )

    return SummandSpec(m, (2,) * m, evaluator, fld, plan_builder)
