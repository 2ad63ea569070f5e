"""Differential tests of the eq-table kernels against per-clause references.

The clause indicator and the prover's tail tables are evaluated through
2^m eq tables and code arrays; here they are checked against the
definition sum_c chi_c(z) * chi_{v_i(c)}(x), computed clause by clause, and
the folded round values against ``honest_round_poly``.  Formulas are small,
carry dummy clause codes (num_clauses < 2^m) and short clauses that repeat
their last variable up to the padded length L.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from ppcplab.arithmetize import (
    BooleanTable,
    ClauseWeights,
    build_w1_summand,
    build_w2_summand,
    clause_indicator_eval,
    code_bits,
    mle_eval,
)
from ppcplab.field import PrimeField
from ppcplab.formula import ClassTag, WeightedFormula, derived_m
from ppcplab.sumcheck import PlanFolder, honest_round_poly

FLD = PrimeField(1009)


@st.composite
def padded_formulas(draw, max_vars=6, max_clauses=6, max_len=5):
    """(formula, L): g12n at L = 2, g21p at L = 1..max_len, clauses 1..L long."""
    tag = draw(st.sampled_from([ClassTag.G12N, ClassTag.G21P]))
    L = 2 if tag is ClassTag.G12N else draw(st.integers(1, max_len))
    n = draw(st.integers(max(L, 2), max(L, max_vars)))
    clauses = []
    for _ in range(draw(st.integers(1, max_clauses))):
        size = draw(st.integers(1, L))
        chosen = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        clauses.append(tuple(-v for v in chosen) if tag is ClassTag.G12N else tuple(chosen))
    m = derived_m(n, len(clauses)) + draw(st.integers(0, 1))
    assume(len(clauses) < 1 << m)
    return WeightedFormula(n, tuple(clauses), tag, 1, m), L


def chi(code, point):
    """Cube indicator of ``code`` (MSB-first) at a field point."""
    acc = FLD.one
    for bit, x in zip(code_bits(code, len(point)), point):
        acc = acc * (x if bit else FLD.one - x)
    return acc


def var_code(clause, position):
    return abs(clause[min(position, len(clause)) - 1]) - 1


def indicator_reference(formula, position, z, x):
    total = FLD.zero
    for c, clause in enumerate(formula.clauses):
        total = total + chi(c, z) * chi(var_code(clause, position), x)
    return total


def random_point(rng, m):
    return tuple(FLD(rng.randrange(FLD.modulus)) for _ in range(m))


def random_spec(formula, L, rng):
    """Clause-product summand over a random assignment table and weights."""
    m = formula.m
    table = BooleanTable(m, tuple(rng.randrange(2) for _ in range(1 << m)))
    weights = ClauseWeights(random_point(rng, m))
    oracle = lambda q: mle_eval(table, q)  # noqa: E731
    if formula.class_tag is ClassTag.G12N:
        return build_w1_summand(formula, oracle, weights), table
    return build_w2_summand(formula, oracle, weights, L), table


@given(padded_formulas(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_clause_indicator_matches_per_clause_definition(case, seed):
    formula, L = case
    rng = random.Random(seed)
    for position in range(1, L + 1):
        z, x = random_point(rng, formula.m), random_point(rng, formula.m)
        expected = indicator_reference(formula, position, z, x)
        assert clause_indicator_eval(formula, position, z, x) == expected


@given(padded_formulas(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_tail_tables_match_per_clause_definition(case, seed):
    formula, L = case
    m = formula.m
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    plan = spec.plan_builder(table)
    z_star = random_point(rng, m)
    tails = plan.build_tails(z_star)
    assert len(tails) == plan.num_tails == L
    for position, (ctab, factor) in enumerate(tails, start=1):
        for x in range(1 << m):
            cube_x = tuple(FLD(b) for b in code_bits(x, m))
            assert ctab[x] == indicator_reference(formula, position, z_star, cube_x).value
        negated = formula.class_tag is ClassTag.G12N
        assert factor == [v if negated else 1 - v for v in table.values]


@given(padded_formulas(max_vars=4, max_clauses=3, max_len=3), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_round_values_match_honest_round_poly(case, seed):
    formula, L = case
    assume((L + 1) * formula.m <= 8)
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    folder = PlanFolder(spec.plan_builder(table))
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        folder.sync(challenges)
        reference = honest_round_poly(spec, challenges, i)
        assert folder.round_values(d) == [reference.evaluate(FLD(t)).value for t in range(d + 1)]
        challenges += (FLD(rng.randrange(FLD.modulus)),)
