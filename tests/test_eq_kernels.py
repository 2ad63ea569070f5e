"""Differential tests of the eq-table kernels against per-clause references.

The clause indicator and the prover's tail tables are evaluated through
2^m eq tables and code arrays; here they are checked against the
definition sum_c chi_c(z) * chi_{v_i(c)}(x), computed clause by clause, and
the folder's and the table-committed prover's round polynomials against
``honest_round_poly``, coefficient by coefficient, at every round of every
block shape the folder takes:
weight statements of one and two tables, windowed or whole, and clause
statements whose heads hold one, two and three tables.  Formulas are small,
carry dummy clause codes (num_clauses < 2^m) and short clauses that repeat
their last variable up to the padded length L.  The split kernels are checked
on both sides of their width threshold: ``_tensor`` against plain doubling,
the clause indicator at pinned m = 4..9 with clauses in many rows, and a fold
whose head declares a weight tensor against the same plan with the tensor as
a plain head table.  Blocks of two mostly-zero tables, which the folder folds
over their nonzero entries for a while, are checked against the reference
and against the same plans with an all-ones table added, which fold densely,
along with the rounds at which the folder turns dense.  Windowed blocks of
one and two tables, whose rounds come from the window's sums and one scale,
and heads of three to six tables, which multiply their affine factors'
coefficient lists, are checked against direct cube sums of the tables'
multilinear extensions.  The compiled plans' head proxies are checked
against their tails' cube sums, the contract the folder takes the tail sums
from.  Tables built from bytes fold to the reference too, and the compiled
plans hold their bytes without a copy.  Blocks of 0/1 bytes tables, whose
first round and first bind the folder takes by byte lanes, are checked
against the same tables as lists (the dense round and bind) and round 1's
definition, at sizes and table counts on both sides of the selection rule;
W2 head columns against the clauses on both sides of the 256-variable
boundary where their build turns from one translate into a gather.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ppcplab.arithmetize import (
    BooleanTable,
    ProductPlan,
    build_w1_summand,
    build_w2_summand,
    _tensor,
    build_weight_summand,
    clause_indicator_eval,
    code_bits,
    compile_plan,
)
from ppcplab.formula import ClassTag, WeightedFormula, derived_m
from ppcplab.sumcheck import (
    _LANE_MAX_TABLES,
    _LANE_MIN,
    _LANE_MIN_MANY,
    _SPARSE_MIN,
    PlanFolder,
    TableCommittedProver,
    honest_round_poly,
)

P = 1009


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
    """Cube indicator of ``code`` (MSB-first) at a point of residues."""
    acc = 1
    for bit, x in zip(code_bits(code, len(point)), point):
        acc = acc * (x if bit else 1 - x) % P
    return acc


def var_code(clause, position):
    return abs(clause[min(position, len(clause)) - 1]) - 1


def indicator_reference(formula, position, z, x):
    total = 0
    for c, clause in enumerate(formula.clauses):
        total += chi(c, z) * chi(var_code(clause, position), x)
    return total % P


def random_point(rng, m):
    return tuple(rng.randrange(P) for _ in range(m))


def random_weights(rng, m):
    return [rng.randrange(P) for _ in range(m)]


def clause_spec(formula, L, weights):
    if formula.class_tag is ClassTag.G12N:
        return build_w1_summand(formula, P, weights)
    return build_w2_summand(formula, P, weights, L)


def indicator(formula, L, position, z, x):
    """``clause_indicator_eval`` over the code array of ``position`` in the
    formula's statement at padded length L."""
    codes = clause_spec(formula, L, [0] * formula.m).codes[position - 1]
    return clause_indicator_eval(codes, formula.num_vars, z, x, P)


def random_spec(formula, L, rng, form=tuple):
    """Clause-product summand over a random assignment table, given to its
    constructor as ``form`` (tuple, bytes, bytearray), and weights."""
    m = formula.m
    table = BooleanTable(m, form(rng.randrange(2) for _ in range(1 << m)))
    return clause_spec(formula, L, random_weights(rng, m)), table


def table_oracle(table):
    """The residue oracle of a table's multilinear extension."""
    return TableCommittedProver(table).assignment_query


@given(padded_formulas(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_clause_indicator_matches_per_clause_definition(case, seed):
    formula, L = case
    rng = random.Random(seed)
    for position in range(1, L + 1):
        z, x = random_point(rng, formula.m), random_point(rng, formula.m)
        expected = indicator_reference(formula, position, z, x)
        assert indicator(formula, L, position, z, x) == expected


@given(padded_formulas(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_tail_tables_match_per_clause_definition(case, seed):
    formula, L = case
    m = formula.m
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    plan = compile_plan(spec, table)
    z_star = random_point(rng, m)
    tails = plan.build_tails(z_star)
    assert len(tails) == plan.num_tails == L
    for position, (ctab, factor) in enumerate(tails, start=1):
        for x in range(1 << m):
            assert ctab[x] == indicator_reference(formula, position, z_star, code_bits(x, m))
        negated = formula.class_tag is ClassTag.G12N
        assert factor == bytes([v if negated else 1 - v for v in table.values])
        # g12n's literal factor is the table's bytes, read in place
        assert (factor is table.values) == negated


@given(padded_formulas(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_compiled_head_proxies_are_tail_sums(case, seed):
    # the contract PlanFolder relies on: bound at z*, head proxy i is the
    # cube sum of tail i's factor product, which the folder never sums
    formula, L = case
    m = formula.m
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    plan = compile_plan(spec, table)
    z_star = random_point(rng, m)
    proxies = plan.head_tables[plan.num_standalone :]
    for proxy, tail in zip(proxies, plan.build_tails(z_star), strict=True):
        extension = sum(chi(c, z_star) * v for c, v in enumerate(proxy)) % P
        cube_sum = sum(math.prod(column) for column in zip(*tail)) % P
        assert extension == cube_sum


def assert_every_round_matches(spec, table, rng):
    """The folder's round polynomial is the reference polynomial's d_i + 1
    coefficients in every round, along random challenges."""
    folder = PlanFolder(compile_plan(spec, table))
    oracle = table_oracle(table)
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        folder.sync(challenges)
        reference = honest_round_poly(spec, oracle, challenges, i).padded(d)
        assert folder.round_values(d) == [c.value for c in reference.coeffs], i
        challenges += (rng.randrange(P),)


@given(padded_formulas(max_vars=4, max_clauses=3, max_len=3), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_round_values_match_honest_round_poly(case, seed):
    formula, L = case
    assume((L + 1) * formula.m <= 8)
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    assert_every_round_matches(spec, table, rng)


@given(padded_formulas(max_vars=4, max_clauses=3, max_len=3), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_a_prefix_that_departs_from_the_bound_one_is_refused(case, seed):
    # the fold binds forward only: a sync whose challenges do not extend the
    # bound prefix raises and binds nothing, so the next sync that does
    # extend it still gives the reference's round polynomial
    formula, L = case
    assume((L + 1) * formula.m <= 8)
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    folder = PlanFolder(compile_plan(spec, table))
    oracle = table_oracle(table)
    prefix = ()
    while len(prefix) < spec.num_vars - 1:
        prefix += random_point(rng, min(rng.randint(1, 2), spec.num_vars - 1 - len(prefix)))
        folder.sync(prefix)
        # a shorter prefix, or one of any length that differs inside it
        at = rng.randrange(len(prefix))
        departed = (*prefix[:at], (prefix[at] + rng.randrange(1, P)) % P)
        departed += random_point(rng, rng.randrange(spec.num_vars - len(departed)))
        for wrong in (prefix[:at], departed):
            with pytest.raises(ValueError):
                folder.sync(wrong)
        i = len(prefix) + 1
        d = spec.degree_bounds[i - 1]
        folder.sync(prefix)
        reference = honest_round_poly(spec, oracle, prefix, i).padded(d)
        assert folder.round_values(d) == [c.value for c in reference.coeffs]


# ---------------------------------------------------------------------------
# Every block shape the folder takes, against the reference at every round
# ---------------------------------------------------------------------------


def low_codes(rng, m, bits):
    """A table of the m-cube, true at a random subset of the codes below
    2^bits."""
    return BooleanTable.from_true_codes([c for c in range(1 << bits) if rng.randrange(2)], m)


@pytest.mark.parametrize("with_block", [False, True], ids=["one_table", "two_tables"])
@pytest.mark.parametrize("m", range(1, 6))
def test_weight_statement_rounds_match_honest_round_poly(m, with_block):
    # A(z) alone is a one-table block, A(z) * B(z) a two-table one; with
    # every true code below 2^bits the window is at most 2^bits, so each
    # bits < m folds its first rounds on the window and its constants
    rng = random.Random(10 * m + with_block)
    for bits in range(m + 1):
        for _ in range(3):
            table = low_codes(rng, m, bits)
            block = low_codes(rng, m, bits) if with_block else None
            spec = build_weight_summand(m, P, block)
            plan = compile_plan(spec, table)
            assert len(plan.head_tables) == 1 + with_block and plan.window <= 1 << bits
            assert_every_round_matches(spec, table, rng)


def shaped_formula(rng, tag, L, n, m):
    """Up to 2^m random clauses of 1..L of the n variables, at pinned m."""
    clauses = []
    for _ in range(rng.randint(1, 1 << m)):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(L, n)))
        clauses.append(tuple(-v for v in chosen) if tag is ClassTag.G12N else tuple(chosen))
    return WeightedFormula(n, tuple(clauses), tag, 1, m)


# (tag, L, n, m): the head holds L tables beside the weight tensor, and
# each tail two; n variables at 2^m codes give the tails a window of 2^m
# or less over a table true only at variable codes
CLAUSE_SHAPES = {
    "one_table_head": (ClassTag.G21P, 1, 3, 3),
    "one_table_head_narrow_window": (ClassTag.G21P, 1, 2, 4),
    "two_table_head_w1": (ClassTag.G12N, 2, 2, 2),
    "two_table_head_w2": (ClassTag.G21P, 2, 2, 2),
    "three_table_head": (ClassTag.G21P, 3, 2, 2),
}


@pytest.mark.parametrize("shape", CLAUSE_SHAPES)
def test_clause_statement_rounds_match_honest_round_poly(shape):
    # a table true only at variable codes keeps the tails' window below
    # the cube (the constants path); a random table widens it to the cube
    tag, L, n, m = CLAUSE_SHAPES[shape]
    rng = random.Random(shape)
    for trial in range(4):
        formula = shaped_formula(rng, tag, L, n, m)
        if trial % 2:
            table = BooleanTable(m, tuple(rng.randrange(2) for _ in range(1 << m)))
        else:
            true_set = {v for v in range(1, n + 1) if rng.randrange(2)}
            table = BooleanTable.from_assignment(true_set, m)
        spec = clause_spec(formula, L, random_weights(rng, m))
        plan = compile_plan(spec, table)
        assert len(plan.head_tables) == L and plan.head_weights is not None
        assert all(len(tail) == 2 for tail in plan.build_tails((0,) * m))
        if trial % 2 == 0:
            assert plan.window < 1 << m
        assert_every_round_matches(spec, table, rng)


@st.composite
def small_specs(draw):
    """(kind, spec, table) with at most 8 sum-check variables: W1 at L = 2, W2
    at L = 1..5 (L may exceed the longest clause) and weight summands with
    and without a block table; every table is given to its constructor as a
    tuple, bytes or a bytearray."""
    kind = draw(st.sampled_from(["w1", "w2", "weight"]))
    form = draw(st.sampled_from([tuple, bytes, bytearray]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "weight":
        m = draw(st.integers(1, 6))
        table = BooleanTable(m, form(rng.randrange(2) for _ in range(1 << m)))
        block = draw(st.sampled_from([None, form(rng.randrange(2) for _ in range(1 << m))]))
        block_table = None if block is None else BooleanTable(m, block)
        spec = build_weight_summand(m, P, block_table)
        return kind, spec, table
    tag = ClassTag.G12N if kind == "w1" else ClassTag.G21P
    L = 2 if kind == "w1" else draw(st.integers(1, 5))
    max_m = 8 // (L + 1)
    n = draw(st.integers(1, 1 << max_m))
    clauses = []
    for _ in range(draw(st.integers(1, 1 << max_m))):
        size = draw(st.integers(1, min(L, n)))
        chosen = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        clauses.append(tuple(-v for v in chosen) if tag is ClassTag.G12N else tuple(chosen))
    formula = WeightedFormula(n, tuple(clauses), tag, 1)
    assume(formula.m <= max_m)
    spec, table = random_spec(formula, L, rng, form)
    return kind, spec, table


def assert_plan_reads_tables_in_place(spec, table):
    """Every table is bytes, and ``compile_plan`` holds them without a copy:
    a weight statement's head holds A's and B's bytes, and every tail of a
    g12n statement holds A's as its literal factor."""
    assert type(table.values) is bytes
    plan = compile_plan(spec, table)
    if spec.formula is None:
        tables = [table] + ([spec.block] if spec.block is not None else [])
        assert all(type(t.values) is bytes for t in tables)
        assert all(h is t.values for h, t in zip(plan.head_tables, tables, strict=True))
    elif spec.formula.class_tag is ClassTag.G12N:
        tails = plan.build_tails((0,) * spec.formula.m)
        assert all(factor is table.values for _, factor in tails)


@given(small_specs(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_table_prover_round_poly_matches_honest_round_poly(case, seed):
    _, spec, table = case
    assert_plan_reads_tables_in_place(spec, table)
    rng = random.Random(seed)
    prover = TableCommittedProver(table)
    prover.begin_sumcheck(spec, 0)
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        poly = prover.round_poly(i, challenges, 0)
        reference = honest_round_poly(spec, table_oracle(table), challenges, i).padded(d)
        # exactly the wire format: d + 1 plain ints in [0, p)
        assert type(poly) is tuple and len(poly) == d + 1
        assert all(type(c) is int and 0 <= c < P for c in poly)
        assert list(poly) == [c.value for c in reference.coeffs]
        challenges += (rng.randrange(P),)


# (tag, L, m) of clause statements of at most 8 sum-check variables over
# n = 2^m variables, and (None, with a block, m) of weight statements
BYTES_BACKED = {
    "w1": (ClassTag.G12N, 2, 2),
    "w2_L2": (ClassTag.G21P, 2, 2),
    "w2_L3": (ClassTag.G21P, 3, 2),
    "w2_L4": (ClassTag.G21P, 4, 1),
    "w2_L5": (ClassTag.G21P, 5, 1),
    "weight": (None, False, 4),
    "weight_block": (None, True, 4),
}


@pytest.mark.parametrize("shape", BYTES_BACKED)
def test_bytes_backed_tables_fold_to_honest_round_poly(shape):
    # tables built from bytes: the plan holds them in place and the fold
    # matches the reference in every round, W2 at every L up to 5 included
    tag, arg, m = BYTES_BACKED[shape]
    rng = random.Random(shape)
    for trial in range(3):
        if tag is None:
            block = BooleanTable(m, bytes(rng.randrange(2) for _ in range(1 << m))) if arg else None
            spec = build_weight_summand(m, P, block)
            table = BooleanTable(m, bytes(rng.randrange(2) for _ in range(1 << m)))
        else:
            spec, table = random_spec(shaped_formula(rng, tag, arg, 1 << m, m), arg, rng, bytes)
        assert_plan_reads_tables_in_place(spec, table)
        assert_rounds_match_honest(spec, table, trial)


# ---------------------------------------------------------------------------
# Variable-code windows: m pinned above the width the variables need
# ---------------------------------------------------------------------------

TABLE_KINDS = ("low", "dummy", "top", "zero")


@st.composite
def pinned_formulas(draw, max_total_vars, tags=(ClassTag.G12N, ClassTag.G21P), max_len=5):
    """(formula, L): up to 3 variables and clauses at m pinned 1..3 above the
    derived width, so every variable code sits in a low window of the cube;
    (L + 1) * m stays within ``max_total_vars``."""
    tag = draw(st.sampled_from(tags))
    L = 2 if tag is ClassTag.G12N else draw(st.integers(1, max_len))
    n = draw(st.integers(1, 3))
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, min(L, n)))
        chosen = draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        clauses.append(tuple(-v for v in chosen) if tag is ClassTag.G12N else tuple(chosen))
    m = derived_m(n, len(clauses)) + draw(st.integers(1, 3))
    assume((L + 1) * m <= max_total_vars)
    return WeightedFormula(n, tuple(clauses), tag, 1, m), L


def window_table(kind, n, m, rng):
    """A committed table over the m-cube: true codes among the n variable
    codes only ("low"), plus one true dummy code below the top ("dummy"),
    plus the top code ("top"), or no true code at all ("zero")."""
    if kind == "zero":
        return BooleanTable.from_true_codes((), m)
    codes = [c for c in range(n) if rng.randrange(2)]
    top = (1 << m) - 1
    if kind == "dummy":
        codes.append(rng.randrange(n, top) if n < top else top)
    elif kind == "top":
        codes.append(top)
    return BooleanTable.from_true_codes(codes, m)


def assert_rounds_match_honest(spec, table, seed):
    """``TableCommittedProver.round_poly`` equals the padded reference in
    every round, at random challenges."""
    rng = random.Random(seed)
    prover = TableCommittedProver(table)
    prover.begin_sumcheck(spec, 0)
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        poly = prover.round_poly(i, challenges, 0)
        reference = honest_round_poly(spec, table_oracle(table), challenges, i).padded(d)
        assert list(poly) == [c.value for c in reference.coeffs], i
        challenges += (rng.randrange(P),)


@st.composite
def pinned_specs(draw, table_kind):
    """(kind, spec, table, n) over pinned-m formulas with at most 10 sum-check
    variables: W1, W2 at L = 1..4, and weight summands with no block table,
    the real variables as the block, or a random block of variable codes."""
    kind = draw(st.sampled_from(["w1", "w2", "weight"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "weight":
        n = draw(st.integers(1, 4))
        m = derived_m(n, 1) + draw(st.integers(1, 3))
        table = window_table(table_kind, n, m, rng)
        block = draw(st.sampled_from(["none", "real", "random"]))
        block_codes = range(n) if block == "real" else [c for c in range(n) if rng.randrange(2)]
        block_table = None if block == "none" else BooleanTable.from_true_codes(block_codes, m)
        return kind, build_weight_summand(m, P, block_table), table, n
    tag = ClassTag.G12N if kind == "w1" else ClassTag.G21P
    formula, L = draw(pinned_formulas(10, tags=(tag,), max_len=4))
    n, m = formula.num_vars, formula.m
    table = window_table(table_kind, n, m, rng)
    return kind, clause_spec(formula, L, random_weights(rng, m)), table, n


@pytest.mark.parametrize("table_kind", TABLE_KINDS)
@given(data=st.data(), seed=st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_windowed_round_poly_matches_honest_round_poly(table_kind, data, seed):
    kind, spec, table, n = data.draw(pinned_specs(table_kind))
    m = table.arity
    plan = compile_plan(spec, table)
    window = plan.window
    assert window > table.top_code()
    assert (window == 1 << m) if table_kind == "top" else table_kind == "dummy" or window < 1 << m
    if kind != "weight":
        # the window holds the tails; the weight-tensor head over the clause codes is whole-cube
        assert window >= n and plan.head_weights is not None
    assert_rounds_match_honest(spec, table, seed)


def test_windowed_round_poly_at_padded_length_5():
    # one variable at m = 2, its code and the dummy code 1 true: window 2 of 4
    formula = WeightedFormula(1, ((1,),), ClassTag.G21P, 1, 2)
    table = BooleanTable.from_true_codes([0, 1], 2)
    spec = build_w2_summand(formula, P, (3, 500), 5)
    assert compile_plan(spec, table).window == 2
    assert_rounds_match_honest(spec, table, 5)


@given(pinned_formulas(30), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_windowed_clause_indicator_matches_per_clause_definition(case, seed):
    formula, L = case
    rng = random.Random(seed)
    for position in range(1, L + 1):
        z, x = random_point(rng, formula.m), random_point(rng, formula.m)
        expected = indicator_reference(formula, position, z, x)
        assert indicator(formula, L, position, z, x) == expected


@st.composite
def windowed_plans(draw):
    """(windowed plan, the same plan without a window): random factor
    tables, each constant past the window; unlike the summands' plans, whose
    constant products are 0, the constants here are random.  The head
    proxies are random too, not the tails' summed-out sums, so the test
    compares two folders of one plan; the compiled plans' proxies are
    checked against their tails in ``test_compiled_head_proxies_are_tail_sums``."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    block_vars = draw(st.integers(1, 4))
    size = 1 << block_vars
    window = 1 << draw(st.integers(0, block_vars))
    num_tails = draw(st.integers(0, 2))

    def table(window):
        const = rng.randrange(P)
        return [rng.randrange(P) for _ in range(window)] + [const] * (size - window)

    head = tuple(tuple(table(window)) for _ in range(draw(st.integers(1, 3)) + num_tails))
    tails = [[table(window) for _ in range(draw(st.integers(1, 3)))] for _ in range(num_tails)]
    build_tails = (lambda z_star: tails) if num_tails else None
    common = dict(p=P, block_vars=block_vars, head_tables=head,
                  num_standalone=len(head) - num_tails, build_tails=build_tails)
    windowed = ProductPlan(**common, window=window)
    return windowed, ProductPlan(**common)


@given(windowed_plans(), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_windowed_fold_matches_whole_cube_fold(plans, seed):
    windowed, whole = plans
    rng = random.Random(seed)
    a, b = PlanFolder(windowed), PlanFolder(whole)
    challenges = ()
    for _ in range(windowed.num_vars):
        a.sync(challenges)
        b.sync(challenges)
        assert a.round_values(3) == b.round_values(3)
        challenges += (rng.randrange(P),)


@given(windowed_plans(), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_round_values_pad_to_the_degree_bound(plans, seed):
    # a block of k tables has degree k, so at the plan's largest block size
    # some block's answer needs no pad; one degree more pads every answer
    # with one zero
    windowed, whole = plans
    tails = windowed.build_tails(()) if windowed.num_tails else []
    bound = max(len(tables) for tables in [windowed.head_tables, *tails])
    rng = random.Random(seed)
    a, b = PlanFolder(windowed), PlanFolder(whole)
    challenges = ()
    for _ in range(windowed.num_vars):
        a.sync(challenges)
        b.sync(challenges)
        exact, padded = a.round_values(bound), a.round_values(bound + 1)
        assert len(exact) == bound + 1 and padded == exact + [0]
        assert b.round_values(bound) == exact and b.round_values(bound + 1) == padded
        challenges += (rng.randrange(P),)


# ---------------------------------------------------------------------------
# Split eq kernels and the weight-tensor head, on both sides of the split width
# ---------------------------------------------------------------------------


def doubling_tensor(factors, p):
    """The plain tensor product: one doubling per coordinate, last first."""
    table = [1]
    for lo, hi in reversed(factors):
        table = [t * lo % p for t in table] + [t * hi % p for t in table]
    return table


@pytest.mark.parametrize("m", range(11))
def test_split_tensor_matches_doubling(m):
    rng = random.Random(m)
    for p in (P, 2**61 - 1):
        factors = [(rng.randrange(p), rng.randrange(p)) for _ in range(m)]
        assert _tensor(factors, p) == doubling_tensor(factors, p)


def wide_formula(m, tag, rng):
    """A formula at pinned m with 2^(m-1)..2^m clauses, so the clause codes
    fill many rows of the split eq table, the last one often partly."""
    L = 2 if tag is ClassTag.G12N else rng.randint(1, 4)
    n = rng.randint(max(L, 2), 1 << (m - 1))
    clauses = []
    for _ in range(rng.randint(1 << (m - 1), 1 << m)):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, L))
        clauses.append(tuple(-v for v in chosen) if tag is ClassTag.G12N else tuple(chosen))
    return WeightedFormula(n, tuple(clauses), tag, 1, m), L


@pytest.mark.parametrize("tag", [ClassTag.G12N, ClassTag.G21P], ids=["g12n", "g21p"])
@pytest.mark.parametrize("m", range(4, 10))
def test_split_clause_indicator_matches_per_clause_definition(m, tag):
    rng = random.Random(100 * m + len(tag.value))
    for _ in range(2):
        formula, L = wide_formula(m, tag, rng)
        # a g21p statement padded past its longest clause repeats last variables
        L += tag is ClassTag.G21P
        for position in range(1, L + 1):
            z, x = random_point(rng, m), random_point(rng, m)
            expected = indicator_reference(formula, position, z, x)
            assert indicator(formula, L, position, z, x) == expected


@st.composite
def weight_tensor_plans(draw):
    """(plan that declares the weight tensor beside its head tables, the same
    plan with the explicit tensor as standalone head table 0, no declaration
    and no window): random nonzero weights, other head tables and tails at
    random, tails constant past a random window with random constants; the
    window applies to the declared plan's tails only.  The
    head proxies are random, not the tails' summed-out sums, so the test
    compares two folders of one plan; ``test_compiled_head_proxies_are_tail_sums``
    checks the compiled plans' proxies."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    block_vars = draw(st.integers(1, 4))
    size = 1 << block_vars
    window = 1 << draw(st.integers(0, block_vars))
    num_tails = draw(st.integers(0, 2))
    weights = tuple(rng.randrange(1, P) for _ in range(block_vars))
    tensor = [1] * size
    for c in range(size):
        for j, bit in enumerate(code_bits(c, block_vars)):
            tensor[c] = tensor[c] * (weights[j] if bit else 1) % P

    def table(window):
        const = rng.randrange(1, P)
        return [rng.randrange(P) for _ in range(window)] + [const] * (size - window)

    # standalone tables besides the weight tensor, then one proxy per tail
    standalone = draw(st.integers(0 if num_tails else 1, 2))
    head = tuple(tuple(table(size)) for _ in range(standalone + num_tails))
    tails = [[table(window) for _ in range(draw(st.integers(1, 3)))] for _ in range(num_tails)]
    build_tails = (lambda z_star: tails) if num_tails else None
    common = dict(p=P, block_vars=block_vars, build_tails=build_tails)
    declared = ProductPlan(
        **common, head_tables=head, num_standalone=standalone, window=window, head_weights=weights
    )
    plain = ProductPlan(**common, head_tables=(tuple(tensor), *head), num_standalone=standalone + 1)
    return declared, plain


@given(weight_tensor_plans(), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_weight_tensor_head_fold_matches_plain_fold(plans, seed):
    declared, plain = plans
    rng = random.Random(seed)
    a, b = PlanFolder(declared), PlanFolder(plain)
    head_degree = len(plain.head_tables)
    challenges = ()
    for _ in range(declared.num_vars):
        a.sync(challenges)
        b.sync(challenges)
        # the product's own degree, and one more than it (one zero pad)
        for degree in (head_degree, head_degree + 1):
            assert a.round_values(degree) == b.round_values(degree)
        challenges += (rng.randrange(P),)


def test_weight_tensor_head_needs_a_whole_cube_head_with_one_weight_per_variable():
    head = ((1, 1, 1, 1),)
    ProductPlan(P, 2, head, 1, head_weights=(2, 3))
    with pytest.raises(ValueError):
        ProductPlan(P, 2, head, 1, head_weights=(2,))
    with pytest.raises(ValueError):
        ProductPlan(P, 2, (), 0, head_weights=(2, 3))


# ---------------------------------------------------------------------------
# The sparse phase: whole-cube blocks of two mostly-zero tables
# ---------------------------------------------------------------------------


def expected_phases(tables):
    """Per round of a whole-cube block, whether the folder folds it over its
    nonzero entries: from round 1 if the block holds two tables of at least
    ``_SPARSE_MIN`` entries, each at least 15/16 zeros, until a bind leaves
    the block no more entries than the tables hold nonzero positions,
    counted after j and j + half merge."""
    size = len(tables[0])
    sparse = (
        size >= _SPARSE_MIN
        and len(tables) == 2
        and all(16 * list(t).count(0) >= 15 * size for t in tables)
    )
    supports = [{j for j, v in enumerate(t) if v} for t in tables]
    phases = []
    while size > 1:
        phases.append(sparse)
        size >>= 1
        supports = [{j % size for j in s} for s in supports]
        sparse = sparse and size > max(1, sum(map(len, supports)))
    return phases


def few_ones(rng, size, ones, top=False):
    """A 0/1 table of ``size`` entries with ``ones`` ones at random codes,
    the top code among them when ``top``."""
    codes = rng.sample(range(size - top), ones - top) + [size - 1] * top
    return BooleanTable.from_true_codes(codes, size.bit_length() - 1)


@pytest.mark.parametrize("with_block", [False, True], ids=["one_table", "two_tables"])
@pytest.mark.parametrize("m", [7, 8, 9])
def test_sparse_weight_statement_rounds_match_honest_round_poly(m, with_block):
    # true codes at the cube's top code make the window the whole cube, so
    # from 2^8 entries on a two-table block starts in the sparse phase; one
    # table stays dense, and so does a block of 2^7 entries
    rng = random.Random(100 * m + with_block)
    size = 1 << m
    for ones in (2, 9, size // 16):
        table = few_ones(rng, size, ones, top=True)
        block = few_ones(rng, size, ones, top=True) if with_block else None
        spec = build_weight_summand(m, P, block)
        plan = compile_plan(spec, table)
        assert plan.window == size
        phases = expected_phases(plan.head_tables)
        # a sixteenth of the codes true densifies on the way
        assert phases[0] == (with_block and m >= 8)
        assert ones < size // 16 or not phases[-1]
        folder = PlanFolder(plan)
        oracle = table_oracle(table)
        challenges = ()
        for i in range(1, m + 1):
            folder.sync(challenges)
            assert folder._sparse == phases[i - 1], i
            reference = honest_round_poly(spec, oracle, challenges, i).padded(2)
            assert folder.round_values(2) == [c.value for c in reference.coeffs], i
            challenges += (rng.randrange(P),)


@st.composite
def sparse_head_plans(draw):
    """(plan, the same plan with an all-ones table in front of its head and
    of each tail): blocks of one to three 0/1 tables over 2^7..2^9 codes,
    each holding a few ones, exactly a sixteenth, one more or none, so the
    sizes and zero counts fall on both sides of the folder's selection
    rule; with or without a weight tensor and with up to two tails (no
    window).  An all-ones table leaves every product unchanged but puts
    three tables in a two-table block, which the folder sums at points,
    and a dense one beside a one-table block: the reference folds every
    block densely."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    block_vars = draw(st.integers(7, 9))
    size = 1 << block_vars
    counts = {"few": lambda: rng.randint(1, size // 16), "sixteenth": lambda: size // 16,
              "over": lambda: size // 16 + 1, "none": lambda: 0}

    def table():
        kind = draw(st.sampled_from(["few", "few", "sixteenth", "over", "none"]))
        return few_ones(rng, size, counts[kind]()).values

    head_size = draw(st.sampled_from([2, 2, 1, 3]))
    num_tails = draw(st.integers(0, min(2, head_size)))
    head = tuple(table() for _ in range(head_size))
    tails = [[list(table()) for _ in range(draw(st.integers(1, 2)))] for _ in range(num_tails)]
    ones = [1] * size
    dense_tails = [[ones, *tail] for tail in tails]
    weighted = draw(st.booleans())
    weights = tuple(rng.randrange(1, P) for _ in range(block_vars)) if weighted else None
    common = dict(p=P, block_vars=block_vars, head_weights=weights)
    standalone = head_size - num_tails
    plan = ProductPlan(
        **common, head_tables=head, num_standalone=standalone,
        build_tails=(lambda z_star: tails) if num_tails else None,
    )
    dense = ProductPlan(
        **common, head_tables=(tuple(ones), *head), num_standalone=standalone + 1,
        build_tails=(lambda z_star: dense_tails) if num_tails else None,
    )
    return plan, dense


@given(sparse_head_plans(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_sparse_fold_matches_dense_fold(plans, seed):
    # every block at its own degree (no pad) and one more, against the
    # dense fold one degree up, whose top coefficient is 0; each block
    # takes the phase expected_phases gives
    plan, dense = plans
    rng = random.Random(seed)
    tails = plan.build_tails(()) if plan.num_tails else []
    blocks = [plan.head_tables, *tails]
    a, b = PlanFolder(plan), PlanFolder(dense)
    challenges = ()
    for block, tables in enumerate(blocks):
        phases = expected_phases(tables)
        degree = len(tables) + (block == 0 and plan.head_weights is not None)
        for i in range(plan.block_vars):
            a.sync(challenges)
            b.sync(challenges)
            assert a._sparse == phases[i] and not b._sparse, (block, i)
            for d in (degree, degree + 1):
                assert b.round_values(d + 1) == a.round_values(d) + [0], (block, i)
            challenges += (rng.randrange(P),)


# ---------------------------------------------------------------------------
# Window rounds from the window's sums, and heads of three or more tables,
# against direct cube sums of the tables' multilinear extensions
# ---------------------------------------------------------------------------


def direct_round(tables, prefix, degree):
    """The round polynomial after ``prefix`` at t = 0..degree: the cube sum,
    over the boolean suffixes, of the product of every table's multilinear
    extension, each evaluated from its definition."""
    m = len(tables[0]).bit_length() - 1
    free = m - len(prefix) - 1

    def extension(table, point):
        return sum(v * chi(c, point) for c, v in enumerate(table)) % P

    return [
        sum(
            math.prod(extension(t, (*prefix, x, *code_bits(s, free))) for t in tables)
            for s in range(1 << free)
        ) % P
        for x in range(degree + 1)
    ]


def values_at(coeffs, degree):
    """The polynomial of ``coeffs`` (lowest first) at t = 0..degree."""
    return [sum(c * t**j for j, c in enumerate(coeffs)) % P for t in range(degree + 1)]


@st.composite
def windowed_blocks(draw, counts=(1, 2)):
    """(tables, window): a block of ``counts`` tables over 2^1..2^4 codes,
    random on a window of 1 up to half the cube and constant past it, each
    constant 0, 1 or a random residue."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    block_vars = draw(st.integers(1, 4))
    size = 1 << block_vars
    window = 1 << draw(st.integers(0, block_vars - 1))

    def table():
        const = draw(st.sampled_from(["zero", "one", "random"]))
        const = {"zero": 0, "one": 1, "random": rng.randrange(P)}[const]
        return tuple([rng.randrange(P) for _ in range(window)] + [const] * (size - window))

    return tuple(table() for _ in range(draw(st.sampled_from(counts)))), window


def window_rounds(tables, window):
    """How many rounds of a block fold on its window: those that bind a top
    code bit, while the remaining cube is larger than the window."""
    return (len(tables[0]) // window).bit_length() - 1


@given(windowed_blocks(), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_window_rounds_match_direct_cube_sums(block, seed):
    tables, window = block
    block_vars = len(tables[0]).bit_length() - 1
    k = len(tables)
    rng = random.Random(seed)
    folder = PlanFolder(ProductPlan(P, block_vars, tables, k, window=window))
    prefix = ()
    for i in range(block_vars):
        folder.sync(prefix)
        # only a block of two tables holds its window; one table folds
        # over the whole cube
        held = k == 2 and i < window_rounds(tables, window)
        assert (folder._consts is not None) == held, i
        # the block's own degree, and one zero pad past it
        assert folder.round_values(k + 1)[-1] == 0
        assert values_at(folder.round_values(k), k) == direct_round(tables, prefix, k), i
        prefix += (rng.randrange(P),)


@given(windowed_blocks(counts=(3,)), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_a_windowed_block_of_three_tables_folds_whole_cube(block, seed):
    tables, window = block
    block_vars = len(tables[0]).bit_length() - 1
    rng = random.Random(seed)
    folder = PlanFolder(ProductPlan(P, block_vars, tables, 3, window=window))
    prefix = ()
    for i in range(block_vars):
        folder.sync(prefix)
        assert folder._consts is None, i
        assert values_at(folder.round_values(3), 3) == direct_round(tables, prefix, 3), i
        prefix += (rng.randrange(P),)


@given(st.integers(3, 6), st.integers(1, 4), st.booleans(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_heads_of_three_to_six_tables_match_direct_cube_sums(k, block_vars, weighted, seed):
    # odd and even k, with and without a declared weight tensor, which the
    # reference multiplies in as one more table
    rng = random.Random(seed)
    size = 1 << block_vars
    tables = tuple(tuple(rng.randrange(P) for _ in range(size)) for _ in range(k))
    weights = tuple(rng.randrange(P) for _ in range(block_vars)) if weighted else None
    reference = tables
    if weighted:
        tensor = [math.prod(w for w, bit in zip(weights, code_bits(c, block_vars)) if bit) % P
                  for c in range(size)]
        reference += (tensor,)
    degree = len(reference)
    folder = PlanFolder(ProductPlan(P, block_vars, tables, k, head_weights=weights))
    prefix = ()
    for i in range(block_vars):
        folder.sync(prefix)
        coeffs = folder.round_values(degree)
        assert values_at(coeffs, degree) == direct_round(reference, prefix, degree), i
        prefix += (rng.randrange(P),)


@pytest.mark.parametrize("L, m", [(3, 1), (4, 1), (5, 1), (6, 1), (3, 2), (4, 2)])
def test_w2_statement_rounds_match_honest_round_poly_at_long_padded_lengths(L, m):
    # the weighted head holds L >= 3 clause-code tables, so it takes the
    # coefficient products in every head round
    rng = random.Random(10 * L + m)
    for trial in range(3):
        formula = shaped_formula(rng, ClassTag.G21P, L, 2, m)
        table = BooleanTable(m, tuple(rng.randrange(2) for _ in range(1 << m)))
        spec = build_w2_summand(formula, P, random_weights(rng, m), L)
        assert len(compile_plan(spec, table).head_tables) == L
        assert_every_round_matches(spec, table, rng)


# ---------------------------------------------------------------------------
# Lane blocks: whole-cube blocks of 0/1 bytes tables, first round and first
# bind by byte lanes
# ---------------------------------------------------------------------------


def expected_lanes(tables):
    """Whether the folder takes a whole-cube block's first round and bind by
    byte lanes: two to ``_LANE_MAX_TABLES`` tables, each exactly bytes of 0s
    and 1s, at least ``_LANE_MIN`` entries for two tables and
    ``_LANE_MIN_MANY`` for more, unless the sparse phase takes the block."""
    size = len(tables[0])
    return (
        2 <= len(tables) <= _LANE_MAX_TABLES
        and size >= (_LANE_MIN if len(tables) == 2 else _LANE_MIN_MANY)
        and all(type(t) is bytes and set(t) <= {0, 1} for t in tables)
        and not expected_phases(tables)[0]
    )


def tensor_entry(weights, code):
    """Entry ``code`` of the tensor of (1, r_j) over ``weights``, MSB first."""
    bits = code_bits(code, len(weights)) if weights else ()
    return math.prod(r for r, bit in zip(weights, bits) if bit) % P


def first_round_values(tables, weights, degree):
    """Round 1 of a head at t = 0..degree, from the definition: the sum over
    j < half of w_1(t) w[j] prod_i (lo_i[j] + t (hi_i[j] - lo_i[j])), where
    w_1(t) = 1 - t + r_1 t and w[j] is the tensor of r_2.. at j (both 1 for
    an unweighted block)."""
    half = len(tables[0]) // 2
    rest = weights[1:] if weights else ()
    values = []
    for t in range(degree + 1):
        total = sum(
            tensor_entry(rest, j) * math.prod(tb[j] + t * (tb[j + half] - tb[j]) for tb in tables)
            for j in range(half)
        )
        scale = 1 - t + weights[0] * t if weights else 1
        values.append(total * scale % P)
    return values


def assert_lanes_match_dense(tables, weights, seed, rounds=2):
    """The block as bytes and as lists (which always fold densely: the dense
    round and the comprehension bind): equal round polynomials at its own
    degree and one more, bound tables equal entry by entry after the first
    bind, and round 1 equal to its definition."""
    block_vars = len(tables[0]).bit_length() - 1
    k = len(tables)
    plan = ProductPlan(P, block_vars, tables, k, head_weights=weights)
    dense = ProductPlan(P, block_vars, tuple(list(t) for t in tables), k, head_weights=weights)
    a, b = PlanFolder(plan), PlanFolder(dense)
    assert a._lanes == expected_lanes(tables) and not b._lanes
    degree = k + (weights is not None)
    assert values_at(a.round_values(degree), degree) == first_round_values(tables, weights, degree)
    rng = random.Random(seed)
    challenges = ()
    for i in range(min(rounds, block_vars)):
        a.sync(challenges)
        b.sync(challenges)
        for d in (degree, degree + 1):
            assert a.round_values(d) == b.round_values(d), i
        challenges += (rng.randrange(P),)
    a.sync(challenges)
    b.sync(challenges)
    assert not a._lanes and a._tables == b._tables


@given(
    st.sampled_from([1, 2, 3, 4, 5, 6, 15]),
    st.integers(1, 11),
    st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0]),
    st.booleans(),
    st.integers(0, 2**32),
)
@settings(max_examples=120, deadline=None)
def test_lane_first_round_and_bind_match_the_dense_fold(k, block_vars, ones, weighted, seed):
    # sizes 2..2^11 on both sides of both minimums, tables all 0, all 1 and
    # in between, each entry 1 with probability ``ones``
    rng = random.Random(seed)
    size = 1 << block_vars
    tables = tuple(bytes(int(rng.random() < ones) for _ in range(size)) for _ in range(k))
    weights = tuple(rng.randrange(P) for _ in range(block_vars)) if weighted else None
    assert_lanes_match_dense(tables, weights, seed)


def random_bytes_tables(rng, k, size):
    return tuple(bytes(rng.randrange(2) for _ in range(size)) for _ in range(k))


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_lane_blocks_of_constant_tables_match_the_dense_fold(weighted):
    # all zeros (every entry dead), all ones (every table at (1, 1)), and one
    # live pair: a single entry j where every table is at (1, 0), or (0, 1)
    rng = random.Random(weighted)
    for k, block_vars in [(2, 8), (3, 5), (5, 9), (15, 6)]:
        size = 1 << block_vars
        half = size // 2
        weights = tuple(rng.randrange(1, P) for _ in range(block_vars)) if weighted else None
        j = rng.randrange(half)
        for pattern in (bytes(size), b"\x01" * size):
            tables = (pattern,) * k
            assert expected_lanes(tables) == (k > 2 or pattern != bytes(size))
            assert_lanes_match_dense(tables, weights, j)
        for at in (j, j + half):
            pair = bytearray(size)
            pair[at] = 1
            tables = (bytes(pair),) * k
            assert_lanes_match_dense(tables, weights, j)


def test_sixteen_tables_and_tables_that_are_not_0_1_bytes_fold_densely():
    rng = random.Random(16)
    tables = random_bytes_tables(rng, 16, 64)
    assert not PlanFolder(ProductPlan(P, 6, tables, 16))._lanes
    assert_lanes_match_dense(tables, None, 1)
    assert PlanFolder(ProductPlan(P, 6, tables[:15], 15))._lanes
    # a hand-built plan may hold any residues in its bytes: a 2 keeps the
    # block dense, and so does a bytearray or a tuple of 0s and 1s
    tables = random_bytes_tables(rng, 3, 64)
    two = bytearray(tables[1])
    two[5] = 2
    for other in (bytes(two), bytearray(tables[1]), tuple(tables[1])):
        block = (tables[0], other, tables[2])
        assert not PlanFolder(ProductPlan(P, 6, block, 3))._lanes
        assert_lanes_match_dense(block, None, 2)


@pytest.mark.parametrize("m", [8, 9])
def test_lane_weight_statement_rounds_match_honest_round_poly(m):
    # A and a block table true at the top code make a whole-cube block of
    # two bytes tables; at half ones it is too dense for the sparse phase,
    # so from 2^8 entries its first round is a lane round
    rng = random.Random(m)
    size = 1 << m
    for _ in range(2):
        table, block = (few_ones(rng, size, size // 2, top=True) for _ in range(2))
        spec = build_weight_summand(m, P, block)
        plan = compile_plan(spec, table)
        assert plan.window == size and PlanFolder(plan)._lanes
        assert_rounds_match_honest(spec, table, rng.randrange(2**32))


def head_round_reference(formula, L, table, weights, prefix, degree):
    """A clause statement's head round after ``prefix`` at t = 0..degree,
    from the formula's clauses: at a head point z, each position's summed
    tail, sum over boolean x of C_i(z, x) F(A(x)), is sum_c chi_c(z)
    F(A(v_i(c))), so the round sums w(z) times the product of those over
    the boolean suffixes of z.  That is the partial sum honest_round_poly
    takes, with each tail summed out by the clauses."""
    m = formula.m
    literal = [1 - v for v in table.values]
    free = m - len(prefix) - 1
    values = []
    for t in range(degree + 1):
        total = 0
        for s in range(1 << free):
            z = (*prefix, t, *code_bits(s, free))
            eq = _tensor([((1 - x) % P, x % P) for x in z], P)
            w = math.prod(1 - zj + r * zj for zj, r in zip(z, weights))
            for position in range(1, L + 1):
                w *= sum(eq[c] * literal[var_code(cl, position)] for c, cl in enumerate(formula.clauses))
            total += w
        values.append(total % P)
    return values


@pytest.mark.parametrize("n", [256, 257], ids=["translate", "gather"])
def test_w2_head_columns_at_the_byte_boundary(n):
    # n = 256 builds each head column by one translate, n = 257 by a
    # gather; both are exact bytes of the whole cube and fold to the
    # reference: head rounds 1 and 2 (the lane round and the first dense
    # one) against the clause-by-clause partial sums, every round against
    # the same plan over tuple columns, and the last rounds against
    # honest_round_poly, which is too slow for the head at (L + 1) m >= 27
    rng = random.Random(n)
    L, m = 3, 9
    formula = shaped_formula(rng, ClassTag.G21P, L, n, m)
    table = BooleanTable.from_assignment(rng.sample(range(1, n + 1), 40), m)
    weights = random_weights(rng, m)
    spec = build_w2_summand(formula, P, weights, L)
    plan = compile_plan(spec, table)
    for codes_i, column in zip(spec.codes, plan.head_tables, strict=True):
        assert type(column) is bytes and len(column) == 1 << m
        expected = [1 - table.values[c] for c in codes_i]
        assert list(column) == expected + [0] * ((1 << m) - len(codes_i))
    folder = PlanFolder(plan)
    assert folder._lanes
    as_tuples = dataclasses.replace(plan, head_tables=tuple(map(tuple, plan.head_tables)))
    dense = PlanFolder(as_tuples)
    assert not dense._lanes
    oracle = table_oracle(table)
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        folder.sync(challenges)
        dense.sync(challenges)
        values = folder.round_values(d)
        assert values == dense.round_values(d), i
        if i <= 2:
            assert values_at(values, d) == head_round_reference(
                formula, L, table, weights, challenges, d
            ), i
        if i > spec.num_vars - 3:
            reference = honest_round_poly(spec, oracle, challenges, i).padded(d)
            assert values == [c.value for c in reference.coeffs], i
        challenges += (rng.randrange(P),)


def test_a_sparse_w1_head_of_bytes_columns_takes_the_sparse_phase():
    # 255 clauses at m = 8 over 100 variables, 3 of them true: each bytes
    # column is nonzero only at the clauses touching a true variable, at
    # least 15/16 zeros, so the head folds over its nonzero entries first
    rng = random.Random(8)
    n, m = 100, 8
    clauses = tuple(tuple(-v for v in rng.sample(range(1, n + 1), 2)) for _ in range(255))
    formula = WeightedFormula(n, clauses, ClassTag.G12N, 3, m)
    table = BooleanTable.from_assignment(rng.sample(range(1, n + 1), 3), m)
    spec = build_w1_summand(formula, P, random_weights(rng, m))
    plan = compile_plan(spec, table)
    assert all(type(t) is bytes for t in plan.head_tables)
    phases = expected_phases(plan.head_tables)
    assert phases[0]
    as_tuples = dataclasses.replace(plan, head_tables=tuple(map(tuple, plan.head_tables)))
    a, b = PlanFolder(plan), PlanFolder(as_tuples)
    challenges = ()
    for i in range(m):
        a.sync(challenges)
        b.sync(challenges)
        assert a._sparse == b._sparse == phases[i] and not a._lanes, i
        assert a.round_values(3) == b.round_values(3), i
        challenges += (rng.randrange(P),)
