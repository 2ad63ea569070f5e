"""Differential tests of the eq-table kernels against per-clause references.

The clause indicator and the prover's tail tables are evaluated through
2^m eq tables and code arrays; here they are checked against the
definition sum_c chi_c(z) * chi_{v_i(c)}(x), computed clause by clause, and
the folded round values and the table-committed prover's round polynomials
(coefficients from the cached node inverse) against ``honest_round_poly``.  Formulas are small,
carry dummy clause codes (num_clauses < 2^m) and short clauses that repeat
their last variable up to the padded length L.  The split kernels are checked
on both sides of their width threshold: ``_tensor`` against plain doubling,
the clause indicator at pinned m = 4..9 with clauses in many rows, and a fold
whose head declares a weight tensor against the same plan with the tensor as
a plain head table.  The compiled plans' head proxies are checked against
their tails' cube sums, the contract the folder takes the tail sums from.
"""

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
    mle_eval,
)
from ppcplab.field import FieldElement, PrimeField, UniPoly
from ppcplab.formula import ClassTag, WeightedFormula, derived_m
from ppcplab.sumcheck import PlanFolder, TableCommittedProver, honest_round_poly

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


def random_weights(rng, m):
    return [rng.randrange(FLD.modulus) for _ in range(m)]


def clause_spec(formula, L, weights):
    if formula.class_tag is ClassTag.G12N:
        return build_w1_summand(formula, FLD, weights)
    return build_w2_summand(formula, FLD, weights, L)


def random_spec(formula, L, rng):
    """Clause-product summand over a random assignment table and weights."""
    m = formula.m
    table = BooleanTable(m, tuple(rng.randrange(2) for _ in range(1 << m)))
    return clause_spec(formula, L, random_weights(rng, m)), table


def table_oracle(table):
    return lambda q: mle_eval(table, q)


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
    plan = compile_plan(spec, table)
    z_star = random_point(rng, m)
    tails = plan.build_tails(z_star)
    assert len(tails) == plan.num_tails == L
    for position, (ctab, factor) in enumerate(tails, start=1):
        for x in range(1 << m):
            cube_x = tuple(FLD(b) for b in code_bits(x, m))
            assert ctab[x] == indicator_reference(formula, position, z_star, cube_x).value
        negated = formula.class_tag is ClassTag.G12N
        assert factor == [v if negated else 1 - v for v in table.values]


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
        extension = sum((chi(c, z_star) * v for c, v in enumerate(proxy)), FLD.zero)
        cube_sum = sum(math.prod(column) for column in zip(*tail)) % FLD.modulus
        assert extension.value == cube_sum


@given(padded_formulas(max_vars=4, max_clauses=3, max_len=3), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_round_values_match_honest_round_poly(case, seed):
    formula, L = case
    assume((L + 1) * formula.m <= 8)
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    folder = PlanFolder(compile_plan(spec, table))
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        folder.sync(challenges)
        reference = honest_round_poly(spec, table_oracle(table), challenges, i)
        assert folder.round_values(d) == [reference.evaluate(FLD(t)).value for t in range(d + 1)]
        challenges += (FLD(rng.randrange(FLD.modulus)),)


@given(padded_formulas(max_vars=4, max_clauses=3, max_len=3), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_kept_steps_never_outlive_a_reset(case, seed):
    # round_values keeps its lo halves and steps for the next bind; a sync
    # that changes the prefix resets the folder, and the kept lists with it
    formula, L = case
    assume((L + 1) * formula.m <= 8)
    rng = random.Random(seed)
    spec, table = random_spec(formula, L, rng)
    folder = PlanFolder(compile_plan(spec, table))
    prefix = ()
    for _ in range(6):
        if rng.randrange(2) and len(prefix) < spec.num_vars - 1:
            # the next round, or a later one (a bind with nothing kept)
            extra = min(rng.randint(1, 2), spec.num_vars - 1 - len(prefix))
            prefix += random_point(rng, extra)
        else:
            # a different prefix of any length: reset, then bind it afresh
            prefix = random_point(rng, rng.randrange(spec.num_vars))
        i = len(prefix) + 1
        d = spec.degree_bounds[i - 1]
        folder.sync(prefix)
        reference = honest_round_poly(spec, table_oracle(table), prefix, i)
        assert folder.round_values(d) == [reference.evaluate(FLD(t)).value for t in range(d + 1)]


@st.composite
def small_specs(draw):
    """(kind, spec, table) with at most 8 sum-check variables: W1 at L = 2, W2
    at L = 1..5 (L may exceed the longest clause) and weight summands with
    and without a block table."""
    kind = draw(st.sampled_from(["w1", "w2", "weight"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "weight":
        m = draw(st.integers(1, 6))
        table = BooleanTable(m, tuple(rng.randrange(2) for _ in range(1 << m)))
        block = draw(st.sampled_from([None, tuple(rng.randrange(2) for _ in range(1 << m))]))
        block_table = None if block is None else BooleanTable(m, block)
        spec = build_weight_summand(m, FLD, block_table)
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
    spec, table = random_spec(formula, L, rng)
    return kind, spec, table


@given(small_specs(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_table_prover_round_poly_matches_honest_round_poly(case, seed):
    _, spec, table = case
    rng = random.Random(seed)
    prover = TableCommittedProver(table)
    prover.begin_sumcheck(spec, FLD.zero)
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        poly = prover.round_poly(i, challenges, FLD.zero)
        reference = honest_round_poly(spec, table_oracle(table), challenges, i).padded(d)
        assert type(poly) is UniPoly and poly.bound == d and len(poly.coeffs) == d + 1
        assert all(type(c) is FieldElement and type(c.value) is int for c in poly.coeffs)
        assert [c.value for c in poly.coeffs] == [c.value for c in reference.coeffs]
        challenges += (FLD(rng.randrange(FLD.modulus)),)


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
    prover.begin_sumcheck(spec, FLD.zero)
    challenges = ()
    for i in range(1, spec.num_vars + 1):
        d = spec.degree_bounds[i - 1]
        poly = prover.round_poly(i, challenges, FLD.zero)
        reference = honest_round_poly(spec, table_oracle(table), challenges, i).padded(d)
        assert [c.value for c in poly.coeffs] == [c.value for c in reference.coeffs], i
        challenges += (FLD(rng.randrange(FLD.modulus)),)


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
        return kind, build_weight_summand(m, FLD, block_table), table, n
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
    window = plan.head_window if kind == "weight" else plan.tail_window
    assert window > table.top_code()
    assert (window == 1 << m) if table_kind == "top" else table_kind == "dummy" or window < 1 << m
    if kind != "weight":
        assert window >= n and plan.head_window is None  # the clause codes stay dense
    assert_rounds_match_honest(spec, table, seed)


def test_windowed_round_poly_at_padded_length_5():
    # one variable at m = 2, its code and the dummy code 1 true: window 2 of 4
    formula = WeightedFormula(1, ((1,),), ClassTag.G21P, 1, 2)
    table = BooleanTable.from_true_codes([0, 1], 2)
    spec = build_w2_summand(formula, FLD, (3, 500), 5)
    assert compile_plan(spec, table).tail_window == 2
    assert_rounds_match_honest(spec, table, 5)


@given(pinned_formulas(30), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_windowed_clause_indicator_matches_per_clause_definition(case, seed):
    formula, L = case
    rng = random.Random(seed)
    for position in range(1, L + 1):
        z, x = random_point(rng, formula.m), random_point(rng, formula.m)
        expected = indicator_reference(formula, position, z, x)
        assert clause_indicator_eval(formula, position, z, x) == expected


@st.composite
def windowed_plans(draw):
    """(windowed plan, the same plan without windows): random factor tables,
    each constant past its block's window; unlike the summands' plans, whose
    constant products are 0, the constants here are random.  The head
    proxies are random too, not the tails' summed-out sums, so the test
    compares two folders of one plan; the compiled plans' proxies are
    checked against their tails in ``test_compiled_head_proxies_are_tail_sums``."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    block_vars = draw(st.integers(1, 4))
    size = 1 << block_vars
    head_window = 1 << draw(st.integers(0, block_vars))
    tail_window = 1 << draw(st.integers(0, block_vars))
    num_tails = draw(st.integers(0, 2))

    def table(window):
        const = rng.randrange(FLD.modulus)
        return [rng.randrange(FLD.modulus) for _ in range(window)] + [const] * (size - window)

    head = tuple(tuple(table(head_window)) for _ in range(draw(st.integers(1, 3)) + num_tails))
    tails = [[table(tail_window) for _ in range(draw(st.integers(1, 3)))] for _ in range(num_tails)]
    build_tails = (lambda z_star: tails) if num_tails else None
    common = dict(field=FLD, block_vars=block_vars, head_tables=head,
                  num_standalone=len(head) - num_tails, build_tails=build_tails)
    windowed = ProductPlan(**common, head_window=head_window, tail_window=tail_window)
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
        challenges += (FLD(rng.randrange(FLD.modulus)),)


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
    for p in (FLD.modulus, 2**61 - 1):
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
        for position in range(1, L + 2 if tag is ClassTag.G21P else 3):
            z, x = random_point(rng, m), random_point(rng, m)
            expected = indicator_reference(formula, position, z, x)
            assert clause_indicator_eval(formula, position, z, x) == expected


@st.composite
def weight_tensor_plans(draw):
    """(plan that declares the weight tensor beside its head tables, the same
    plan with the explicit tensor as standalone head table 0 and no
    declaration): random nonzero weights, other head tables and tails at
    random, tails constant past a random window with random constants.  The
    head proxies are random, not the tails' summed-out sums, so the test
    compares two folders of one plan; ``test_compiled_head_proxies_are_tail_sums``
    checks the compiled plans' proxies."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    block_vars = draw(st.integers(1, 4))
    size = 1 << block_vars
    tail_window = 1 << draw(st.integers(0, block_vars))
    num_tails = draw(st.integers(0, 2))
    weights = tuple(rng.randrange(1, FLD.modulus) for _ in range(block_vars))
    tensor = [1] * size
    for c in range(size):
        for j, bit in enumerate(code_bits(c, block_vars)):
            tensor[c] = tensor[c] * (weights[j] if bit else 1) % FLD.modulus

    def table(window):
        const = rng.randrange(1, FLD.modulus)
        return [rng.randrange(FLD.modulus) for _ in range(window)] + [const] * (size - window)

    # standalone tables besides the weight tensor, then one proxy per tail
    standalone = draw(st.integers(0 if num_tails else 1, 2))
    head = tuple(tuple(table(size)) for _ in range(standalone + num_tails))
    tails = [[table(tail_window) for _ in range(draw(st.integers(1, 3)))] for _ in range(num_tails)]
    build_tails = (lambda z_star: tails) if num_tails else None
    common = dict(field=FLD, block_vars=block_vars, build_tails=build_tails, tail_window=tail_window)
    declared = ProductPlan(**common, head_tables=head, num_standalone=standalone, head_weights=weights)
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
        # the product's own degree (q extrapolated once), one more than it
        # (twice), and one less (no extrapolation)
        for degree in (head_degree, head_degree + 1, max(head_degree - 1, 1)):
            assert a.round_values(degree) == b.round_values(degree)
        challenges += (FLD(rng.randrange(FLD.modulus)),)


def test_weight_tensor_head_needs_a_whole_cube_head_with_one_weight_per_variable():
    head = ((1, 1, 1, 1),)
    ProductPlan(FLD, 2, head, 1, head_weights=(2, 3))
    for bad in (dict(head_weights=(2,)), dict(head_weights=(2, 3), head_window=2)):
        with pytest.raises(ValueError):
            ProductPlan(FLD, 2, head, 1, **bad)
    with pytest.raises(ValueError):
        ProductPlan(FLD, 2, (), 0, head_weights=(2, 3))
