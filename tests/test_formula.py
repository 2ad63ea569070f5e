import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ppcplab.arithmetize import build_w1_summand
from ppcplab.formula import (
    Assignment,
    AwsatInstance,
    ClassTag,
    GuardError,
    PwsatParseError,
    WeightedFormula,
    _clause_problem,
    brute_force_awsat,
    brute_force_wsat,
    derived_m,
    eval_clause,
    parse_awsat,
    parse_pwsat,
    render_awsat,
    render_pwsat,
    satisfies,
    simplify,
)
from ppcplab.reductions import gen_random, gen_random_awsat


class TestParse:
    def test_basic_g12n(self):
        f = parse_pwsat("p pwsat g12n 3 2 1\n-1 -2 0\n-1 -3 0\n")
        assert f.num_vars == 3
        assert f.num_clauses == 2
        assert f.k == 1
        assert f.m == 2
        assert f.class_tag is ClassTag.G12N

    def test_class_violation_positive_literal(self):
        with pytest.raises(PwsatParseError) as err:
            parse_pwsat("p pwsat g12n 2 1 1\n1 -2 0\n")
        assert err.value.line_no == 2

    def test_g21p_long_clause(self):
        f = parse_pwsat("p pwsat g21p 3 1 2\n1 2 3 0\n")
        assert f.class_tag is ClassTag.G21P
        assert f.clauses == ((1, 2, 3),)

    def test_comments_and_blank_lines(self):
        f = parse_pwsat("c hello\n\np pwsat g12n 2 1 1\nc mid\n-1 -2 0\n")
        assert f.num_clauses == 1

    def test_literal_out_of_range(self):
        with pytest.raises(PwsatParseError) as err:
            parse_pwsat("p pwsat g12n 2 1 1\n-1 -5 0\n")
        assert "out of range" in str(err.value)

    def test_missing_terminator(self):
        with pytest.raises(PwsatParseError):
            parse_pwsat("p pwsat g12n 2 1 1\n-1 -2\n")

    def test_malformed_header(self):
        with pytest.raises(PwsatParseError):
            parse_pwsat("p pwsat g12n 2 1\n")
        with pytest.raises(PwsatParseError):
            parse_pwsat("p pwsat g99 2 1 1\n-1 -2 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(PwsatParseError):
            parse_pwsat("p pwsat g12n 2 2 1\n-1 -2 0\n")

    def test_block_line_rejected_in_plain_pwsat(self):
        with pytest.raises(PwsatParseError):
            parse_pwsat("p pwsat g12n 2 1 1\nb 1 1 1 2 0\n-1 -2 0\n")

    def test_too_long_g12n_clause(self):
        with pytest.raises(PwsatParseError):
            parse_pwsat("p pwsat g12n 3 1 1\n-1 -2 -3 0\n")


# (class, num_vars, clause): each breaks one part of the clause rule
BAD_CLAUSES = {
    "empty": (ClassTag.G21P, 2, ()),
    "out_of_range": (ClassTag.G12N, 2, (-1, -5)),
    "g12n_too_long": (ClassTag.G12N, 3, (-1, -2, -3)),
    "g12n_positive": (ClassTag.G12N, 2, (1, -2)),
    "g21p_negative": (ClassTag.G21P, 2, (1, -2)),
}


@pytest.mark.parametrize("tag, n, clause", BAD_CLAUSES.values(), ids=BAD_CLAUSES.keys())
def test_parser_and_data_model_share_one_clause_rule(tag, n, clause):
    with pytest.raises(ValueError) as built:
        WeightedFormula(n, (clause,), tag, 1)
    text = f"p pwsat {tag.value} {n} 1 1\n" + " ".join(map(str, clause + (0,))) + "\n"
    with pytest.raises(PwsatParseError) as parsed:
        parse_pwsat(text)
    assert parsed.value.line_no == 2
    assert str(parsed.value) == f"line 2: {built.value}"



# each turns a valid clause of the class over num_vars variables into a bad one
# (a list is no fault: it is stored as a tuple)
CLAUSE_FAULTS = {
    "empty": lambda draw, tag, n, cl: (),
    "zero": lambda draw, tag, n, cl: cl[:-1] + (0,),
    "beyond": lambda draw, tag, n, cl: cl[:-1] + ((1 if tag is ClassTag.G21P else -1)
                                                 * draw(st.integers(n + 1, n + 3)),),
    "wrong_sign": lambda draw, tag, n, cl: cl[:-1] + (-cl[-1],),
    "g12n_three": lambda draw, tag, n, cl: (-1, -1, -min(2, n)) if tag is ClassTag.G12N else cl,
    "list": lambda draw, tag, n, cl: list(cl),
}


@st.composite
def clause_lists(draw):
    """(class, num_vars, clauses): valid clauses of the class, with a
    planted fault from CLAUSE_FAULTS at each of up to two random indices."""
    tag = draw(st.sampled_from(ClassTag))
    n = draw(st.integers(1, 6))
    sign, top = (-1, 2) if tag is ClassTag.G12N else (1, 4)
    literal = st.integers(1, n).map(lambda v: sign * v)
    valid = draw(st.lists(st.lists(literal, min_size=1, max_size=top).map(tuple), max_size=8))
    clauses = list(valid)
    if valid:
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(valid) - 1))
            fault = CLAUSE_FAULTS[draw(st.sampled_from(sorted(CLAUSE_FAULTS)))]
            clauses[at] = fault(draw, tag, n, valid[at])
    return tag, n, clauses


@given(clause_lists())
@settings(max_examples=250)
def test_whole_formula_check_names_the_first_bad_clause(case):
    tag, n, clauses = case
    walk = (_clause_problem(tuple(cl), n, tag) for cl in clauses)
    first = next((problem for problem in walk if problem is not None), None)
    if first is not None:
        with pytest.raises(ValueError) as err:
            WeightedFormula(n, clauses, tag, 1)
        assert str(err.value) == first
        return
    f = WeightedFormula(n, clauses, tag, 1)
    as_tuples = tuple(map(tuple, clauses))
    reference = WeightedFormula(n, as_tuples, tag, 1)
    assert f.clauses == as_tuples
    assert f.m == derived_m(n, len(clauses))
    assert f.max_clause_len == max(map(len, as_tuples), default=1)
    assert f == reference and hash(f) == hash(reference)


class TestAwsatParse:
    TEXT = "p pwsat g12n 4 1 3\nb 1 1 1 0\nb 2 1 2 3 0\nb 3 1 4 0\n-2 -4 0\n"

    def test_basic(self):
        inst = parse_awsat(self.TEXT)
        assert inst.l == 3
        assert inst.blocks == ((1,), (2, 3), (4,))
        assert inst.block_weights == (1, 1, 1)

    def test_coverage_error(self):
        bad = "p pwsat g12n 4 0 2\nb 1 1 1 0\nb 2 1 2 3 0\n"
        with pytest.raises(PwsatParseError):
            parse_awsat(bad)

    def test_weight_sum_mismatch(self):
        bad = "p pwsat g12n 2 0 2\nb 1 1 1 0\nb 2 0 2 0\n"
        with pytest.raises(PwsatParseError):
            parse_awsat(bad)

    def test_wrong_class(self):
        bad = "p pwsat g21p 2 1 1\nb 1 1 1 2 0\n1 2 0\n"
        with pytest.raises(PwsatParseError):
            parse_awsat(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p pwsat g12n 2 0 2\nb 1 1 1 0\nb 2 0 2 0\n", "block weights sum to 1, header k=2"),
            ("p pwsat g12n 2 0 1\n", "awsat instance declares no blocks"),
            ("p pwsat g12n 2 0 0\nb 1 1 1 0\nb 2 -1 2 0\n", "block weights must be nonnegative"),
            ("p pwsat g12n 2 0 1\nb 1 1 1 0\nb 3 0 2 0\n", "block indices must be contiguous from 1"),
        ],
        ids=["weight_sum", "no_blocks", "negative_weight", "gap"],
    )
    def test_block_rules_report_at_the_last_line(self, text, message):
        # the block rules live in AwsatInstance; the parser reports them
        with pytest.raises(PwsatParseError) as err:
            parse_awsat(text)
        assert str(err.value) == f"line {text.count(chr(10))}: {message}"

    def test_roundtrip(self):
        inst = parse_awsat(self.TEXT)
        assert parse_awsat(render_awsat(inst)) == inst


class TestRoundTrip:
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8),
           ncl=st.integers(0, 6), k=st.integers(0, 4))
    @settings(max_examples=80)
    def test_parse_render_identity_g12n(self, seed, n, ncl, k):
        f = gen_random(n, ncl, k, seed, ClassTag.G12N)
        assert parse_pwsat(render_pwsat(f)) == f

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 6), ncl=st.integers(0, 5))
    @settings(max_examples=60)
    def test_parse_render_identity_g21p(self, seed, n, ncl):
        f = gen_random(n, ncl, 1, seed, ClassTag.G21P)
        assert parse_pwsat(render_pwsat(f)) == f


class TestEvalClause:
    F = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
    P = WeightedFormula(2, ((1, 2),), ClassTag.G21P, 1)

    def test_one_true(self):
        assert eval_clause(self.F, 0, Assignment(frozenset({1})))

    def test_both_true_fails(self):
        assert not eval_clause(self.F, 0, Assignment(frozenset({1, 2})))

    def test_positive_clause_all_false(self):
        assert not eval_clause(self.P, 0, Assignment(frozenset()))

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            eval_clause(self.F, 5, Assignment(frozenset()))


class TestBruteForce:
    def test_yes_with_witness(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
        decision, witness = brute_force_wsat(f)
        assert decision
        assert witness.weight == 1
        assert satisfies(f, witness)

    def test_no(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 2)
        decision, witness = brute_force_wsat(f)
        assert not decision and witness is None

    def test_zero_clause_weight_zero(self):
        f = WeightedFormula(1, (), ClassTag.G12N, 0)
        decision, witness = brute_force_wsat(f)
        assert decision and witness.weight == 0

    def test_guard(self):
        f = WeightedFormula(25, (), ClassTag.G12N, 1)
        with pytest.raises(GuardError):
            brute_force_wsat(f)


class TestSatisfiesMatchesEvalClause:
    def test_exhaustive_small(self):
        # every formula over <= 4 vars with <= 2 clauses drawn from a pool
        pool = [(-1, -2), (-2, -3), (-3, -4), (-1, -4), (-2,)]
        for cls in itertools.combinations_with_replacement(pool, 2):
            f = WeightedFormula(4, cls, ClassTag.G12N, 1)
            for bits in itertools.product((0, 1), repeat=4):
                a = Assignment(frozenset(i + 1 for i in range(4) if bits[i]))
                per_clause = all(eval_clause(f, i, a) for i in range(f.num_clauses))
                assert satisfies(f, a) == per_clause

    def test_exhaustive_small_g21p(self):
        # formulas of up to 3 positive clauses of length 1..3 over 5 vars
        pool = [(1,), (5,), (1, 2), (2, 4), (3, 5), (1, 3, 5), (2, 3, 4)]
        for cls in itertools.combinations_with_replacement(pool, 3):
            f = WeightedFormula(5, cls, ClassTag.G21P, 1)
            for bits in itertools.product((0, 1), repeat=5):
                a = Assignment(frozenset(i + 1 for i in range(5) if bits[i]))
                per_clause = all(eval_clause(f, i, a) for i in range(f.num_clauses))
                assert satisfies(f, a) == per_clause


class TestSimplify:
    F = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)

    def test_false_removes_clause(self):
        out = simplify(self.F, {1: False})
        assert out.num_clauses == 0

    def test_true_doubles_unit(self):
        out = simplify(self.F, {1: True})
        assert out.clauses == ((-2,),)
        assert out.k == 0

    def test_unit_clause_codes_match_the_repeated_pair(self):
        # the W1 statement pads a one-literal clause with its last literal,
        # so it reads as the (l, l) pair simplify once wrote out
        f = WeightedFormula(4, ((-1, -2), (-3, -4), (-1, -4)), ClassTag.G12N, 2)
        out = simplify(f, {1: True})
        assert out.clauses == ((-2,), (-3, -4), (-4,))
        paired = WeightedFormula(4, ((-2, -2), (-3, -4), (-4, -4)), ClassTag.G12N, 1, m=out.m)
        weights = (3, 5)
        assert build_w1_summand(out, 97, weights).codes == build_w1_summand(paired, 97, weights).codes

    def test_both_true_unsat(self):
        assert simplify(self.F, {1: True, 2: True}) is None

    def test_preserves_m(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1, m=4)
        out = simplify(f, {1: False})
        assert out.m == 4

    def test_g21p_literal_drop(self):
        f = WeightedFormula(3, ((1, 2, 3),), ClassTag.G21P, 1)
        out = simplify(f, {1: False})
        assert out.clauses == ((2, 3),)
        assert simplify(f, {2: True}).num_clauses == 0
        assert simplify(f, {1: False, 2: False, 3: False}) is None

    def test_preserves_satisfaction_exhaustive(self):
        pool = [(-1, -2), (-2, -3), (-3, -4), (-1,)]
        for cls in itertools.combinations_with_replacement(pool, 2):
            f = WeightedFormula(4, cls, ClassTag.G12N, 2)
            for fixed_var, fixed_val in ((1, True), (1, False), (3, True)):
                out = simplify(f, {fixed_var: fixed_val})
                for bits in itertools.product((0, 1), repeat=4):
                    trues = {i + 1 for i in range(4) if bits[i]}
                    consistent = (fixed_var in trues) == fixed_val
                    if not consistent:
                        continue
                    a = Assignment(frozenset(trues))
                    original = satisfies(f, a)
                    reduced = False if out is None else satisfies(out, a)
                    assert original == reduced


class TestWeightedFormulaValidation:
    def test_explicit_m_below_derived_rejected(self):
        with pytest.raises(ValueError):
            WeightedFormula(5, (), ClassTag.G12N, 1, m=2)

    def test_derived_m_floor(self):
        assert derived_m(1, 0) == 1
        assert WeightedFormula(1, (), ClassTag.G12N, 0).m == 1

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            WeightedFormula(2, ((),), ClassTag.G12N, 1)

    def test_max_clause_len(self):
        assert WeightedFormula(3, (), ClassTag.G21P, 1).max_clause_len == 1
        assert WeightedFormula(4, ((1,), (1, 2, 4), (3, 4)), ClassTag.G21P, 1).max_clause_len == 3

    def test_hash_follows_equality(self):
        f = WeightedFormula(3, [[1, 2], [3]], ClassTag.G21P, 1, m=4)
        assert hash(f) == hash(WeightedFormula(3, ((1, 2), (3,)), ClassTag.G21P, 1, m=4))
        assert hash(f) != hash(WeightedFormula(3, ((1, 2), (3,)), ClassTag.G21P, 1, m=5))


class TestBruteForceAwsat:
    def test_l1_degenerates_to_wsat(self):
        for seed in range(50):
            f = gen_random(5, 4, 2, seed, ClassTag.G12N)
            inst = AwsatInstance(f, (tuple(range(1, 6)),), (2,))
            assert brute_force_awsat(inst) == brute_force_wsat(f)[0]

    def test_hand_expanded_example(self):
        # exists x1, forall one of {2,3}, exists x4, clause (~x2 | ~x4):
        # the branch choosing x2 falsifies the clause, so the value is False
        f = WeightedFormula(4, ((-2, -4),), ClassTag.G12N, 3)
        inst = AwsatInstance(f, ((1,), (2, 3), (4,)), (1, 1, 1))
        expected = all(
            any(
                satisfies(f, Assignment(frozenset({1, u, 4})))
                for _ in [0]
            )
            for u in (2, 3)
        )
        assert brute_force_awsat(inst) == expected
        assert brute_force_awsat(inst) is False

    def test_zero_clauses_feasible_weights(self):
        f = WeightedFormula(4, (), ClassTag.G12N, 2)
        inst = AwsatInstance(f, ((1, 2), (3, 4)), (1, 1))
        assert brute_force_awsat(inst) is True

    def test_guard(self):
        f = WeightedFormula(30, (), ClassTag.G12N, 15)
        inst = AwsatInstance(f, (tuple(range(1, 31)),), (15,))
        with pytest.raises(GuardError):
            brute_force_awsat(inst)

    def test_generated_instances_run(self):
        for seed in range(10):
            inst = gen_random_awsat(6, (2, 2, 2), (1, 1, 1), 3, seed)
            assert brute_force_awsat(inst) in (True, False)


class TestAwsatInstanceValidation:
    def test_partition_enforced(self):
        f = WeightedFormula(3, (), ClassTag.G12N, 1)
        with pytest.raises(ValueError):
            AwsatInstance(f, ((1, 2),), (1,))

    def test_weights_must_sum_to_k(self):
        f = WeightedFormula(2, (), ClassTag.G12N, 2)
        with pytest.raises(ValueError):
            AwsatInstance(f, ((1, 2),), (1,))

    def test_weight_fn(self):
        assert Assignment(frozenset({1, 5})).weight == 2
