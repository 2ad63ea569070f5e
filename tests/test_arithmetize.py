import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ppcplab.arithmetize import (
    BooleanTable,
    build_w1_summand,
    build_w2_summand,
    build_weight_summand,
    clause_indicator_eval,
    code_bits,
    mle_eval,
    read_points,
    summand_value,
)
from ppcplab.field import PrimeField, interpolate
from ppcplab.formula import Assignment, ClassMismatchError, ClassTag, WeightedFormula, eval_clause
from ppcplab.sumcheck import RandomTape


P = 109
F109 = PrimeField(P)  # the field of the reference interpolation


def cube_points(q):
    for mask in range(1 << q):
        yield tuple((mask >> (q - 1 - j)) & 1 for j in range(q))


def evaluate(spec, oracle, point):
    """The summand at ``point``, reading ``oracle`` where the statement says."""
    return summand_value(spec, point, [oracle(q) for q in read_points(spec, point)])


def cube_sum(spec, oracle):
    return sum(evaluate(spec, oracle, pt) for pt in cube_points(spec.num_vars)) % spec.p


def draw_weights(p, m, seed):
    tape = RandomTape(seed)
    return [tape.draw_int(p) for _ in range(m)]


def position_codes(f, position):
    """The code array of a 1-based position in f's negated-2-CNF statement."""
    return build_w1_summand(f, P, [0] * f.m).codes[position - 1]


def weight_at(weights, z, p=P):
    """Multilinear extension of the clause weight prod_j r_j^{z_j} at z."""
    acc = 1
    for zj, r in zip(z, weights):
        acc = acc * (1 - zj + r * zj) % p
    return acc


def oracle_from_table(table, p=P):
    return lambda point: mle_eval(table, point, p)


def mle_reference(table, point, p):
    """The per-coordinate product definition: over every 1-cell, the product
    of x_j or 1 - x_j by its bits, reduced at each step."""
    total = 0
    for code, v in enumerate(table.values):
        if v:
            acc = 1
            for bit, x in zip(code_bits(code, table.arity), point):
                acc = acc * (x if bit else 1 - x) % p
            total = (total + acc) % p
    return total


PRIMES = st.sampled_from([2, 3, 109, 1009, 2**61 - 1])


@st.composite
def tables_and_points(draw):
    """Random tables at m = 1..6, all-zero and all-one among them, with a
    random point over a small or a large prime."""
    m = draw(st.integers(1, 6))
    fill = draw(st.sampled_from(["zero", "one", "random"]))
    if fill == "random":
        values = draw(st.lists(st.integers(0, 1), min_size=1 << m, max_size=1 << m))
    else:
        values = [int(fill == "one")] * (1 << m)
    p = draw(PRIMES)
    point = tuple(draw(st.integers(0, p - 1)) for _ in range(m))
    return BooleanTable(m, tuple(values)), point, p


def collinear(vals, p=P):
    return (vals[2] - vals[1]) % p == (vals[1] - vals[0]) % p


class TestMleEval:
    @given(tables_and_points())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_coordinate_definition(self, case):
        table, point, p = case
        got = mle_eval(table, point, p)
        assert type(got) is int and 0 <= got < p
        assert got == mle_reference(table, point, p)

    @given(n=st.integers(0, 1 << 12), p=PRIMES, seed=st.integers(0, 2**32))
    @settings(max_examples=12, deadline=None)
    def test_real_variable_block_at_m12(self, n, p, seed):
        # the verifier's weight-stage block: codes 0..n-1 of the 12-cube
        table = BooleanTable.from_true_codes(range(n), 12)
        rng = random.Random(seed)
        point = tuple(rng.randrange(p) for _ in range(12))
        assert mle_eval(table, point, p) == mle_reference(table, point, p)

    def test_single_variable_example(self):
        table = BooleanTable(1, (1, 0))
        assert mle_eval(table, (2,), 5) == 4  # 1*(1-2) mod 5

    def test_agrees_on_boolean_points(self):
        table = BooleanTable(3, (0, 1, 1, 0, 1, 0, 0, 1))
        for pt in cube_points(3):
            code = sum(pt[j] << (2 - j) for j in range(3))
            assert mle_eval(table, pt, P) == table.values[code]

    def test_all_ones_table_constant(self):
        table = BooleanTable(2, (1, 1, 1, 1))
        for vals in ((7, 9), (0, 64), (33, 33)):
            assert mle_eval(table, vals, P) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            mle_eval(BooleanTable(2, (0, 0, 0, 1)), (1,), P)

    def test_table_and_complement_sum_to_one(self):
        # the extensions of a table and of its complement add up to the
        # extension of the all-ones table, which is 1 everywhere
        sparse = BooleanTable.from_true_codes([5], 4)
        dense = BooleanTable.from_true_codes(
            [c for c in range(16) if c != 5], 4
        )
        tape = RandomTape(3)
        for _ in range(50):
            pt = tuple(tape.draw_int(109) for _ in range(4))
            assert (mle_eval(sparse, pt, P) + mle_eval(dense, pt, P)) % P == 1

    def test_multilinear_exhaustive_small(self):
        # along every axis three points must be collinear
        for q in (1, 2, 3):
            table = BooleanTable.from_true_codes(range(0, 1 << q, 2), q)
            for axis in range(q):
                base = [7 + 3 * j for j in range(q)]
                vals = []
                for t in (0, 1, 2):
                    pt = list(base)
                    pt[axis] = t
                    vals.append(mle_eval(table, tuple(pt), P))
                assert collinear(vals)

    @given(seed=st.integers(0, 10**6), q=st.integers(2, 8))
    @settings(max_examples=40)
    def test_multilinear_randomized(self, seed, q):
        tape = RandomTape(seed)
        table = BooleanTable(q, tuple(tape.draw_int(2) for _ in range(1 << q)))
        axis = tape.draw_int(q)
        base = [tape.draw_int(109) for _ in range(q)]
        vals = []
        for t in (0, 1, 2):
            pt = list(base)
            pt[axis] = t
            vals.append(mle_eval(table, tuple(pt), P))
        assert collinear(vals)

    def test_uniqueness_equal_tables(self):
        a = BooleanTable(3, (1, 0, 0, 1, 0, 1, 1, 0))
        b = BooleanTable.from_true_codes([0, 3, 5, 6], 3)
        tape = RandomTape(11)
        for _ in range(100):
            pt = tuple(tape.draw_int(109) for _ in range(3))
            assert mle_eval(a, pt, P) == mle_eval(b, pt, P)


class TestClauseIndicator:
    # variable 6 has 0-based code 5 = 101; position-1 factor must be v1(1-v2)v3
    F6 = WeightedFormula(6, ((-6, -1),), ClassTag.G12N, 1)

    def test_indicator_on_matching_booleans(self):
        f = WeightedFormula(3, ((-1, -2), (-1, -3)), ClassTag.G12N, 1)
        m = f.m
        for c in range(f.num_clauses):
            z = code_bits(c, m)
            var_code = abs(f.clauses[c][0]) - 1
            x = code_bits(var_code, m)
            assert clause_indicator_eval(position_codes(f, 1), f.num_vars, z, x, P) == 1

    def test_indicator_zero_on_other_variables(self):
        f = WeightedFormula(3, ((-1, -2),), ClassTag.G12N, 1)
        z = code_bits(0, f.m)
        x = code_bits(2, f.m)  # variable 3, not in position 1
        assert clause_indicator_eval(position_codes(f, 1), f.num_vars, z, x, P) == 0

    def test_restricted_factor_shape_101(self):
        f = self.F6
        assert f.m == 3
        z = code_bits(0, 3)
        for a, b, c in ((2, 3, 5), (10, 0, 1), (7, 7, 7)):
            expected = a * (1 - b) * c % P
            assert clause_indicator_eval(position_codes(f, 1), f.num_vars, z, (a, b, c), P) == expected

    def test_z_and_x_must_have_the_same_width(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
        with pytest.raises(ValueError):
            clause_indicator_eval(position_codes(f, 1), f.num_vars, (0,), (0, 1), P)

    def test_a_statement_carries_one_code_array_per_position(self):
        # g12n pads to L = 2: a unit clause repeats its variable, and every
        # array is a tuple of ints, one code per clause
        f = WeightedFormula(4, ((-1, -3), (-4,), (-2, -4)), ClassTag.G12N, 1)
        assert build_w1_summand(f, P, [0] * f.m).codes == ((0, 3, 1), (2, 3, 3))
        g = WeightedFormula(4, ((1, 3, 2), (4,)), ClassTag.G21P, 1)
        assert build_w2_summand(g, P, [0] * g.m, 4).codes == ((0, 3), (2, 3), (1, 3), (1, 3))

    def test_unit_clause_padding_repeats_variable(self):
        f = WeightedFormula(2, ((-2,),), ClassTag.G12N, 1)
        z = (0,)
        x = (1,)  # code of variable 2
        assert clause_indicator_eval(position_codes(f, 1), f.num_vars, z, x, P) == 1
        assert clause_indicator_eval(position_codes(f, 2), f.num_vars, z, x, P) == 1


class TestW1Summand:
    def test_matching_boolean_point_value(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 2)
        m = f.m
        weights = draw_weights(P, m, 5)
        table = BooleanTable.from_assignment({1, 2}, m)
        spec = build_w1_summand(f, P, weights)
        z = code_bits(0, m)
        x1 = code_bits(0, m)
        x2 = code_bits(1, m)
        expected = weight_at(weights, z)  # w(z) * 1 * 1 * 1 * 1
        assert evaluate(spec, oracle_from_table(table), z + x1 + x2) == expected

    def test_satisfying_assignment_sums_to_zero(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
        weights = draw_weights(P, f.m, 9)
        table = BooleanTable.from_assignment({1}, f.m)
        spec = build_w1_summand(f, P, weights)
        assert cube_sum(spec, oracle_from_table(table)) == 0

    def test_violating_assignment_total_is_clause_weight(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 2)
        weights = draw_weights(P, f.m, 42)
        table = BooleanTable.from_assignment({1, 2}, f.m)
        spec = build_w1_summand(f, P, weights)
        z0 = code_bits(0, f.m)
        total = cube_sum(spec, oracle_from_table(table))
        assert total == weight_at(weights, z0)
        assert total != 0

    def test_class_mismatch(self):
        f = WeightedFormula(2, ((1, 2),), ClassTag.G21P, 1)
        with pytest.raises(ClassMismatchError):
            build_w1_summand(f, P, draw_weights(P, f.m, 1))

    def test_unsat_iff_property_exhaustive(self):
        # per clause, sum over (x1, x2) of the indicator product is nonzero
        # exactly when the clause is violated
        pool = [(-1, -2), (-2, -3), (-1, -3), (-2,)]
        for cls in itertools.combinations_with_replacement(pool, 2):
            f = WeightedFormula(3, cls, ClassTag.G12N, 1)
            m = f.m
            for bits in itertools.product((0, 1), repeat=3):
                trues = {i + 1 for i in range(3) if bits[i]}
                table = BooleanTable.from_assignment(trues, m)
                a = Assignment(frozenset(trues))
                codes1, codes2 = position_codes(f, 1), position_codes(f, 2)
                for c in range(f.num_clauses):
                    z = code_bits(c, m)
                    total = 0
                    for x1 in cube_points(m):
                        c1 = clause_indicator_eval(codes1, f.num_vars, z, x1, P) * mle_eval(table, x1, P) % P
                        if c1 == 0:
                            continue
                        for x2 in cube_points(m):
                            total += c1 * clause_indicator_eval(codes2, f.num_vars, z, x2, P) * mle_eval(table, x2, P)
                    assert (total % P == 0) == eval_clause(f, c, a)

    def test_random_weight_separation(self):
        # non-satisfying table: the weighted total misses zero except with
        # probability <= m/p over the weights; empirically <= 2m/p
        f = WeightedFormula(3, ((-1, -2), (-2, -3), (-1, -3)), ClassTag.G12N, 2)
        m = f.m
        table = BooleanTable.from_assignment({1, 2}, m)
        # per-clause violation indicators over the committed table are fixed;
        # only the weights vary per seed
        sc = []
        for c in range(f.num_clauses):
            u, v = (abs(l) - 1 for l in f.clauses[c])
            sc.append(table.values[u] * table.values[v])
        zero_hits = 0
        trials = 10_000
        tape = RandomTape(2024)
        p = P
        for _ in range(trials):
            r = [tape.draw_int(p) for _ in range(m)]
            total = 0
            for c, violated in enumerate(sc):
                if not violated:
                    continue
                w = 1
                for j in range(m):
                    if (c >> (m - 1 - j)) & 1:
                        w = w * r[j] % p
                total = (total + w) % p
            zero_hits += total == 0
        assert zero_hits / trials <= 2 * m / p

    def test_degree_bounds_by_interpolation(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
        m = f.m
        weights = draw_weights(P, m, 77)
        table = BooleanTable.from_assignment({2}, m)
        spec = build_w1_summand(f, P, weights)
        tape = RandomTape(4)
        for var in range(spec.num_vars):
            d = spec.degree_bounds[var]
            others = [tape.draw_int(109) for _ in range(spec.num_vars)]
            samples = []
            for t in range(d + 2):
                pt = list(others)
                pt[var] = t
                samples.append((F109(t), F109(evaluate(spec, oracle_from_table(table), tuple(pt)))))
            poly = interpolate(samples[: d + 1])
            assert poly.evaluate(samples[-1][0]) == samples[-1][1]


class TestW2Summand:
    def test_all_false_assignment_nonzero_at_match(self):
        f = WeightedFormula(2, ((1, 2),), ClassTag.G21P, 1)
        m = f.m
        weights = draw_weights(P, m, 8)
        table = BooleanTable.from_true_codes([], m)
        spec = build_w2_summand(f, P, weights, 2)
        z = code_bits(0, m)
        x1 = code_bits(0, m)
        x2 = code_bits(1, m)
        assert evaluate(spec, oracle_from_table(table), z + x1 + x2) == weight_at(weights, z)

    def test_satisfied_clause_zeroes_all_terms(self):
        f = WeightedFormula(2, ((1, 2),), ClassTag.G21P, 1)
        m = f.m
        weights = draw_weights(P, m, 8)
        table = BooleanTable.from_assignment({1}, m)
        spec = build_w2_summand(f, P, weights, 2)
        assert cube_sum(spec, oracle_from_table(table)) == 0

    def test_padding_invariance(self):
        f = WeightedFormula(2, ((1, 2),), ClassTag.G21P, 1)
        weights = draw_weights(P, f.m, 21)
        for trues in (set(), {1}, {2}, {1, 2}):
            table = BooleanTable.from_assignment(trues, f.m)
            oracle = oracle_from_table(table)
            total2 = cube_sum(build_w2_summand(f, P, weights, 2), oracle)
            total3 = cube_sum(build_w2_summand(f, P, weights, 3), oracle)
            assert total2 == total3

    def test_padded_length_too_small(self):
        f = WeightedFormula(3, ((1, 2, 3),), ClassTag.G21P, 1)
        with pytest.raises(ValueError):
            build_w2_summand(f, P, draw_weights(P, f.m, 1), 2)

    def test_class_mismatch(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
        with pytest.raises(ClassMismatchError):
            build_w2_summand(f, P, draw_weights(P, f.m, 1), 2)


class TestWeightSummand:
    def test_counts_trues(self):
        table = BooleanTable.from_assignment({1}, 2)
        spec = build_weight_summand(2, P)
        assert cube_sum(spec, oracle_from_table(table)) == 1

    def test_block_restriction(self):
        table = BooleanTable.from_assignment({1, 2, 3}, 2)
        block = BooleanTable.from_assignment({2, 3}, 2)
        spec = build_weight_summand(2, P, block)
        assert cube_sum(spec, oracle_from_table(table)) == 2

    def test_empty_assignment(self):
        table = BooleanTable.from_true_codes([], 2)
        spec = build_weight_summand(2, P)
        assert cube_sum(spec, oracle_from_table(table)) == 0

    def test_block_arity_mismatch(self):
        with pytest.raises(ValueError):
            build_weight_summand(2, P, BooleanTable.from_true_codes([], 3))


class TestBooleanTable:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BooleanTable(1, (0, 2))
        with pytest.raises(ValueError):
            BooleanTable(2, (0, 1))

    @pytest.mark.parametrize("entry", [2, -1, 0.5, "1", None, []], ids=repr)
    def test_entries_other_than_0_and_1_raise_value_error(self, entry):
        with pytest.raises(ValueError, match="table entries must be 0 or 1"):
            BooleanTable(2, (0, 1, entry, 1))

    def test_bools_and_float_one_are_entries(self):
        t = BooleanTable(2, (True, False, 1.0, 0))
        assert t.ones() == (0, 2)
        assert type(t.values) is bytes and t.values == bytes((1, 0, 1, 0))
        assert all(type(v) is int for v in t.values)
        values = tuple(random.Random(5).choice((0, 1)) for _ in range(1 << 6))
        assert BooleanTable(6, values).ones() == tuple(c for c, v in enumerate(values) if v)

    @given(st.integers(1, 8).flatmap(
        lambda m: st.lists(st.integers(0, 1), min_size=1 << m, max_size=1 << m)
    ))
    @settings(max_examples=60, deadline=None)
    def test_every_input_form_builds_one_bytes_table(self, entries):
        m = len(entries).bit_length() - 1
        forms = [
            tuple(entries), list(entries), [bool(v) for v in entries],
            [float(v) for v in entries], bytes(entries), bytearray(entries),
        ]
        tables = [BooleanTable(m, form) for form in forms]
        ones = tuple(c for c, v in enumerate(entries) if v)
        for t in tables:
            assert type(t.values) is bytes and t.values == bytes(entries)
            assert t == tables[0] and hash(t) == hash(tables[0])
            assert t.ones() == ones

    def test_a_bytearray_is_copied_and_bytes_are_kept(self):
        raw = bytearray((0, 1, 1, 0))
        t = BooleanTable(2, raw)
        raw[0] = 1
        assert t.values == bytes((0, 1, 1, 0)) and t.ones() == (1, 2)
        frozen = bytes((1, 0, 0, 1))
        assert BooleanTable(2, frozen).values is frozen

    @pytest.mark.parametrize("form", [bytes, bytearray])
    def test_bad_bytes_raise_value_error(self, form):
        # the exact-bytes path checks entries by max and the length after
        for entries in ((0, 1, 2, 1), (255, 0, 0, 0)):
            with pytest.raises(ValueError, match="table entries must be 0 or 1"):
                BooleanTable(2, form(entries))
        for entries in ((), (0, 1, 0), (0,) * 5):
            with pytest.raises(ValueError, match="expected 4 entries"):
                BooleanTable(2, form(entries))

    def test_from_assignment_codes(self):
        t = BooleanTable.from_assignment({1, 3}, 2)
        assert t.values == bytes((1, 0, 1, 0))
        assert t.ones() == (0, 2)

    @pytest.mark.parametrize("codes", [[-1], [4], [0, 7], [1 << 40]])
    def test_codes_outside_the_cube_raise(self, codes):
        with pytest.raises(ValueError, match="outside"):
            BooleanTable.from_true_codes(codes, 2)

    @pytest.mark.parametrize("true_set", [{0}, {5}, {1, 2, 9}])
    def test_variables_outside_the_cube_raise(self, true_set):
        # variable 0 used to set the top code silently; variable 5 raised IndexError
        with pytest.raises(ValueError, match="outside"):
            BooleanTable.from_assignment(true_set, 2)

    def test_top_code(self):
        assert BooleanTable.from_true_codes([], 3).top_code() == -1
        assert BooleanTable.from_true_codes([2, 5, 1], 3).top_code() == 5
