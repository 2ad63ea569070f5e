import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ppcplab.arithmetize import (
    BooleanTable,
    SummandSpec,
    build_w1_summand,
    build_w2_summand,
    build_weight_summand,
    compile_plan,
    mle_eval,
    read_points,
    summand_value,
)
from ppcplab.field import PrimeField, is_prime
from ppcplab.formula import ClassTag, WeightedFormula
from ppcplab.sumcheck import (
    AdaptiveCheater,
    GenericHonestProver,
    PlanFolder,
    RandomGarbageProver,
    RandomTape,
    ResourceMeter,
    TableCommittedProver,
    adaptive_cheater,
    derive_seed,
    honest_round_poly,
    run_sumcheck,
    table_committed_prover,
)

F109 = PrimeField(109)  # the field of the reference polynomials


class ScriptedTape:
    """Tape stand-in that replays a fixed challenge script (values < n assumed)."""

    def __init__(self, values):
        self.values = list(values)
        self.at = 0
        self.bits_drawn = 0
        self.overhead_bits = 0

    def draw_int(self, n):
        v = self.values[self.at]
        self.at += 1
        if n > 1:
            self.bits_drawn += (n - 1).bit_length()
        return v


# Toy summands: a block-free weight statement is the oracle itself, so the
# oracle of a GenericHonestProver is the summand.


def const_zero_spec(p, q=1, bound=1):
    return SummandSpec(q, (bound,) * q, p)


def zero_oracle(pt, p):
    return 0


def product_spec(p):
    # h(x1, x2) = x1 * x2, through product_oracle
    return SummandSpec(2, (1, 1), p)


def product_oracle(pt, p):
    return pt[0] * pt[1] % p


def evaluate(spec, oracle, point):
    """The summand at the residue point ``point``, reading ``oracle`` where
    the statement reads."""
    p = spec.p
    return summand_value(spec, point, [oracle(q, p) for q in read_points(spec, point)])


def table_oracle(table):
    """The residue oracle of a table's multilinear extension."""
    return TableCommittedProver(table).assignment_query


def draw_weights(tape, m):
    return [tape.draw_int(109) for _ in range(m)]


def line_reference(tape, m, p):
    """``RandomTape.draw_line`` from ``draw_int`` calls: the axis, m + 1 field
    draws (the axis's own coordinate dropped, the last one t0), then draws
    until a value new to the axis comes up, for t1 and t2; a repeated value
    counts as overhead."""
    axis = tape.draw_int(m)
    *coords, t0 = [tape.draw_int(p) for _ in range(m + 1)]
    ts = [t0]
    while len(ts) < 3:
        v = tape.draw_int(p)
        if v in ts:
            tape.overhead_bits += (p - 1).bit_length()
        else:
            ts.append(v)
    return tuple(coords[:axis]), tuple(coords[axis + 1 :]), tuple(ts)


PRIMES = [q for q in range(3, 10008) if is_prime(q)]


@st.composite
def table_lines(draw):
    """A table of arity 1..8 with 0..6 true codes, an axis, a point off the
    axis and three axis values, over a prime p in 3..10007."""
    arity = draw(st.integers(1, 8))
    codes = draw(st.lists(st.integers(0, (1 << arity) - 1), max_size=6, unique=True))
    p = draw(st.sampled_from(PRIMES))
    axis = draw(st.integers(0, arity - 1))
    coords = draw(st.lists(st.integers(0, p - 1), min_size=arity - 1, max_size=arity - 1))
    ts = draw(st.lists(st.integers(0, p - 1), min_size=3, max_size=3))
    table = BooleanTable.from_true_codes(codes, arity)
    return table, tuple(coords[:axis]), tuple(coords[axis:]), tuple(ts), p


def indicator_sum(table, point, p):
    """The multilinear extension by its definition: the cube indicators of
    the true codes, summed."""
    m = table.arity
    return sum(
        math.prod([x if (c >> (m - 1 - j)) & 1 else 1 - x for j, x in enumerate(point)])
        for c in table.ones()
    ) % p


class TestRandomTape:
    def test_replay_determinism(self):
        a = RandomTape(42)
        b = RandomTape(42)
        assert [a.draw_int(109) for _ in range(20)] == [b.draw_int(109) for _ in range(20)]
        assert a.bits_drawn == b.bits_drawn

    def test_bit_widths(self):
        tape = RandomTape(0)
        tape.draw_int(8)
        assert tape.bits_drawn == 3
        tape.draw_int(2)
        assert tape.bits_drawn == 4
        assert tape.draw_int(1) == 0
        assert tape.bits_drawn == 4  # single-value draws are free

    def test_rejection_counts_as_overhead(self):
        tape = RandomTape(1)
        for _ in range(200):
            v = tape.draw_int(5)  # width 3, values 5..7 rejected
            assert 0 <= v < 5
        accepted_bits = 200 * 3
        assert tape.bits_drawn == accepted_bits + tape.overhead_bits
        assert tape.overhead_bits > 0

    @given(
        m=st.integers(1, 12),
        p=st.one_of(
            st.just(3),
            st.integers(2, 40).map(lambda w: 1 << w),
            st.integers(1, 40).map(lambda w: (1 << w) + 1),
            st.integers(3, 10**6),
        ),
        seed=st.integers(0, 2**32),
    )
    @example(m=1, p=3, seed=0)
    @example(m=1, p=1009, seed=5)
    @settings(max_examples=300, deadline=None)
    def test_draw_line_is_its_draw_int_reference(self, m, p, seed):
        fast, reference = RandomTape(seed), RandomTape(seed)
        head, tail, ts = fast.draw_line(m, p)
        assert (head, tail, ts) == line_reference(reference, m, p)
        assert len(head) + len(tail) == m - 1 and len(set(ts)) == 3
        assert all(0 <= v < p for v in head + tail + ts)
        assert (fast.bits_drawn, fast.overhead_bits) == (reference.bits_drawn, reference.overhead_bits)
        # and the generator is left where the reference leaves it
        assert fast.draw_int(1 << 32) == reference.draw_int(1 << 32)

    def test_draw_ints_is_k_calls_to_draw_int(self):
        # p = 5 has width 3, so rejections are frequent; the coordinates of
        # the line are m - 1 of the m + 1 draw_int(p) calls after the axis
        for seed in range(50):
            m = 1 + seed % 7
            fast, reference = RandomTape(seed), RandomTape(seed)
            head, tail, (t0, _, _) = fast.draw_line(m, 5)
            axis = reference.draw_int(m)
            draws = [reference.draw_int(5) for _ in range(m + 1)]
            assert head + tail == tuple(draws[:axis] + draws[axis + 1 : m])
            assert t0 == draws[m]
            assert len(head) == axis

    def test_excluding(self):
        # over Z_3 the three distinct axis values are the whole field, and
        # every repeated value drawn on the way is overhead
        for seed in range(100):
            tape = RandomTape(seed)
            _, _, ts = tape.draw_line(2, 3)
            assert sorted(ts) == [0, 1, 2]
            accepted = 1 + (2 + 1 + 2) * 2  # the axis, then m + 1 + 2 field values
            assert tape.bits_drawn == accepted + tape.overhead_bits

    def test_draw_line_needs_a_line(self):
        for m, p in ((0, 109), (3, 2), (3, 1)):
            with pytest.raises(ValueError):
                RandomTape(0).draw_line(m, p)

    def test_monotone_counter(self):
        tape = RandomTape(3)
        last = 0
        for _ in range(50):
            tape.draw_int(109)
            assert tape.bits_drawn >= last
            last = tape.bits_drawn

    def test_derive_seed_distinct_trials(self):
        seeds = {derive_seed(5, t) for t in range(1000)}
        assert len(seeds) == 1000


class TestRunSumcheck:
    def test_zero_spec_true_claim_accepts(self):
        spec = const_zero_spec(109)
        run = run_sumcheck(spec, 0, GenericHonestProver(zero_oracle), RandomTape(1), ResourceMeter())
        assert run.verdict.accepted
        assert run.final_expected == 0
        assert evaluate(spec, zero_oracle, run.final_point) == run.final_expected

    def test_zero_spec_false_claim_rejects_round_one(self):
        spec = const_zero_spec(109)
        run = run_sumcheck(spec, 1, GenericHonestProver(zero_oracle), RandomTape(1), ResourceMeter())
        assert not run.verdict.accepted
        assert run.verdict.rejection_round == 1

    def test_product_spec_accepts_and_g1_is_x(self):
        spec = product_spec(109)
        for seed in range(10):
            run = run_sumcheck(spec, 1, GenericHonestProver(product_oracle), RandomTape(seed), ResourceMeter())
            assert run.verdict.accepted
            assert run.transcripts[0].coeffs == (0, 1)
            assert run.final_point == tuple(t.challenge for t in run.transcripts)
            # caller's final direct evaluation
            assert evaluate(spec, product_oracle, run.final_point) == run.final_expected

    def test_completeness_exhaustive_all_challenges(self):
        spec = product_spec(5)
        for r1, r2 in itertools.product(range(5), repeat=2):
            run = run_sumcheck(spec, 1, GenericHonestProver(product_oracle), ScriptedTape([r1, r2]), ResourceMeter())
            assert run.verdict.accepted
            assert evaluate(spec, product_oracle, run.final_point) == run.final_expected

    def test_malformed_prover_rejected_not_crashed(self):
        class OverlongProver(GenericHonestProver):
            def round_poly(self, i, challenges, claim):
                return (0, 1, 0, 0)  # d=1 expected

        spec = product_spec(109)
        run = run_sumcheck(spec, 1, OverlongProver(product_oracle), RandomTape(0), ResourceMeter())
        assert not run.verdict.accepted
        assert run.verdict.rejection_round == 1

    def test_metering_exact(self):
        spec = product_spec(109)
        tape = RandomTape(5)
        meter = ResourceMeter()
        run_sumcheck(spec, 1, GenericHonestProver(product_oracle), tape, meter)
        assert meter.proof_bits == (1 + 1) * 7 * 2  # (d+1) coeffs per round, 7 bits each
        assert meter.random_bits == tape.bits_drawn
        assert meter.random_bits - tape.overhead_bits == 2 * 7

    def test_replay_determinism(self):
        spec = product_spec(109)
        runs = [
            run_sumcheck(spec, 1, GenericHonestProver(product_oracle), RandomTape(99), ResourceMeter())
            for _ in range(2)
        ]
        assert runs[0].verdict == runs[1].verdict
        assert runs[0].final_point == runs[1].final_point
        assert runs[0].transcripts == runs[1].transcripts

    def test_transcript_running_value_invariant(self):
        spec = product_spec(109)
        run = run_sumcheck(spec, 1, GenericHonestProver(product_oracle), RandomTape(2), ResourceMeter())
        for t in run.transcripts:
            assert sum(c * t.challenge**j for j, c in enumerate(t.coeffs)) % 109 == t.running


class TestHonestRoundPoly:
    def test_constant_spec_round_one(self):
        c = 9
        spec = SummandSpec(3, (1, 1, 1), 109)
        poly = honest_round_poly(spec, lambda pt, p: c, (), 1)
        assert poly.degree <= 0
        assert poly.coeffs[0].value == c * 4 % 109  # c * 2^(q-1)

    def test_identity_spec(self):
        spec = SummandSpec(1, (1,), 109)
        poly = honest_round_poly(spec, lambda pt, p: pt[0], (), 1)
        assert [c.value for c in poly.coeffs] == [0, 1]

    def test_w1_round_one_matches_brute_force_total(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 2)
        tape = RandomTape(42)
        table = BooleanTable.from_assignment({1, 2}, f.m)
        oracle = table_oracle(table)
        spec = build_w1_summand(f, 109, draw_weights(tape, f.m))
        poly = honest_round_poly(spec, oracle, (), 1)
        total = 0
        for mask in range(1 << spec.num_vars):
            pt = tuple((mask >> (spec.num_vars - 1 - j)) & 1 for j in range(spec.num_vars))
            total += evaluate(spec, oracle, pt)
        assert (poly.evaluate(F109(0)).value + poly.evaluate(F109(1)).value) % 109 == total % 109

    def test_prefix_length_validated(self):
        spec = product_spec(109)
        with pytest.raises(ValueError):
            honest_round_poly(spec, product_oracle, (1,), 1)


class TestPlanFolderMatchesGenericProver:
    def check_spec(self, spec, table, seed):
        committed = TableCommittedProver(table)
        generic = GenericHonestProver(table_oracle(table))
        claim = 0
        committed.begin_sumcheck(spec, claim)
        generic.begin_sumcheck(spec, claim)
        tape = RandomTape(seed)
        challenges = ()
        for i in range(1, spec.num_vars + 1):
            fast = committed.round_poly(i, challenges, claim)
            slow = generic.round_poly(i, challenges, claim)
            assert fast == slow and len(fast) == spec.degree_bounds[i - 1] + 1, i
            r = tape.draw_int(109)
            claim = sum(c * r**j for j, c in enumerate(fast)) % 109
            challenges = challenges + (r,)

    def test_w1_plan(self):
        f = WeightedFormula(3, ((-1, -2), (-2, -3), (-1,)), ClassTag.G12N, 1)
        tape = RandomTape(17)
        table = BooleanTable.from_assignment({2}, f.m)
        spec = build_w1_summand(f, 109, draw_weights(tape, f.m))
        self.check_spec(spec, table, 23)

    def test_w2_plan(self):
        f = WeightedFormula(3, ((1, 2, 3), (2,)), ClassTag.G21P, 1)
        tape = RandomTape(18)
        table = BooleanTable.from_assignment({2}, f.m)
        spec = build_w2_summand(f, 109, draw_weights(tape, f.m), 3)
        self.check_spec(spec, table, 29)

    def test_weight_plan_with_block(self):
        table = BooleanTable.from_assignment({1, 3}, 2)
        block = BooleanTable.from_true_codes([0, 1, 2], 2)
        spec = build_weight_summand(2, 109, block)
        self.check_spec(spec, table, 31)

    def test_folder_refuses_a_diverging_prefix(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
        tape = RandomTape(4)
        table = BooleanTable.from_assignment({1}, f.m)
        spec = build_w1_summand(f, 109, draw_weights(tape, f.m))
        folder = PlanFolder(compile_plan(spec, table))
        folder.sync((3, 7))
        v1 = folder.round_values(spec.degree_bounds[2])
        for diverging in [(3, 8), (3,), ()]:
            with pytest.raises(ValueError):
                folder.sync(diverging)
        # a refused sync binds nothing
        folder.sync((3, 7))
        assert folder.round_values(spec.degree_bounds[2]) == v1

    def test_a_prover_that_rewinds_its_folder_is_rejected_at_that_round(self):
        # before answering round `at`, the prover asks its folder for round 1
        # again; the fold binds forward only, so that round is malformed
        f = WeightedFormula(3, ((-1, -2), (-2, -3), (-1,)), ClassTag.G12N, 1)
        table = BooleanTable.from_assignment({2}, f.m)
        spec = build_w1_summand(f, 109, draw_weights(RandomTape(17), f.m))

        class Rewinding(TableCommittedProver):
            def round_poly(self, i, challenges, claim):
                if i == at:
                    super().round_poly(1, (), claim)
                return super().round_poly(i, challenges, claim)

        honest = run_sumcheck(spec, 0, TableCommittedProver(table), RandomTape(5), ResourceMeter())
        assert honest.verdict.accepted
        for at in range(3, spec.num_vars + 1):
            run = run_sumcheck(spec, 0, Rewinding(table), RandomTape(5), ResourceMeter())
            assert not run.verdict.accepted
            assert run.verdict.rejection_round == at
            assert run.transcripts == honest.transcripts[: at - 1]


class TestAdaptiveCheater:
    def test_true_claim_behaves_honestly(self):
        spec = product_spec(109)
        honest = GenericHonestProver(product_oracle)
        cheater = AdaptiveCheater(GenericHonestProver(product_oracle))
        honest.begin_sumcheck(spec, 1)
        cheater.begin_sumcheck(spec, 1)
        assert cheater.round_poly(1, (), 1) == honest.round_poly(1, (), 1)

    def test_zero_spec_false_claim_linear_lie(self):
        spec = const_zero_spec(5)
        cheater = adaptive_cheater(GenericHonestProver(zero_oracle))
        cheater.begin_sumcheck(spec, 1)
        assert cheater.round_poly(1, (), 1) == (0, 1)  # g'(t) = t

    def test_exhaust_all_challenges_p5(self):
        # claim 1 on an identically-zero summand: accepted iff the final direct
        # evaluation matches, i.e. iff the challenge is 0; probability 1/p
        spec = const_zero_spec(5)
        accepted = 0
        for r in range(5):
            run = run_sumcheck(spec, 1, adaptive_cheater(GenericHonestProver(zero_oracle)),
                               ScriptedTape([r]), ResourceMeter())
            assert run.verdict.accepted  # round checks always pass
            if evaluate(spec, zero_oracle, run.final_point) == run.final_expected:
                accepted += 1
        assert accepted == 1

    def test_monte_carlo_acceptance_within_union_bound(self):
        # q=6 rounds of degree <= 3 over p=109 with a false claim
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 2)
        table = BooleanTable.from_assignment({1, 2}, f.m)
        oracle = table_oracle(table)
        trials, accepted = 2000, 0
        for seed in range(trials):
            tape = RandomTape(derive_seed(1234, seed))
            spec = build_w1_summand(f, 109, draw_weights(tape, f.m))
            prover = adaptive_cheater(TableCommittedProver(table))
            run = run_sumcheck(spec, 0, prover, tape, ResourceMeter())
            if run.verdict.accepted and evaluate(spec, oracle, run.final_point) == run.final_expected:
                accepted += 1
        q, d, p = 6, 3, 109
        bound = q * d / p + 3 * (0.25 / trials) ** 0.5
        assert accepted / trials <= bound


class TestTableCommittedProver:
    def test_wrong_weight_rejected_at_round_one(self):
        table = BooleanTable.from_assignment(set(), 2)  # weight 0
        spec = build_weight_summand(2, 109)
        prover = table_committed_prover(table)
        run = run_sumcheck(spec, 1, prover, RandomTape(8), ResourceMeter())
        assert not run.verdict.accepted
        assert run.verdict.rejection_round == 1

    def test_true_weight_accepted(self):
        table = BooleanTable.from_assignment({1, 2}, 2)
        spec = build_weight_summand(2, 109)
        run = run_sumcheck(spec, 2, table_committed_prover(table), RandomTape(8), ResourceMeter())
        assert run.verdict.accepted
        assert mle_eval(table, run.final_point, 109) == run.final_expected

    def test_assignment_queries_answered_by_mle(self):
        table = BooleanTable.from_assignment({2}, 2)
        prover = table_committed_prover(table)
        answer = prover.assignment_query((3, 11), 109)
        assert type(answer) is int and answer == mle_eval(table, (3, 11), 109)

    @given(line=table_lines())
    @example(line=(BooleanTable.from_true_codes([], 3), (5,), (6,), (0, 1, 2), 7))
    @example(line=(BooleanTable.from_true_codes([0, 1], 1), (), (), (3, 0, 1), 5))
    @settings(max_examples=300, deadline=None)
    def test_line_query_is_three_assignment_queries(self, line):
        table, head, tail, ts, p = line
        prover = TableCommittedProver(table)
        answers = prover.line_query(head, tail, ts, p)
        assert type(answers) is tuple and len(answers) == 3
        assert all(type(a) is int and 0 <= a < p for a in answers)
        points = [head + (t,) + tail for t in ts]
        assert list(answers) == [prover.assignment_query(q, p) for q in points]
        assert list(answers) == [indicator_sum(table, q, p) for q in points]


class TestRandomGarbageProver:
    def test_emits_valid_but_wrong_polys(self):
        spec = product_spec(109)
        prover = RandomGarbageProver(7)
        prover.begin_sumcheck(spec, 1)
        poly = prover.round_poly(1, (), 1)
        assert type(poly) is tuple and len(poly) == 2
        run = run_sumcheck(spec, 1, RandomGarbageProver(7), RandomTape(1), ResourceMeter())
        assert run.verdict.accepted in (True, False)  # never crashes
