import itertools

import pytest
from hypothesis import given, settings, strategies as st

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
from ppcplab.field import PrimeField, UniPoly
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

F5 = PrimeField(5)
F109 = PrimeField(109)


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

    def draw_int_excluding(self, n, exclude):
        while True:
            v = self.draw_int(n)
            if v not in exclude:
                return v


# Toy summands: a block-free weight statement is the oracle itself, so the
# oracle of a GenericHonestProver is the summand.


def const_zero_spec(fld, q=1, bound=1):
    return SummandSpec(q, (bound,) * q, fld)


def zero_oracle(pt):
    return pt[0].field.zero


def product_spec(fld):
    # h(x1, x2) = x1 * x2, through product_oracle
    return SummandSpec(2, (1, 1), fld)


def product_oracle(pt):
    return pt[0] * pt[1]


def evaluate(spec, oracle, point):
    """The summand at ``point``, reading ``oracle`` where the statement says."""
    return summand_value(spec, point, [oracle(q) for q in read_points(spec, point)])


def draw_weights(tape, m):
    return [tape.draw_int(109) for _ in range(m)]


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

    def test_excluding(self):
        tape = RandomTape(7)
        seen = {tape.draw_int(5)}
        v = tape.draw_int_excluding(5, seen)
        assert v not in seen
        with pytest.raises(ValueError):
            tape.draw_int_excluding(1, {0})

    @given(
        n=st.one_of(
            st.just(1),
            st.integers(0, 40).map(lambda w: 1 << w),
            st.integers(0, 40).map(lambda w: (1 << w) + 1),
            st.integers(1, 10**6),
        ),
        k=st.integers(0, 12),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_draw_ints_is_k_calls_to_draw_int(self, n, k, seed):
        batch, single = RandomTape(seed), RandomTape(seed)
        assert batch.draw_ints(n, k) == [single.draw_int(n) for _ in range(k)]
        assert (batch.bits_drawn, batch.overhead_bits) == (single.bits_drawn, single.overhead_bits)
        # and the generator is left where the k calls leave it
        assert batch.draw_int(1 << 32) == single.draw_int(1 << 32)

    def test_draw_ints_needs_a_positive_range(self):
        with pytest.raises(ValueError):
            RandomTape(0).draw_ints(0, 3)

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
        spec = const_zero_spec(F109)
        run = run_sumcheck(spec, F109.zero, GenericHonestProver(zero_oracle), RandomTape(1), ResourceMeter())
        assert run.verdict.accepted
        assert run.final_expected == F109.zero
        assert evaluate(spec, zero_oracle, run.final_point) == run.final_expected

    def test_zero_spec_false_claim_rejects_round_one(self):
        spec = const_zero_spec(F109)
        run = run_sumcheck(spec, F109.one, GenericHonestProver(zero_oracle), RandomTape(1), ResourceMeter())
        assert not run.verdict.accepted
        assert run.verdict.rejection_round == 1

    def test_product_spec_accepts_and_g1_is_x(self):
        spec = product_spec(F109)
        for seed in range(10):
            run = run_sumcheck(spec, F109.one, GenericHonestProver(product_oracle), RandomTape(seed), ResourceMeter())
            assert run.verdict.accepted
            g1 = run.transcripts[0].claimed
            assert [c.value for c in g1.coeffs] == [0, 1]
            # caller's final direct evaluation
            assert evaluate(spec, product_oracle, run.final_point) == run.final_expected

    def test_completeness_exhaustive_all_challenges(self):
        spec = product_spec(F5)
        for r1, r2 in itertools.product(range(5), repeat=2):
            run = run_sumcheck(spec, F5.one, GenericHonestProver(product_oracle), ScriptedTape([r1, r2]), ResourceMeter())
            assert run.verdict.accepted
            assert evaluate(spec, product_oracle, run.final_point) == run.final_expected

    def test_malformed_prover_rejected_not_crashed(self):
        class OverlongProver(GenericHonestProver):
            def round_poly(self, i, challenges, current_claim):
                fld = F109
                return UniPoly((fld(0), fld(1), fld(0), fld(0)), bound=3)  # d=1 expected

        spec = product_spec(F109)
        run = run_sumcheck(spec, F109.one, OverlongProver(product_oracle), RandomTape(0), ResourceMeter())
        assert not run.verdict.accepted
        assert run.verdict.rejection_round == 1

    def test_metering_exact(self):
        spec = product_spec(F109)
        tape = RandomTape(5)
        meter = ResourceMeter()
        run_sumcheck(spec, F109.one, GenericHonestProver(product_oracle), tape, meter)
        assert meter.proof_bits == (1 + 1) * 7 * 2  # (d+1) coeffs per round, 7 bits each
        assert meter.random_bits == tape.bits_drawn
        assert meter.random_bits - tape.overhead_bits == 2 * 7

    def test_replay_determinism(self):
        spec = product_spec(F109)
        runs = [
            run_sumcheck(spec, F109.one, GenericHonestProver(product_oracle), RandomTape(99), ResourceMeter())
            for _ in range(2)
        ]
        assert runs[0].verdict == runs[1].verdict
        assert runs[0].final_point == runs[1].final_point
        assert runs[0].transcripts == runs[1].transcripts

    def test_transcript_running_value_invariant(self):
        spec = product_spec(F109)
        run = run_sumcheck(spec, F109.one, GenericHonestProver(product_oracle), RandomTape(2), ResourceMeter())
        for t in run.transcripts:
            assert t.claimed.evaluate(t.challenge) == t.running


class TestHonestRoundPoly:
    def test_constant_spec_round_one(self):
        c = 9
        spec = SummandSpec(3, (1, 1, 1), F109)
        poly = honest_round_poly(spec, lambda pt: F109(c), (), 1)
        assert poly.degree <= 0
        assert poly.coeffs[0].value == c * 4 % 109  # c * 2^(q-1)

    def test_identity_spec(self):
        spec = SummandSpec(1, (1,), F109)
        poly = honest_round_poly(spec, lambda pt: pt[0], (), 1)
        assert [c.value for c in poly.coeffs] == [0, 1]

    def test_w1_round_one_matches_brute_force_total(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 2)
        tape = RandomTape(42)
        table = BooleanTable.from_assignment({1, 2}, f.m)
        oracle = lambda p: mle_eval(table, p)  # noqa: E731
        spec = build_w1_summand(f, F109, draw_weights(tape, f.m))
        poly = honest_round_poly(spec, oracle, (), 1)
        total = F109.zero
        for mask in range(1 << spec.num_vars):
            pt = tuple(
                F109((mask >> (spec.num_vars - 1 - j)) & 1) for j in range(spec.num_vars)
            )
            total = total + evaluate(spec, oracle, pt)
        assert poly.evaluate(F109(0)) + poly.evaluate(F109(1)) == total

    def test_prefix_length_validated(self):
        spec = product_spec(F109)
        with pytest.raises(ValueError):
            honest_round_poly(spec, product_oracle, (F109(1),), 1)


class TestPlanFolderMatchesGenericProver:
    def check_spec(self, spec, table, seed):
        committed = TableCommittedProver(table)
        generic = GenericHonestProver(lambda p: mle_eval(table, p))
        claim = F109.zero
        committed.begin_sumcheck(spec, claim)
        generic.begin_sumcheck(spec, claim)
        tape = RandomTape(seed)
        challenges = ()
        for i in range(1, spec.num_vars + 1):
            fast = committed.round_poly(i, challenges, claim)
            slow = generic.round_poly(i, challenges, claim)
            for t in range(spec.degree_bounds[i - 1] + 2):
                assert fast.evaluate(F109(t)) == slow.evaluate(F109(t)), (i, t)
            r = F109(tape.draw_int(109))
            claim = fast.evaluate(r)
            challenges = challenges + (r,)

    def test_w1_plan(self):
        f = WeightedFormula(3, ((-1, -2), (-2, -3), (-1,)), ClassTag.G12N, 1)
        tape = RandomTape(17)
        table = BooleanTable.from_assignment({2}, f.m)
        spec = build_w1_summand(f, F109, draw_weights(tape, f.m))
        self.check_spec(spec, table, 23)

    def test_w2_plan(self):
        f = WeightedFormula(3, ((1, 2, 3), (2,)), ClassTag.G21P, 1)
        tape = RandomTape(18)
        table = BooleanTable.from_assignment({2}, f.m)
        spec = build_w2_summand(f, F109, draw_weights(tape, f.m), 3)
        self.check_spec(spec, table, 29)

    def test_weight_plan_with_block(self):
        table = BooleanTable.from_assignment({1, 3}, 2)
        block = BooleanTable.from_true_codes([0, 1, 2], 2)
        spec = build_weight_summand(2, F109, block)
        self.check_spec(spec, table, 31)

    def test_folder_restarts_on_prefix_change(self):
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1)
        tape = RandomTape(4)
        table = BooleanTable.from_assignment({1}, f.m)
        spec = build_w1_summand(f, F109, draw_weights(tape, f.m))
        folder = PlanFolder(compile_plan(spec, table))
        folder.sync((F109(3), F109(7)))
        v1 = folder.round_values(spec.degree_bounds[2])
        folder.sync((F109(3), F109(8)))  # diverging prefix forces a rebuild
        folder.sync((F109(3), F109(7)))
        assert folder.round_values(spec.degree_bounds[2]) == v1


class TestAdaptiveCheater:
    def test_true_claim_behaves_honestly(self):
        spec = product_spec(F109)
        honest = GenericHonestProver(product_oracle)
        cheater = AdaptiveCheater(GenericHonestProver(product_oracle))
        honest.begin_sumcheck(spec, F109.one)
        cheater.begin_sumcheck(spec, F109.one)
        g_h = honest.round_poly(1, (), F109.one)
        g_c = cheater.round_poly(1, (), F109.one)
        assert [c.value for c in g_c.coeffs] == [c.value for c in g_h.coeffs]

    def test_zero_spec_false_claim_linear_lie(self):
        spec = const_zero_spec(F5)
        cheater = adaptive_cheater(GenericHonestProver(zero_oracle))
        cheater.begin_sumcheck(spec, F5.one)
        g = cheater.round_poly(1, (), F5.one)
        assert [c.value for c in g.coeffs] == [0, 1]  # g'(t) = t

    def test_exhaust_all_challenges_p5(self):
        # claim 1 on an identically-zero summand: accepted iff the final direct
        # evaluation matches, i.e. iff the challenge is 0; probability 1/p
        spec = const_zero_spec(F5)
        accepted = 0
        for r in range(5):
            run = run_sumcheck(spec, F5.one, adaptive_cheater(GenericHonestProver(zero_oracle)),
                               ScriptedTape([r]), ResourceMeter())
            assert run.verdict.accepted  # round checks always pass
            if evaluate(spec, zero_oracle, run.final_point) == run.final_expected:
                accepted += 1
        assert accepted == 1

    def test_monte_carlo_acceptance_within_union_bound(self):
        # q=6 rounds of degree <= 3 over p=109 with a false claim
        f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 2)
        table = BooleanTable.from_assignment({1, 2}, f.m)
        oracle = lambda p: mle_eval(table, p)  # noqa: E731
        trials, accepted = 2000, 0
        for seed in range(trials):
            tape = RandomTape(derive_seed(1234, seed))
            spec = build_w1_summand(f, F109, draw_weights(tape, f.m))
            prover = adaptive_cheater(TableCommittedProver(table))
            run = run_sumcheck(spec, F109.zero, prover, tape, ResourceMeter())
            if run.verdict.accepted and evaluate(spec, oracle, run.final_point) == run.final_expected:
                accepted += 1
        q, d, p = 6, 3, 109
        bound = q * d / p + 3 * (0.25 / trials) ** 0.5
        assert accepted / trials <= bound


class TestTableCommittedProver:
    def test_wrong_weight_rejected_at_round_one(self):
        table = BooleanTable.from_assignment(set(), 2)  # weight 0
        spec = build_weight_summand(2, F109)
        prover = table_committed_prover(table)
        run = run_sumcheck(spec, F109.one, prover, RandomTape(8), ResourceMeter())
        assert not run.verdict.accepted
        assert run.verdict.rejection_round == 1

    def test_true_weight_accepted(self):
        table = BooleanTable.from_assignment({1, 2}, 2)
        spec = build_weight_summand(2, F109)
        run = run_sumcheck(spec, F109(2), table_committed_prover(table), RandomTape(8), ResourceMeter())
        assert run.verdict.accepted
        assert mle_eval(table, run.final_point) == run.final_expected

    def test_assignment_queries_answered_by_mle(self):
        table = BooleanTable.from_assignment({2}, 2)
        prover = table_committed_prover(table)
        pt = (F109(3), F109(11))
        assert prover.assignment_query(pt) == mle_eval(table, pt)


class TestRandomGarbageProver:
    def test_emits_valid_but_wrong_polys(self):
        spec = product_spec(F109)
        prover = RandomGarbageProver(7)
        prover.begin_sumcheck(spec, F109.one)
        poly = prover.round_poly(1, (), F109.one)
        assert len(poly.coeffs) == 2
        run = run_sumcheck(spec, F109.one, RandomGarbageProver(7), RandomTape(1), ResourceMeter())
        assert run.verdict.accepted in (True, False)  # never crashes
