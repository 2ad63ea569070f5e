import dataclasses

import pytest

from ppcplab.arithmetize import BooleanTable, mle_eval
from ppcplab.field import PrimeField
from ppcplab.formula import (
    ClassMismatchError,
    ClassTag,
    WeightedFormula,
    brute_force_wsat,
    parse_pwsat,
)
from ppcplab.pcpverify import (
    VerifierConfig,
    multilinearity_test,
    resource_report,
    soundness_experiment,
    verify_w1,
    verify_w2,
    w1_ideal_random_bits,
    w1_parameters,
    w1_proof_bits,
    w2_ideal_random_bits,
    w2_parameters,
    w2_proof_bits,
)
from ppcplab.sumcheck import (
    RandomTape,
    ResourceMeter,
    adaptive_cheater,
    derive_seed,
    table_committed_prover,
)

from golden.record import MalformedFinalReads

YES_TEXT = "p pwsat g12n 3 2 1\n-1 -2 0\n-1 -3 0\n"
NO_TEXT = "p pwsat g12n 2 1 2\n-1 -2 0\n"


def honest_prover_for(formula):
    decision, witness = brute_force_wsat(formula)
    assert decision
    return table_committed_prover(BooleanTable.from_assignment(witness.true_set, formula.m))


class TestVerifyW1:
    def test_yes_instance_accepts_every_seed(self):
        f = parse_pwsat(YES_TEXT)
        prover_table = BooleanTable.from_assignment({1}, f.m)
        for seed in range(40):
            verdict = verify_w1(f, table_committed_prover(prover_table), RandomTape(seed))
            assert verdict.accepted, seed

    def test_no_instance_adaptive_cheater_bounded(self):
        f = parse_pwsat(NO_TEXT)
        assert not brute_force_wsat(f)[0]
        table = BooleanTable.from_assignment({1, 2}, f.m)
        accepted = 0
        trials = 400
        for seed in range(trials):
            prover = adaptive_cheater(table_committed_prover(table))
            accepted += verify_w1(f, prover, RandomTape(derive_seed(7, seed))).accepted
        assert accepted / trials <= 0.5

    def test_zero_clause_k0_accepts(self):
        f = WeightedFormula(1, (), ClassTag.G12N, 0)
        table = BooleanTable.from_true_codes([], f.m)
        verdict = verify_w1(f, table_committed_prover(table), RandomTape(3))
        assert verdict.accepted

    def test_wrong_weight_table_rejected_in_weight_stage(self):
        f = parse_pwsat(YES_TEXT)  # k=1
        table = BooleanTable.from_true_codes([], f.m)  # weight 0, still satisfying
        verdict = verify_w1(f, table_committed_prover(table), RandomTape(5))
        assert not verdict.accepted
        assert verdict.stage == "weight"
        assert verdict.rejection_round == 1

    def test_dummy_weight_cannot_fake_k(self):
        # real weight must equal k; parking weight on a dummy code fails
        f = WeightedFormula(3, (), ClassTag.G12N, 2)  # m=2: codes 0..2 real, 3 dummy
        table = BooleanTable.from_true_codes([0, 3], f.m)
        verdict = verify_w1(f, table_committed_prover(table), RandomTape(11))
        assert not verdict.accepted
        assert verdict.stage == "weight"

    def test_class_mismatch(self):
        f = WeightedFormula(2, ((1, 2),), ClassTag.G21P, 1)
        with pytest.raises(ClassMismatchError):
            verify_w1(f, table_committed_prover(BooleanTable.from_true_codes([], f.m)), RandomTape(0))

    def test_stage_order_and_names(self):
        f = parse_pwsat(YES_TEXT)
        verdict = verify_w1(f, honest_prover_for(f), RandomTape(0))
        assert [s.name for s in verdict.stages] == ["mltest", "main", "weight"]
        assert all(s.accepted for s in verdict.stages)

    def test_verdict_replay_byte_identical(self):
        f = parse_pwsat(YES_TEXT)
        a = verify_w1(f, honest_prover_for(f), RandomTape(123))
        b = verify_w1(f, honest_prover_for(f), RandomTape(123))
        assert a == b
        assert repr(a) == repr(b)


class TestMeterClosedForms:
    def test_w1_bits_match_exactly(self):
        f = parse_pwsat(YES_TEXT)
        params = w1_parameters(f)
        for seed in (0, 1, 2):
            tape = RandomTape(seed)
            verdict = verify_w1(f, honest_prover_for(f), tape)
            assert verdict.meter.random_bits == tape.bits_drawn
            ideal = w1_ideal_random_bits(params.m, params.reps, params.prime)
            assert verdict.meter.random_bits == ideal + tape.overhead_bits
            assert verdict.meter.proof_bits == w1_proof_bits(params.m, params.reps, params.prime)

    def test_w2_bits_match_exactly(self):
        f = parse_pwsat("p pwsat g21p 3 2 1\n1 2 3 0\n2 0\n")
        params = w2_parameters(f)
        table = BooleanTable.from_assignment({2}, f.m)
        tape = RandomTape(9)
        verdict = verify_w2(f, table_committed_prover(table), tape)
        assert verdict.accepted
        ideal = w2_ideal_random_bits(params.m, params.padded_len, params.reps, params.prime)
        assert verdict.meter.random_bits == ideal + tape.overhead_bits
        assert verdict.meter.proof_bits == w2_proof_bits(
            params.m, params.padded_len, params.reps, params.prime
        )

    def test_round_counts(self):
        f = parse_pwsat(YES_TEXT)
        verdict = verify_w1(f, honest_prover_for(f), RandomTape(0))
        rounds = {s.name: s.rounds for s in verdict.stages}
        assert rounds["main"] == 3 * f.m
        assert rounds["weight"] == f.m


class TestMultilinearityTest:
    def run_oracle(self, oracle, m, reps, seed, prime=1009):
        fld = PrimeField(prime)
        tape = RandomTape(seed)
        meter = ResourceMeter()
        ok, rep = multilinearity_test(oracle, m, reps, tape, meter, fld)
        return ok, rep, meter, tape, fld

    def test_exact_mle_always_passes(self):
        table = BooleanTable.from_true_codes([1, 4], 3)
        oracle = lambda pt: mle_eval(table, pt)
        for seed in range(200):
            ok, _, _, _, _ = self.run_oracle(oracle, 3, 15, seed)
            assert ok

    def test_constant_oracle_passes(self):
        fld = PrimeField(1009)
        oracle = lambda pt: fld(7)
        ok, _, _, _, _ = self.run_oracle(oracle, 3, 15, 4)
        assert ok

    def test_planted_quadratic_rejected_when_axis_hit(self):
        table = BooleanTable.from_true_codes([0, 3], 3)

        def oracle(pt):
            return mle_eval(table, pt) + pt[0] * pt[0]

        rejected = 0
        trials = 400
        m, reps = 3, 15
        for seed in range(trials):
            ok, _, _, _, _ = self.run_oracle(oracle, m, reps, seed)
            rejected += not ok
        expected = 1 - (1 - 1 / m) ** reps
        assert rejected / trials >= expected - 0.05

    def test_per_rep_bit_accounting(self):
        table = BooleanTable.from_true_codes([2], 3)
        oracle = lambda pt: mle_eval(table, pt)
        m, reps = 3, 15
        ok, _, meter, tape, fld = self.run_oracle(oracle, m, reps, 1)
        assert ok
        ideal = reps * ((m - 1).bit_length() + (m + 3) * fld.bits)
        assert meter.random_bits == ideal + tape.overhead_bits
        assert meter.proof_bits == reps * 3 * fld.bits
        assert meter.oracle_queries == reps * 3

    def test_rejection_short_circuits(self):
        fld = PrimeField(1009)

        def oracle(pt):
            return pt[0] * pt[0]  # quadratic along axis 0, m=1 always hits

        ok, rep, meter, _, _ = self.run_oracle(oracle, 1, 10, 0)
        assert not ok
        assert rep == 1
        assert meter.oracle_queries == 3


class TestVerifyW2:
    def test_yes_instance_accepts(self):
        f = parse_pwsat("p pwsat g21p 3 1 1\n1 2 3 0\n")
        table = BooleanTable.from_assignment({2}, f.m)
        for seed in range(30):
            verdict = verify_w2(f, table_committed_prover(table), RandomTape(seed))
            assert verdict.accepted

    def test_unit_clause_L1(self):
        f = parse_pwsat("p pwsat g21p 1 1 1\n1 0\n")
        table = BooleanTable.from_assignment({1}, f.m)
        verdict = verify_w2(f, table_committed_prover(table), RandomTape(2))
        assert verdict.accepted

    def test_no_instance_adaptive_bounded(self):
        f = parse_pwsat("p pwsat g21p 2 2 1\n1 0\n2 0\n")  # needs both true, k=1
        assert not brute_force_wsat(f)[0]
        table = BooleanTable.from_assignment({1}, f.m)
        accepted = 0
        trials = 300
        for seed in range(trials):
            prover = adaptive_cheater(table_committed_prover(table))
            accepted += verify_w2(f, prover, RandomTape(derive_seed(3, seed))).accepted
        assert accepted / trials <= 0.5

    def test_round_count_matches_formula(self):
        f = parse_pwsat("p pwsat g21p 4 2 1\n1 2 3 0\n2 4 0\n")
        params = w2_parameters(f)
        table = BooleanTable.from_assignment({2}, f.m)
        verdict = verify_w2(f, table_committed_prover(table), RandomTape(1))
        rounds = {s.name: s.rounds for s in verdict.stages}
        assert rounds["main"] == (params.padded_len + 1) * params.m
        assert rounds["weight"] == params.m
        assert rounds["main"] + rounds["weight"] == (params.padded_len + 1) * params.m + params.m

    def test_two_literal_g21p_agrees_with_oracle(self):
        # the positive twin of the negated-2-CNF path: exhaustive small check
        import itertools

        pool = [(1, 2), (2, 3), (1, 3), (2,)]
        checked = 0
        for cls in itertools.combinations_with_replacement(pool, 2):
            f = WeightedFormula(3, cls, ClassTag.G21P, 2)
            decision, witness = brute_force_wsat(f)
            if not decision:
                continue
            table = BooleanTable.from_assignment(witness.true_set, f.m)
            verdict = verify_w2(f, table_committed_prover(table), RandomTape(13))
            assert verdict.accepted
            checked += 1
        assert checked > 0


class TestMalformedFinalRead:
    @pytest.mark.parametrize(
        "text, true_set, verifier, L",
        [
            (YES_TEXT, {1}, verify_w1, 2),
            ("p pwsat g21p 4 2 1\n1 2 3 0\n2 4 0\n", {2}, verify_w2, 3),
        ],
        ids=["g12n", "g21p"],
    )
    def test_reads_all_values_then_rejects_at_main_round_0(self, text, true_set, verifier, L):
        f = parse_pwsat(text)
        table = BooleanTable.from_assignment(true_set, f.m)
        honest = verifier(f, table_committed_prover(table), RandomTape(4))
        verdict = verifier(f, MalformedFinalReads(table), RandomTape(4))
        assert honest.accepted
        assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "main", 0)
        main = {s.name: s for s in verdict.stages}["main"]
        honest_main = {s.name: s for s in honest.stages}["main"]
        # the stage meters the same L reads whatever the proof contains
        assert main.oracle_queries == L
        assert main == dataclasses.replace(honest_main, accepted=False)


class TestResourceReport:
    def test_rows_deterministic_and_finite(self):
        rows1 = resource_report(range(1, 5), seed=5)
        rows2 = resource_report(range(1, 5), seed=5)
        assert rows1 == rows2
        for row in rows1:
            assert row.random_bits > 0 and row.proof_bits > 0
            assert row.random_norm > 0 and row.proof_norm > 0

    def test_m1_no_division_by_zero(self):
        row = resource_report([1], seed=0)[0]
        assert row.m == 1
        assert row.random_norm == row.random_bits  # normalizer floors at 1

    def test_guard(self):
        with pytest.raises(Exception):
            resource_report([11])

    def test_formula_target(self):
        f = parse_pwsat(YES_TEXT)
        row = resource_report(f)[0]
        assert row.m == f.m

    def test_formula_target_requires_yes_instance(self):
        f = parse_pwsat(NO_TEXT)
        with pytest.raises(ValueError):
            resource_report(f)


class TestSoundnessExperiment:
    def test_refuses_yes_instance(self):
        with pytest.raises(ValueError):
            soundness_experiment(parse_pwsat(YES_TEXT), "adaptive", 10, 0)

    def test_unknown_adversary(self):
        with pytest.raises(ValueError):
            soundness_experiment(parse_pwsat(NO_TEXT), "sneaky", 10, 0)

    def test_adaptive_with_big_prime_override(self):
        f = parse_pwsat(NO_TEXT)
        params = w1_parameters(f)
        from ppcplab.field import select_prime

        big = select_prime(20 * params.total_rounds * 3, 1, 1)
        cfg = VerifierConfig(explicit_prime=big)
        res = soundness_experiment(f, "adaptive", 300, 2024, cfg)
        assert res["acceptance_rate"] <= 0.1
        assert res["analytic_bound"] <= 0.05

    def test_committed_bounded(self):
        f = parse_pwsat("p pwsat g12n 3 3 2\n-1 -2 0\n-2 -3 0\n-1 -3 0\n")
        res = soundness_experiment(f, "committed", 500, 77)
        assert res["acceptance_rate"] <= res["analytic_bound"] + 3 * (0.25 / 500) ** 0.5

    def test_random_garbage_bounded(self):
        f = parse_pwsat(NO_TEXT)
        res = soundness_experiment(f, "random", 500, 99)
        assert res["acceptance_rate"] <= res["analytic_bound"] + 3 * (0.25 / 500) ** 0.5

    def test_positive_cnf_path(self):
        f = parse_pwsat("p pwsat g21p 2 2 1\n1 0\n2 0\n")
        res = soundness_experiment(f, "adaptive", 300, 41)
        assert res["acceptance_rate"] <= res["analytic_bound"] + 3 * (0.25 / 300) ** 0.5

    def test_deterministic(self):
        f = parse_pwsat(NO_TEXT)
        assert soundness_experiment(f, "adaptive", 50, 5) == soundness_experiment(f, "adaptive", 50, 5)


class TestVerifierConfig:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            VerifierConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            VerifierConfig(epsilon=0.75)

    def test_reps_default_5m(self):
        assert VerifierConfig().reps_for(4) == 20
        assert VerifierConfig(ml_test_reps=3).reps_for(4) == 3

    def test_prime_override_used(self):
        f = parse_pwsat(YES_TEXT)
        cfg = VerifierConfig(explicit_prime=1009)
        assert w1_parameters(f, cfg).prime == 1009

    def test_tiny_prime_override_rejected_cleanly(self):
        f = parse_pwsat(YES_TEXT)
        with pytest.raises(ValueError):
            w1_parameters(f, VerifierConfig(explicit_prime=3))
        # p = 5 keeps the degree-3 interpolation nodes distinct
        cfg = VerifierConfig(explicit_prime=5)
        verdict = verify_w1(f, honest_prover_for(f), RandomTape(1), cfg)
        assert verdict.accepted


class TestQuantifiedCompleteness:
    def test_thousand_seeds_single_instance(self):
        from ppcplab.reductions import gen_planted_yes_with_witness

        f, wit = gen_planted_yes_with_witness(12, 3, 16, 99)
        table = BooleanTable.from_assignment(wit.true_set, f.m)
        for seed in range(1000):
            verdict = verify_w1(f, table_committed_prover(table), RandomTape(derive_seed(31, seed)))
            assert verdict.accepted, seed
