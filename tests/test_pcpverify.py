import dataclasses

import pytest

from ppcplab.arithmetize import BooleanTable
from ppcplab.awsat import awsat_parameters, honest_branch_tables, verify_awsat
from ppcplab.field import FieldElement, PrimeField
from ppcplab.formula import (
    AwsatInstance,
    ClassMismatchError,
    ClassTag,
    WeightedFormula,
    brute_force_wsat,
    parse_pwsat,
)
from ppcplab.pcpverify import (
    VerifierConfig,
    multilinearity_test,
    protocol_parameters,
    protocol_random_bits,
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
from ppcplab.reductions import gen_planted_yes_with_witness
from ppcplab.sumcheck import (
    GenericHonestProver,
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

    @pytest.mark.parametrize("entry", [int, bool, float])
    def test_witness_table_of_equal_entries_accepts(self, entry):
        # 1.0 and True are table entries; the prover must still send ints
        formula, witness = gen_planted_yes_with_witness(8, 2, 6, 5)
        codes = BooleanTable.from_assignment(witness.true_set, formula.m).values
        table = BooleanTable(formula.m, tuple(map(entry, codes)))
        assert verify_w1(formula, table_committed_prover(table), RandomTape(1)).accepted

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

    def test_the_multilinearity_test_draws_88_to_96_percent_of_the_random_bits(self):
        # the README's figure: at L = 2, the default 5m repetitions and the
        # prime protocol_parameters selects, the repetitions' share of
        # protocol_random_bits (the total less the total at 0 repetitions)
        shares = []
        for m in range(4, 21):
            f = WeightedFormula(2, ((-1, -2),), ClassTag.G12N, 1, m)
            params = protocol_parameters(f)
            total = protocol_random_bits(m, 2, params.reps, params.prime)
            rest = protocol_random_bits(m, 2, 0, params.prime)
            shares.append((total - rest) / total)
        assert shares == sorted(shares)
        assert round(100 * shares[0]) == 88 and round(100 * shares[-1]) == 96

    def test_round_counts(self):
        f = parse_pwsat(YES_TEXT)
        verdict = verify_w1(f, honest_prover_for(f), RandomTape(0))
        rounds = {s.name: s.rounds for s in verdict.stages}
        assert rounds["main"] == 3 * f.m
        assert rounds["weight"] == f.m


def least_width(n):
    """The least B with 2^B >= n, counted up from 0: the bits of one draw
    from, or one residue of, n values."""
    b = 0
    while 1 << b < n:
        b += 1
    return b


class OverheadRecordingTape(RandomTape):
    """A tape that notes, after every draw, its overhead by the bits drawn
    so far, so that a stage's overhead is read off at the stage's ends."""

    def __init__(self, seed):
        super().__init__(seed)
        self.overhead_at = {0: 0}

    def draw_int(self, n):
        v = super().draw_int(n)
        self.overhead_at[self.bits_drawn] = self.overhead_bits
        return v

    def draw_line(self, m, p):
        line = super().draw_line(m, p)
        self.overhead_at[self.bits_drawn] = self.overhead_bits
        return line


class TestStageBitWidths:
    # primes next to a power of two, where a width off by one from p - 1's
    # shows: 17 = 2^4 + 1, 31 = 2^5 - 1, 127 = 2^7 - 1 and 257 = 2^8 + 1
    @pytest.mark.parametrize("prime", [17, 31, 127, 257])
    def test_every_stage_meters_the_least_width_that_holds_p(self, prime):
        f = parse_pwsat(YES_TEXT)
        m, L, B = f.m, 2, least_width(prime)
        reps = 5 * m
        tape = OverheadRecordingTape(prime)
        verdict = verify_w1(f, honest_prover_for(f), tape, VerifierConfig(explicit_prime=prime))
        assert verdict.accepted
        # (random bits net of overhead, proof bits) per stage: an axis and
        # m + 3 residues a repetition and three reads; m clause weights, one
        # residue a round, L + 2 coefficients a clause-code round, 3 a
        # variable-code round and L reads; one residue and 3 coefficients a
        # round and one read
        expected = {
            "mltest": (reps * (least_width(m) + (m + 3) * B), 3 * reps * B),
            "main": ((m + (L + 1) * m) * B, ((L + 2) * m + 3 * L * m + L) * B),
            "weight": (m * B, (3 * m + 1) * B),
        }
        drawn = 0
        for stage in verdict.stages:
            start, drawn = drawn, drawn + stage.random_bits
            overhead = tape.overhead_at[drawn] - tape.overhead_at[start]
            assert (stage.random_bits - overhead, stage.proof_bits) == expected[stage.name]
        assert [s.name for s in verdict.stages] == list(expected)
        assert drawn == tape.bits_drawn


class TestMultilinearityTest:
    def run_oracle(self, oracle, m, reps, seed, prime=1009):
        tape = RandomTape(seed)
        meter = ResourceMeter()
        ok, rep = multilinearity_test(GenericHonestProver(oracle), m, reps, tape, meter, prime)
        return ok, rep, meter, tape, (prime - 1).bit_length()

    def test_exact_mle_always_passes(self):
        table = BooleanTable.from_true_codes([1, 4], 3)
        oracle = table_committed_prover(table).assignment_query
        for seed in range(200):
            ok, _, _, _, _ = self.run_oracle(oracle, 3, 15, seed)
            assert ok

    def test_constant_oracle_passes(self):
        oracle = lambda pt, p: 7
        ok, _, _, _, _ = self.run_oracle(oracle, 3, 15, 4)
        assert ok

    def test_planted_quadratic_rejected_when_axis_hit(self):
        table = BooleanTable.from_true_codes([0, 3], 3)

        def oracle(pt, p):
            return (table_committed_prover(table).assignment_query(pt, p) + pt[0] * pt[0]) % p

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
        oracle = table_committed_prover(table).assignment_query
        m, reps = 3, 15
        ok, _, meter, tape, bits = self.run_oracle(oracle, m, reps, 1)
        assert ok and bits == 10
        ideal = reps * ((m - 1).bit_length() + (m + 3) * bits)
        assert meter.random_bits == ideal + tape.overhead_bits
        assert meter.proof_bits == reps * 3 * bits
        assert meter.oracle_queries == reps * 3

    def test_rejection_short_circuits(self):
        def oracle(pt, p):
            return pt[0] * pt[0] % p  # quadratic along axis 0, m=1 always hits

        ok, rep, meter, _, _ = self.run_oracle(oracle, 1, 10, 0)
        assert not ok
        assert rep == 1
        assert meter.oracle_queries == 3

    def test_rejection_at_a_later_repetition_meters_the_repetitions_that_ran(self):
        # the planted quadratic at m=3 first fails repetition 4 at seed 0:
        # that repetition and the three before it are metered, random bits
        # included, and the eleven after it are not
        table = BooleanTable.from_true_codes([0, 3], 3)

        def oracle(pt, p):
            return (table_committed_prover(table).assignment_query(pt, p) + pt[0] * pt[0]) % p

        ok, rep, meter, tape, bits = self.run_oracle(oracle, 3, 15, 0)
        assert not ok and 2 <= rep < 15
        assert meter.random_bits == tape.bits_drawn
        assert meter.proof_bits == 3 * bits * rep
        assert meter.oracle_queries == 3 * rep


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

    def test_the_cap_prime_itself_is_accepted(self):
        cap = 2**61 - 1
        f = parse_pwsat(YES_TEXT)
        cfg = VerifierConfig(explicit_prime=cap)
        assert w1_parameters(f, cfg).prime == cap
        assert awsat_parameters(AWSAT_L3, cfg).prime == cap
        verdict = verify_w1(f, honest_prover_for(f), RandomTape(3), cfg)
        assert verdict.accepted
        assert verdict.meter.proof_bits == w1_proof_bits(f.m, 5 * f.m, cap)

    @pytest.mark.parametrize("prime, problem", [(161, "not prime"), (2**89 - 1, "cap")], ids=["composite", "above_cap"])
    def test_prime_override_must_be_a_prime_below_the_cap(self, prime, problem):
        # 161 = 7 * 23; 2^89 - 1 is prime but past the cap
        cfg = VerifierConfig(explicit_prime=prime)
        with pytest.raises(ValueError, match=problem):
            w1_parameters(parse_pwsat(YES_TEXT), cfg)
        with pytest.raises(ValueError, match=problem):
            awsat_parameters(AWSAT_L3, cfg)


class TestQuantifiedCompleteness:
    def test_thousand_seeds_single_instance(self):
        from ppcplab.reductions import gen_planted_yes_with_witness

        f, wit = gen_planted_yes_with_witness(12, 3, 16, 99)
        table = BooleanTable.from_assignment(wit.true_set, f.m)
        for seed in range(1000):
            verdict = verify_w1(f, table_committed_prover(table), RandomTape(derive_seed(31, seed)))
            assert verdict.accepted, seed


AWSAT_L3 = AwsatInstance(
    WeightedFormula(4, ((-2, -3),), ClassTag.G12N, 3), ((1,), (2, 3), (4,)), (1, 1, 1)
)


def _honest_w1():
    f = parse_pwsat(YES_TEXT)
    return verify_w1(f, table_committed_prover(BooleanTable.from_assignment({1}, f.m)), RandomTape(5))


def _honest_w2():
    f = parse_pwsat("p pwsat g21p 3 2 1\n1 2 3 0\n2 3 0\n")
    return verify_w2(f, table_committed_prover(BooleanTable.from_assignment({2}, f.m)), RandomTape(5))


def _honest_awsat():
    tables = honest_branch_tables(AWSAT_L3)
    return verify_awsat(AWSAT_L3, tables, table_committed_prover, RandomTape(5))


# The verifier computes on residues, both wires carry residues and every
# statement carries p as an int, so an honest run builds no FieldElement and
# no PrimeField: only the reference path (interpolate, UniPoly) makes them.
BOUNDARY_RUNS = {
    "w1": _honest_w1,
    "w2": _honest_w2,
    "awsat_l3": _honest_awsat,
}


@pytest.mark.parametrize("run", BOUNDARY_RUNS.values(), ids=BOUNDARY_RUNS.keys())
def test_field_elements_are_built_only_on_the_oracle_wire(monkeypatch, run):
    created = {FieldElement: 0, PrimeField: 0}

    def counting(cls):
        init = cls.__init__

        def counting_init(self, *args):
            created[cls] += 1
            init(self, *args)

        return counting_init

    for cls in created:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    verdict = run()
    monkeypatch.undo()
    assert verdict.accepted
    assert created == {FieldElement: 0, PrimeField: 0}
