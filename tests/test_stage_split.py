"""The stage split of one verify_w1 / verify_w2 pass: on any CPU count the
verdict, every stage report and the tape's end state equal those of the
plain in-process pass; the partial coin walks draw exactly what an accepting
line test and main stage draw; and every condition that keeps a pass in
process forks nothing."""

import os
import random
import signal

import pytest
from hypothesis import assume, given, settings, strategies as st

from ppcplab import arithmetize, pcpverify
from ppcplab.arithmetize import (
    BooleanTable,
    build_w1_summand,
    build_w2_summand,
    summand_factor,
    summand_value,
    with_reads,
)
from ppcplab.formula import ClassTag, WeightedFormula, parse_pwsat
from ppcplab.pcpverify import (
    VerifierConfig,
    _StageLog,
    _real_block,
    multilinearity_test,
    protocol_parameters,
    run_protocol,
    soundness_experiment,
    verify_w1,
    verify_w2,
)
from ppcplab.reductions import gen_planted_yes_with_witness
from ppcplab.sumcheck import RandomTape, TableCommittedProver, draw_field_element, run_sumcheck

SPLIT_M = pcpverify._SPLIT_M


def planted_g21p(n, k, num_clauses, length, seed):
    """Positive CNF at padded length ``length`` with a planted weight-k
    witness: every clause holds a planted variable."""
    rng = random.Random(seed)
    planted = rng.sample(range(1, n + 1), k)
    clauses = []
    for j in range(num_clauses):
        chosen = rng.sample(range(1, n + 1), length if j == 0 else rng.randint(1, length))
        if not set(chosen) & set(planted):
            chosen[0] = rng.choice([v for v in planted if v not in chosen])
        clauses.append(tuple(sorted(chosen)))
    return WeightedFormula(n, tuple(clauses), ClassTag.G21P, k), frozenset(planted)


def instance(kind, clauses=100):
    """A yes-instance of ``kind`` ("w1" or "w2L" for padded length L) at the
    smallest cube width that splits, 100 clauses over 24 variables, and its
    witness table."""
    if kind == "w1":
        formula, witness = gen_planted_yes_with_witness(24, 3, clauses, 11)
        truth = witness.true_set
    else:
        formula, truth = planted_g21p(24, 3, clauses, int(kind[3:]), 12)
    assert formula.m == SPLIT_M
    return formula, BooleanTable.from_assignment(truth, formula.m)


KINDS = ["w1", "w2L2", "w2L3", "w2L4", "w2L5"]


def wrong_main(formula):
    """A table of weight k that falsifies a clause: the main stage rejects."""
    first = [abs(v) for v in formula.clauses[0]]
    if formula.class_tag is ClassTag.G12N:
        return BooleanTable.from_assignment(first, formula.m)
    others = [v for v in range(1, formula.num_vars + 1) if v not in first]
    return BooleanTable.from_assignment(others, formula.m)


def wrong_weight(formula):
    """A table that satisfies every clause at a weight other than k."""
    if formula.class_tag is ClassTag.G12N:
        return BooleanTable.from_assignment((), formula.m)
    return BooleanTable.from_assignment(range(1, formula.num_vars + 1), formula.m)


def reference(formula, prover, tape, config=None):
    """The pass as it runs in one process."""
    log = _StageLog()
    params = protocol_parameters(formula, config)
    checks = [("weight", formula.k, _real_block(formula.num_vars, formula.m))]
    return run_protocol(formula, prover, tape, log, params, checks) or log.verdict()


def both_runs(formula, table, seed, config=None, drawn=0, prover=TableCommittedProver):
    """(verdict, tape end state) of the verifier and of the reference, each
    on a tape of ``seed`` that has already made ``drawn`` draws."""
    verify = verify_w1 if formula.class_tag is ClassTag.G12N else verify_w2
    out = []
    for run in (verify, reference):
        tape = RandomTape(seed)
        for _ in range(drawn):
            tape.draw_int(1000)
        out.append((run(formula, prover(table), tape, config), tape.getstate()))
    return out


def no_rerun(monkeypatch):
    """Make a pass that falls back to running in process fail: where the
    split must complete, a helper's answer has to be taken."""

    def refused(*args):
        raise AssertionError("the pass reran in process")

    monkeypatch.setattr(pcpverify, "run_protocol", refused)


@pytest.fixture(autouse=True)
def no_helpers():
    """Each test starts and ends with no helper alive."""
    pcpverify._stop_helpers()
    yield
    pcpverify._stop_helpers(kill=True)


def force_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def helper_pids():
    return [helper.pid for helper in pcpverify._helpers]


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"), reason="needs os.fork and affinity"
)


# ---------------------------------------------------------------------------
# The partial coin walks
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_walking_lines_then_weights_and_main_rounds_draws_what_they_draw(data):
    m = data.draw(st.integers(1, 5), label="m")
    g12n = data.draw(st.booleans(), label="g12n")
    L = 2 if g12n else data.draw(st.integers(1, 5), label="L")
    prime = data.draw(st.sampled_from([5, 17, 31, 127, 257]), label="p")
    assume(prime > max(L + 1, 3))
    n = data.draw(st.integers(1, 1 << m), label="n")
    truth = data.draw(st.sets(st.integers(1, n)), label="true")
    clause = st.lists(st.integers(1, n), min_size=1, max_size=L, unique=True)
    drawn = data.draw(st.lists(clause, max_size=min(6, 1 << m)), label="clauses")
    # only the clauses the assignment satisfies, so the main stage accepts
    if g12n:
        clauses = [tuple(-v for v in c) for c in drawn if not set(c) <= truth]
    else:
        clauses = [tuple(c) for c in drawn if set(c) & truth]
    formula = WeightedFormula(n, tuple(clauses), ClassTag.G12N if g12n else ClassTag.G21P, len(truth), m)
    reps = data.draw(st.integers(1, 6), label="reps")
    params = protocol_parameters(formula, VerifierConfig(ml_test_reps=reps, explicit_prime=prime))
    seed = data.draw(st.integers(0, 2**32), label="seed")

    ran, walked = RandomTape(seed), RandomTape(seed)
    prover = TableCommittedProver(BooleanTable.from_assignment(truth, m))
    log = _StageLog()
    assert multilinearity_test(prover, m, reps, ran, log, prime) == (True, None)
    weights = [draw_field_element(ran, prime, log) for _ in range(m)]
    if g12n:
        spec = build_w1_summand(formula, prime, weights)
    else:
        spec = build_w2_summand(formula, prime, weights, params.padded_len)
    run = run_sumcheck(spec, 0, prover, ran, log)
    assert run.verdict.accepted

    assert pcpverify._walk_accepting_passes(walked, params, 0, 1, residues=False) == []
    residues = pcpverify._walk_accepting_passes(walked, params, 0, 1, lines=False)
    assert residues == [*weights, *run.final_point]
    assert walked.getstate() == ran.getstate()
    assert (walked.bits_drawn, walked.overhead_bits) == (ran.bits_drawn, ran.overhead_bits)


def test_the_factor_times_the_read_part_is_the_summand():
    formula, _ = instance("w2L3")
    spec = build_w2_summand(formula, 101, [3, 5, 7, 11, 13, 17, 19], 3)
    rng = random.Random(4)
    for _ in range(5):
        point = tuple(rng.randrange(101) for _ in range(spec.num_vars))
        reads = [rng.randrange(101) for _ in range(3)]
        assert with_reads(spec, summand_factor(spec, point), reads) == summand_value(spec, point, reads)


# ---------------------------------------------------------------------------
# Split equals in process
# ---------------------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_honest_tables(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    no_rerun(monkeypatch)
    for kind in KINDS:
        formula, table = instance(kind)
        for seed in (0, 1):
            split, plain = both_runs(formula, table, seed)
            assert split == plain, kind
            assert split[0].accepted
    # one helper serves the stage split, however many CPUs there are
    assert len(helper_pids()) == 1


@needs_fork
def test_codes_past_a_byte(monkeypatch):
    """Over 256 variables the code arrays go to the helper as tuples."""
    force_cpus(monkeypatch, 2)
    no_rerun(monkeypatch)
    formula, witness = gen_planted_yes_with_witness(300, 3, 100, 5)
    table = BooleanTable.from_assignment(witness.true_set, formula.m)
    for proof in (table, wrong_main(formula), wrong_weight(formula)):
        split, plain = both_runs(formula, proof, 1)
        assert split == plain
    assert len(helper_pids()) == 1


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("kind", ["w1", "w2L2", "w2L5"])
def test_rejections(monkeypatch, cpus, kind):
    force_cpus(monkeypatch, cpus)
    no_rerun(monkeypatch)
    formula, _ = instance(kind)
    for table, stage, rnd in [(wrong_main(formula), "main", 1), (wrong_weight(formula), "weight", None)]:
        for seed in (2, 3):
            split, plain = both_runs(formula, table, seed)
            assert split == plain
            assert split[0].stage == stage and not split[0].accepted
            if rnd is not None:
                assert split[0].rejection_round == rnd
    assert len(helper_pids()) == 1


@needs_fork
def test_a_tape_that_has_already_drawn(monkeypatch):
    force_cpus(monkeypatch, 2)
    no_rerun(monkeypatch)
    formula, table = instance("w2L4")
    split, plain = both_runs(formula, table, 8, drawn=7)
    assert split == plain and split[0].accepted
    assert split[1] != both_runs(formula, table, 8)[0][1]


@needs_fork
@pytest.mark.parametrize("kind", ["w1", "w2L3"])
def test_a_non_default_config(monkeypatch, kind):
    force_cpus(monkeypatch, 2)
    no_rerun(monkeypatch)
    formula, table = instance(kind)
    config = VerifierConfig(explicit_prime=31, ml_test_reps=3)
    for proof in (table, wrong_main(formula), wrong_weight(formula)):
        split, plain = both_runs(formula, proof, 4, config)
        assert split == plain
    assert split[0].stages[0].rounds == 3
    assert len(helper_pids()) == 1


def rejecting_lines(prover, m, reps, tape, meter, p):
    """A line test that fails its second repetition, having drawn and
    metered two, in the caller and in a helper alike."""
    multilinearity_test(prover, m, 2, tape, meter, p)
    return False, 2


@needs_fork
def test_a_line_test_rejection_in_the_helper(monkeypatch):
    force_cpus(monkeypatch, 2)
    no_rerun(monkeypatch)
    monkeypatch.setattr(pcpverify, "multilinearity_test", rejecting_lines)
    formula, table = instance("w1")
    split, plain = both_runs(formula, table, 5)
    assert split == plain and (split[0].stage, split[0].rejection_round) == ("mltest", 2)
    # and where the main stage rejects too, the line test's rejection wins
    split, plain = both_runs(formula, wrong_main(formula), 5)
    assert split == plain and split[0].stage == "mltest"
    assert len(helper_pids()) == 1


@needs_fork
def test_a_main_final_check_that_fails(monkeypatch):
    """A read part that misses by one in the main stage, in the caller and
    in process alike: the main stage rejects at round 0 after its rounds."""
    force_cpus(monkeypatch, 2)
    no_rerun(monkeypatch)
    original = with_reads

    def off_by_one(spec, factor, reads):
        return (original(spec, factor, reads) + (spec.formula is not None)) % spec.p

    monkeypatch.setattr(arithmetize, "with_reads", off_by_one)
    monkeypatch.setattr(pcpverify, "with_reads", off_by_one)
    formula, table = instance("w2L3")
    split, plain = both_runs(formula, table, 9)
    assert split == plain and (split[0].stage, split[0].rejection_round) == ("main", 0)
    assert len(helper_pids()) == 1


# ---------------------------------------------------------------------------
# What keeps a pass in process, and what a failed helper leaves
# ---------------------------------------------------------------------------


def assert_in_process(formula=None, table=None, prover=TableCommittedProver, config=None):
    if formula is None:
        formula, table = instance("w1")
    split, plain = both_runs(formula, table, 6, config, prover=prover)
    assert split == plain
    assert helper_pids() == []
    return split[0]


@needs_fork
class TestInProcess:
    def test_one_cpu(self, monkeypatch):
        force_cpus(monkeypatch, 1)
        assert assert_in_process().accepted

    def test_below_the_size_rule(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        formula, witness = gen_planted_yes_with_witness(24, 3, 60, 11)
        assert formula.m == SPLIT_M - 1
        assert assert_in_process(formula, BooleanTable.from_assignment(witness.true_set, formula.m)).accepted

    def test_a_rebound_run_sumcheck(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        calls = []
        original = pcpverify.run_sumcheck

        def counting(*args):
            calls.append(args[0].formula is None)
            return original(*args)

        monkeypatch.setattr(pcpverify, "run_sumcheck", counting)
        assert assert_in_process().accepted
        assert calls == [False, True] * 2  # main and weight, in the verifier and in the reference

    def test_a_subclass_of_the_committed_prover(self, monkeypatch):
        force_cpus(monkeypatch, 2)

        class Committed(TableCommittedProver):
            pass

        assert assert_in_process(prover=Committed).accepted

    def test_a_table_whose_values_are_not_bytes(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        formula, table = instance("w1")
        object.__setattr__(table, "values", bytearray(table.values))
        assert assert_in_process(formula, table).accepted

    @pytest.mark.parametrize("attr, value", [("arity", 6), ("_ones", (0,)), ("ones", lambda: (0,))])
    def test_a_table_that_its_bytes_would_not_make(self, monkeypatch, attr, value):
        force_cpus(monkeypatch, 2)
        formula, table = instance("w1")
        object.__setattr__(table, attr, value)
        assert_in_process(formula, table)

    def test_a_prover_method_shadowed_on_the_instance(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        formula, table = instance("w1")

        def prover(table):
            committed = TableCommittedProver(table)
            committed.line_query = lambda head, tail, ts, p: (0, 1, 3)
            return committed

        assert assert_in_process(formula, table, prover=prover).stage == "mltest"

    def test_a_tape_subclass(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        formula, table = instance("w1")

        class Tape(RandomTape):
            pass

        verdict = verify_w1(formula, TableCommittedProver(table), Tape(6))
        assert verdict == reference(formula, TableCommittedProver(table), RandomTape(6))
        assert helper_pids() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_inside_a_soundness_experiment_range(self, monkeypatch, cpus):
        """The committed adversary's passes run in the caller's range and
        in a helper's; none of them may split, since the helpers are busy.
        A split there raises: in the caller the experiment would raise, in
        a helper its range would be rerun and the helper reaped."""
        force_cpus(monkeypatch, cpus)
        triangle = parse_pwsat("p pwsat g12n 3 3 2\n-1 -2 0\n-2 -3 0\n-1 -3 0\n")
        formula = WeightedFormula(3, triangle.clauses, ClassTag.G12N, 2, SPLIT_M)
        force_cpus(monkeypatch, 1)
        expected = soundness_experiment(formula, "committed", 6, 0)

        def refused(*args):
            raise RuntimeError("a split inside a range")

        # before the helpers are forked, so that they refuse too
        monkeypatch.setattr(pcpverify, "_split_pass", refused)
        force_cpus(monkeypatch, cpus)
        assert soundness_experiment(formula, "committed", 6, 0) == expected
        first = helper_pids()
        assert len(first) == cpus - 1
        assert soundness_experiment(formula, "committed", 6, 0) == expected
        assert helper_pids() == first


@needs_fork
class TestHelpers:
    def test_a_killed_helper_s_pass_reruns(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        formula, table = instance("w2L3")
        both_runs(formula, table, 0)
        (killed,) = helper_pids()
        os.kill(killed, signal.SIGKILL)
        for proof in (table, wrong_weight(formula)):
            split, plain = both_runs(formula, proof, 5)
            assert split == plain
        assert killed not in helper_pids() and len(helper_pids()) == 1

    def test_a_helper_that_walks_to_another_point_has_the_pass_rerun(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        original = pcpverify._walk_accepting_passes

        def astray(tape, params, checks, passes, lines=True, residues=True):
            drawn = original(tape, params, checks, passes, lines, residues)
            return drawn[:-1] + [drawn[-1] + 1] if not lines else drawn

        monkeypatch.setattr(pcpverify, "_walk_accepting_passes", astray)
        formula, table = instance("w1")
        reran = []
        monkeypatch.setattr(pcpverify, "run_protocol", lambda *args: reran.append(1) or run_protocol(*args))
        for proof in (table, wrong_weight(formula)):
            split, plain = both_runs(formula, proof, 7)
            assert split == plain
        assert len(reran) == 2  # each split pass reran once in process
        assert len(helper_pids()) == 1

    def test_no_stale_answer_after_a_main_rejection(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        formula, table = instance("w1")
        split, plain = both_runs(formula, wrong_main(formula), 0)
        assert split == plain and split[0].stage == "main"
        (helper,) = helper_pids()
        for seed in (1, 2):
            split, plain = both_runs(formula, table, seed)
            assert split == plain and split[0].accepted
        split, plain = both_runs(formula, wrong_weight(formula), 3)
        assert split == plain and split[0].stage == "weight"
        assert helper_pids() == [helper]

    def test_a_main_rejection_drops_the_helper_s_task(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        dropped = []
        original = pcpverify._Helper.drop
        monkeypatch.setattr(pcpverify._Helper, "drop", lambda helper: dropped.append(1) or original(helper))
        formula, table = instance("w2L2")
        both_runs(formula, table, 1)
        assert dropped == []
        split, plain = both_runs(formula, wrong_main(formula), 1)
        assert split == plain and dropped == [1]
