"""verify_awsat's branch split: on any CPU count the verdict, every stage
report and the tape's end state equal those of the plain in-process branch
loop; the coin walk a helper starts with draws exactly what accepting
passes draw; and every condition that keeps the branches in process forks
nothing."""

import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import alive, force_cpus, helper_pids, needs_fork
from golden.record import _awsat_instances
from ppcplab import awsat, pcpverify, pool
from ppcplab.arithmetize import BooleanTable
from ppcplab.awsat import (
    BranchProofTables,
    _fallback_tables,
    awsat_parameters,
    enumerate_universal,
    honest_branch_tables,
    pad_to_odd,
    universal_branch_count,
    verify_awsat,
)
from ppcplab.formula import AwsatInstance, ClassTag, WeightedFormula, parse_pwsat, render_awsat, simplify
from ppcplab.pcpverify import VerifierConfig, protocol_parameters, run_protocol, verify_w1
from ppcplab.reductions import gen_random_awsat
from ppcplab.sumcheck import RandomTape, TableCommittedProver, table_committed_prover

SRC = Path(__file__).resolve().parent.parent / "src"


def reference(instance, tables, factory, tape, config=None):
    """verify_awsat as it ran before the split: every branch in process, one
    after another on one tape and one log."""
    cfg = config or VerifierConfig()
    tables = awsat._read_proof(tables, instance.formula.m)
    log = pcpverify._StageLog()
    degenerate = awsat._infeasible_verdict(instance, log)
    if degenerate is not None:
        return degenerate
    if instance.l == 1:
        prover = awsat._branch_prover(tables, enumerate_universal(instance)[0], instance, factory)
        if prover is None:
            return log.reject("b0.tables", 0)
        return verify_w1(instance.formula, prover, tape, cfg)
    m = instance.formula.m
    params = awsat_parameters(instance, cfg)
    checks = [
        (f"weight{j}", kw, BooleanTable.from_assignment(block, m))
        for j, block, kw in zip(range(1, instance.l + 1, 2), instance.blocks[::2], instance.block_weights[::2])
    ]
    for idx, branch in enumerate(enumerate_universal(instance)):
        prefix = f"b{idx}."
        reduced = simplify(instance.formula, branch.substitution(instance))
        if reduced is None:
            return log.reject(prefix + "simplify", 0)
        prover = awsat._branch_prover(tables, branch, instance, factory)
        if prover is None:
            return log.reject(prefix + "tables", 0)
        rejected = run_protocol(reduced, prover, tape, log, params, checks, prefix=prefix)
        if rejected is not None:
            return rejected
    return log.verdict()


def both_runs(instance, tables, seed, config=None, drawn=0):
    """(verdict, tape end state) of verify_awsat and of the reference, each
    on a tape of ``seed`` that has already made ``drawn`` draws."""
    out = []
    for verify in (verify_awsat, reference):
        tape = RandomTape(seed)
        for _ in range(drawn):
            tape.draw_int(1000)
        verdict = verify(instance, tables, table_committed_prover, tape, config)
        out.append((verdict, tape.getstate()))
    return out


# each test starts and ends with no helper alive
pytestmark = pytest.mark.usefixtures("no_helpers")

# an m = 3 pwsat no-instance: a triangle at weight 2
NO_PWSAT = parse_pwsat("p pwsat g12n 3 3 2\n-1 -2 0\n-2 -3 0\n-1 -3 0\n")
# 6 branches (blocks 3, 4, 3 at weights 1, 2, 1), a yes-instance
YES = gen_random_awsat(10, (3, 4, 3), (1, 2, 1), 3, 5)
# 9 branches at l = 5 with three clauses each: _fallback_tables first
# fails a main stage at branch 1 (the caller's range) or branch 6 (a
# helper's, on 2 CPUs and on 3)
FIVE = (11, (2, 3, 2, 3, 1), (1, 1, 1, 1, 1), 4)
FALLBACK_EARLY = gen_random_awsat(*FIVE, 0)
FALLBACK_LATE = gen_random_awsat(*FIVE, 24)


def falsifying(pair):
    """Block 2 chooses two of 3, 4, 5 in the order {3, 4}, {3, 5}, {4, 5};
    the clause -a -b falsifies exactly the branch that chooses ``pair``."""
    a, b = pair
    formula = WeightedFormula(5, ((-a, -b),), ClassTag.G12N, 3)
    return AwsatInstance(formula, ((1, 2), (3, 4, 5), ()), (1, 2, 0))


def without_prefix_table(instance, branch_index):
    """Honest tables less the last odd block's table for one branch's prefix."""
    tables = honest_branch_tables(instance)
    last = instance.l
    branch = enumerate_universal(instance)[branch_index]
    key = (last, branch.prefix_key(last))
    assert key in tables.tables
    return BranchProofTables({k: t for k, t in tables.tables.items() if k != key})


def overweight_at(instance, branch_index):
    """Honest tables whose last odd block names every variable of its block
    for one branch's prefix: that branch fails a stage of its pass."""
    tables = dict(honest_branch_tables(instance).tables)
    last = instance.l
    key = (last, enumerate_universal(instance)[branch_index].prefix_key(last))
    tables[key] = BooleanTable.from_assignment(instance.blocks[last - 1], instance.formula.m)
    return BranchProofTables(tables)


# (instance, tables, the stage of its first rejection)
REJECTIONS = {
    "fallback_caller": (FALLBACK_EARLY, _fallback_tables(FALLBACK_EARLY), "b1.main"),
    "fallback_helper": (FALLBACK_LATE, _fallback_tables(FALLBACK_LATE), "b6.main"),
    "tables_caller": (YES, without_prefix_table(YES, 0), "b0.tables"),
    "tables_helper": (YES, without_prefix_table(YES, 5), "b5.tables"),
    "simplify_caller": (falsifying((3, 4)), _fallback_tables(falsifying((3, 4))), "b0.simplify"),
    "simplify_helper": (falsifying((4, 5)), _fallback_tables(falsifying((4, 5))), "b2.simplify"),
    "wrong_table_helper": (YES, overweight_at(YES, 4), "b4.main"),
}


# ---------------------------------------------------------------------------
# The coin walk
# ---------------------------------------------------------------------------


def accepting_setup(data):
    """A satisfied formula, its honest prover and weight checks that all
    accept, with parameters at a drawn prime."""
    m = data.draw(st.integers(1, 4), label="m")
    g12n = data.draw(st.booleans(), label="g12n")
    L = 2 if g12n else data.draw(st.integers(1, 5), label="L")
    prime = data.draw(st.sampled_from([5, 7, 17, 31, 127, 257, 8191]), label="p")
    assume(prime > max(L + 1, 3))
    n = data.draw(st.integers(1, 1 << m), label="n")
    truth = data.draw(st.sets(st.integers(1, n), min_size=1), label="true")
    clause = st.lists(st.integers(1, n), min_size=1, max_size=L, unique=True)
    drawn = data.draw(st.lists(clause, max_size=min(5, 1 << m)), label="clauses")
    # keep the clauses the assignment satisfies: a negated clause unless all
    # its variables are true, a positive one if any is
    if g12n:
        clauses = [tuple(-v for v in c) for c in drawn if not set(c) <= truth]
    else:
        clauses = [tuple(c) for c in drawn if set(c) & truth]
    formula = WeightedFormula(n, tuple(clauses), ClassTag.G12N if g12n else ClassTag.G21P, len(truth), m)
    table = BooleanTable.from_assignment(truth, m)
    blocks = data.draw(st.lists(st.sets(st.integers(0, (1 << m) - 1)), min_size=1, max_size=3), label="blocks")
    checks = [
        (f"weight{j}", sum(table.values[c] for c in block), BooleanTable.from_true_codes(block, m))
        for j, block in enumerate(blocks)
    ]
    reps = data.draw(st.integers(1, 6), label="reps")
    params = protocol_parameters(formula, VerifierConfig(ml_test_reps=reps, explicit_prime=prime), len(checks))
    return formula, table, checks, params


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_walking_k_passes_draws_what_k_accepting_passes_draw(data):
    formula, table, checks, params = accepting_setup(data)
    passes = data.draw(st.integers(0, 3), label="passes")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    ran, walked = RandomTape(seed), RandomTape(seed)
    log = pcpverify._StageLog()
    for k in range(passes):
        assert run_protocol(formula, table_committed_prover(table), ran, log, params, checks, f"b{k}.") is None
    pcpverify._walk_accepting_passes(walked, params, len(checks), passes)
    assert walked.getstate() == ran.getstate()
    assert (walked.bits_drawn, walked.overhead_bits) == (ran.bits_drawn, ran.overhead_bits)
    # the next draw agrees too
    assert walked.draw_int(params.prime) == ran.draw_int(params.prime)


def test_a_walk_at_small_primes_spends_overhead():
    # at p = 5 and p = 17 a draw of ceil(log2 p) bits is often out of range,
    # so the walk must repeat rejected draws exactly as the pass does
    for prime in (5, 17):
        config = VerifierConfig(explicit_prime=prime)
        params = awsat_parameters(YES, config)
        ran, walked = RandomTape(3), RandomTape(3)
        assert reference(YES, honest_branch_tables(YES), table_committed_prover, ran, config).accepted
        pcpverify._walk_accepting_passes(walked, params, 2, universal_branch_count(YES))
        assert walked.overhead_bits > 0
        assert walked.getstate() == ran.getstate()


# ---------------------------------------------------------------------------
# Split equals in process
# ---------------------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_golden_awsat_corpus(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    for name, instance in _awsat_instances():
        tables = honest_branch_tables(instance) or _fallback_tables(instance)
        for proof in (tables, BranchProofTables({})):
            for seed in (0, 1):
                split, plain = both_runs(instance, proof, seed)
                assert split == plain, name
    assert len(helper_pids()) == cpus - 1


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_random_instances(monkeypatch, cpus, data):
    force_cpus(monkeypatch, cpus)
    l = data.draw(st.integers(3, 5), label="l")
    sizes = data.draw(st.lists(st.integers(0, 4), min_size=l, max_size=l), label="sizes")
    weights = tuple(data.draw(st.integers(0, s), label="weight") for s in sizes)
    n = sum(sizes)
    assume(n >= 2)
    instance = gen_random_awsat(n, tuple(sizes), weights, data.draw(st.integers(0, 5)), data.draw(st.integers(0, 99)))
    if instance.l % 2 == 0:
        instance = pad_to_odd(instance)
    assume(2 <= universal_branch_count(instance) <= 40)
    tables = honest_branch_tables(instance) or _fallback_tables(instance)
    split, plain = both_runs(instance, tables, data.draw(st.integers(0, 2**32), label="seed"))
    assert split == plain


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_non_default_config(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    config = VerifierConfig(explicit_prime=31, ml_test_reps=3)
    split, plain = both_runs(YES, honest_branch_tables(YES), 4, config)
    assert split == plain
    verdict = split[0]
    assert verdict.accepted and verdict.stages[0].rounds == 3
    assert verdict.meter != both_runs(YES, honest_branch_tables(YES), 4)[0][0].meter
    assert len(helper_pids()) == cpus - 1


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_tape_that_has_already_drawn(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    split, plain = both_runs(YES, honest_branch_tables(YES), 8, drawn=7)
    assert split == plain
    fresh = both_runs(YES, honest_branch_tables(YES), 8)[0]
    assert split[0].accepted and split[1] != fresh[1]


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("case", REJECTIONS)
def test_rejections_in_either_range(monkeypatch, cpus, case):
    force_cpus(monkeypatch, cpus)
    instance, tables, stage = REJECTIONS[case]
    for seed in (0, 1):
        split, plain = both_runs(instance, tables, seed)
        assert split == plain
        assert split[0].stage == stage and not split[0].accepted
    assert len(helper_pids()) == cpus - 1


@needs_fork
def test_the_real_affinity(at_most_four_cpus):
    for instance, tables, _ in [*REJECTIONS.values(), (YES, honest_branch_tables(YES), None)]:
        split, plain = both_runs(instance, tables, 2)
        assert split == plain
    assert len(helper_pids()) == len(os.sched_getaffinity(0)) - 1


@pytest.fixture
def at_most_four_cpus():
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 4:
        os.sched_setaffinity(0, sorted(cpus)[:4])
    yield
    os.sched_setaffinity(0, cpus)


# ---------------------------------------------------------------------------
# What keeps every branch in process, and what a failed helper leaves
# ---------------------------------------------------------------------------


def assert_in_process(instance=YES, tables=None, factory=table_committed_prover, tape=None, config=None):
    """verify_awsat equals the reference and forks nothing."""
    tables = tables if tables is not None else honest_branch_tables(instance)
    tape = tape if tape is not None else RandomTape(6)
    state = tape.getstate()
    verdict = verify_awsat(instance, tables, factory, tape, config)
    plain_tape = RandomTape(0)
    plain_tape.setstate(state)
    assert verdict == reference(instance, tables, factory, plain_tape, config)
    assert tape.getstate() == plain_tape.getstate()
    assert helper_pids() == []
    return verdict


@needs_fork
class TestInProcess:
    def test_one_cpu(self, monkeypatch):
        force_cpus(monkeypatch, 1)
        assert assert_in_process().accepted

    def test_one_branch(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        one = gen_random_awsat(6, (2, 2, 2), (1, 2, 1), 2, 3)
        assert universal_branch_count(one) == 1
        assert_in_process(one, honest_branch_tables(one) or _fallback_tables(one))

    def test_one_block(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        single = gen_random_awsat(5, (5,), (2,), 4, 1)
        assert_in_process(single, honest_branch_tables(single) or _fallback_tables(single))

    def test_no_fork(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert_in_process()

    def test_a_second_thread(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert_in_process()
        finally:
            release.set()
            waiter.join()

    def test_an_argument_marshal_cannot_carry(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        assert assert_in_process(config=VerifierConfig(epsilon=Fraction(1, 4))).accepted

    def test_a_tape_subclass(self, monkeypatch):
        force_cpus(monkeypatch, 2)

        class Tape(RandomTape):
            pass

        assert_in_process(tape=Tape(6))

    def test_another_prover_factory(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        assert assert_in_process(factory=TableCommittedProver).accepted

    @pytest.mark.parametrize(
        "owner, name",
        [
            (awsat, "run_g12n_protocol"),
            (awsat, "simplify"),
            (awsat, "enumerate_universal"),
            (awsat, "awsat_parameters"),
            (awsat.BranchProofTables, "merge"),
            (pcpverify, "run_sumcheck"),
            (pcpverify, "verify_w1"),
        ],
    )
    def test_a_rebound_name_sees_every_branch(self, monkeypatch, owner, name):
        force_cpus(monkeypatch, 2)
        original = getattr(owner, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        tape = RandomTape(6)
        assert verify_awsat(YES, honest_branch_tables(YES), table_committed_prover, tape).accepted
        branches = universal_branch_count(YES)
        seen = {"run_g12n_protocol": branches, "simplify": branches, "merge": branches, "run_sumcheck": 3 * branches}
        assert len(calls) == seen.get(name, len(calls))  # run_sumcheck: main, weight1, weight3
        assert_in_process()


STALL_S = 15


def stall_from(monkeypatch, marker, first):
    """For a proof other than YES's honest one: a helper forked after this
    touches ``marker`` and stalls ``STALL_S`` seconds in a range that
    starts at branch ``first`` or later (dropping the range ends the
    stall), and the caller's range waits for ``marker`` first, so it ends
    while that helper stalls.  Returns the list the caller's range adds
    the time it saw ``marker`` to."""
    original_range, original_run = awsat._branch_range, awsat._run_branches
    honest = len(honest_branch_tables(YES).tables)
    seen = []

    def stalled(formula, config, blocks, weights, tables, start, *rest):
        if start >= first and len(tables) != honest:
            marker.touch()
            time.sleep(STALL_S)
        return original_range(formula, config, blocks, weights, tables, start, *rest)

    def waiting(instance, tables, branches, part, *rest):
        if part.start == 0 and len(tables.tables) != honest:
            deadline = time.monotonic() + 30
            while not marker.exists():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            seen.append(time.monotonic())
        return original_run(instance, tables, branches, part, *rest)

    monkeypatch.setattr(awsat, "_branch_range", stalled)
    monkeypatch.setattr(awsat, "_run_branches", waiting)
    return seen


@needs_fork
class TestHelpers:
    def test_one_helper_per_extra_cpu_kept_across_calls_and_kinds(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        both_runs(falsifying((3, 4)), _fallback_tables(falsifying((3, 4))), 0)
        first = helper_pids()
        assert len(first) == 2
        assert pcpverify.soundness_experiment(NO_PWSAT, "committed", 24, 0)["trials"] == 24
        both_runs(YES, honest_branch_tables(YES), 1)
        assert helper_pids() == first

    def test_a_killed_helper_s_range_reruns(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        both_runs(YES, honest_branch_tables(YES), 0)
        killed, kept = helper_pids()
        os.kill(killed, signal.SIGKILL)
        for case in ("wrong_table_helper", "fallback_helper"):
            instance, tables, _ = REJECTIONS[case]
            split, plain = both_runs(instance, tables, 5)
            assert split == plain
        split, plain = both_runs(YES, honest_branch_tables(YES), 5)
        assert split == plain and split[0].accepted
        assert not alive(killed)
        assert len(helper_pids()) == 2 and kept in helper_pids()

    def test_a_helper_that_raises_has_its_range_rerun(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        both_runs(YES, honest_branch_tables(YES), 0)
        (helper,) = helper_pids()

        original = pool.run_beside

        def spoiled(tasks, *rest):
            # tables of the wrong size: the helper's range raises there
            tasks = [(module, name, (*args[:4], {(1, ""): b"\0"}, *args[5:])) for module, name, args in tasks]
            return original(tasks, *rest)

        monkeypatch.setattr(pool, "run_beside", spoiled)
        split, plain = both_runs(YES, honest_branch_tables(YES), 9)
        assert split == plain and split[0].accepted
        assert helper not in helper_pids() and not alive(helper)

    def test_a_fork_that_fails_leaves_its_range_to_the_caller(self, monkeypatch):
        force_cpus(monkeypatch, 3)

        def no_fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
        for instance, tables, _ in [REJECTIONS["fallback_helper"], (YES, honest_branch_tables(YES), None)]:
            split, plain = both_runs(instance, tables, 4)
            assert split == plain
        assert helper_pids() == []

    def test_no_stale_answer_after_a_rejecting_call(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        instance, tables, stage = REJECTIONS["simplify_caller"]
        split, plain = both_runs(instance, tables, 0)
        assert split == plain and split[0].stage == stage
        (helper,) = helper_pids()
        for seed in (1, 2):
            split, plain = both_runs(YES, honest_branch_tables(YES), seed)
            assert split == plain and split[0].accepted
        assert helper_pids() == [helper]

    def test_a_rejection_in_the_caller_s_range_drops_the_helpers_ranges(self, monkeypatch, tmp_path):
        force_cpus(monkeypatch, 3)
        seen = stall_from(monkeypatch, tmp_path / "stalled", 2)
        instance, tables, stage = REJECTIONS["tables_caller"]
        split, plain = both_runs(instance, tables, 0)
        assert time.monotonic() - seen[0] < STALL_S - 5
        assert split == plain and split[0].stage == stage
        first = helper_pids()
        split, plain = both_runs(YES, honest_branch_tables(YES), 1)
        assert split == plain and split[0].accepted
        assert helper_pids() == first and all(map(alive, first))

    def test_a_rejection_in_a_helper_s_range_drops_the_ranges_after_it(self, monkeypatch, tmp_path):
        force_cpus(monkeypatch, 3)
        seen = stall_from(monkeypatch, tmp_path / "stalled", 4)
        split, plain = both_runs(YES, without_prefix_table(YES, 2), 0)
        assert time.monotonic() - seen[0] < STALL_S - 5
        assert split == plain and split[0].stage == "b2.tables"
        first = helper_pids()
        split, plain = both_runs(YES, honest_branch_tables(YES), 1)
        assert split == plain and split[0].accepted
        assert helper_pids() == first and all(map(alive, first))

    def test_an_accepting_range_drops_nothing(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        dropped = []
        monkeypatch.setattr(pool._Helper, "drop", lambda helper: dropped.append(helper))
        for instance, tables in [(YES, honest_branch_tables(YES)), (YES, without_prefix_table(YES, 5))]:
            split, plain = both_runs(instance, tables, 2)
            assert split == plain
        assert dropped == [] and len(helper_pids()) == 2

    def test_a_dead_helper_whose_range_is_dropped_is_reaped(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        both_runs(YES, honest_branch_tables(YES), 0)
        (killed,) = helper_pids()
        os.kill(killed, signal.SIGKILL)
        instance, tables, _ = REJECTIONS["simplify_caller"]
        split, plain = both_runs(instance, tables, 3)
        assert split == plain
        assert helper_pids() == [] and not alive(killed)
        split, plain = both_runs(YES, honest_branch_tables(YES), 4)
        assert split == plain and len(helper_pids()) == 1

    def test_a_raise_in_the_caller_s_range_kills_every_helper(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        both_runs(YES, honest_branch_tables(YES), 0)
        (helper,) = helper_pids()

        def refused(*args):
            raise RuntimeError("refused")

        monkeypatch.setattr(awsat, "_branch_prover", refused)
        with pytest.raises(RuntimeError, match="refused"):
            verify_awsat(YES, honest_branch_tables(YES), table_committed_prover, RandomTape(1))
        monkeypatch.undo()
        assert helper_pids() == [] and not alive(helper)
        force_cpus(monkeypatch, 2)
        split, plain = both_runs(YES, honest_branch_tables(YES), 1)
        assert split == plain


VERIFY = """
import json, os, sys
cpus = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, cpus[:1] if sys.argv[1] == "one" else cpus[:4])
import contextlib, io
from ppcplab import cli, pool
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify", sys.argv[2], "--seed", "3", "--json"])
report = json.loads(out.getvalue())
del report["wall_time_ms"]
print(json.dumps(report, sort_keys=True))
print(len(pool._helpers), code, file=sys.stderr)
"""

# the CI pair: 6 branches each, a yes-instance and a no-instance that first
# fails at branch 3 (a helper's range on 2 CPUs)
CLI_INSTANCES = {
    "yes": ((3, 4, 3), (1, 2, 1), 3, 5),
    "no": ((3, 4, 3), (1, 2, 1), 8, 7),
}


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
@pytest.mark.parametrize("kind", CLI_INSTANCES)
def test_cli_verify_on_one_cpu_reports_the_same_bytes(tmp_path, kind):
    sizes, weights, clauses, seed = CLI_INSTANCES[kind]
    path = tmp_path / f"{kind}.awsat"
    path.write_text(render_awsat(gen_random_awsat(10, sizes, weights, clauses, seed)))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = [
        subprocess.run([sys.executable, "-c", VERIFY, which, str(path)], env=env, capture_output=True, timeout=120)
        for which in ("one", "all")
    ]
    one, every = runs
    cpus = min(len(os.sched_getaffinity(0)), 4)
    assert one.stderr.split() == [b"0", b"0" if kind == "yes" else b"1"]
    assert every.stderr.split() == [str(cpus - 1).encode(), one.stderr.split()[1]]
    assert one.stdout == every.stdout
