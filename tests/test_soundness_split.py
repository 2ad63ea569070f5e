"""soundness_experiment's trial split: the dict it returns equals the one
of the plain in-process loop, whatever the CPU count, and its helpers
neither outlive their process nor carry a result from one call into the
next."""

import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import alive, force_cpus, helper_pids, needs_fork
from ppcplab import pcpverify, pool
from ppcplab.arithmetize import BooleanTable
from ppcplab.formula import ClassTag, brute_force_wsat, parse_pwsat
from ppcplab.pcpverify import (
    ADVERSARIES,
    VerifierConfig,
    protocol_parameters,
    soundness_experiment,
    verify_w1,
    verify_w2,
)
from ppcplab.sumcheck import RandomGarbageProver, RandomTape, adaptive_cheater, derive_seed, table_committed_prover

SRC = Path(__file__).resolve().parent.parent / "src"

# m = 3 no-instances: a triangle at weight 2, and hitting sets of size 1
G12N = parse_pwsat("p pwsat g12n 3 3 2\n-1 -2 0\n-2 -3 0\n-1 -3 0\n")
G21P = parse_pwsat("p pwsat g21p 4 3 1\n1 2 0\n3 4 0\n1 3 4 0\n")
FORMULAS = {"g12n": G12N, "g21p": G21P}
# at p = 5 the adaptive cheater wins often, so every range's count matters
CONFIGS = {
    "default": None,
    "explicit_prime": VerifierConfig(explicit_prime=5),
    "ml_test_reps": VerifierConfig(ml_test_reps=2),
}
TRIALS = (0, 1, 2, 3, 24, 25)


def reference(formula, adversary, trials, base_seed, config=None):
    """The trial loop as it ran before the split: every trial in process."""
    decision, _ = brute_force_wsat(formula)
    assert not decision
    params = protocol_parameters(formula, config)
    verifier = verify_w1 if formula.class_tag is ClassTag.G12N else verify_w2
    m = formula.m
    committed = BooleanTable.from_true_codes(range(min(formula.k, 1 << m)), m)
    accepted = 0
    for t in range(trials):
        tape = RandomTape(derive_seed(base_seed, t))
        if adversary == "adaptive":
            prover = adaptive_cheater(table_committed_prover(committed))
        elif adversary == "committed":
            prover = table_committed_prover(committed)
        else:
            prover = RandomGarbageProver(derive_seed(derive_seed(base_seed, t), 1))
        if verifier(formula, prover, tape, config).accepted:
            accepted += 1
    if adversary == "adaptive":
        bound = min(params.total_rounds * params.degree / params.prime, 1.0)
    elif adversary == "committed":
        bound = min(2 * m / params.prime, 1.0)
    else:
        bound = 2 / params.prime
    return {
        "adversary": adversary,
        "trials": trials,
        "accepted": accepted,
        "acceptance_rate": accepted / trials if trials else 0.0,
        "analytic_bound": bound,
        "prime": params.prime,
        "total_rounds": params.total_rounds,
    }


# each test starts and ends with no helper alive
pytestmark = pytest.mark.usefixtures("no_helpers")


class TestTrialRanges:
    @pytest.mark.parametrize("trials", [0, 1, 2, 3, 7, 24, 25])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_contiguous_cover_with_lengths_within_one(self, trials, parts):
        ranges = pool._trial_ranges(trials, parts)
        assert len(ranges) == parts
        assert [t for part in ranges for t in part] == list(range(trials))
        assert all(part.step == 1 for part in ranges)
        lengths = [len(part) for part in ranges]
        assert max(lengths) - min(lengths) <= 1

    def test_extra_trials_go_to_the_first_ranges(self):
        assert pool._trial_ranges(25, 3) == [range(0, 9), range(9, 17), range(17, 25)]
        assert pool._trial_ranges(2, 3) == [range(0, 1), range(1, 2), range(2, 2)]


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("kind", FORMULAS)
@pytest.mark.parametrize("adversary", ADVERSARIES)
def test_split_equals_the_in_process_loop(monkeypatch, adversary, kind, config, cpus):
    force_cpus(monkeypatch, cpus)
    formula = FORMULAS[kind]
    for trials in TRIALS:
        assert soundness_experiment(formula, adversary, trials, 11, config) == reference(
            formula, adversary, trials, 11, config
        )
        assert len(pool._helpers) <= cpus - 1


@pytest.fixture
def at_most_four_cpus():
    """The process's own affinity, cut to four CPUs so a test forks a handful
    of helpers at most."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 4:
        os.sched_setaffinity(0, sorted(cpus)[:4])
    yield
    os.sched_setaffinity(0, cpus)


@needs_fork
def test_split_on_the_real_affinity_equals_the_in_process_loop(at_most_four_cpus):
    config = CONFIGS["explicit_prime"]
    for trials in TRIALS:
        assert soundness_experiment(G12N, "adaptive", trials, 5, config) == reference(
            G12N, "adaptive", trials, 5, config
        )
    assert len(pool._helpers) == len(os.sched_getaffinity(0)) - 1


@needs_fork
class TestHelpers:
    def test_one_helper_per_extra_cpu_and_trial_kept_across_calls(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        soundness_experiment(G12N, "committed", 1, 0)
        assert helper_pids() == []
        soundness_experiment(G12N, "committed", 2, 0)
        first = helper_pids()
        assert len(first) == 1
        soundness_experiment(G12N, "committed", 24, 0)
        both = helper_pids()
        assert len(both) == 2 and both[0] == first[0]
        soundness_experiment(G21P, "random", 24, 1)
        assert helper_pids() == both

    def test_one_cpu_forks_nothing(self, monkeypatch):
        force_cpus(monkeypatch, 1)
        assert soundness_experiment(G12N, "adaptive", 24, 3) == reference(G12N, "adaptive", 24, 3)
        assert helper_pids() == []

    def test_a_second_thread_keeps_every_trial_in_process(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert soundness_experiment(G12N, "adaptive", 24, 3) == reference(G12N, "adaptive", 24, 3)
            assert helper_pids() == []
        finally:
            release.set()
            waiter.join()

    def test_a_killed_helper_s_range_reruns_in_process(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        config = CONFIGS["explicit_prime"]
        soundness_experiment(G12N, "adaptive", 24, 7, config)
        killed, kept = helper_pids()
        os.kill(killed, signal.SIGKILL)
        assert soundness_experiment(G12N, "adaptive", 25, 8, config) == reference(
            G12N, "adaptive", 25, 8, config
        )
        assert helper_pids() == [kept]
        assert not alive(killed)
        soundness_experiment(G12N, "adaptive", 24, 9, config)
        assert len(helper_pids()) == 2 and helper_pids()[0] == kept

    def test_a_patched_verifier_sees_every_trial(self, monkeypatch):
        force_cpus(monkeypatch, 3)
        config = CONFIGS["explicit_prime"]
        soundness_experiment(G12N, "adaptive", 24, 7, config)
        assert len(helper_pids()) == 2
        seen = []

        def counting(formula, prover, tape, cfg=None):
            seen.append(tape.seed)
            return verify_w1(formula, prover, tape, cfg)

        monkeypatch.setattr(pcpverify, "verify_w1", counting)
        assert soundness_experiment(G12N, "adaptive", 24, 8, config) == reference(
            G12N, "adaptive", 24, 8, config
        )
        assert seen == [RandomTape(derive_seed(8, t)).seed for t in range(24)]

    def test_the_caller_s_range_runs_on_the_caller_s_own_formula(self, monkeypatch):
        # only a helper rebuilds the formula and config from the task's plain data
        force_cpus(monkeypatch, 2)
        config = CONFIGS["ml_test_reps"]
        seen = []
        counted = pcpverify._accepted_in

        def recording(formula, adversary, trials, base_seed, cfg):
            seen.append((formula, cfg, trials))
            return counted(formula, adversary, trials, base_seed, cfg)

        monkeypatch.setattr(pcpverify, "_accepted_in", recording)
        assert soundness_experiment(G12N, "adaptive", 24, 3, config) == reference(G12N, "adaptive", 24, 3, config)
        assert len(helper_pids()) == 1
        assert [(formula is G12N, cfg is config, trials) for formula, cfg, trials in seen] == [(True, True, range(12))]

    def test_a_raise_in_the_caller_s_range_leaves_no_result_behind(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        config = CONFIGS["explicit_prime"]
        soundness_experiment(G12N, "adaptive", 24, 7, config)
        (helper,) = helper_pids()
        # the helper was forked before this patch, so only the caller's range raises,
        # while the helper counts its own range's many acceptances at p = 5
        assert reference(G12N, "adaptive", 24, 8, config)["accepted"] > 0

        class Refused(RandomTape):
            def __init__(self, seed):
                raise RuntimeError("tape refused")

        monkeypatch.setattr(pcpverify, "RandomTape", Refused)
        with pytest.raises(RuntimeError, match="tape refused"):
            soundness_experiment(G12N, "adaptive", 24, 8, config)
        monkeypatch.setattr(pcpverify, "RandomTape", RandomTape)
        assert helper_pids() == []
        assert not alive(helper)
        assert soundness_experiment(G12N, "committed", 24, 8) == reference(G12N, "committed", 24, 8)

    def test_arguments_marshal_cannot_carry_run_in_process(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        soundness_experiment(G12N, "committed", 4, 0)
        (helper,) = helper_pids()
        config = VerifierConfig(epsilon=Fraction(1, 4))
        assert soundness_experiment(G12N, "adaptive", 24, 3, config) == reference(G12N, "adaptive", 24, 3, config)
        assert helper_pids() == [helper]
        assert soundness_experiment(G12N, "committed", 4, 0) == reference(G12N, "committed", 4, 0)

    def test_a_forked_child_owns_no_helper(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        soundness_experiment(G12N, "committed", 4, 0)
        (helper,) = helper_pids()
        pid = os.fork()
        if pid == 0:
            fine = False
            try:
                got = soundness_experiment(G12N, "adaptive", 24, 3)
                fine = got == reference(G12N, "adaptive", 24, 3) and helper not in helper_pids()
                pool._stop_helpers()
            finally:
                os._exit(0 if fine else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert helper_pids() == [helper] and alive(helper)
        soundness_experiment(G12N, "committed", 4, 0)
        assert helper_pids() == [helper]


def run_python(code, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, timeout=120, check=False
    )


ATTACK = """
import os, sys
cpus = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, cpus[:1] if sys.argv[1] == "one" else cpus[:4])
from ppcplab import cli, pool
code = cli.main(["attack", sys.argv[2], "--trials", "60", "--seed", "4", "--prime", "5", "--json"])
print(len(pool._helpers), code, file=sys.stderr)
"""


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_cpu_subprocess_forks_nothing_and_reports_the_same_bytes(tmp_path):
    """The same attack on one CPU and on up to four, each in its own process."""
    path = tmp_path / "no.pwsat"
    path.write_text("p pwsat g12n 3 3 2\n-1 -2 0\n-2 -3 0\n-1 -3 0\n")
    one = run_python(ATTACK, "one", str(path))
    every = run_python(ATTACK, "all", str(path))
    cpus = min(len(os.sched_getaffinity(0)), 4)
    assert every.stderr.split()[0] == str(cpus - 1).encode()
    assert one.stderr.split() == [b"0", every.stderr.split()[1]]
    assert one.stdout == every.stdout
    assert b'"accepted"' in one.stdout


ORPHANED = """
import os
os.sched_getaffinity = lambda pid: {0, 1, 2}
from ppcplab import parse_pwsat, soundness_experiment
f = parse_pwsat("p pwsat g12n 3 3 2\\n-1 -2 0\\n-2 -3 0\\n-1 -3 0\\n")
soundness_experiment(f, "adaptive", 200000, 0)
"""


def children_of(pid):
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry.name))
    return found


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_helpers_end_when_their_process_is_killed():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-c", ORPHANED], env=env)
    try:
        deadline = time.monotonic() + 60
        helpers = []
        while len(helpers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            helpers = children_of(proc.pid)
        assert len(helpers) == 2
        time.sleep(0.2)  # both helpers are inside their ranges
    finally:
        proc.kill()
        proc.wait()
    time.sleep(2)
    assert [pid for pid in helpers if alive(pid)] == []
