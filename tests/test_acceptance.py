"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single line ``ACCEPTANCE <n> (<label>): PASS|FAIL``;
run with ``pytest tests/test_acceptance.py -v -s`` to see them live.
"""

import contextlib
import itertools
import json
import math
import re

import pytest

from ppcplab.arithmetize import BooleanTable, mle_eval
from ppcplab.awsat import (
    BranchProofTables,
    enumerate_universal,
    honest_branch_tables,
    verify_awsat,
)
from ppcplab.cli import main as cli_main
from ppcplab.field import select_prime
from ppcplab.formula import (
    AwsatInstance,
    ClassTag,
    WeightedFormula,
    brute_force_awsat,
    brute_force_wsat,
    parse_awsat,
)
from ppcplab.pcpverify import (
    VerifierConfig,
    multilinearity_test,
    resource_report,
    verify_w1,
    verify_w2,
    w1_ideal_random_bits,
    w1_parameters,
    w1_proof_bits,
    w2_parameters,
)
from ppcplab.reductions import (
    Graph,
    gen_planted_yes_with_witness,
    gen_random,
    gen_random_awsat,
    has_independent_set,
    independent_set_to_wsat,
)
from ppcplab.sumcheck import (
    GenericHonestProver,
    RandomTape,
    ResourceMeter,
    adaptive_cheater,
    derive_seed,
    table_committed_prover,
)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS")


def honest_table(formula, witness):
    return BooleanTable.from_assignment(witness.true_set, formula.m)


def committed_k_table(formula):
    return BooleanTable.from_true_codes(range(min(formula.k, 1 << formula.m)), formula.m)


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_corpus():
    corpus = []
    for i in range(200):
        n = 4 + (i % 13)  # 4..16
        k = 1 + (i % 4)   # 1..4
        legal = math.comb(n, 2) - math.comb(k, 2)
        ncl = min(2 * n, legal, 32)
        f, wit = gen_planted_yes_with_witness(n, k, ncl, derive_seed(1000, i))
        assert f.m <= 5
        corpus.append((f, wit))
    return corpus


NO_CONFIGS = ((4, 2, 8), (4, 3, 8), (4, 3, 7), (5, 3, 8), (4, 2, 7))


@pytest.fixture(scope="module")
def no_corpus():
    found = []
    seen = set()
    attempt = 0
    while len(found) < 50 and attempt < 30000:
        n, k, ncl = NO_CONFIGS[attempt % len(NO_CONFIGS)]
        f = gen_random(n, ncl, k, derive_seed(2000, attempt), ClassTag.G12N)
        attempt += 1
        if brute_force_wsat(f)[0]:
            continue
        key = (f.num_vars, f.k, tuple(sorted(f.clauses)))
        if key in seen:
            continue
        seen.add(key)
        found.append(f)
    assert len(found) == 50, f"only {len(found)} no-instances found"
    return found


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_completeness(planted_corpus):
    with criterion(1, "completeness 2000/2000"):
        accepted = 0
        for idx, (f, wit) in enumerate(planted_corpus):
            prover_table = honest_table(f, wit)
            for s in range(10):
                tape = RandomTape(derive_seed(idx, s))
                verdict = verify_w1(f, table_committed_prover(prover_table), tape)
                accepted += verdict.accepted
        assert accepted == 2000


def test_criterion_2_adaptive_soundness(no_corpus):
    with criterion(2, "adaptive cheater bounded"):
        trials = 500
        slack = 3 * math.sqrt(0.25 / trials)
        for idx, f in enumerate(no_corpus):
            params = w1_parameters(f)
            table = committed_k_table(f)
            accepted = 0
            for s in range(trials):
                prover = adaptive_cheater(table_committed_prover(table))
                tape = RandomTape(derive_seed(3000 + idx, s))
                accepted += verify_w1(f, prover, tape).accepted
            rate = accepted / trials
            bound = params.total_rounds * 3 / params.prime + slack
            assert rate <= bound, (idx, rate, bound)
            assert rate <= 0.5, (idx, rate)


def test_criterion_3_committed_soundness(no_corpus):
    with criterion(3, "committed-table separation"):
        trials = 2000
        for idx, f in enumerate(no_corpus[:10]):
            params = w1_parameters(f)
            table = committed_k_table(f)
            accepted = 0
            for s in range(trials):
                tape = RandomTape(derive_seed(4000 + idx, s))
                accepted += verify_w1(f, table_committed_prover(table), tape).accepted
            assert accepted / trials <= 2 * f.m / params.prime, (idx, accepted)


def _all_g12n_instances():
    for n in (1, 2, 3):
        pool = [(-a,) for a in range(1, n + 1)] + [
            (-a, -b) for a, b in itertools.combinations(range(1, n + 1), 2)
        ]
        for size in range(4):
            for cls in itertools.combinations_with_replacement(pool, size):
                for k in range(4):
                    yield WeightedFormula(n, cls, ClassTag.G12N, k)


def test_criterion_4_oracle_equivalence_exhaustive():
    with criterion(4, "exhaustive oracle equivalence (g12n)"):
        seeds = 50
        yes_count = no_count = 0
        for inst_idx, f in enumerate(_all_g12n_instances()):
            decision, witness = brute_force_wsat(f)
            if decision:
                yes_count += 1
                table = honest_table(f, witness)
                for s in range(seeds):
                    tape = RandomTape(derive_seed(5000 + inst_idx, s))
                    assert verify_w1(f, table_committed_prover(table), tape).accepted
            else:
                no_count += 1
                table = committed_k_table(f)
                rejected = 0
                for s in range(seeds):
                    prover = adaptive_cheater(table_committed_prover(table))
                    tape = RandomTape(derive_seed(6000 + inst_idx, s))
                    rejected += not verify_w1(f, prover, tape).accepted
                assert rejected >= seeds * (1 - 0.5), (inst_idx, rejected)
        assert yes_count > 100 and no_count > 100  # a few hundred instances total


def test_criterion_5_resource_scaling():
    with criterion(5, "meter closed forms and m log m scaling"):
        ms = range(3, 9)
        for m in ms:
            n = 1 << m
            k = 2
            legal = math.comb(n, 2) - math.comb(k, 2)
            ncl = min(1 << (m - 1), legal)
            f, wit = gen_planted_yes_with_witness(n, k, ncl, derive_seed(7000, m))
            assert f.m == m
            params = w1_parameters(f)
            tape = RandomTape(derive_seed(7100, m))
            verdict = verify_w1(f, table_committed_prover(honest_table(f, wit)), tape)
            assert verdict.accepted
            ideal = w1_ideal_random_bits(m, params.reps, params.prime)
            assert verdict.meter.random_bits == ideal + tape.overhead_bits  # zero tolerance
            assert verdict.meter.proof_bits == w1_proof_bits(m, params.reps, params.prime)
        rows = resource_report(ms, seed=11)
        for norms in ([r.random_norm for r in rows], [r.proof_norm for r in rows]):
            assert max(norms) / min(norms) < 4.0, norms


def _all_g21p_instances():
    for n in (1, 2, 3):
        pool = [
            tuple(sorted(sub))
            for size in range(1, n + 1)
            for sub in itertools.combinations(range(1, n + 1), size)
        ]
        for count in range(3):
            for cls in itertools.combinations_with_replacement(pool, count):
                for k in range(4):
                    yield WeightedFormula(n, cls, ClassTag.G21P, k)


def test_criterion_6_w2():
    with criterion(6, "w2 rounds, oracle equivalence, linear proof bits in L"):
        # exact round counts for L in 1..4
        for L in (1, 2, 3, 4):
            clauses = (tuple(range(1, L + 1)),) if L > 1 else ((1,),)
            f = WeightedFormula(4, clauses, ClassTag.G21P, 1)
            params = w2_parameters(f)
            assert params.padded_len == L
            decision, witness = brute_force_wsat(f)
            assert decision
            tape = RandomTape(derive_seed(8000, L))
            verdict = verify_w2(f, table_committed_prover(honest_table(f, witness)), tape)
            assert verdict.accepted
            sumcheck_rounds = sum(s.rounds for s in verdict.stages if s.name != "mltest")
            assert sumcheck_rounds == (L + 1) * f.m + f.m  # exact

        # exhaustive oracle equivalence, n_v <= 3
        seeds = 30
        for inst_idx, f in enumerate(_all_g21p_instances()):
            decision, witness = brute_force_wsat(f)
            if decision:
                table = honest_table(f, witness)
                for s in range(seeds):
                    tape = RandomTape(derive_seed(8100 + inst_idx, s))
                    assert verify_w2(f, table_committed_prover(table), tape).accepted
            else:
                table = committed_k_table(f)
                rejected = 0
                for s in range(seeds):
                    prover = adaptive_cheater(table_committed_prover(table))
                    tape = RandomTape(derive_seed(8200 + inst_idx, s))
                    rejected += not verify_w2(f, prover, tape).accepted
                assert rejected >= seeds * (1 - 0.5), (inst_idx, rejected)

        # proof bits grow linearly in L (within 15% of the least-squares line)
        points = []
        for L in (2, 3, 4):
            clauses = (tuple(range(1, L + 1)), (1, 2))
            f = WeightedFormula(4, clauses, ClassTag.G21P, 1)
            decision, witness = brute_force_wsat(f)
            assert decision
            tape = RandomTape(derive_seed(8300, L))
            verdict = verify_w2(f, table_committed_prover(honest_table(f, witness)), tape)
            assert verdict.accepted
            points.append((L, verdict.meter.proof_bits))
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        xbar, ybar = sum(xs) / 3, sum(ys) / 3
        slope = sum((x - xbar) * (y - ybar) for x, y in points) / sum((x - xbar) ** 2 for x in xs)
        for x, y in points:
            fitted = ybar + slope * (x - xbar)
            assert abs(y - fitted) / y <= 0.15, points


def test_criterion_7_multilinearity_power():
    with criterion(7, "multilinearity test power"):
        for m in (3, 5, 8):
            reps = 5 * m
            prime = select_prime(9 * m, 3, 0.5)
            table = BooleanTable.from_true_codes([1, 2, (1 << m) - 2], m)
            exact = lambda pt, p: mle_eval(table, pt, p)
            prover = GenericHonestProver(exact)
            for s in range(1000):
                ok, _ = multilinearity_test(
                    prover, m, reps, RandomTape(derive_seed(9000 + m, s)), ResourceMeter(), prime
                )
                assert ok  # 100 percent pass rate

            planted = lambda pt, p: (mle_eval(table, pt, p) + pt[0] * pt[0]) % p
            prover = GenericHonestProver(planted)
            rejected = 0
            trials = 2000
            for s in range(trials):
                ok, _ = multilinearity_test(
                    prover, m, reps, RandomTape(derive_seed(9500 + m, s)), ResourceMeter(), prime
                )
                rejected += not ok
            floor = 1 - (1 - 1 / m) ** reps - 0.02
            assert rejected / trials >= floor, (m, rejected / trials, floor)


AWSAT_SIZES = ((2, 2, 2), (2, 3, 3), (3, 2, 3), (2, 2, 4), (3, 3, 2))
AWSAT_WEIGHTS = ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2))


def _awsat_corpus():
    corpus = []
    for i in range(50):
        sizes = AWSAT_SIZES[i % len(AWSAT_SIZES)]
        weights = tuple(
            min(w, size) for w, size in zip(AWSAT_WEIGHTS[i % len(AWSAT_WEIGHTS)], sizes)
        )
        ncl = 2 + (i % 3)
        corpus.append(gen_random_awsat(sum(sizes), sizes, weights, ncl, derive_seed(10_000, i)))
    return corpus


def _best_effort_tables(instance):
    tables = {}
    m = instance.formula.m
    for branch in enumerate_universal(instance):
        for i in range(instance.l):
            j = i + 1
            if j % 2 == 0:
                continue
            key = (j, branch.prefix_key(j))
            if key not in tables:
                chosen = set(instance.blocks[i][: instance.block_weights[i]])
                tables[key] = BooleanTable.from_assignment(chosen, m)
    return BranchProofTables(tables)


def test_criterion_8_awsat():
    with criterion(8, "alternating-weight verification"):
        corpus = _awsat_corpus()
        yes_seen = no_seen = 0
        bits_checked = False
        for idx, inst in enumerate(corpus):
            decision = brute_force_awsat(inst)
            tables = honest_branch_tables(inst)
            assert (tables is not None) == decision  # completeness side equals the oracle
            if decision:
                yes_seen += 1
                for s in range(5):
                    tape = RandomTape(derive_seed(11_000 + idx, s))
                    verdict = verify_awsat(inst, tables, table_committed_prover, tape)
                    assert verdict.accepted, (idx, s)
                branches = enumerate_universal(inst)
                if not bits_checked and len(branches) > 1:
                    verdict = verify_awsat(
                        inst, tables, table_committed_prover, RandomTape(derive_seed(11_500, idx))
                    )
                    per_branch = {}
                    for st in verdict.stages:
                        tag = st.name.split(".")[0]
                        per_branch[tag] = per_branch.get(tag, 0) + st.proof_bits
                    values = list(per_branch.values())
                    assert len(values) == len(branches)
                    target = len(branches) * values[0]
                    assert abs(verdict.meter.proof_bits - target) / target <= 0.01
                    bits_checked = True
            else:
                no_seen += 1
                cheat_tables = _best_effort_tables(inst)
                factory = lambda table: adaptive_cheater(table_committed_prover(table))
                accepted = 0
                trials = 200
                for s in range(trials):
                    tape = RandomTape(derive_seed(12_000 + idx, s))
                    accepted += verify_awsat(inst, cheat_tables, factory, tape).accepted
                assert accepted / trials <= 0.5, (idx, accepted)
        assert yes_seen > 0 and no_seen > 0 and bits_checked

        # l = 1 path is transcript-identical to verify_w1 under the same seed
        text = "p pwsat g12n 3 2 1\nb 1 1 1 2 3 0\n-1 -2 0\n-1 -3 0\n"
        inst = parse_awsat(text)
        tables = honest_branch_tables(inst)
        table = tables.merge(enumerate_universal(inst)[0], inst)
        for s in (1, 17, 400):
            via_awsat = verify_awsat(inst, tables, table_committed_prover, RandomTape(s))
            direct = verify_w1(inst.formula, table_committed_prover(table), RandomTape(s))
            assert via_awsat == direct and repr(via_awsat) == repr(direct)


def test_criterion_9_reduction_exhaustive():
    with criterion(9, "independent-set reduction, zero mismatches"):
        mismatches = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                edges = frozenset(p for i, p in enumerate(pairs) if (mask >> i) & 1)
                g = Graph(n, edges)
                for k in range(n + 1):
                    lhs = has_independent_set(g, k)
                    rhs, _ = brute_force_wsat(independent_set_to_wsat(g, k))
                    mismatches += lhs != rhs
        assert mismatches == 0


WALL_TIME = re.compile(r'"?wall_time_ms"?[:=][^,\n}]*')


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "byte-identical reports modulo wall time"):
        yes = tmp_path / "yes.pwsat"
        yes.write_text("p pwsat g12n 3 2 1\n-1 -2 0\n-1 -3 0\n")
        no = tmp_path / "no.pwsat"
        no.write_text("p pwsat g12n 2 1 2\n-1 -2 0\n")

        outputs = []
        for _ in range(2):
            assert cli_main(["verify", str(yes), "--seed", "31", "--json"]) == 0
            outputs.append(WALL_TIME.sub("", capsys.readouterr().out))
        assert outputs[0] == outputs[1]

        outputs = []
        for _ in range(2):
            cli_main(["verify", str(yes), "--seed", "8"])
            outputs.append(WALL_TIME.sub("", capsys.readouterr().out))
        assert outputs[0] == outputs[1]

        outputs = []
        for _ in range(2):
            assert cli_main(["attack", str(no), "--trials", "100", "--seed", "5", "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

        outputs = []
        for _ in range(2):
            assert cli_main(["scaling", "--m-min", "2", "--m-max", "4", "--seed", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
