import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from ppcplab.arithmetize import BooleanTable
from ppcplab import awsat
from ppcplab.awsat import (
    BranchProofTables,
    awsat_parameters,
    enumerate_universal,
    honest_branch_tables,
    pad_to_odd,
    universal_branch_count,
    verify_awsat,
)
from ppcplab.formula import (
    Assignment,
    AwsatInstance,
    ClassTag,
    GuardError,
    WeightedFormula,
    brute_force_awsat,
    brute_force_wsat,
    guard_alternation_tree,
    parse_awsat,
    satisfies,
)
from ppcplab.pcpverify import VerifierConfig, verify_w1
from ppcplab.reductions import gen_random_awsat
from ppcplab.sumcheck import (
    RandomTape,
    StageReport,
    adaptive_cheater,
    derive_seed,
    table_committed_prover,
)

L3_YES = gen_random_awsat(6, (2, 2, 2), (1, 1, 1), 2, 0)


def make_instance(num_vars, clauses, blocks, weights, k=None):
    f = WeightedFormula(num_vars, clauses, ClassTag.G12N, sum(weights) if k is None else k)
    return AwsatInstance(f, blocks, weights)


HAND_NO = make_instance(4, ((-2, -4),), ((1,), (2, 3), (4,)), (1, 1, 1))
HAND_YES = make_instance(4, ((-2, -3),), ((1,), (2, 3), (4,)), (1, 1, 1))


L1_YES = AwsatInstance(WeightedFormula(3, ((-1, -2),), ClassTag.G12N, 1), ((1, 2, 3),), (1,))


def raising_factory(table):
    raise RuntimeError("prover unavailable")


class TestEnumerateUniversal:
    def test_l1_single_empty_branch(self):
        inst = make_instance(2, (), ((1, 2),), (1,))
        branches = enumerate_universal(inst)
        assert len(branches) == 1
        assert branches[0].choices == ()

    def test_choose_one_of_three(self):
        inst = make_instance(4, (), ((1,), (2, 3, 4)), (0, 1))
        assert len(enumerate_universal(inst)) == 3

    def test_choose_two_of_three(self):
        inst = make_instance(4, (), ((1,), (2, 3, 4)), (0, 2))
        branches = enumerate_universal(inst)
        assert len(branches) == 3
        assert [sorted(b.choices[0]) for b in branches] == [[2, 3], [2, 4], [3, 4]]

    def test_guard(self):
        f = WeightedFormula(30, (), ClassTag.G12N, 15)
        inst = AwsatInstance(f, ((1,), tuple(range(2, 31))), (0, 15))
        with pytest.raises(GuardError):
            enumerate_universal(inst)
        with pytest.raises(GuardError, match="universal branch count exceeds 10\\^6"):
            universal_branch_count(inst)


def criterion_8_corpus():
    """The alternating corpus of acceptance criterion 8: 50 instances of
    three blocks, two to four clauses each."""
    sizes = ((2, 2, 2), (2, 3, 3), (3, 2, 3), (2, 2, 4), (3, 3, 2))
    weights = ((1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2))
    corpus = []
    for i in range(50):
        block_sizes = sizes[i % len(sizes)]
        block_weights = tuple(min(w, n) for w, n in zip(weights[i % len(weights)], block_sizes))
        corpus.append(gen_random_awsat(
            sum(block_sizes), block_sizes, block_weights, 2 + i % 3, derive_seed(10_000, i)
        ))
    return corpus


class TestUniversalBranchCount:
    @pytest.mark.parametrize("inst", [
        *criterion_8_corpus(),
        L1_YES,
        make_instance(2, (), ((1, 2),), (1,)),
        make_instance(5, (), ((1,), (2, 3), (4, 5)), (1, 3, 1)),  # universal block infeasible
        make_instance(5, (), ((1,), (2, 3), (4, 5)), (2, 1, 1)),  # existential block infeasible
        make_instance(6, (), ((1,), (2, 3), (4,), (5, 6)), (1, 1, 0, 3)),
        make_instance(7, (), ((1,), (2, 3, 4), (5,), (6, 7)), (0, 2, 1, 1)),
    ])
    def test_equals_the_enumerated_branches(self, inst):
        assert universal_branch_count(inst) == len(enumerate_universal(inst))

    def test_verify_awsat_enumerates_once(self, monkeypatch):
        calls = []

        def counted(instance):
            calls.append(instance)
            return enumerate_universal(instance)

        monkeypatch.setattr(awsat, "enumerate_universal", counted)
        tables = honest_branch_tables(HAND_YES)
        assert verify_awsat(HAND_YES, tables, table_committed_prover, RandomTape(3)).accepted
        assert calls == [HAND_YES]
        assert awsat_parameters(HAND_YES).branches == 2 and calls == [HAND_YES]


@st.composite
def alternating_instances(draw):
    """A random alternating instance: l = 1..6 blocks of 0..4 variables,
    each weight 0..size, an even l padded to odd."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    weights = [draw(st.integers(0, size)) for size in sizes]
    n = sum(sizes)
    assume(n >= 1)
    clauses = draw(st.integers(0, 3)) if n >= 2 else 0
    inst = gen_random_awsat(n, tuple(sizes), tuple(weights), clauses, draw(st.integers(0, 2**16)))
    return pad_to_odd(inst) if inst.l % 2 == 0 else inst


class TestBlockWalk:
    """The walks over the universal and the existential blocks, against
    statements of them that visit every block in turn."""

    @settings(max_examples=60, deadline=None)
    @given(alternating_instances(), st.integers(0, 2**16))
    def test_enumeration_merge_and_weight_stages(self, inst, seed):
        universal = [(i + 1, block, kw) for i, (block, kw) in
                     enumerate(zip(inst.blocks, inst.block_weights)) if i % 2 == 1]
        existential = [(i + 1, block) for i, block in enumerate(inst.blocks) if i % 2 == 0]
        branches = enumerate_universal(inst)
        pools = [itertools.combinations(block, kw) for _, block, kw in universal]
        assert [b.choices for b in branches] == [
            tuple(frozenset(c) for c in combo) for combo in itertools.product(*pools)
        ]
        assert all(b.even_indices == tuple(j for j, _, _ in universal) for b in branches)

        tables = honest_branch_tables(inst)
        assume(tables is not None)
        m = inst.formula.m
        for branch in branches:
            union = set()
            for j, block in existential:
                table = tables.tables[(j, branch.prefix_key(j))]
                union |= {code + 1 for code in table.ones()} & set(block)
            assert tables.merge(branch, inst) == BooleanTable.from_assignment(union, m)

        verdict = verify_awsat(inst, tables, table_committed_prover, RandomTape(seed))
        assert verdict.accepted
        if inst.l == 1:
            assert [s.name for s in verdict.stages] == ["mltest", "main", "weight"]
        else:
            assert [s.name for s in verdict.stages] == [
                f"b{idx}.{name}" for idx in range(len(branches))
                for name in ["mltest", "main", *(f"weight{j}" for j, _ in existential)]
            ]


class TestPadToOdd:
    def test_even_to_odd_preserves_value(self):
        inst = make_instance(4, ((-1, -3),), ((1, 2), (3, 4)), (1, 1))
        padded = pad_to_odd(inst)
        assert padded.l == 3
        assert padded.blocks[-1] == ()
        assert padded.block_weights[-1] == 0
        assert brute_force_awsat(inst) == brute_force_awsat(padded)

    def test_padding_odd_instance_rejected(self):
        with pytest.raises(ValueError):
            pad_to_odd(HAND_YES)

    def test_zero_blocks_unconstructible(self):
        f = WeightedFormula(1, (), ClassTag.G12N, 0)
        with pytest.raises(ValueError):
            AwsatInstance(f, (), ())


class TestHonestTables:
    def test_no_instance_has_no_tables(self):
        assert brute_force_awsat(HAND_NO) is False
        assert honest_branch_tables(HAND_NO) is None

    def test_yes_instance_tables_keyed_by_prefix(self):
        assert brute_force_awsat(HAND_YES) is True
        tables = honest_branch_tables(HAND_YES)
        assert tables is not None
        keys = sorted(tables.tables)
        assert keys == [(1, ""), (3, "2:2"), (3, "2:3")]

    def test_l1_yes_matches_wsat_witness(self):
        f = WeightedFormula(3, ((-1, -2),), ClassTag.G12N, 1)
        inst = AwsatInstance(f, ((1, 2, 3),), (1,))
        tables = honest_branch_tables(inst)
        assert tables is not None
        assert brute_force_wsat(f)[0]


    def test_both_tree_walks_share_one_guard_at_10_to_the_7(self):
        # seven blocks of ten with one true variable each: exactly 10^7
        # leaves, at the cap; one more block of two doubles it
        blocks = tuple(tuple(range(10 * i + 1, 10 * i + 11)) for i in range(7))
        at_cap = AwsatInstance(WeightedFormula(70, (), ClassTag.G12N, 7), blocks, (1,) * 7)
        guard_alternation_tree(at_cap)
        over = AwsatInstance(
            WeightedFormula(72, (), ClassTag.G12N, 8), blocks + ((71, 72),), (1,) * 8
        )
        for walk in (guard_alternation_tree, brute_force_awsat, honest_branch_tables):
            with pytest.raises(GuardError, match=r"^alternation tree exceeds 10\^7 branches$"):
                walk(over)


# Plain statements of the three walks, the references the walks are tested
# against: every leaf builds an Assignment and checks the whole formula,
# nothing is pruned, every existential node joins its whole universal
# prefix and every key gets its own table.  The walks must give the same
# decisions, table families and branch lists.


def reference_brute_force_awsat(instance):
    guard_alternation_tree(instance)
    blocks, weights, l = instance.blocks, instance.block_weights, instance.l

    def value(i, trues):
        if i == l:
            return satisfies(instance.formula, Assignment(trues))
        subsets = itertools.combinations(blocks[i], weights[i])
        if (i + 1) % 2 == 1:
            return any(value(i + 1, trues | frozenset(s)) for s in subsets)
        return all(value(i + 1, trues | frozenset(s)) for s in subsets)

    return value(0, frozenset())


def reference_honest_branch_tables(instance):
    guard_alternation_tree(instance)
    blocks, weights, l = instance.blocks, instance.block_weights, instance.l

    def search(i, even_prefix, trues):
        if i == l:
            return satisfies(instance.formula, Assignment(trues)), {}
        block_j = i + 1
        subsets = itertools.combinations(blocks[i], weights[i])
        if block_j % 2 == 1:
            key = awsat._choices_key(even_prefix)
            for s in subsets:
                ok, found = search(i + 1, even_prefix, trues | frozenset(s))
                if ok:
                    found[(block_j, key)] = frozenset(s)
                    return True, found
            return False, {}
        merged = {}
        for s in subsets:
            ok, found = search(i + 1, even_prefix + ((block_j, frozenset(s)),), trues | frozenset(s))
            if not ok:
                return False, {}
            merged.update(found)
        return True, merged

    ok, found = search(0, (), frozenset())
    if not ok:
        return None
    m = instance.formula.m
    return BranchProofTables(
        {key: BooleanTable.from_assignment(chosen, m) for key, chosen in found.items()}
    )


def reference_enumerate_universal(instance):
    universal_branch_count(instance)
    indices = tuple(range(2, instance.l + 1, 2))
    pools = [
        itertools.combinations(block, kw)
        for block, kw in zip(instance.blocks[1::2], instance.block_weights[1::2])
    ]
    return [
        awsat.UniversalBranch(indices, tuple(frozenset(c) for c in combo))
        for combo in itertools.product(*pools)
    ]


@st.composite
def g12n_alternating_instances(draw):
    """l = 1..6 blocks of 0..4 variables, each weight 0..size + 1 (so some
    blocks have no exactly-weight choice), and 0..6 clauses of one or two
    negated literals."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    assume(sum(sizes) >= 1)
    weights = tuple(draw(st.integers(0, size + 1)) for size in sizes)
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    blocks, at = [], 0
    for size in sizes:
        blocks.append(tuple(order[at : at + size]))
        at += size
    literal = st.integers(1, n).map(lambda v: -v)
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=2).map(tuple), max_size=6))
    return make_instance(n, tuple(clauses), tuple(blocks), weights)


def assert_walks_match_the_reference(inst):
    decision = brute_force_awsat(inst)
    assert decision == reference_brute_force_awsat(inst)
    tables = honest_branch_tables(inst)
    expected = reference_honest_branch_tables(inst)
    assert (tables is not None) == decision == (expected is not None)
    if tables is not None:
        assert list(tables.tables) == list(expected.tables)
        assert all(tables.tables[key].values == expected.tables[key].values for key in expected.tables)
    branches = enumerate_universal(inst)
    reference = reference_enumerate_universal(inst)
    assert [(b.even_indices, b.choices) for b in branches] == [
        (b.even_indices, b.choices) for b in reference
    ]


class TestWalksAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(g12n_alternating_instances())
    def test_random_g12n_instances(self, inst):
        assert_walks_match_the_reference(inst)

    @pytest.mark.parametrize("inst", [
        # exists both of {1, 2}, for all two of {3}: the universal block has
        # no choice and accepts vacuously, although every choice of block 1
        # falsifies -1 -2; a walk that stopped at that clause would say no
        make_instance(3, ((-1, -2),), ((1, 2), (3,)), (2, 2)),
        make_instance(5, ((-1, -3),), ((1,), (2,), (3,), (4, 5)), (1, 0, 1, 3)),
        # an existential block with no choice: no, whatever the clauses
        make_instance(5, ((-1, -2),), ((1, 2), (3,), (4, 5)), (2, 1, 3)),
        make_instance(4, (), ((1,), (2, 3), (4,)), (1, 1, 2)),
        make_instance(5, (), ((1,), (2,), (3,), (4,), (5,)), (1, 1, 1, 0, 2)),
        # weight equal to size: the block's one choice takes every variable
        make_instance(4, ((-1, -4),), ((1, 2), (3,), (4,)), (2, 1, 0)),
        make_instance(3, ((-2,),), ((1,), (2,), (3,)), (1, 1, 1)),
        make_instance(6, ((-1, -4), (-3, -6), (-2, -2)), ((1, 2), (3, 4), (5, 6)), (1, 1, 1)),
        make_instance(7, ((-2, -5), (-3, -7)), ((1,), (2, 3), (4,), (5, 6), (7,)), (1, 1, 1, 1, 0)),
        HAND_NO,
        HAND_YES,
        L3_YES,
    ])
    def test_fixed_instances(self, inst):
        assert_walks_match_the_reference(inst)

    def test_each_existential_choice_has_one_table(self):
        # block 3 answers x4 under both universal choices: one shared table
        tables = honest_branch_tables(HAND_YES)
        assert list(tables.tables) == [(3, "2:2"), (3, "2:3"), (1, "")]
        assert tables.tables[(3, "2:2")] is tables.tables[(3, "2:3")]


class TestVerifyAwsat:
    def test_yes_instance_honest_accepts(self):
        tables = honest_branch_tables(HAND_YES)
        for seed in range(20):
            verdict = verify_awsat(HAND_YES, tables, table_committed_prover, RandomTape(seed))
            assert verdict.accepted, seed

    def test_hand_example_matches_oracle(self):
        # completeness side of the oracle equivalence: tables exist iff yes
        assert (honest_branch_tables(HAND_YES) is not None) == brute_force_awsat(HAND_YES)
        assert (honest_branch_tables(HAND_NO) is not None) == brute_force_awsat(HAND_NO)

    def test_no_instance_cheating_bounded(self):
        # best-effort tables plus per-branch adaptive cheating
        tables = BranchProofTables(
            {
                (1, ""): BooleanTable.from_assignment({1}, HAND_NO.formula.m),
                (3, "2:2"): BooleanTable.from_assignment({4}, HAND_NO.formula.m),
                (3, "2:3"): BooleanTable.from_assignment({4}, HAND_NO.formula.m),
            }
        )
        factory = lambda table: adaptive_cheater(table_committed_prover(table))
        accepted = 0
        trials = 200
        for seed in range(trials):
            verdict = verify_awsat(HAND_NO, tables, factory, RandomTape(derive_seed(11, seed)))
            accepted += verdict.accepted
        assert accepted / trials <= 0.5

    def test_unsat_branch_rejects_immediately(self):
        # clause entirely inside the universal block: the branch picking both
        # endpoints falsifies it at substitution time
        inst = make_instance(4, ((-2, -3),), ((1,), (2, 3), (4,)), (1, 2, 1))
        tables = BranchProofTables(
            {
                (1, ""): BooleanTable.from_assignment({1}, inst.formula.m),
                (3, "2:2,3"): BooleanTable.from_assignment({4}, inst.formula.m),
            }
        )
        verdict = verify_awsat(inst, tables, table_committed_prover, RandomTape(0))
        assert not verdict.accepted
        assert verdict.stage.endswith("simplify")
        # rejected before any round, draw or read
        assert verdict.stages == (StageReport("b0.simplify", 0, 0, 0, 0, False),)
        assert verdict.rejection_round is None

    def test_missing_table_rejects(self):
        tables = BranchProofTables({(1, ""): BooleanTable.from_assignment({1}, HAND_YES.formula.m)})
        verdict = verify_awsat(HAND_YES, tables, table_committed_prover, RandomTape(0))
        assert not verdict.accepted
        assert verdict.stage.endswith("tables")

    def test_missing_table_rejects_l1_path(self):
        f = WeightedFormula(3, ((-1, -2),), ClassTag.G12N, 1)
        inst = AwsatInstance(f, ((1, 2, 3),), (1,))
        verdict = verify_awsat(inst, BranchProofTables({}), table_committed_prover, RandomTape(0))
        assert not verdict.accepted
        assert verdict.stage == "b0.tables"
        # the rejecting stage closes a 0-round report, as it does at l >= 3
        assert verdict.stages == (StageReport("b0.tables", 0, 0, 0, 0, False),)

    def test_raising_factory_rejects_at_tables(self):
        tables = honest_branch_tables(HAND_YES)
        verdict = verify_awsat(HAND_YES, tables, raising_factory, RandomTape(0))
        assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "b0.tables", None)
        assert verdict.stages[-1].name == "b0.tables" and verdict.stages[-1].rounds == 0
        # the same verdict, meters and stage reports as a missing table
        missing = verify_awsat(HAND_YES, BranchProofTables({}), table_committed_prover, RandomTape(0))
        assert verdict == missing

    def test_factory_raising_on_a_later_branch_rejects_there(self):
        tables = honest_branch_tables(HAND_YES)
        calls = []

        def factory(table):
            calls.append(table)
            if len(calls) > 1:
                raise RuntimeError("prover unavailable")
            return table_committed_prover(table)

        verdict = verify_awsat(HAND_YES, tables, factory, RandomTape(0))
        assert (verdict.accepted, verdict.stage) == (False, "b1.tables")
        assert [s.name for s in verdict.stages][-1] == "b1.tables"
        assert verdict.stages[-1].rounds == 0 and verdict.stages[-2].accepted

    def test_raising_factory_rejects_l1_path(self):
        verdict = verify_awsat(L1_YES, honest_branch_tables(L1_YES), raising_factory, RandomTape(0))
        assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "b0.tables", None)
        assert verdict.stages == (StageReport("b0.tables", 0, 0, 0, 0, False),)
        missing = verify_awsat(L1_YES, BranchProofTables({}), table_committed_prover, RandomTape(0))
        assert verdict == missing

    @pytest.mark.parametrize("made", [lambda t: 5, lambda t: object()], ids=["int", "object"])
    @pytest.mark.parametrize(
        "inst",
        [gen_random_awsat(5, (5,), (2,), 4, 1), gen_random_awsat(6, (2, 2, 2), (1, 1, 1), 3, 0)],
        ids=["l1", "l3"],
    )
    def test_factory_returning_no_prover_rejects_at_tables(self, inst, made):
        tables = honest_branch_tables(inst)
        assert verify_awsat(inst, tables, table_committed_prover, RandomTape(0)).accepted
        verdict = verify_awsat(inst, tables, made, RandomTape(0))
        assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "b0.tables", None)
        # the same verdict, meters and stage reports as a raising factory
        assert verdict == verify_awsat(inst, tables, raising_factory, RandomTape(0))

    @pytest.mark.parametrize("inst", [HAND_YES, L1_YES], ids=["l3", "l1"])
    def test_interrupting_factory_propagates(self, inst):
        def factory(table):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            verify_awsat(inst, honest_branch_tables(inst), factory, RandomTape(0))

    def test_even_l_rejected(self):
        inst = make_instance(2, (), ((1,), (2,)), (1, 0))
        tables = BranchProofTables({})
        with pytest.raises(ValueError):
            verify_awsat(inst, tables, table_committed_prover, RandomTape(0))

    def test_infeasible_blocks_resolved_by_semantics(self):
        # universal block cannot supply 2 of 1: vacuously true
        inst_u = make_instance(3, ((-1, -1),), ((1,), (2,), (3,)), (1, 2, 0))
        assert brute_force_awsat(inst_u) is True
        verdict = verify_awsat(inst_u, BranchProofTables({}), table_committed_prover, RandomTape(0))
        assert verdict.accepted
        # existential block cannot supply 2 of 1: false
        inst_e = make_instance(3, (), ((1,), (2,), (3,)), (2, 1, 0))
        assert brute_force_awsat(inst_e) is False
        verdict = verify_awsat(inst_e, BranchProofTables({}), table_committed_prover, RandomTape(0))
        assert (verdict.accepted, verdict.stage) == (False, "block1.infeasible")
        assert verdict.stages == (StageReport("block1.infeasible", 0, 0, 0, 0, False),)

    def test_l1_transcript_identical_to_verify_w1(self):
        text = "p pwsat g12n 3 2 1\nb 1 1 1 2 3 0\n-1 -2 0\n-1 -3 0\n"
        inst = parse_awsat(text)
        tables = honest_branch_tables(inst)
        table = tables.merge(enumerate_universal(inst)[0], inst)
        for seed in (0, 7, 99):
            via_awsat = verify_awsat(inst, tables, table_committed_prover, RandomTape(seed))
            direct = verify_w1(inst.formula, table_committed_prover(table), RandomTape(seed))
            assert via_awsat == direct
            assert repr(via_awsat) == repr(direct)

    def test_branch_bits_identity(self):
        tables = honest_branch_tables(HAND_YES)
        verdict = verify_awsat(HAND_YES, tables, table_committed_prover, RandomTape(4))
        assert verdict.accepted
        branches = enumerate_universal(HAND_YES)
        per_branch = {}
        for s in verdict.stages:
            tag = s.name.split(".")[0]
            per_branch[tag] = per_branch.get(tag, 0) + s.proof_bits
        values = list(per_branch.values())
        assert len(values) == len(branches)
        assert all(v == values[0] for v in values)  # proof bits are deterministic
        assert verdict.meter.proof_bits == len(branches) * values[0]


    @pytest.mark.parametrize("inst", [L1_YES, L3_YES], ids=["l1", "l3"])
    def test_a_caller_config_moves_the_meters(self, inst):
        # a config that is not the default must take effect: its repetition
        # count sets every multilinearity stage's rounds, and its prime the
        # bit width of every stage's proof bits
        tables = honest_branch_tables(inst)

        def run(config):
            return verify_awsat(inst, tables, table_committed_prover, RandomTape(6), config)

        default, few, big = run(None), run(VerifierConfig(ml_test_reps=3)), run(
            VerifierConfig(explicit_prime=2**61 - 1)
        )
        assert default.accepted and few.accepted and big.accepted
        m = inst.formula.m
        for verdict, reps in [(default, 5 * m), (few, 3), (big, 5 * m)]:
            tests = [s for s in verdict.stages if s.name.endswith("mltest")]
            assert tests and all(s.rounds == reps for s in tests)
        width = (awsat_parameters(inst).prime - 1).bit_length()
        assert width < 61
        assert [s.proof_bits // width for s in default.stages] == [
            s.proof_bits // 61 for s in big.stages
        ]
        assert all(s.proof_bits % 61 == 0 for s in big.stages)

class TestPrefixConsistency:
    def build_l5(self):
        # blocks: E{1} A{2,3} E{4} A{5,6} E{7}; block-3 tables are shared by
        # the branches that agree on the block-2 choice but differ at block 4
        return make_instance(
            7, (), ((1,), (2, 3), (4,), (5, 6), (7,)), (1, 1, 1, 1, 1)
        )

    def test_shared_prefix_shares_table(self):
        inst = self.build_l5()
        tables = honest_branch_tables(inst)
        assert tables is not None
        branches = enumerate_universal(inst)
        # group branches by their block-3 prefix
        groups = {}
        for b in branches:
            groups.setdefault(b.prefix_key(3), []).append(b)
        assert any(len(g) > 1 for g in groups.values())
        key = next(k for k, g in groups.items() if len(g) > 1)
        group = groups[key]
        # fault injection: flip the shared table and watch every sharing
        # branch change its merged oracle
        m = inst.formula.m
        before = [tables.merge(b, inst).values for b in group]
        flipped = list(tables.tables[(3, key)].values)
        code_of_4 = 3  # variable 4 has code 3
        flipped[code_of_4] ^= 1
        tables.tables[(3, key)] = BooleanTable(m, tuple(flipped))
        after = [tables.merge(b, inst).values for b in group]
        for b_before, b_after in zip(before, after):
            assert b_before != b_after

    def test_oracle_equivalence_generated_corpus(self):
        seen_yes = seen_no = 0
        for seed in range(12):
            inst = gen_random_awsat(6, (2, 2, 2), (1, 1, 1), 3, seed)
            decision = brute_force_awsat(inst)
            tables = honest_branch_tables(inst)
            assert (tables is not None) == decision
            if decision:
                seen_yes += 1
                verdict = verify_awsat(inst, tables, table_committed_prover, RandomTape(seed))
                assert verdict.accepted
            else:
                seen_no += 1
        assert seen_yes > 0


class MergeOverride(BranchProofTables):
    """A proof that brings its own ``merge``: it must never run."""

    def merge(self, branch, instance):
        raise AssertionError("the verifier ran a prover-supplied merge")


class DictSub(dict):
    pass


class LoudValues(bytes):
    def __getitem__(self, i):
        raise AssertionError("the verifier indexed prover-supplied values")

    def __iter__(self):
        raise AssertionError("the verifier iterated prover-supplied values")


def _forged(table, values):
    """A ``BooleanTable`` made without its constructor's checks."""
    forged = object.__new__(BooleanTable)
    for name, value in (("arity", table.arity), ("values", values), ("_ones", table.ones())):
        object.__setattr__(forged, name, value)
    return forged


class StrSub(str):
    pass


class BytesSub(bytes):
    pass


class LookalikeKey:
    """Hashes like and equals the key ``(1, "")``: a dict lookup of that key
    would run this ``__eq__``."""

    def __hash__(self):
        return hash((1, ""))

    def __eq__(self, other):
        return other == (1, "")


class LoudName(str):
    """An attribute name that hashes like the name it shadows; once armed,
    comparing it means the verifier ran prover code."""

    def __hash__(self):
        return hash(self.shadows)

    def __eq__(self, other):
        if self.armed:
            raise AssertionError("the verifier compared a prover-supplied attribute name")
        return str.__eq__(self, other)


def _loud(obj, shadows):
    """A copy of ``obj`` whose attribute dict holds a LoudName, ahead of the
    attribute ``shadows``, so a lookup of ``shadows`` compares it first."""
    name = LoudName("note")
    name.shadows, name.armed = shadows, False
    loud = object.__new__(type(obj))
    object.__setattr__(loud, name, None)
    for attr, value in vars(obj).items():
        object.__setattr__(loud, attr, value)
    name.armed = True
    return loud


def _malformations(instance):
    """(name, proof): the honest tables with one entry or one key replaced,
    or in the wrong container."""
    honest = honest_branch_tables(instance)
    key = sorted(honest.tables)[-1]
    values = honest.tables[key].values
    m = instance.formula.m
    entries = {
        "str": "not a table",
        "object": object(),
        "wrong_arity": BooleanTable.from_true_codes([0], m + 1),
        "none": None,
        "forged_values": _forged(honest.tables[key], LoudValues(values)),
        "forged_short": _forged(honest.tables[key], values[:-1]),
        "forged_entry": _forged(honest.tables[key], b"\x02" + values[1:]),
        # the honest entries, in any container but exactly bytes
        "bytearray_values": _forged(honest.tables[key], bytearray(values)),
        "bytes_subclass_values": _forged(honest.tables[key], BytesSub(values)),
        "tuple_values": _forged(honest.tables[key], tuple(values)),
        "list_values": _forged(honest.tables[key], list(values)),
        "memoryview_values": _forged(honest.tables[key], memoryview(values)),
        "loud_name": _loud(honest.tables[key], "values"),
    }
    out = [(name, BranchProofTables({**honest.tables, key: bad})) for name, bad in entries.items()]
    # block 1's key, (1, ""), replaced by keys that hash and compare equal to it
    first = honest.tables[(1, "")]
    rest = {k: t for k, t in honest.tables.items() if k != (1, "")}
    keys = {"str_subclass_key": (1, StrSub("")), "bool_index_key": (True, ""), "lookalike_key": LookalikeKey()}
    out += [(name, BranchProofTables({bad: first, **rest})) for name, bad in keys.items()]
    out.append(("proof_loud_name", _loud(BranchProofTables(dict(honest.tables)), "tables")))
    out.append(("subclass", MergeOverride(dict(honest.tables))))
    out.append(("dict_subclass", BranchProofTables(DictSub(honest.tables))))
    out.append(("not_tables", dict(honest.tables)))
    return out


MALFORMED = [
    pytest.param(inst, proof, id=f"{label}-{name}")
    for label, inst in (("l1", L1_YES), ("l3", L3_YES))
    for name, proof in _malformations(inst)
]


@pytest.mark.parametrize("inst, proof", MALFORMED)
def test_malformed_branch_proof_rejects_at_tables(inst, proof):
    assert verify_awsat(inst, honest_branch_tables(inst), table_committed_prover, RandomTape(0)).accepted
    verdict = verify_awsat(inst, proof, table_committed_prover, RandomTape(0))
    assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "b0.tables", None)
    assert verdict.stages[-1] == StageReport("b0.tables", 0, 0, 0, 0, False)
    # the verdict, meters and stage reports of a proof with no tables
    missing = verify_awsat(inst, BranchProofTables({}), table_committed_prover, RandomTape(0))
    assert verdict == missing


# Block 1's answer would have to depend on block 2's later choice: pick 2
# when the universal player picks 3, pick 1 when it picks 4.
LATER_CHOICE_NO = AwsatInstance(
    WeightedFormula(4, ((-1, -3), (-2, -4)), ClassTag.G12N, 2), ((1, 2), (3, 4), ()), (1, 1, 0)
)


@pytest.mark.parametrize("rewrite", ["swap_entry", "write_values"])
def test_proof_rewritten_after_the_read_reaches_no_branch(rewrite):
    inst = LATER_CHOICE_NO
    assert brute_force_awsat(inst) is False
    m = inst.formula.m
    later = BooleanTable.from_assignment({1}, m)

    def proof():
        # right for branch 0 (universal choice 3), wrong for branch 1
        empty = BooleanTable.from_assignment((), m)
        first = BooleanTable.from_assignment({2}, m)
        return BranchProofTables({(1, ""): first, (3, "2:3"): empty, (3, "2:4"): empty})

    for seed in range(20):
        plain = verify_awsat(inst, proof(), table_committed_prover, RandomTape(seed))
        assert not plain.accepted
        cheat = proof()

        def factory(table):
            # after branch 0's oracle is merged, make block 1 answer 1
            if rewrite == "swap_entry":
                cheat.tables[(1, "")] = later
            else:
                object.__setattr__(cheat.tables[(1, "")], "values", later.values)
            return table_committed_prover(table)

        assert verify_awsat(inst, cheat, factory, RandomTape(seed)) == plain
