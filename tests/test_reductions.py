import itertools
import random
import tracemalloc

import pytest

from ppcplab.formula import Assignment, ClassTag, GuardError, brute_force_wsat, eval_clause
from ppcplab import reductions
from ppcplab.reductions import (
    Graph,
    gen_planted_yes,
    gen_planted_yes_with_witness,
    gen_random,
    gen_random_awsat,
    has_independent_set,
    independent_set_to_wsat,
    parse_graph,
)
from ppcplab.formula import satisfies


def distinct_literal_objects(formula):
    return len({id(lit) for clause in formula.clauses for lit in clause})


def triangle():
    return Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))


class TestGraph:
    def test_normalizes_edge_order(self):
        g = Graph(3, frozenset({(2, 1)}))
        assert (1, 2) in g.edges

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 3)}))

    def test_parse(self):
        g = parse_graph("c a triangle\ng 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert g == triangle()

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_graph("e 1 2\n")
        with pytest.raises(ValueError):
            parse_graph("g 3\nx 1 2\n")
        with pytest.raises(ValueError):
            parse_graph("")

    @pytest.mark.parametrize(
        "text, line, problem",
        [
            ("g four\n", 1, "non-integer token"),
            ("g 3\ne 1 x\n", 2, "non-integer token"),
            ("c a comment\ng 3\ne 1 2\ne 2.5 3\n", 4, "non-integer token"),
            ("g 3\ne 2 2\n", 2, "self-loop at vertex 2"),
            ("g 3\ne 1 2\ne 1 4\n", 3, r"edge \(1,4\) out of range"),
            ("g 3\n\ne 0 1\n", 3, r"edge \(0,1\) out of range"),
            ("g 0\n", 1, "at least one vertex"),
            ("g 3\ng 3\n", 2, "duplicate graph header"),
            ("g 3\ne 1\n", 2, "edge must read"),
            ("e 1 2\n", 1, "edge before header"),
        ],
    )
    def test_every_bad_record_names_its_line(self, text, line, problem):
        with pytest.raises(ValueError, match=rf"^line {line}: .*{problem}"):
            parse_graph(text)


class TestReduction:
    def test_triangle_k1_yes(self):
        f = independent_set_to_wsat(triangle(), 1)
        assert f.num_clauses == 3
        assert brute_force_wsat(f)[0]

    def test_triangle_k2_no(self):
        f = independent_set_to_wsat(triangle(), 2)
        assert not brute_force_wsat(f)[0]

    def test_edgeless_k_equals_n(self):
        f = independent_set_to_wsat(Graph(3, frozenset()), 3)
        assert f.num_clauses == 0
        assert brute_force_wsat(f)[0]

    def test_k_bigger_than_n(self):
        with pytest.raises(ValueError):
            independent_set_to_wsat(triangle(), 4)

    def test_parameter_identity(self):
        for k in range(4):
            assert independent_set_to_wsat(Graph(4, frozenset()), k).k == k

    def test_exhaustive_small_graphs(self):
        # all graphs on up to 4 vertices here; n = 5 runs in the acceptance suite
        for n in range(1, 5):
            all_pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(all_pairs)):
                edges = frozenset(p for i, p in enumerate(all_pairs) if mask >> i & 1)
                g = Graph(n, edges)
                for k in range(n + 1):
                    expected = has_independent_set(g, k)
                    got, _ = brute_force_wsat(independent_set_to_wsat(g, k))
                    assert got == expected


class TestPlantedGenerator:
    def test_outputs_are_yes_instances(self):
        for seed in range(30):
            f, witness = gen_planted_yes_with_witness(8, 3, 10, seed)
            assert satisfies(f, witness)
            assert witness.weight == 3
            assert brute_force_wsat(f)[0]

    def test_oracle_checked_up_to_twelve_vars(self):
        for seed in range(15):
            n = 6 + seed % 7  # 6..12
            f = gen_planted_yes(n, 2, n, seed)
            assert brute_force_wsat(f)[0]

    def test_infeasible_request_errors(self):
        with pytest.raises(ValueError):
            gen_planted_yes(4, 4, 1, 0)

    def test_zero_clauses_allowed(self):
        f = gen_planted_yes(4, 4, 0, 0)
        assert f.num_clauses == 0

    def test_seed_determinism(self):
        assert gen_planted_yes(10, 3, 12, 5) == gen_planted_yes(10, 3, 12, 5)
        assert gen_planted_yes(10, 3, 12, 5) != gen_planted_yes(10, 3, 12, 6)

    @staticmethod
    def tuple_pair_generator(n, k, num_clauses, seed):
        """The generator as it was written with pair tuples: the legal pairs
        listed in combinations order, sampled, sorted and negated."""
        rng = random.Random(seed)
        planted = set(rng.sample(range(1, n + 1), k))
        legal = [
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if not (u in planted and v in planted)
        ]
        if num_clauses > len(legal):
            raise ValueError(
                f"only {len(legal)} clauses avoid the planted set, {num_clauses} requested"
            )
        chosen = sorted(rng.sample(legal, num_clauses))
        return tuple((-u, -v) for u, v in chosen), frozenset(planted)

    # (100, 3, 4000) is the honest_large W1 size; (6, 2, 6, 11) and
    # (20, 3, 60, 81) are the golden corpus instances
    @pytest.mark.parametrize("n, k, num_clauses, seeds", [
        (100, 3, 4000, range(3)),
        (6, 2, 6, [11]),
        (20, 3, 60, [81]),
        (2, 0, 1, range(3)),
        (2, 2, 0, range(3)),
        (5, 5, 0, range(3)),
        (7, 3, 18, range(10)),
        (12, 1, 40, range(10)),
        (30, 6, 200, range(5)),
    ])
    def test_int_codes_pick_what_pair_tuples_picked(self, n, k, num_clauses, seeds):
        for seed in seeds:
            clauses, planted = self.tuple_pair_generator(n, k, num_clauses, seed)
            f, witness = gen_planted_yes_with_witness(n, k, num_clauses, seed)
            assert f.clauses == clauses and witness.true_set == planted
            assert (f.num_vars, f.k, f.class_tag) == (n, k, ClassTag.G12N)

    def test_literals_are_shared_ints(self):
        # every literal comes from one list of the n negated variables, so a
        # 4000-clause formula (the honest_large W1 size) holds at most n int
        # objects for its 8000 literals, and the same clauses as before
        f, _ = gen_planted_yes_with_witness(100, 3, 4000, 1)
        assert distinct_literal_objects(f) <= f.num_vars
        assert f.clauses == self.tuple_pair_generator(100, 3, 4000, 1)[0]

    def test_formulas_over_one_n_share_clause_tuples(self):
        # each clause comes from one table per n, so equal clauses of two
        # formulas are one object, and 20 honest_large W1 formulas hold no
        # more clause tuples than C(100, 2) = 4950 and no more literal ints
        # than variables
        a, _ = gen_planted_yes_with_witness(100, 3, 4000, 1)
        b, _ = gen_planted_yes_with_witness(100, 3, 4000, 2)
        first = {clause: clause for clause in a.clauses}
        shared = [clause for clause in b.clauses if clause in first]
        assert shared and all(first[clause] is clause for clause in shared)
        formulas = [gen_planted_yes_with_witness(100, 3, 4000, seed)[0] for seed in range(20)]
        clauses = [clause for f in formulas for clause in f.clauses]
        assert len({id(clause) for clause in clauses}) <= 4950
        assert len({id(lit) for clause in clauses for lit in clause}) <= 100

    @pytest.mark.parametrize("n", [1415, 100_000])
    def test_more_than_a_million_pairs_is_refused(self, n):
        with pytest.raises(GuardError, match="10\\^6 variable pairs"):
            gen_planted_yes_with_witness(n, 2, 5, 0)

    def test_the_largest_n_under_the_cap_is_served(self):
        # C(1414, 2) = 999,291 pairs, the largest n under the cap: listed in full
        f, witness = gen_planted_yes_with_witness(1414, 2, 5, 0)
        assert f.num_clauses == 5 and satisfies(f, witness)

    @pytest.mark.parametrize("n, k, num_clauses", [(4, 4, 1), (6, 2, 15), (100, 3, 4948)])
    def test_too_many_clauses_message_is_unchanged(self, n, k, num_clauses):
        with pytest.raises(ValueError) as expected:
            self.tuple_pair_generator(n, k, num_clauses, 0)
        with pytest.raises(ValueError) as got:
            gen_planted_yes_with_witness(n, k, num_clauses, 0)
        assert str(got.value) == str(expected.value)


class TestRandomGenerator:
    def test_label_matches_oracle(self):
        # the label, brute_force_wsat's decision, against a second oracle:
        # every weight-k set, its clauses checked one by one
        labels = set()
        for seed in range(8):
            f = gen_random(5, 4, 2, seed, ClassTag.G12N if seed % 2 else ClassTag.G21P)
            direct = any(
                all(eval_clause(f, c, Assignment(frozenset(s))) for c in range(f.num_clauses))
                for s in itertools.combinations(range(1, 6), 2)
            )
            assert brute_force_wsat(f)[0] == direct, seed
            labels.add(direct)
        assert labels == {False, True}

    def test_zero_clauses_always_yes(self):
        for k in range(4):
            f = gen_random(4, 0, k, 1, ClassTag.G12N)
            assert brute_force_wsat(f)[0]

    def test_g21p_k0_yes_iff_no_clauses(self):
        assert brute_force_wsat(gen_random(3, 0, 0, 2, ClassTag.G21P))[0]
        f = gen_random(3, 2, 0, 2, ClassTag.G21P)
        assert not brute_force_wsat(f)[0]

    def test_determinism(self):
        a = gen_random(6, 5, 2, 11, ClassTag.G21P)
        b = gen_random(6, 5, 2, 11, ClassTag.G21P)
        assert a == b

    def test_awsat_generator_shapes(self):
        inst = gen_random_awsat(6, (2, 2, 2), (1, 1, 1), 4, 3)
        assert inst.l == 3
        assert sorted(v for b in inst.blocks for v in b) == list(range(1, 7))
        assert inst.formula.k == 3

    def test_negated_literals_are_shared_ints(self):
        rng = random.Random(7)
        pairs = list(itertools.combinations(range(1, 61), 2))
        g = Graph(60, frozenset(rng.sample(pairs, 400)))
        reduced = independent_set_to_wsat(g, 3)
        assert reduced.clauses == tuple((-u, -v) for u, v in sorted(g.edges))
        for f in (
            reduced,
            gen_random(24, 300, 2, 5, ClassTag.G12N),
            gen_random_awsat(40, (20, 20), (1, 1), 500, 2).formula,
        ):
            assert distinct_literal_objects(f) <= f.num_vars

    def test_awsat_generator_validation(self):
        with pytest.raises(ValueError):
            gen_random_awsat(5, (2, 2), (1, 1), 2, 0)  # sizes don't sum to n


# far more than a refused call needs, far less than a list of the size refused
PEAK_BYTES = 1 << 20
HUGE = 99_999_999_999


def refused_within_peak(call, *args):
    """The GuardError message of ``call(*args)``, which must raise it
    without tracing ``PEAK_BYTES`` of allocations."""
    tracemalloc.start()
    try:
        with pytest.raises(GuardError) as refused:
            call(*args)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < PEAK_BYTES
    return str(refused.value)


class TestSizeGuards:
    """A size read from the command line or a graph header is refused before
    anything of that size is allocated."""

    def test_a_huge_awsat_variable_count(self):
        message = refused_within_peak(gen_random_awsat, HUGE, (HUGE,), (1,), 1, 0)
        assert "10^6 variable pairs" in message

    def test_an_awsat_variable_count_past_the_pair_cap(self):
        assert "10^6 variable pairs" in refused_within_peak(gen_random_awsat, 1415, (1415,), (1,), 1, 0)

    @pytest.mark.parametrize("generate", [
        lambda clauses: gen_random(6, clauses, 2, 0),
        lambda clauses: gen_random(6, clauses, 2, 0, ClassTag.G21P),
        lambda clauses: gen_random_awsat(6, (3, 3), (1, 1), clauses, 0),
    ], ids=["g12n", "g21p", "awsat"])
    def test_a_huge_clause_count(self, generate):
        assert "at most 10^6 clauses" in refused_within_peak(generate, HUGE)

    @pytest.mark.parametrize("generate", [
        lambda clauses: gen_random(6, clauses, 2, 0),
        lambda clauses: gen_random_awsat(6, (3, 3), (1, 1), clauses, 0).formula,
    ], ids=["random", "awsat"])
    def test_the_clause_cap_is_inclusive(self, monkeypatch, generate):
        monkeypatch.setattr(reductions, "CAP", 20)
        assert generate(20).num_clauses == 20
        with pytest.raises(GuardError):
            generate(21)

    def test_a_huge_graph_header(self):
        graph = Graph(HUGE, frozenset({(1, 2), (2, HUGE)}))
        assert "at most 10^6 vertices" in refused_within_peak(independent_set_to_wsat, graph, 2)

    def test_the_vertex_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(reductions, "CAP", 20)
        assert independent_set_to_wsat(Graph(20, frozenset({(1, 20)})), 2).num_vars == 20
        with pytest.raises(GuardError):
            independent_set_to_wsat(Graph(21, frozenset({(1, 21)})), 2)

    def test_one_awsat_variable_and_a_clause(self):
        with pytest.raises(ValueError, match="binary clauses need at least two variables"):
            gen_random_awsat(1, (1,), (0,), 1, 0)
        assert gen_random_awsat(1, (1,), (0,), 0, 0).formula.clauses == ()
