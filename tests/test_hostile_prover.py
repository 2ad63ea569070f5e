"""The verifier treats the proof as data.  A round message that is not
exactly a tuple of d + 1 plain ints in [0, p), an assignment answer that is
not exactly a plain int in [0, p) and a line answer that is not exactly a
tuple of three of them are rejected at the stage and round that read them,
and no prover-supplied method decides a check.  What the verifier hands the
prover is data too: a frozen statement with nothing callable in it, which
carries p and its own clause code arrays, and plain ints and tuples of them
on both wires.  The statement is the prover's own copy, and the verifier
reads its final check from its own statement, never from a cache keyed by
what the prover holds, so a write the prover forces into its copy reaches
no check and no meter."""

import ast
import dataclasses
import math
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ppcplab
from ppcplab import pcpverify
from ppcplab.arithmetize import (
    BooleanTable,
    SummandSpec,
    clause_indicator_eval,
    compile_plan,
    read_points,
    summand_value,
)
from ppcplab.awsat import enumerate_universal, honest_branch_tables, verify_awsat
from ppcplab.field import FieldElement, PrimeField, UniPoly
from ppcplab.formula import AwsatInstance, ClassTag, WeightedFormula, brute_force_wsat, parse_pwsat
from ppcplab.pcpverify import multilinearity_test, verify_w1, verify_w2
from ppcplab.reductions import gen_planted_yes_with_witness, gen_random
from ppcplab.sumcheck import (
    AdaptiveCheater,
    GenericHonestProver,
    ProverStrategy,
    RandomTape,
    ResourceMeter,
    TableCommittedProver,
    derive_seed,
    run_sumcheck,
)

P = 109
BITS = (P - 1).bit_length()
NO_TEXT = "p pwsat g12n 2 1 2\n-1 -2 0\n"
YES_TEXT = "p pwsat g12n 3 2 1\n-1 -2 0\n-1 -3 0\n"


def product_spec(p):
    # h(x1, x2) = x1 * x2: a block-free statement is its oracle, product_oracle
    return SummandSpec(2, (1, 1), p)


def product_oracle(pt, p):
    return pt[0] * pt[1] % p


# h = x1 * x2 declared at degree 2 per variable: every honest round message
# ends in a zero coefficient, so a message one entry short or one entry long
# still passes g(0) + g(1) = claim if its length is not checked
WIRE_SPEC = SummandSpec(2, (2, 2), P)


class AlwaysEqual(int):
    """An int that reports equality with everything and is its own residue."""

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    def __mod__(self, other):
        return self

    __hash__ = int.__hash__


class IntSub(int):
    pass


class TupleSub(tuple):
    pass


class SubclassProver(ProverStrategy):
    """Round messages that claim claim/2 as a constant, so g(0) + g(1)
    matches every claim, in int-subclass entries; every assignment answer is
    ``AlwaysEqual(1)``."""

    def begin_sumcheck(self, spec, claim):
        self.spec = spec

    def round_poly(self, i, challenges, claim):
        p = self.spec.p
        half = claim * pow(2, -1, p) % p
        return (IntSub(half),) + (IntSub(0),) * self.spec.degree_bounds[i - 1]

    def assignment_query(self, point, p):
        return AlwaysEqual(1)


def test_subclass_prover_never_accepted():
    f = parse_pwsat(NO_TEXT)
    verdicts = [verify_w1(f, SubclassProver(), RandomTape(seed)) for seed in range(100)]
    assert sum(v.accepted for v in verdicts) == 0
    assert {(v.stage, v.rejection_round) for v in verdicts} == {("mltest", 1)}


# Malformed round messages, each made from the honest message g (d + 1
# residues, the last one 0 under WIRE_SPEC) of the modulus p.  Every one
# passes the consistency check g(0) + g(1) = claim mod p if read leniently.
ROUND_MESSAGES = {
    "unipoly": lambda g, p: UniPoly(tuple(map(PrimeField(p), g)), len(g) - 1),
    "poly_subclass": lambda g, p: TupleSub(g),
    "list": lambda g, p: list(g),
    "none": lambda g, p: None,
    "short": lambda g, p: g[:-1],
    "overlong": lambda g, p: g + (0,),
    "empty": lambda g, p: (),
    "int_subclass_value": lambda g, p: tuple(c if c > 1 else bool(c) for c in g),
    "coeff_subclass": lambda g, p: tuple(map(IntSub, g)),
    "float_value": lambda g, p: tuple(map(float, g)),
    "minus_one": lambda g, p: (g[0], g[1] + 1, -1),
    # p itself: a residue of a larger field, not of Z_p
    "wrong_field": lambda g, p: (g[0], g[1], p),
}


@pytest.mark.parametrize("make", ROUND_MESSAGES.values(), ids=ROUND_MESSAGES.keys())
def test_sumcheck_rejects_values_that_are_not_exact(make):
    honest = run_sumcheck(WIRE_SPEC, 1, GenericHonestProver(product_oracle), RandomTape(3), ResourceMeter())
    assert honest.verdict.accepted
    for bad in (1, 2):

        class Hostile(GenericHonestProver):
            def round_poly(self, i, challenges, claim):
                g = super().round_poly(i, challenges, claim)
                return make(g, P) if i == bad else g

        meter = ResourceMeter()
        run = run_sumcheck(WIRE_SPEC, 1, Hostile(product_oracle), RandomTape(3), meter)
        assert (run.verdict.accepted, run.verdict.rejection_round) == (False, bad)
        # (d + 1) * ceil(log2 p) proof bits for every round read, this one too
        assert meter.proof_bits == bad * 3 * BITS
        assert run.transcripts == honest.transcripts[: bad - 1]


ENTRIES = st.one_of(
    st.integers(-3, 2 * P), st.booleans(), st.floats(0, 3), st.builds(IntSub, st.integers(0, 3))
)


@given(
    st.one_of(
        st.tuples(ENTRIES, ENTRIES, ENTRIES),
        st.lists(ENTRIES, max_size=4).map(tuple),
        st.lists(ENTRIES, max_size=4),
        st.lists(ENTRIES, max_size=4).map(TupleSub),
        st.none(),
    )
)
@settings(max_examples=200, deadline=None)
def test_a_round_message_passes_round_1_only_as_a_consistent_tuple_of_residues(message):
    class OneMessage(GenericHonestProver):
        def round_poly(self, i, challenges, claim):
            return message if i == 1 else super().round_poly(i, challenges, claim)

    meter = ResourceMeter()
    run = run_sumcheck(WIRE_SPEC, 1, OneMessage(product_oracle), RandomTape(3), meter)
    exact = (
        type(message) is tuple and len(message) == 3
        and all(type(c) is int and 0 <= c < P for c in message)
    )
    passed = run.verdict.accepted or run.verdict.rejection_round != 1
    assert passed == (exact and (2 * message[0] + message[1] + message[2]) % P == 1)
    # round 1 is read and metered either way, round 2 only after round 1 passes
    assert meter.proof_bits == (2 if passed else 1) * 3 * BITS


def test_multilinearity_test_rejects_subclass_answers():
    table = BooleanTable.from_true_codes([1, 2], 2)

    def oracle(q, p):
        return AlwaysEqual(TableCommittedProver(table).assignment_query(q, p))

    prover = GenericHonestProver(oracle)
    ok, rep = multilinearity_test(prover, 2, 5, RandomTape(1), ResourceMeter(), P)
    assert (ok, rep) == (False, 1)


def _raise(*answer):
    raise RuntimeError("prover fault")


# Malformed answers on the int wire.  A point answer is made from the honest
# residue v mod p; all but the bool and None are v itself to a lenient
# reader, so only the type and range check rejects them.
POINT_ANSWERS = {
    "bool": lambda v, p: True,
    "eq_mod_subclass": lambda v, p: AlwaysEqual(v),
    "p_above": lambda v, p: v + p,
    "negative": lambda v, p: v - p,
    "float": lambda v, p: float(v),
    "field_element": lambda v, p: FieldElement(v, PrimeField(p)),
    "none": lambda v, p: None,
    "raise": _raise,
}

# A line answer is made from the honest tuple a of three residues: the
# malformations of the tuple, then each point malformation in its middle
# entry.
LINE_ANSWERS = {
    "list": lambda a, p: list(a),
    "pair": lambda a, p: a[:2],
    "four": lambda a, p: a + a[:1],
    "tuple_subclass": lambda a, p: TupleSub(a),
    "bool_entry": lambda a, p: a[:2] + (True,),
    **{
        f"entry_{name}": lambda a, p, bad=bad: (a[0], bad(a[1], p), a[2])
        for name, bad in POINT_ANSWERS.items()
    },
}


class Malformer(TableCommittedProver):
    """An honest table prover whose answers at one read site are ``malform``
    of the honest ones: ``("line", rep)`` is the line read of multilinearity
    repetition rep, ``("point", k)`` every final read of sum-check k (1 =
    main, 2 = weight)."""

    def __init__(self, table, malform, site):
        super().__init__(table)
        self.malform, self.site = malform, site
        self.lines = self.sumchecks = 0

    def begin_sumcheck(self, spec, claim):
        self.sumchecks += 1
        super().begin_sumcheck(spec, claim)

    def line_query(self, head, tail, ts, p):
        self.lines += 1
        honest = super().line_query(head, tail, ts, p)
        return self.malform(honest, p) if self.site == ("line", self.lines) else honest

    def assignment_query(self, point, p):
        honest = super().assignment_query(point, p)
        return self.malform(honest, p) if self.site == ("point", self.sumchecks) else honest


def _malformed_verdicts(site, answers):
    """YES_TEXT's verdicts with each of ``answers`` at ``site``, after
    checking the honest run and its prime."""
    f = parse_pwsat(YES_TEXT)
    honest = verify_w1(f, TableCommittedProver(YES_TABLE), RandomTape(3))
    assert honest.accepted and [s.name for s in honest.stages] == ["mltest", "main", "weight"]
    assert pcpverify.protocol_parameters(f).prime == 109
    return {
        name: verify_w1(f, Malformer(YES_TABLE, malform, site), RandomTape(3))
        for name, malform in answers.items()
    }


@pytest.mark.parametrize("rep", [1, 2])
def test_a_malformed_line_answer_fails_its_repetition(rep):
    bits = (109 - 1).bit_length()
    verdicts = _malformed_verdicts(("line", rep), LINE_ANSWERS)
    for name, verdict in verdicts.items():
        assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "mltest", rep), name
        # three reads metered per repetition asked, whatever came back
        report = verdict.stages[0]
        assert (report.oracle_queries, report.proof_bits) == (3 * rep, 3 * rep * bits), name
    # and every malformation is the same rejection, meters and reports included
    assert len(set(verdicts.values())) == 1


@pytest.mark.parametrize("sumcheck, stage, reads", [(1, "main", 2), (2, "weight", 1)], ids=["main", "weight"])
def test_a_malformed_final_read_is_rejected_at_its_stage(sumcheck, stage, reads):
    verdicts = _malformed_verdicts(("point", sumcheck), POINT_ANSWERS)
    for name, verdict in verdicts.items():
        assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, stage, 0), name
        # every read of the final check metered, whatever came back
        report = verdict.stages[-1]
        assert (report.name, report.oracle_queries) == (stage, reads), name
    assert len(set(verdicts.values())) == 1


class SubclassFinalReads(TableCommittedProver):
    """Honest round polynomials; once the main sum-check starts, every
    assignment answer is the true residue as an ``AlwaysEqual``."""

    def __init__(self, table):
        super().__init__(table)
        self._started = False

    def begin_sumcheck(self, spec, claim):
        super().begin_sumcheck(spec, claim)
        self._started = True

    def assignment_query(self, point, p):
        v = super().assignment_query(point, p)
        return AlwaysEqual(v) if self._started else v


def test_final_read_rejects_subclass_answers():
    f = parse_pwsat(YES_TEXT)
    table = BooleanTable.from_assignment({1}, f.m)
    assert verify_w1(f, TableCommittedProver(table), RandomTape(4)).accepted
    verdict = verify_w1(f, SubclassFinalReads(table), RandomTape(4))
    assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "main", 0)


# -- prover exceptions ---------------------------------------------------------

NO_TABLE = BooleanTable.from_assignment({1, 2}, 1)  # weight 2, violates -1 -2
YES_TABLE = BooleanTable.from_assignment({1}, 2)


class FaultyProver(TableCommittedProver):
    """An honest table prover that fails once in ``callback`` during sum-check
    number ``sumcheck`` (0 = the multilinearity test, before any sum-check,
    which asks ``line_query``; 1 = main; 2 = weight), at round ``round`` for
    ``round_poly``.  It fails by raising, or with ``raises=False`` by
    answering ``None`` (a malformed answer); ``begin_sumcheck`` can only
    raise."""

    def __init__(self, table, callback, sumcheck, round=1, raises=True):
        super().__init__(table)
        self.fault = (callback, sumcheck, round)
        self.raises = raises
        self.sumchecks = 0

    def _fail(self):
        if self.raises:
            raise RuntimeError("prover fault")
        return None

    def begin_sumcheck(self, spec, claim):
        self.sumchecks += 1
        super().begin_sumcheck(spec, claim)
        if self.fault == ("begin_sumcheck", self.sumchecks, 1):
            self._fail()

    def round_poly(self, i, challenges, current_claim):
        if self.fault == ("round_poly", self.sumchecks, i):
            return self._fail()
        return super().round_poly(i, challenges, current_claim)

    def assignment_query(self, point, p):
        if self.fault[0] == "assignment_query" and self.fault[1] == self.sumchecks:
            return self._fail()
        return super().assignment_query(point, p)

    def line_query(self, head, tail, ts, p):
        if self.fault[0] == "line_query" and self.fault[1] == self.sumchecks:
            return self._fail()
        return super().line_query(head, tail, ts, p)


# (instance, table, fault) -> (stage, rejection_round).  The no-instance's
# honest table fails the main sum-check's first round, so later stages never run.
FAULTS = {
    "no/mltest_query": (NO_TEXT, NO_TABLE, ("line_query", 0), ("mltest", 1)),
    "no/main_begin": (NO_TEXT, NO_TABLE, ("begin_sumcheck", 1), ("main", 1)),
    "no/main_round1": (NO_TEXT, NO_TABLE, ("round_poly", 1, 1), ("main", 1)),
    "yes/mltest_query": (YES_TEXT, YES_TABLE, ("line_query", 0), ("mltest", 1)),
    "yes/main_begin": (YES_TEXT, YES_TABLE, ("begin_sumcheck", 1), ("main", 1)),
    "yes/main_round1": (YES_TEXT, YES_TABLE, ("round_poly", 1, 1), ("main", 1)),
    "yes/main_round5": (YES_TEXT, YES_TABLE, ("round_poly", 1, 5), ("main", 5)),
    "yes/final_reads": (YES_TEXT, YES_TABLE, ("assignment_query", 1), ("main", 0)),
    "yes/weight_begin": (YES_TEXT, YES_TABLE, ("begin_sumcheck", 2), ("weight", 1)),
    "yes/weight_round2": (YES_TEXT, YES_TABLE, ("round_poly", 2, 2), ("weight", 2)),
    "yes/weight_read": (YES_TEXT, YES_TABLE, ("assignment_query", 2), ("weight", 0)),
}


def test_fault_free_baseline():
    no, yes = parse_pwsat(NO_TEXT), parse_pwsat(YES_TEXT)
    assert verify_w1(yes, TableCommittedProver(YES_TABLE), RandomTape(5)).accepted
    verdict = verify_w1(no, TableCommittedProver(NO_TABLE), RandomTape(5))
    assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "main", 1)


@pytest.mark.parametrize("text, table, fault, expected", FAULTS.values(), ids=FAULTS.keys())
def test_prover_exception_is_a_rejection_at_its_stage(text, table, fault, expected):
    f = parse_pwsat(text)
    raised = verify_w1(f, FaultyProver(table, *fault), RandomTape(5))
    assert (raised.accepted, raised.stage, raised.rejection_round) == (False, *expected)
    # metered exactly as the matching malformed answer; a raising
    # begin_sumcheck is metered as a malformed first round
    callback, *where = fault
    if callback == "begin_sumcheck":
        malformed_fault = ("round_poly", where[0], 1)
    else:
        malformed_fault = fault
    malformed = verify_w1(f, FaultyProver(table, *malformed_fault, raises=False), RandomTape(5))
    assert raised == malformed  # verdicts compare meters and stage reports too


def _raising_lookup(prover):
    raise ZeroDivisionError("prover fault")


# method -> (the FaultyProver fault raising where it is first asked, the
# rejection it gives)
LOOKUP_FAULTS = {
    "line_query": (("line_query", 0), ("mltest", 1)),
    "round_poly": (("round_poly", 1, 1), ("main", 1)),
    "assignment_query": (("assignment_query", 1), ("main", 0)),
}


@pytest.mark.parametrize("name, fault, expected", [(k, *v) for k, v in LOOKUP_FAULTS.items()], ids=LOOKUP_FAULTS.keys())
def test_a_method_whose_lookup_raises_is_a_raising_method(name, fault, expected):
    # the verifier looks each prover method up inside the boundary that
    # turns a prover exception into a malformed answer
    hostile = type("LookupFault", (TableCommittedProver,), {name: property(_raising_lookup)})
    f = parse_pwsat(YES_TEXT)
    verdict = verify_w1(f, hostile(YES_TABLE), RandomTape(5))
    assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, *expected)
    assert verdict == verify_w1(f, FaultyProver(YES_TABLE, *fault), RandomTape(5))


def _no_oracle(point, p):
    raise RuntimeError("no assignment oracle attached")


@pytest.mark.parametrize("text", [NO_TEXT, YES_TEXT], ids=["no", "yes"])
def test_prover_without_oracle_is_rejected_by_the_multilinearity_test(text):
    verdict = verify_w1(parse_pwsat(text), GenericHonestProver(_no_oracle), RandomTape(6))
    assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "mltest", 1)


def test_base_exception_is_not_swallowed():
    class Interrupting(GenericHonestProver):
        def round_poly(self, i, challenges, current_claim):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sumcheck(product_spec(P), 1, Interrupting(product_oracle), RandomTape(3), ResourceMeter())


# -- writes into what the spec and the plan expose -------------------------------


def _reachable(roots):
    """Every object reachable from ``roots`` through list, tuple, set and
    dict entries, dataclass fields and the closure cells of functions."""
    found, seen, todo = [], set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return found


class ListWriter(TableCommittedProver):
    """Builds the honest plan of every sum-check, binds its head at a random
    point, then overwrites every list it can reach from the spec, the plan
    and the tails: entries become 1, and lists of lists become empty.  It
    keeps every spec it is handed."""

    def __init__(self, table):
        super().__init__(table)
        self.written = 0
        self.specs = []

    def begin_sumcheck(self, spec, claim):
        self.specs.append(spec)
        plan = compile_plan(spec, self.table)
        roots = [spec, plan]
        if plan.build_tails is not None:
            roots.append(plan.build_tails((5,) * plan.block_vars))
        lists = [obj for obj in _reachable(roots) if isinstance(obj, list)]
        for lst in lists:
            lst[:] = [] if any(isinstance(v, (list, tuple)) for v in lst) else [1] * len(lst)
        self.written += len(lists)


# (formula, a satisfying weight-k set, a weight-k set that violates a clause
# yet satisfies every clause once all code arrays read variable 2)
HOSTILE_CASES = {
    # the split eq kernels are active from m = 6 on
    "w1_m7": (
        WeightedFormula(6, ((-1, -2), (-2, -3), (-4, -5), (-1, -6)), ClassTag.G12N, 2, m=7),
        {1, 3},
        {1, 6},
        verify_w1,
    ),
    "w2_L3_m6": (
        WeightedFormula(5, ((1, 2, 3), (2, 4), (5,), (3, 5)), ClassTag.G21P, 2, m=6),
        {2, 5},
        {2, 4},
        verify_w2,
    ),
}


@pytest.mark.parametrize("formula, good, bad, verify", HOSTILE_CASES.values(), ids=HOSTILE_CASES.keys())
def test_writes_into_the_plan_never_reach_a_later_run(formula, good, bad, verify):
    tables = [BooleanTable.from_assignment(s, formula.m) for s in (good, bad)]

    def honest_runs():
        return [verify(formula, TableCommittedProver(t), RandomTape(8)) for t in tables]

    fresh = honest_runs()
    assert [v.accepted for v in fresh] == [True, False]
    writer = ListWriter(tables[0])
    hostile = verify(formula, writer, RandomTape(8))
    assert writer.written > 0 and not hostile.accepted
    assert honest_runs() == fresh  # verdicts compare meters and stage reports too
    # the code arrays it was handed are tuples of ints: no list to write into
    codes = [c for spec in writer.specs for c in spec.codes]
    assert codes and type(writer.specs[0].codes) is tuple and all(map(_wire_data, codes))


# -- what the final check reads -------------------------------------------------


class CachePoisoner(TableCommittedProver):
    """A committed table prover that compiles its plan from forged clauses.
    In ``begin_sumcheck`` it force-writes every clause of its formula copy
    to (-(n - 1), -n), which its table satisfies, and the matching code
    arrays into its statement, compiles its plan, then writes the real
    clauses back, so its copy equals the verifier's formula again.  Its
    round messages are honest for the forged clauses: were the final check
    to read clause codes from anything the prover wrote, or from a cache
    keyed by formula equality, it would agree with them."""

    def begin_sumcheck(self, spec, claim):
        formula = spec.formula
        if formula is None:
            return super().begin_sumcheck(spec, claim)
        n, real = formula.num_vars, formula.clauses
        object.__setattr__(formula, "clauses", ((-(n - 1), -n),) * len(real))
        object.__setattr__(spec, "codes", ((n - 2,) * len(real), (n - 1,) * len(real)))
        super().begin_sumcheck(spec, claim)
        object.__setattr__(formula, "clauses", real)


def _poison_corpus():
    """40 distinct g12n no-instances, n = 4..5 and k = 3, so m = 3 and
    p = 163, none of which the table of codes 0..2 satisfies."""
    found, seen = [], set()
    for attempt in range(3000):
        n, ncl = ((4, 8), (4, 7), (5, 8))[attempt % 3]
        f = gen_random(n, ncl, 3, derive_seed(6000, attempt), ClassTag.G12N)
        key = (f.num_vars, tuple(sorted(f.clauses)))
        if key not in seen and not brute_force_wsat(f)[0]:
            seen.add(key)
            found.append(f)
        if len(found) == 40:
            return found
    raise AssertionError(f"only {len(found)} no-instances found")


def test_forged_clauses_in_the_provers_copy_never_reach_the_final_check():
    corpus = _poison_corpus()
    # the tape, and so the final point, depends on m, p and the seed only:
    # each instance gets seeds of its own, as in criterion 2
    runs = [(f, derive_seed(6100 + idx, s)) for idx, f in enumerate(corpus) for s in range(5)]
    accepted = 0
    for f, seed in runs:
        assert (f.m, pcpverify.protocol_parameters(f).prime) == (3, 163)
        table = BooleanTable.from_true_codes(range(f.k), f.m)
        accepted += verify_w1(f, CachePoisoner(table), RandomTape(seed)).accepted
    # criterion 2's bound: every round of the union bound, plus 3 sigma
    params = pcpverify.protocol_parameters(corpus[0])
    bound = params.total_rounds * 3 / params.prime + 3 * math.sqrt(0.25 / len(runs))
    assert accepted / len(runs) <= bound, (accepted, len(runs), bound)


def _cached_functions():
    """(module, function node) for every function in the ppcplab sources
    under a ``functools.lru_cache`` or ``functools.cache`` decorator, and the
    names of every class the package defines."""
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(ppcplab.__file__).parent.glob("*.py"))
    }
    classes = {n.name for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    cached = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if ast.unparse(target) in ("functools.lru_cache", "functools.cache", "lru_cache", "cache"):
                    cached.append((module, node))
    return cached, classes


def test_no_cache_is_keyed_by_a_ppcplab_object():
    # a cache keyed by an object the prover is handed a copy of serves the
    # copy's entries to the original: its key must be ints and tuples of ints
    cached, classes = _cached_functions()
    names = {f"{module}.{node.name}" for module, node in cached}
    assert {"arithmetize._line_index", "pcpverify._real_block"} <= names
    for module, node in cached:
        a = node.args
        for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
            if arg is None:
                continue
            where = f"{module}.{node.name}({arg.arg})"
            assert arg.annotation is not None, f"{where} has no annotation"
            named = {n.id for n in ast.walk(arg.annotation) if isinstance(n, ast.Name)}
            assert not named & classes, f"{where} is keyed by {sorted(named & classes)}"


# -- the statement a prover receives is data -------------------------------------

AWSAT_L3 = AwsatInstance(
    WeightedFormula(4, ((-2, -3),), ClassTag.G12N, 3), ((1,), (2, 3), (4,)), (1, 1, 1)
)


class StatementRecorder(TableCommittedProver):
    """An honest table prover that keeps every statement it is given."""

    def __init__(self, table, specs):
        super().__init__(table)
        self.specs = specs

    def begin_sumcheck(self, spec, claim):
        self.specs.append(spec)
        super().begin_sumcheck(spec, claim)


def _recorded_statements(name):
    """Every statement an accepting honest run of the named verifier hands
    its prover, one per stage."""
    specs = []
    if name == "verify_awsat":
        factory = lambda t: StatementRecorder(t, specs)  # noqa: E731
        assert verify_awsat(AWSAT_L3, honest_branch_tables(AWSAT_L3), factory, RandomTape(2)).accepted
        return specs
    verify, text, true_set = {
        "verify_w1": (verify_w1, YES_TEXT, {1}),
        "verify_w2": (verify_w2, "p pwsat g21p 3 2 1\n1 2 3 0\n2 3 0\n", {2}),
    }[name]
    f = parse_pwsat(text)
    prover = StatementRecorder(BooleanTable.from_assignment(true_set, f.m), specs)
    assert verify(f, prover, RandomTape(2)).accepted
    return specs


@pytest.mark.parametrize("name", ["verify_w1", "verify_w2", "verify_awsat"])
def test_statements_hold_no_code_and_no_field_elements(name):
    specs = _recorded_statements(name)
    # main plus weight stages: one weight check for W1 and W2, two (blocks 1
    # and 3) in each branch of the l = 3 alternation
    stages = 2 if name != "verify_awsat" else 3 * len(enumerate_universal(AWSAT_L3))
    assert len(specs) == stages
    for spec in specs:
        found = _reachable([spec])
        assert not [obj for obj in found if callable(obj)]
        assert not [obj for obj in found if isinstance(obj, (FieldElement, PrimeField))]
        assert type(spec.p) is int and all(map(_wire_data, spec.codes))
        with pytest.raises(AttributeError):
            spec.p = 0


@pytest.mark.parametrize("name", ["verify_w1", "verify_w2", "verify_awsat"])
def test_each_statement_is_handed_out_as_a_new_equal_copy(monkeypatch, name):
    # main and weight statements alike: the prover's statement, and its
    # formula and block where present, are new objects equal to the
    # verifier's own
    stated = []

    def capture(spec, *args):
        stated.append(spec)
        return run_sumcheck(spec, *args)

    monkeypatch.setattr(pcpverify, "run_sumcheck", capture)
    handed = _recorded_statements(name)
    assert len(handed) == len(stated)
    assert {s.formula is None for s in stated} == {True, False}
    for mine, theirs in zip(stated, handed):
        assert theirs is not mine and theirs == mine
        for part in ("formula", "block"):
            if getattr(mine, part) is not None:
                assert getattr(theirs, part) is not getattr(mine, part)
                assert getattr(theirs, part) == getattr(mine, part)


class WeightRewriter(TableCommittedProver):
    """``AdaptiveCheater``'s round messages and answers over a committed
    table.  At the main stage's last final read it computes, from residues,
    the clause weight r_1 that would make the final check hold, and tries
    every plain write of it it can reach from the statement: the
    ``weights`` attribute of every object that has one, and entry 0 of every
    sequence equal to the weights.  With ``force`` the attribute is written
    with ``object.__setattr__``, past the frozen dataclass.  Each attempt is
    counted, each forged weight tuple is checked to pass the final check,
    and each write that landed in the statement it holds is counted; its
    errors are its own, so its answers stay the cheater's."""

    def __init__(self, table, force=False):
        super().__init__(table)
        self.cheater = AdaptiveCheater(TableCommittedProver(table))
        self.spec = None
        self.force = force
        self.attempts = 0
        self.forgeries = []
        self.landed = 0

    def begin_sumcheck(self, spec, claim):
        self.cheater.begin_sumcheck(spec, claim)
        self.spec = spec
        self.reads = []

    def round_poly(self, i, challenges, current_claim):
        self.challenges = challenges
        self.last = self.cheater.round_poly(i, challenges, current_claim)
        return self.last

    def assignment_query(self, point, p):
        value = self.cheater.assignment_query(point, p)
        if self.spec is not None and self.spec.formula is not None:
            self.reads.append((point, value))
            if len(self.reads) == len(self.spec.codes):
                self._forge(point[-1])
        return value

    def _forge(self, last_challenge):
        spec = self.spec
        formula, p, r = spec.formula, spec.p, spec.weights
        z = self.challenges[: formula.m]
        negated = formula.class_tag is ClassTag.G12N
        product = 1
        for codes, (x, a) in zip(spec.codes, self.reads):
            indicator = clause_indicator_eval(codes, formula.num_vars, z, x, p)
            product = product * indicator * (a if negated else 1 - a) % p
        for zj, rj in zip(z[1:], r[1:]):
            product = product * (1 - zj + rj * zj) % p
        if product == 0 or z[0] == 0:
            return
        target = sum(c * pow(last_challenge, j, p) for j, c in enumerate(self.last)) % p
        # w(z) = (1 - z_1 + r_1 z_1) * prod_{j > 1} (1 - z_j + r_j z_j)
        r1 = (target * pow(product, -1, p) - (1 - z[0])) * pow(z[0], -1, p) % p
        forged = (r1, *r[1:])
        point = (*self.challenges, last_challenge)
        reads = [a for _, a in self.reads]
        self.forgeries.append(summand_value(dataclasses.replace(spec, weights=forged), point, reads) == target)
        for obj in _reachable([spec]):
            writes = []
            if hasattr(obj, "weights"):
                assign = object.__setattr__ if self.force else setattr
                writes.append(lambda: assign(obj, "weights", forged))
            if isinstance(obj, (tuple, list)) and obj == r:
                writes.append(lambda: obj.__setitem__(0, r1))
            for write in writes:
                self.attempts += 1
                try:
                    write()
                except Exception:
                    pass
        self.landed += spec.weights == forged


def test_weight_rewriter_gains_nothing_over_the_adaptive_cheater():
    f = parse_pwsat("p pwsat g12n 3 3 2\n-1 -2 0\n-2 -3 0\n-1 -3 0\n")
    table = BooleanTable.from_true_codes(range(f.k), f.m)
    attempts, forgeries = 0, []
    for seed in range(100):
        rewriter = WeightRewriter(table)
        verdict = verify_w1(f, rewriter, RandomTape(seed))
        cheater = verify_w1(f, AdaptiveCheater(TableCommittedProver(table)), RandomTape(seed))
        assert verdict == cheater, seed  # verdicts compare meters and stage reports too
        attempts += rewriter.attempts
        forgeries += rewriter.forgeries
    # had any write landed, its forged weights would have passed the check
    assert attempts > 0 and forgeries and all(forgeries)


def test_forced_weight_writes_land_only_in_the_provers_copy():
    f = parse_pwsat("p pwsat g12n 3 3 2\n-1 -2 0\n-2 -3 0\n-1 -3 0\n")
    table = BooleanTable.from_true_codes(range(f.k), f.m)
    forgeries, landed = [], 0
    for seed in range(100):
        rewriter = WeightRewriter(table, force=True)
        verdict = verify_w1(f, rewriter, RandomTape(seed))
        cheater = verify_w1(f, AdaptiveCheater(TableCommittedProver(table)), RandomTape(seed))
        assert verdict == cheater, seed
        forgeries += rewriter.forgeries
        landed += rewriter.landed
    # every forgery would pass the final check, and each write landed, in
    # the statement the rewriter was handed
    assert forgeries and all(forgeries) and landed == len(forgeries)


class BitsMutator(TableCommittedProver):
    """Forces the prime of the statement it is handed to 2, which would
    meter every residue at one bit, then proves honestly over a copy that
    holds the true prime."""

    def begin_sumcheck(self, spec, claim):
        p = spec.p
        object.__setattr__(spec, "p", 2)
        self.handed = spec
        super().begin_sumcheck(dataclasses.replace(spec, p=p), claim)


def test_a_forced_write_into_the_handed_field_moves_no_meter():
    formula, witness = gen_planted_yes_with_witness(8, 2, 10, 3)
    table = BooleanTable.from_assignment(witness.true_set, formula.m)
    honest = verify_w1(formula, TableCommittedProver(table), RandomTape(1))
    assert honest.accepted and honest.meter.proof_bits == 920
    mutator = BitsMutator(table)
    assert verify_w1(formula, mutator, RandomTape(1)) == honest
    assert mutator.handed.p == 2
    # nor in any branch pass of an alternation
    tables = honest_branch_tables(AWSAT_L3)
    expected = verify_awsat(AWSAT_L3, tables, TableCommittedProver, RandomTape(2))
    assert expected.accepted
    assert verify_awsat(AWSAT_L3, tables, BitsMutator, RandomTape(2)) == expected


class FieldMutator(TableCommittedProver):
    """Zeroes the prime of the statement it is handed with a plain write,
    then proves honestly."""

    def begin_sumcheck(self, spec, claim):
        self.spec = spec
        spec.p = 0
        super().begin_sumcheck(spec, claim)


class RaisingBegin(TableCommittedProver):
    def begin_sumcheck(self, spec, claim):
        raise RuntimeError("prover fault")


def test_field_mutator_is_a_raising_begin_sumcheck():
    f = parse_pwsat(NO_TEXT)
    mutator = FieldMutator(NO_TABLE)
    verdict = verify_w1(f, mutator, RandomTape(5))
    assert verdict == verify_w1(f, RaisingBegin(NO_TABLE), RandomTape(5))
    assert (verdict.stage, verdict.rejection_round) == ("main", 1)
    # the frozen statement refused the write
    assert mutator.spec.p == pcpverify.protocol_parameters(f).prime


# -- what the prover is handed is its own ----------------------------------------


def _wire_data(value):
    """Whether ``value`` is an exact int or an exact tuple of exact ints."""
    return type(value) is int or (type(value) is tuple and all(type(c) is int for c in value))


class HandedRewriter(TableCommittedProver):
    """An honest table prover that keeps what both wires hand it: the
    claims, the challenge tuples and the running claims, each line's head,
    tail and axis values, each read point, and p.  At each final read it
    tries to zero every coordinate of every read point it has been handed
    so far; each write a tuple refuses is counted."""

    def __init__(self, table):
        super().__init__(table)
        self.wire = []
        self.handed = []
        self.refused = 0

    def begin_sumcheck(self, spec, claim):
        self.wire.append(claim)
        super().begin_sumcheck(spec, claim)

    def round_poly(self, i, challenges, claim):
        self.wire += [challenges, claim]
        return super().round_poly(i, challenges, claim)

    def line_query(self, head, tail, ts, p):
        self.wire += [head, tail, ts, p]
        return super().line_query(head, tail, ts, p)

    def assignment_query(self, point, p):
        self.wire.append(p)
        self.handed.append(point)
        for q in self.handed:
            for j in range(len(q)):
                try:
                    q[j] = 0
                except TypeError:
                    self.refused += 1
        return super().assignment_query(point, p)


REWRITE_FORMULA = WeightedFormula(3, ((-1, -2), (-2, -3)), ClassTag.G12N, 2)


def test_rewriting_handed_challenges_changes_no_verdict():
    table = BooleanTable.from_assignment({1, 3}, REWRITE_FORMULA.m)
    for seed in range(50):
        honest = verify_w1(REWRITE_FORMULA, TableCommittedProver(table), RandomTape(seed))
        rewriter = HandedRewriter(table)
        assert verify_w1(REWRITE_FORMULA, rewriter, RandomTape(seed)) == honest, seed
        assert honest.accepted and rewriter.refused
        assert all(_wire_data(w) for w in rewriter.wire), seed
        assert all(type(q) is tuple and _wire_data(q) for q in rewriter.handed), seed


def test_the_verifier_hands_out_none_of_its_own_elements(monkeypatch):
    # the round wire carries exact ints and int tuples only, equal to the
    # verifier's claims and challenges; the verifier keeps residues only, and
    # each final read point is an exact tuple of exact ints, one of its read
    # points, handed with the exact int p
    runs = []

    def capture(spec, *args):
        runs.append((spec, run_sumcheck(spec, *args)))
        return runs[-1][1]

    wire, points = [], []

    class Recorder(TableCommittedProver):
        def begin_sumcheck(self, spec, claim):
            wire.append((0, (), claim))
            super().begin_sumcheck(spec, claim)

        def round_poly(self, i, challenges, claim):
            wire.append((i, challenges, claim))
            return super().round_poly(i, challenges, claim)

        def assignment_query(self, point, p):
            points.append((point, p))
            return super().assignment_query(point, p)

    monkeypatch.setattr(pcpverify, "run_sumcheck", capture)
    table = BooleanTable.from_assignment({1, 3}, REWRITE_FORMULA.m)
    assert verify_w1(REWRITE_FORMULA, Recorder(table), RandomTape(4)).accepted
    assert [run.verdict.accepted for _, run in runs] == [True, True]
    assert all(type(i) is int and _wire_data(c) and _wire_data(a) for i, c, a in wire)
    # each round gets the verifier's challenges so far and running claim
    handed = [(c, a) for i, c, a in wire if i > 0]
    expected = [
        (tuple(t.challenge for t in run.transcripts[: i - 1]),
         run.transcripts[i - 2].running if i > 1 else claim)
        for (_, run), claim in zip(runs, (0, REWRITE_FORMULA.k))
        for i in range(1, len(run.transcripts) + 1)
    ]
    assert handed == expected
    for _, run in runs:
        kept = [run.final_point, run.final_expected]
        kept += [x for t in run.transcripts for x in (t.coeffs, t.challenge, t.running)]
        assert all(_wire_data(x) for x in kept)
    reads = [q for spec, run in runs for q in read_points(spec, run.final_point)]
    assert [q for q, _ in points] == reads
    assert all(type(q) is tuple and _wire_data(q) for q, _ in points)
    prime = pcpverify.protocol_parameters(REWRITE_FORMULA).prime
    assert all(type(p) is int and p == prime for _, p in points)


class PolyKeeper(TableCommittedProver):
    """An honest table prover that keeps every round message it sends."""

    def __init__(self, table):
        super().__init__(table)
        self.sent = []

    def round_poly(self, i, challenges, claim):
        self.sent.append(super().round_poly(i, challenges, claim))
        return self.sent[-1]


def test_rewriting_sent_round_polynomials_after_the_verdict_changes_no_transcript(monkeypatch):
    runs = []

    def capture(*args):
        runs.append(run_sumcheck(*args))
        return runs[-1]

    monkeypatch.setattr(pcpverify, "run_sumcheck", capture)
    table = BooleanTable.from_assignment({1, 3}, REWRITE_FORMULA.m)
    prover = PolyKeeper(table)
    assert verify_w1(REWRITE_FORMULA, prover, RandomTape(1)).accepted
    transcripts = [t for run in runs for t in run.transcripts]
    recorded = [(t.coeffs, t.challenge, t.running) for t in transcripts]
    assert transcripts[0].coeffs == (0, 0, 0, 0)
    # what the prover sent is a tuple of ints, which it cannot rewrite, and
    # the transcript keeps that very tuple; a transcript refuses writes
    assert all(_wire_data(g) for g in prover.sent)
    assert [t.coeffs for t in transcripts] == prover.sent
    for g in prover.sent:
        with pytest.raises(TypeError):
            g[0] = 7
    for t in transcripts:
        for name in ("coeffs", "challenge", "running"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, 7)
    assert [(t.coeffs, t.challenge, t.running) for t in transcripts] == recorded
