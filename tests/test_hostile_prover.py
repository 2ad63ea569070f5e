"""The verifier treats the proof as data: prover values that are not exactly
``UniPoly`` / ``FieldElement`` objects holding plain ints are rejected at the
stage and round that read them, and no prover-supplied method decides a check."""

import dataclasses
import types

import pytest

from ppcplab.arithmetize import BooleanTable, SummandSpec, _formula_codes, mle_eval
from ppcplab.field import FieldElement, PrimeField, UniPoly
from ppcplab.formula import ClassTag, WeightedFormula, parse_pwsat
from ppcplab.pcpverify import multilinearity_test, verify_w1, verify_w2
from ppcplab.sumcheck import (
    GenericHonestProver,
    ProverStrategy,
    RandomTape,
    ResourceMeter,
    TableCommittedProver,
    run_sumcheck,
)

F109 = PrimeField(109)
NO_TEXT = "p pwsat g12n 2 1 2\n-1 -2 0\n"
YES_TEXT = "p pwsat g12n 3 2 1\n-1 -2 0\n-1 -3 0\n"


def product_spec(fld):
    # h(x1, x2) = x1 * x2
    return SummandSpec(2, (1, 1), lambda pt: pt[0] * pt[1], fld)


class AlwaysEqual(FieldElement):
    """Reports equality with everything."""

    __slots__ = ()

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = FieldElement.__hash__


class HalfClaimPoly(UniPoly):
    """Claims the constant last coefficient, whatever the coefficients say."""

    def evaluate(self, x):
        return AlwaysEqual(self.coeffs[-1].value, self.field)


class SubclassProver(ProverStrategy):
    """Round polynomials whose ``evaluate`` returns claim/2 as an
    ``AlwaysEqual``, so g(0) + g(1) matches every claim; assignment answers
    are ``AlwaysEqual`` too."""

    def round_poly(self, i, challenges, current_claim):
        fld = current_claim.field
        return HalfClaimPoly((fld.one, current_claim * fld(2).inv()), 1)

    def assignment_query(self, point):
        return AlwaysEqual(1, point[0].field)


class IntSub(int):
    pass


def test_subclass_prover_never_accepted():
    f = parse_pwsat(NO_TEXT)
    verdicts = [verify_w1(f, SubclassProver(), RandomTape(seed)) for seed in range(100)]
    assert sum(v.accepted for v in verdicts) == 0
    assert {(v.stage, v.rejection_round) for v in verdicts} == {("mltest", 1)}


def _with_value(value):
    fe = F109(0)
    fe.value = value
    return fe


HOSTILE_POLYS = {
    "poly_subclass": lambda honest: HalfClaimPoly(honest.coeffs, honest.bound),
    "coeff_subclass": lambda honest: UniPoly(
        tuple(AlwaysEqual(c.value, c.field) for c in honest.coeffs), honest.bound
    ),
    "int_subclass_value": lambda honest: UniPoly(
        tuple(_with_value(IntSub(c.value)) for c in honest.coeffs), honest.bound
    ),
    "float_value": lambda honest: UniPoly(
        tuple(_with_value(float(c.value)) for c in honest.coeffs), honest.bound
    ),
    "wrong_field": lambda honest: UniPoly(
        tuple(PrimeField(113)(c.value) for c in honest.coeffs), honest.bound
    ),
}


@pytest.mark.parametrize("make", HOSTILE_POLYS.values(), ids=HOSTILE_POLYS.keys())
def test_sumcheck_rejects_values_that_are_not_exact(make):
    class Wrapped(GenericHonestProver):
        def round_poly(self, i, challenges, current_claim):
            return make(super().round_poly(i, challenges, current_claim))

    spec = product_spec(F109)
    honest = run_sumcheck(spec, F109.one, GenericHonestProver(), RandomTape(3), ResourceMeter())
    run = run_sumcheck(spec, F109.one, Wrapped(), RandomTape(3), ResourceMeter())
    assert honest.verdict.accepted
    assert (run.verdict.accepted, run.verdict.rejection_round) == (False, 1)


class TupleSub(tuple):
    pass


def test_sumcheck_reads_plain_sequences_only():
    def run(wrap):
        class Wrapped(GenericHonestProver):
            def round_poly(self, i, challenges, current_claim):
                honest = super().round_poly(i, challenges, current_claim)
                return UniPoly(wrap(honest.coeffs), honest.bound)

        spec = product_spec(F109)
        return run_sumcheck(spec, F109.one, Wrapped(), RandomTape(3), ResourceMeter()).verdict

    assert run(list).accepted
    assert (run(TupleSub).accepted, run(TupleSub).rejection_round) == (False, 1)


def test_multilinearity_test_rejects_subclass_answers():
    table = BooleanTable.from_true_codes([1, 2], 2)

    def oracle(q):
        v = mle_eval(table, q)
        return AlwaysEqual(v.value, v.field)

    ok, rep = multilinearity_test(oracle, 2, 5, RandomTape(1), ResourceMeter(), F109)
    assert (ok, rep) == (False, 1)


class SubclassFinalReads(TableCommittedProver):
    """Honest round polynomials; once the main sum-check starts, every
    assignment answer is the true value wrapped in ``AlwaysEqual``."""

    def __init__(self, table):
        super().__init__(table)
        self._started = False

    def begin_sumcheck(self, spec, claim):
        super().begin_sumcheck(spec, claim)
        self._started = True

    def assignment_query(self, point):
        v = super().assignment_query(point)
        return AlwaysEqual(v.value, v.field) if self._started else v


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
    number ``sumcheck`` (0 = the multilinearity test, before any sum-check;
    1 = main; 2 = weight), at round ``round`` for ``round_poly``.  It fails by
    raising, or with ``raises=False`` by answering ``None`` (a malformed
    answer); ``begin_sumcheck`` can only raise."""

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

    def assignment_query(self, point):
        if self.fault[0] == "assignment_query" and self.fault[1] == self.sumchecks:
            return self._fail()
        return super().assignment_query(point)


# (instance, table, fault) -> (stage, rejection_round).  The no-instance's
# honest table fails the main sum-check's first round, so later stages never run.
FAULTS = {
    "no/mltest_query": (NO_TEXT, NO_TABLE, ("assignment_query", 0), ("mltest", 1)),
    "no/main_begin": (NO_TEXT, NO_TABLE, ("begin_sumcheck", 1), ("main", 1)),
    "no/main_round1": (NO_TEXT, NO_TABLE, ("round_poly", 1, 1), ("main", 1)),
    "yes/mltest_query": (YES_TEXT, YES_TABLE, ("assignment_query", 0), ("mltest", 1)),
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


@pytest.mark.parametrize("text", [NO_TEXT, YES_TEXT], ids=["no", "yes"])
def test_prover_without_oracle_is_rejected_by_the_multilinearity_test(text):
    verdict = verify_w1(parse_pwsat(text), GenericHonestProver(), RandomTape(6))
    assert (verdict.accepted, verdict.stage, verdict.rejection_round) == (False, "mltest", 1)


def test_base_exception_is_not_swallowed():
    class Interrupting(GenericHonestProver):
        def round_poly(self, i, challenges, current_claim):
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_sumcheck(product_spec(F109), F109.one, Interrupting(), RandomTape(3), ResourceMeter())


# -- writes into what the spec and the plan expose -------------------------------


def _reachable_lists(roots):
    """Every list reachable from ``roots`` through list, tuple and dict
    entries, dataclass fields and the closure cells of functions."""
    found, seen, todo = [], set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, list):
            found.append(obj)
            todo.extend(obj)
        elif isinstance(obj, tuple):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return found


class ListWriter(TableCommittedProver):
    """Builds the honest plan of every sum-check, binds its head at a random
    point, then overwrites every list it can reach from the spec, the plan
    and the tails: entries become 1, and lists of lists become empty."""

    def __init__(self, table):
        super().__init__(table)
        self.written = 0

    def begin_sumcheck(self, spec, claim):
        plan = spec.plan_builder(self.table)
        roots = [spec, plan]
        if plan.build_tails is not None:
            roots.append(plan.build_tails(tuple(spec.field(5) for _ in range(plan.block_vars))))
        lists = _reachable_lists(roots)
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

    _formula_codes.cache_clear()
    fresh = honest_runs()
    assert [v.accepted for v in fresh] == [True, False]
    writer = ListWriter(tables[0])
    hostile = verify(formula, writer, RandomTape(8))
    assert writer.written > 0 and not hostile.accepted
    assert honest_runs() == fresh  # verdicts compare meters and stage reports too
    codes = _formula_codes(formula)
    assert type(codes) is tuple and all(type(c) is tuple for c in codes)
