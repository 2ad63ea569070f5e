"""The verifier treats the proof as data: prover values that are not exactly
``UniPoly`` / ``FieldElement`` objects holding plain ints are rejected at the
stage and round that read them, and no prover-supplied method decides a check."""

import pytest

from ppcplab.arithmetize import BooleanTable, SummandSpec, mle_eval
from ppcplab.field import FieldElement, PrimeField, UniPoly
from ppcplab.formula import parse_pwsat
from ppcplab.pcpverify import multilinearity_test, verify_w1
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
