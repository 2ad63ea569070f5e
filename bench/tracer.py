"""Span tracer for the traced benchmark run.

``Tracer.install()`` replaces the public functions of every ppcplab module at
the names their callers look up (module globals such as
``pcpverify.run_sumcheck`` and class attributes such as
``PlanFolder.round_values``) with wrappers that record one span per call:
name, start, end and parent.  ``uninstall()`` puts the originals back, so an
untraced run executes the unmodified program.

Spans live in flat arrays while the run lasts; self time (a span's duration
minus the part its child spans cover) and the per-layer metrics are derived
from them once, in ``layer_metrics``.  Hot constructors and tiny methods
(``FieldElement``, ``UniPoly.evaluate``, ``RandomTape.draw_int``) are counted,
not spanned, to keep the tracing overhead small.  ``src/`` is never edited.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

from ppcplab import arithmetize, awsat, field, pcpverify, sumcheck

# (owner, attribute, span name): every wrapped function and method.
SPANS = (
    (sumcheck, "interpolate", "field.interpolate"),
    (pcpverify, "select_prime", "field.select_prime"),
    (awsat, "select_prime", "field.select_prime"),
    (pcpverify, "clause_indicator_eval", "arithmetize.clause_indicator_eval"),
    (arithmetize, "clause_indicator_eval", "arithmetize.clause_indicator_eval"),
    (sumcheck, "mle_eval", "arithmetize.mle_eval"),
    (pcpverify, "mle_eval", "arithmetize.mle_eval"),
    (arithmetize, "mle_eval", "arithmetize.mle_eval"),
    (pcpverify, "build_w1_summand", "arithmetize.build_summand"),
    (pcpverify, "build_w2_summand", "arithmetize.build_summand"),
    (pcpverify, "build_weight_summand", "arithmetize.build_summand"),
    (pcpverify, "run_sumcheck", "sumcheck.run_sumcheck"),
    (sumcheck, "draw_field_element", "sumcheck.draw_field_element"),
    (pcpverify, "draw_field_element", "sumcheck.draw_field_element"),
    (sumcheck, "honest_round_poly", "sumcheck.honest_round_poly"),
    (sumcheck.PlanFolder, "sync", "sumcheck.PlanFolder.sync"),
    (sumcheck.PlanFolder, "round_values", "sumcheck.PlanFolder.round_values"),
    (pcpverify, "multilinearity_test", "pcpverify.multilinearity_test"),
    (pcpverify, "run_g12n_protocol", "pcpverify.verify"),
    (awsat, "run_g12n_protocol", "pcpverify.verify"),
    (pcpverify, "w1_parameters", "pcpverify.parameters"),
    (pcpverify, "w2_parameters", "pcpverify.parameters"),
    (pcpverify, "soundness_experiment", "pcpverify.soundness_experiment"),
    (pcpverify, "brute_force_wsat", "formula.brute_force_wsat"),
    (awsat, "simplify", "formula.simplify"),
    (awsat, "enumerate_universal", "awsat.enumerate_universal"),
    (awsat, "awsat_parameters", "awsat.parameters"),
    (awsat.BranchProofTables, "merge", "awsat.merge"),
)

# Verifier entry points: spanned as above, and their outermost verdicts are
# summed into the protocol totals.
VERIFIERS = (
    (pcpverify, "verify_w1", "pcpverify.verify"),
    (pcpverify, "verify_w2", "pcpverify.verify"),
    (awsat, "verify_w1", "pcpverify.verify"),
    (awsat, "verify_awsat", "awsat.verify_awsat"),
)

PROVERS = (
    sumcheck.TableCommittedProver,
    sumcheck.AdaptiveCheater,
    sumcheck.RandomGarbageProver,
    sumcheck.GenericHonestProver,
)
PROVER_METHODS = ("begin_sumcheck", "round_poly", "assignment_query")

# Counted, not spanned: (owner, attribute, counter name).
COUNTS = (
    (field.FieldElement, "__init__", "field.FieldElement.created"),
    (field.PrimeField, "__init__", "field.PrimeField.created"),
    (field.UniPoly, "evaluate", "field.UniPoly.evaluate.calls"),
    (sumcheck.RandomTape, "draw_int", "sumcheck.RandomTape.draw_int.calls"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in SPANS + VERIFIERS]
    + [f"sumcheck.prover.{meth}" for meth in PROVER_METHODS]
))

COUNT_NAMES = tuple(name for _, _, name in COUNTS) + (
    "sumcheck.rounds",
    "pcpverify.verifier_runs",
    "pcpverify.random_bits",
    "pcpverify.proof_bits",
    "pcpverify.oracle_queries",
    "pcpverify.rejects.mltest",
    "pcpverify.rejects.main",
    "pcpverify.rejects.weight",
    "awsat.branches",
)

_STAGE_KINDS = ("mltest", "main", "weight")


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._tapes: list = []
        self._verifier_ids = {self._ids[name] for _, _, name in VERIFIERS}
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANS:
            after = self._count_rounds if attr == "run_sumcheck" else None
            self._patch(owner, attr, self._span(name, getattr(owner, attr), after))
        for owner, attr, name in VERIFIERS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), self._add_verdict))
        for cls in PROVERS:
            for meth in PROVER_METHODS:
                if meth in vars(cls):
                    self._patch(cls, meth, self._span(f"sumcheck.prover.{meth}", vars(cls)[meth]))
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, self._counted(name, vars(owner)[attr]))
        self._patch(sumcheck.RandomTape, "__init__", self._tape_init(vars(sumcheck.RandomTape)["__init__"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr, replacement) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        """Span wrapper; ``after`` sees each result once its span has closed."""
        nid = self._ids[name]
        calls = name + ".calls"
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts = self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            # a call nested in a span of the same name (an adversary wrapping
            # the honest prover, verify_w1 entering run_g12n_protocol) is one
            # call as its caller sees it
            if parent < 0 or names[parent] != nid:
                counts[calls] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _tape_init(self, fn):
        tapes = self._tapes

        @functools.wraps(fn)
        def wrapper(tape, *args, **kwargs):
            fn(tape, *args, **kwargs)
            tapes.append(tape)

        return wrapper

    def _count_rounds(self, run) -> None:
        self.counts["sumcheck.rounds"] += len(run.transcripts)

    def _add_verdict(self, verdict) -> None:
        """Adds the verdict of an outermost verifier call to the totals."""
        if any(self.span_name[idx] in self._verifier_ids for idx in self._stack):
            return  # awsat's single-block path delegating to verify_w1
        counts = self.counts
        counts["pcpverify.verifier_runs"] += 1
        counts["pcpverify.random_bits"] += verdict.meter.random_bits
        counts["pcpverify.proof_bits"] += verdict.meter.proof_bits
        counts["pcpverify.oracle_queries"] += verdict.meter.oracle_queries
        if not verdict.accepted and verdict.stage is not None:
            kind = verdict.stage.rsplit(".", 1)[-1].rstrip("0123456789")
            counts[f"pcpverify.rejects.{kind}"] += 1
        prefixes = {s.name.split(".", 1)[0] for s in verdict.stages if "." in s.name}
        counts["awsat.branches"] += len(prefixes)

    # -- derived metrics ----------------------------------------------------

    def self_times_ns(self) -> dict[str, int]:
        """Self time per span name: each span's duration minus its children's."""
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        child = [0] * n
        for idx in range(n):
            parent = parents[idx]
            if parent >= 0:
                child[parent] += ends[idx] - starts[idx]
        total = [0] * len(SPAN_NAMES)
        for idx in range(n):
            total[names[idx]] += ends[idx] - starts[idx] - child[idx]
        return dict(zip(SPAN_NAMES, total))

    def stage_times_ns(self) -> dict[str, int]:
        """Inclusive time per verifier stage.

        The stages of one protocol pass are children of the innermost
        ``pcpverify.verify`` span that ran a multilinearity test: the mltest
        stage is that test's span; the main stage runs from its end to the
        start of the pass's second summand build (the first weight check) or
        to the end of the pass; the weight stage runs from there to the end.
        """
        verify = self._ids["pcpverify.verify"]
        mltest = self._ids["pcpverify.multilinearity_test"]
        build = self._ids["arithmetize.build_summand"]
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        out = dict.fromkeys(_STAGE_KINDS, 0)
        main_from: dict[int, int] = {}
        builds: dict[int, int] = defaultdict(int)
        weight_from: dict[int, int] = {}
        for idx in range(len(starts)):
            parent = parents[idx]
            if parent < 0 or names[parent] != verify:
                continue
            if names[idx] == mltest:
                out["mltest"] += ends[idx] - starts[idx]
                main_from[parent] = ends[idx]
            elif names[idx] == build and parent in main_from:
                builds[parent] += 1
                if builds[parent] == 2:
                    weight_from[parent] = starts[idx]
        for pass_idx, begin in main_from.items():
            if not builds[pass_idx]:
                continue  # rejected in the multilinearity test
            end = ends[pass_idx]
            split = weight_from.get(pass_idx, end)
            out["main"] += split - begin
            out["weight"] += end - split
        return out

    def tape_overhead_ratio(self) -> float:
        drawn = sum(t.bits_drawn for t in self._tapes)
        wasted = sum(t.overhead_bits for t in self._tapes)
        return wasted / drawn if drawn else 0.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric the tracer measures, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        self_ns = self.self_times_ns()
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.counts[f"{name}.calls"], "count")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        for kind, ns in self.stage_times_ns().items():
            out[f"pcpverify.stage.{kind}_s"] = (ns / 1e9, "s")
        out["sumcheck.tape.overhead_ratio"] = (self.tape_overhead_ratio(), "ratio")
        out["trace.spans"] = (len(self.span_start), "count")
        return out
