"""The benchmark's contract with the program.

``bench/tracer.py`` wraps program functions at the module and class
attributes their callers look up, and ``bench/workloads.py`` drives and gates
the program through public names.  These tests keep both working: every
wrapped name stays bound and is restored, and the first ops of the ``TINY``
profile pass their correctness gate, untraced and traced alike.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")

SEED = 1


def _wrapped_attributes():
    pairs = [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.VERIFIERS + tracer.COUNTS]
    pairs += [
        (cls, meth) for cls in tracer.PROVERS for meth in tracer.PROVER_METHODS if meth in vars(cls)
    ]
    return pairs


def test_tracer_binds_and_restores_every_name():
    pairs = _wrapped_attributes()
    missing = [f"{owner.__name__}.{attr}" for owner, attr in pairs if attr not in vars(owner)]
    assert not missing, f"names the tracer wraps are unbound: {missing}"
    originals = [vars(owner)[attr] for owner, attr in pairs]
    trace = tracer.Tracer()
    trace.install()
    try:
        assert all(vars(o)[a] is not orig for (o, a), orig in zip(pairs, originals))
    finally:
        trace.uninstall()
    assert all(vars(o)[a] is orig for (o, a), orig in zip(pairs, originals))


def _run_ops(workload, items):
    results = []
    for i in range(workloads.TINY.min_ops):
        result = workload.op(items, i, SEED)
        assert workload.check(items, i, result), f"{workload.name} op {i} failed its gate"
        results.append(workload.fields(result))
    return results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_first_ops_pass(name):
    workload = workloads.WORKLOADS[name](workloads.TINY)
    items = workload.setup(SEED, 0.0, workloads.Phases())
    untraced = _run_ops(workload, items)
    with tracer.Tracer() as trace:
        traced = _run_ops(workload, items)
    assert traced == untraced
    metrics = trace.layer_metrics()
    # every sum-check's summand comes from a builder the tracer wraps
    assert metrics["arithmetize.build_summand.calls"] == metrics["sumcheck.run_sumcheck.calls"]
    if name == "honest_large":
        # the final check evaluates the clause indicator through the wrapped name
        assert metrics["arithmetize.clause_indicator_eval.calls"][0] > 0
    if name != "attack_small":
        # the stage split needs the driver's traced summand builds
        assert metrics["pcpverify.stage.main_s"][0] > 0
        assert metrics["pcpverify.stage.weight_s"][0] > 0
