"""Mutation gate over the verifier's checks, the quantifier walks, the
split of trials, branches and a pass's stages, and the pool of forked
helpers they run on.

    python3 tools/mutants.py

Each mutant changes one operator or one constant inside one function of
``SITES``:

- a comparison swapped: == and !=, < and <=, > and >=, ``is`` and
  ``is not``, ``in`` and ``not in``;
- ``and`` and ``or`` swapped;
- a ``not`` dropped;
- a binary + made -, - made +, and * made +;
- an int constant from 0 to 16 raised by one.

Constants inside f-strings are left alone.  For each mutant the script
copies ``src``, ``tests`` and ``pyproject.toml`` into a fresh scratch
directory, writes the mutated module there (unparsed from its tree) and
runs ``TEST_FILES`` with pytest, stopping at the first failure; it runs
``WORKERS`` mutants at a time.  A failing or timed-out run kills the
mutant; a passing run lets it survive.
``tests/mutants_equivalent.json`` lists the survivors known to be
equivalent to the original, each by module, site and the source text of
its statement before and after.  The script prints a kill table and exits
1 on any survivor outside that list or on an entry of that list that no
mutant matches any more; it exits 2 when the unmutated tests fail.
Standard library only.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = ROOT / "tests" / "mutants_equivalent.json"

# module -> the functions (``Class.method`` for a method) whose checks are mutated
SITES = {
    "sumcheck": ["proof_residues", "ask_prover", "_horner", "run_sumcheck"],
    "pcpverify": [
        "multilinearity_test", "_read_assignment", "run_protocol",
        "protocol_parameters", "_verify",
        # the rebinding guard of every split, and the sum over the trial ranges
        "_unpatched", "_split_accepted",
        # the coin walk that brings a helper's tape to its first branch, and
        # the merge of a helper's ledger into the caller's log
        "_walk_accepting_passes", "_StageLog.extend",
        # one stage of a pass, and the split of a pass's stages: the reading
        # of the prover's table, the caller's part and its merge, the helper's
        # part
        "_run_stage", "_plain_attr", "_committed_values", "_split_pass", "_pass_stages",
    ],
    "arithmetize": [
        "summand_value", "summand_factor", "with_reads", "read_points", "clause_indicator_eval",
    ],
    "awsat": [
        "_read_proof", "verify_awsat", "_infeasible_verdict",
        "enumerate_universal", "BranchProofTables.merge", "honest_branch_tables",
        # one range of branches, in the caller or in a helper
        "_run_branches", "_branch_range",
    ],
    # the quantifier walks: the witness search above and the ground truth
    "formula": ["alternation_moves", "brute_force_awsat"],
    # the helper pool: the cut into ranges, the run beside the caller and its
    # frames, and how a task after a rejecting one is dropped
    "pool": [
        "_trial_ranges", "ranges", "run_beside", "_read_frame", "_write_frame",
        "_Helper.drop", "_serve",
    ],
}

# the verifier test files, quickest killers first
TEST_FILES = [
    "tests/test_golden.py",
    "tests/test_sumcheck.py",
    "tests/test_arithmetize.py",
    "tests/test_pcpverify.py",
    "tests/test_awsat.py",
    "tests/test_stage_split.py",
    "tests/test_hostile_prover.py",
    "tests/test_acceptance.py",
    "tests/test_soundness_split.py",
    "tests/test_awsat_split.py",
]
TIMEOUT_S = 600
WORKERS = 2

COMPARE_SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
BINOP_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
BOOLOP_SWAPS = {ast.And: ast.Or, ast.Or: ast.And}


@dataclass(frozen=True)
class Mutant:
    module: str
    site: str
    line: int
    before: str  # the mutated statement's source text, unparsed
    after: str
    source: str  # the whole mutated module

    def key(self) -> tuple[str, str, str, str]:
        return (self.module, self.site, self.before, self.after)


def _site_functions(tree: ast.Module, names: list[str]) -> list[tuple[str, ast.FunctionDef]]:
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update(
                (f"{node.name}.{sub.name}", sub) for sub in node.body if isinstance(sub, ast.FunctionDef)
            )
    missing = [name for name in names if name not in found]
    if missing:
        raise SystemExit(f"site functions not found: {missing}")
    return [(name, found[name]) for name in names]


def _variants(node: ast.AST):
    """Each single-point change of ``node``, as a new node to put in its place."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE_SWAPS:
                ops = list(node.ops)
                ops[i] = COMPARE_SWAPS[type(op)]()
                yield ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BoolOp):
        yield ast.BoolOp(BOOLOP_SWAPS[type(node.op)](), node.values)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand
    elif isinstance(node, ast.BinOp) and type(node.op) in BINOP_SWAPS:
        yield ast.BinOp(node.left, BINOP_SWAPS[type(node.op)](), node.right)
    elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 16:
        yield ast.Constant(node.value + 1)


def _slots(node: ast.AST, statement: ast.stmt | None):
    """(parent, field, index or None, child, enclosing statement) for every
    expression under ``node``, f-strings excepted."""
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):  # not evaluated, under postponed annotations
            continue
        children = value if isinstance(value, list) else [value]
        for index, child in enumerate(children):
            if not isinstance(child, ast.AST) or isinstance(child, ast.JoinedStr):
                continue
            enclosing = child if isinstance(child, ast.stmt) else statement
            if isinstance(child, ast.expr):
                yield node, field, index if isinstance(value, list) else None, child, enclosing
            yield from _slots(child, enclosing)


def _statement_text(statement: ast.stmt) -> str:
    """A compound statement is shown by its header line, any other whole."""
    text = ast.unparse(statement)
    if isinstance(statement, (ast.If, ast.While, ast.For, ast.With, ast.Try, ast.FunctionDef)):
        return text.splitlines()[0]
    return text


def _put(parent: ast.AST, field: str, index, node: ast.AST) -> None:
    if index is None:
        setattr(parent, field, node)
    else:
        getattr(parent, field)[index] = node


def mutants() -> list[Mutant]:
    """Every mutant of every site, in source order."""
    out = []
    for module, names in SITES.items():
        tree = ast.parse((ROOT / "src" / "ppcplab" / f"{module}.py").read_text())
        unparsed = ast.unparse(tree)
        if ast.dump(ast.parse(unparsed)) != ast.dump(tree):
            raise SystemExit(f"{module}.py does not survive ast.unparse")
        for site, function in _site_functions(tree, names):
            for parent, field, index, node, statement in list(_slots(function, function)):
                for replacement in _variants(node):
                    before = _statement_text(statement)
                    _put(parent, field, index, replacement)
                    after = _statement_text(statement)
                    source = ast.unparse(tree)
                    _put(parent, field, index, node)
                    out.append(Mutant(module, site, node.lineno, before, after, source))
    return out


def run_tests(mutant: Mutant | None, scratch: Path) -> bool:
    """Whether ``TEST_FILES`` pass on a fresh copy of the repository with
    ``mutant`` written into it (the copy is removed afterwards)."""
    copy_dir = Path(tempfile.mkdtemp(prefix="mutant-", dir=scratch))
    try:
        shutil.copytree(ROOT / "src", copy_dir / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(
            ROOT / "tests", copy_dir / "tests",
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
        )
        shutil.copy(ROOT / "pyproject.toml", copy_dir / "pyproject.toml")
        if mutant is not None:
            (copy_dir / "src" / "ppcplab" / f"{mutant.module}.py").write_text(mutant.source)
        env = {**os.environ, "PYTHONPATH": str(copy_dir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TEST_FILES]
        try:
            done = subprocess.run(
                command, cwd=copy_dir, env=env, timeout=TIMEOUT_S,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0
    finally:
        shutil.rmtree(copy_dir, ignore_errors=True)


def load_equivalent() -> set[tuple[str, str, str, str]]:
    entries = json.loads(EQUIVALENT.read_text())
    return {(e["module"], e["site"], e["before"], e["after"]) for e in entries}


def main() -> int:
    all_mutants = mutants()
    equivalent = load_equivalent()
    stale = equivalent - {mutant.key() for mutant in all_mutants}
    with tempfile.TemporaryDirectory(prefix="ppcplab-mutants-") as scratch:
        if not run_tests(None, Path(scratch)):
            print("the unmutated tests fail; no mutant was run", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            passed = list(pool.map(lambda m: run_tests(m, Path(scratch)), all_mutants))

    total, killed, known, unknown = Counter(), Counter(), Counter(), []
    for mutant, survived in zip(all_mutants, passed):
        site = f"{mutant.module}.{mutant.site}"
        total[site] += 1
        if not survived:
            killed[site] += 1
        elif mutant.key() in equivalent:
            known[site] += 1
        else:
            unknown.append(mutant)

    width = max(len(site) for site in total)
    print(f"{'site':<{width}}  mutants  killed  equivalent  survived")
    for site in total:
        survived = total[site] - killed[site] - known[site]
        print(f"{site:<{width}}  {total[site]:7}  {killed[site]:6}  {known[site]:10}  {survived:8}")
    print(
        f"{'total':<{width}}  {sum(total.values()):7}  {sum(killed.values()):6}  "
        f"{sum(known.values()):10}  {len(unknown):8}"
    )
    for mutant in unknown:
        print(f"SURVIVED {mutant.module}.{mutant.site}:{mutant.line}: {mutant.before}  ->  {mutant.after}")
    for module, site, before, after in sorted(stale):
        print(f"STALE equivalent entry {module}.{site}: {before}  ->  {after}")
    return 1 if unknown or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
