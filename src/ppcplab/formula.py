"""Weighted-CNF data model, the pwsat text format, and brute-force oracles.

Two syntactic classes are supported:

  * g12n: 2-CNF with every literal negated (the W[1]-complete fragment),
  * g21p: CNF of unbounded clause length with every literal positive
    (the W[2]-complete fragment).

pwsat format (line oriented):

  * lines starting with ``c`` are comments,
  * header ``p pwsat <class> <num_vars> <num_clauses> <k>``,
  * one clause per line, signed decimal literals terminated by ``0``.

Alternating instances add block lines after the header:

  * ``b <i> <k_i> <v1> <v2> ... 0`` declares block i with weight k_i;
    blocks must cover every variable exactly once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Mapping, Optional


class GuardError(ValueError):
    """A desk-scale size guard was exceeded."""


class ClassMismatchError(ValueError):
    """An operation received a formula of the wrong syntactic class."""


class PwsatParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ClassTag(str, Enum):
    G12N = "g12n"  # 2-CNF, all literals negated
    G21P = "g21p"  # unbounded CNF, all literals positive


def _clause_problem(lits: tuple[int, ...], num_vars: int, tag: ClassTag) -> Optional[str]:
    """What is wrong with a clause of class ``tag`` over variables
    1..num_vars, or None: the one clause rule of the data model and the
    parser."""
    if not lits:
        return "empty clause"
    # whether a clause passes depends only on its min, max and length (a 0
    # between min and max breaks the sign check), so one stand-in clause
    # can speak for a whole formula: _first_clause_problem
    lo, hi = min(lits), max(lits)
    if lo < -num_vars or hi > num_vars or 0 in lits:
        bad = next(lit for lit in lits if lit == 0 or abs(lit) > num_vars)
        return f"literal {bad} out of range (num_vars={num_vars})"
    if tag is ClassTag.G12N:
        if len(lits) > 2:
            return f"g12n clauses carry at most 2 literals: {lits}"
        if hi > 0:
            return f"positive literal in g12n clause: {lits}"
    elif lo < 0:
        return f"negative literal in g21p clause: {lits}"
    return None


def _first_clause_problem(
    clauses: tuple[tuple[int, ...], ...], longest: int, num_vars: int, tag: ClassTag
) -> Optional[str]:
    """The problem of the first clause that breaks the clause rule, or None.

    Whole-formula passes decide whether there is one: no clause may be
    empty, and one stand-in clause must keep the rule.  It holds the least
    and the greatest literal and is as long as the longest clause (at least
    2), so it breaks the rule iff some clause does.  A literal 0 needs no
    pass of its own: the sign rule leaves it the least or the greatest
    literal, or breaks anyway.  Only on a break are the clauses walked, to
    name the first bad one."""
    if all(clauses):
        lits = tuple(itertools.chain.from_iterable(clauses))
        if not lits:
            return None
        hi = max(lits)
        stand_in = (min(lits), hi, *(hi,) * (longest - 2))
        if _clause_problem(stand_in, num_vars, tag) is None:
            return None
    return next(filter(None, (_clause_problem(cl, num_vars, tag) for cl in clauses)))


def derived_m(num_vars: int, num_clauses: int) -> int:
    """Smallest m with 2^m >= max(num_vars, num_clauses), floored at 1."""
    return (max(num_vars, num_clauses, 2) - 1).bit_length()


@dataclass(frozen=True)
class WeightedFormula:
    """A CNF formula in one of the two classes, with weight target k.

    ``m`` defaults to the derived cube width but may be pinned to any larger
    value; a stable m is what keeps proof tables comparable when a formula is
    simplified inside the branch protocol.

    The longest clause length is computed once, at construction.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    class_tag: ClassTag
    k: int
    m: Optional[int] = None
    _max_len: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        clauses = tuple(map(tuple, self.clauses))
        object.__setattr__(self, "clauses", clauses)
        if self.num_vars < 1:
            raise ValueError("num_vars must be at least 1")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        longest = max(map(len, clauses), default=1)
        problem = _first_clause_problem(clauses, longest, self.num_vars, self.class_tag)
        if problem is not None:
            raise ValueError(problem)
        low = derived_m(self.num_vars, len(clauses))
        if self.m is None:
            object.__setattr__(self, "m", low)
        elif self.m < low:
            raise ValueError(f"explicit m={self.m} below derived minimum {low}")
        object.__setattr__(self, "_max_len", longest)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def max_clause_len(self) -> int:
        return self._max_len


@dataclass(frozen=True)
class Assignment:
    """Truth assignment given by the set of variables made true."""

    true_set: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "true_set", frozenset(self.true_set))

    @property
    def weight(self) -> int:
        return len(self.true_set)


def eval_clause(formula: WeightedFormula, clause_index: int, assignment: Assignment) -> bool:
    """True iff some literal of the clause holds under the assignment."""
    if not 0 <= clause_index < formula.num_clauses:
        raise IndexError(f"clause index {clause_index} out of range")
    for lit in formula.clauses[clause_index]:
        if lit > 0 and lit in assignment.true_set:
            return True
        if lit < 0 and -lit not in assignment.true_set:
            return True
    return False


def satisfies(formula: WeightedFormula, assignment: Assignment) -> bool:
    """True iff every clause holds: one pass over the clauses with the
    literal rule of ``eval_clause``."""
    true_set = assignment.true_set
    for clause in formula.clauses:
        for lit in clause:
            if lit > 0 and lit in true_set or lit < 0 and -lit not in true_set:
                break
        else:
            return False
    return True


def brute_force_wsat(formula: WeightedFormula) -> tuple[bool, Optional[Assignment]]:
    """Exhaustive ground truth over all weight-k assignments (num_vars <= 24)."""
    if formula.num_vars > 24:
        raise GuardError(f"brute force limited to 24 variables, got {formula.num_vars}")
    if formula.k > formula.num_vars:
        return False, None
    for combo in itertools.combinations(range(1, formula.num_vars + 1), formula.k):
        candidate = Assignment(frozenset(combo))
        if satisfies(formula, candidate):
            return True, candidate
    return False, None


def simplify(formula: WeightedFormula, partial: Mapping[int, bool]) -> Optional[WeightedFormula]:
    """Substitute a partial assignment and reduce the formula, or None when
    the substitution falsifies a clause outright.

    Satisfied clauses are dropped and falsified literals drop out of the
    rest, so a g12n clause may keep a single literal.  The weight target
    drops by the number of variables the partial assignment makes true, and m
    is pinned to the parent's value.
    """
    kept: list[tuple[int, ...]] = []
    for cl in formula.clauses:
        lits = []
        satisfied = False
        for lit in cl:
            var = abs(lit)
            if var in partial:
                lit_true = partial[var] if lit > 0 else not partial[var]
                if lit_true:
                    satisfied = True
                    break
                continue  # falsified literal drops out
            lits.append(lit)
        if satisfied:
            continue
        if not lits:
            return None
        kept.append(tuple(lits))
    assigned_true = sum(1 for v in partial.values() if v)
    return WeightedFormula(
        num_vars=formula.num_vars,
        clauses=tuple(kept),
        class_tag=formula.class_tag,
        k=max(formula.k - assigned_true, 0),
        m=formula.m,
    )


@dataclass(frozen=True)
class AwsatInstance:
    """A g12n formula with its variables partitioned into quantifier blocks.

    Blocks alternate exists/forall starting existential.  Construction admits
    any l >= 1 (an even l is what pad_to_odd consumes); protocol entry points
    demand odd l.  The checks here are the one statement of the block rules:
    ``parse_awsat`` reports their failures as parse errors.
    """

    formula: WeightedFormula
    blocks: tuple[tuple[int, ...], ...]
    block_weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(sorted(b)) for b in self.blocks))
        object.__setattr__(self, "block_weights", tuple(self.block_weights))
        if self.formula.class_tag is not ClassTag.G12N:
            raise ClassMismatchError("awsat instances use the g12n class")
        if len(self.blocks) < 1:
            raise ValueError("awsat instance declares no blocks")
        if len(self.blocks) != len(self.block_weights):
            raise ValueError("one weight per block is required")
        if any(kw < 0 for kw in self.block_weights):
            raise ValueError("block weights must be nonnegative")
        flat = [v for b in self.blocks for v in b]
        # the count first, so no list of the header's num_vars is built
        if len(flat) != self.formula.num_vars or sorted(flat) != list(range(1, len(flat) + 1)):
            raise ValueError("blocks must cover every variable exactly once")
        total = sum(self.block_weights)
        if total != self.formula.k:
            raise ValueError(f"block weights sum to {total}, header k={self.formula.k}")

    @property
    def l(self) -> int:
        return len(self.blocks)


def guard_alternation_tree(instance: AwsatInstance) -> None:
    """Refuse, before any walk over the quantifier tree, an instance whose
    tree has more than 10^7 leaves: the product of C(|block|, k) over its
    blocks."""
    total = 1
    for block, kw in zip(instance.blocks, instance.block_weights):
        total *= math.comb(len(block), kw)
        if total > 10**7:
            raise GuardError("alternation tree exceeds 10^7 branches")


def alternation_moves(instance: AwsatInstance) -> tuple[list, bool]:
    """The quantifier game of ``instance`` on bitmasks, built once per walk.

    Variable v is bit v - 1, its code.  Returns ``(moves, value)``:
    ``moves[i]`` lists block i's exactly-weight choices in
    ``itertools.combinations`` order as ``(choice, mask, conflict)``
    triples, the chosen variables, their mask and the mask of the variables
    that share a clause with one of them.  The list stops before the first
    block with no choice (weight above size), and ``value`` is the game's
    value at that depth: True at the leaves, True at a universal block with
    no choice (it accepts vacuously), False at an existential one (it has
    no move).

    Every literal of a g12n clause is negated, so a clause (-x, -y) is
    falsified exactly when x and y are both true (a one-literal clause has
    x = y), and it stays falsified as a walk makes more variables true.  A
    child with true variables t falsifies a clause through its choice
    exactly when ``t & conflict`` is nonzero; its value is then False, a
    walk never enters it, and a leaf it reaches satisfies every clause.
    This holds only when every block has a choice, so that every node has a
    leaf below it: otherwise the first block without one decides the game
    before any leaf, and every conflict mask is 0.  ``guard_alternation_tree``
    runs first.
    """
    guard_alternation_tree(instance)
    pairs = list(zip(instance.blocks, instance.block_weights))
    depth = next((i for i, (block, kw) in enumerate(pairs) if kw > len(block)), len(pairs))
    partners = [0] * instance.formula.num_vars  # indexed by code
    if depth == len(pairs):
        for clause in instance.formula.clauses:
            x, y = -clause[0] - 1, -clause[-1] - 1
            partners[x] |= 1 << y
            partners[y] |= 1 << x
    moves = []
    for block, kw in pairs[:depth]:
        row = []
        for choice in itertools.combinations(block, kw):
            mask = conflict = 0
            for v in choice:
                mask |= 1 << (v - 1)
                conflict |= partners[v - 1]
            row.append((choice, mask, conflict))
        moves.append(row)
    return moves, depth == len(pairs) or depth % 2 == 1


def brute_force_awsat(instance: AwsatInstance) -> bool:
    """Exhaustive evaluation of the alternating weight-constrained quantifiers.

    The walk runs over ``alternation_moves``.  Every literal is negated, so
    a child that falsifies a clause has value False and is not entered, and
    a leaf reached satisfies every clause.  When some block cannot meet its
    weight, no child is pruned and the first such block gives the value."""
    moves, leaf = alternation_moves(instance)
    depth = len(moves)

    def value(i: int, trues: int) -> bool:
        if i == depth:
            return leaf
        exists = i % 2 == 0  # 0-based even index: 1-based odd block, existential
        for _, mask, conflict in moves[i]:
            t = trues | mask
            if (not t & conflict and value(i + 1, t)) == exists:
                return exists
        return not exists

    return value(0, 0)


# ---------------------------------------------------------------------------
# pwsat text format
# ---------------------------------------------------------------------------


def _parse_clause_line(line_no: int, tokens: list[str], num_vars: int, tag: ClassTag) -> tuple[int, ...]:
    try:
        values = [int(t) for t in tokens]
    except ValueError:
        raise PwsatParseError(line_no, f"non-integer token in clause: {' '.join(tokens)}")
    if not values or values[-1] != 0:
        raise PwsatParseError(line_no, "clause line must end with 0")
    lits = tuple(values[:-1])
    if 0 in lits:
        raise PwsatParseError(line_no, "literal 0 is only valid as the terminator")
    problem = _clause_problem(lits, num_vars, tag)
    if problem is not None:
        raise PwsatParseError(line_no, problem)
    return lits


def _parse_lines(text: str, allow_blocks: bool):
    header = None
    clauses: list[tuple[int, ...]] = []
    block_lines: dict[int, tuple[int, tuple[int, ...]]] = {}
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if header is not None:
                raise PwsatParseError(line_no, "duplicate header")
            if len(tokens) != 6 or tokens[1] != "pwsat":
                raise PwsatParseError(line_no, "header must read: p pwsat <class> <num_vars> <num_clauses> <k>")
            try:
                tag = ClassTag(tokens[2])
            except ValueError:
                raise PwsatParseError(line_no, f"unknown class {tokens[2]!r} (expected g12n or g21p)")
            try:
                num_vars, num_clauses, k = int(tokens[3]), int(tokens[4]), int(tokens[5])
            except ValueError:
                raise PwsatParseError(line_no, "header counts must be integers")
            if num_vars < 1 or num_clauses < 0 or k < 0:
                raise PwsatParseError(line_no, "header counts out of range")
            header = (tag, num_vars, num_clauses, k)
            continue
        if header is None:
            raise PwsatParseError(line_no, "clause before header")
        tag, num_vars, num_clauses, k = header
        if tokens[0] == "b":
            if not allow_blocks:
                raise PwsatParseError(line_no, "block lines are only valid in awsat instances")
            try:
                values = [int(t) for t in tokens[1:]]
            except ValueError:
                raise PwsatParseError(line_no, "non-integer token in block line")
            if len(values) < 2 or values[-1] != 0:
                raise PwsatParseError(line_no, "block line must read: b <i> <k_i> <vars...> 0")
            idx, kw, members = values[0], values[1], tuple(values[2:-1])
            if idx < 1:
                raise PwsatParseError(line_no, "block index must be positive")
            if idx in block_lines:
                raise PwsatParseError(line_no, f"duplicate block {idx}")
            if any(not 1 <= v <= num_vars for v in members):
                raise PwsatParseError(line_no, "block member out of range")
            block_lines[idx] = (kw, members)
            continue
        clauses.append(_parse_clause_line(line_no, tokens, num_vars, tag))
    if header is None:
        raise PwsatParseError(last_line or 1, "missing header")
    tag, num_vars, num_clauses, k = header
    if len(clauses) != num_clauses:
        raise PwsatParseError(last_line, f"expected {num_clauses} clauses, found {len(clauses)}")
    return header, tuple(clauses), block_lines, last_line


def parse_pwsat(text: str) -> WeightedFormula:
    """Parse a plain pwsat instance (block lines are rejected)."""
    (tag, num_vars, _, k), clauses, _, _ = _parse_lines(text, allow_blocks=False)
    return WeightedFormula(num_vars=num_vars, clauses=clauses, class_tag=tag, k=k)


def parse_awsat(text: str) -> AwsatInstance:
    """Parse an awsat instance: pwsat header/clauses plus block lines."""
    (tag, num_vars, _, k), clauses, block_lines, last = _parse_lines(text, allow_blocks=True)
    l = max(block_lines, default=0)
    # the indices are distinct and positive, so they run from 1 to l exactly
    # when there are l of them; no list of length l is built, since l is input
    if len(block_lines) != l:
        raise PwsatParseError(last, "block indices must be contiguous from 1")
    blocks = tuple(block_lines[i][1] for i in range(1, l + 1))
    block_weights = tuple(block_lines[i][0] for i in range(1, l + 1))
    formula = WeightedFormula(num_vars=num_vars, clauses=clauses, class_tag=tag, k=k)
    try:
        return AwsatInstance(formula=formula, blocks=blocks, block_weights=block_weights)
    except ValueError as err:
        raise PwsatParseError(last, str(err)) from None


def render_pwsat(formula: WeightedFormula) -> str:
    lines = [
        f"p pwsat {formula.class_tag.value} {formula.num_vars} {formula.num_clauses} {formula.k}"
    ]
    for cl in formula.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0")
    return "\n".join(lines) + "\n"


def render_awsat(instance: AwsatInstance) -> str:
    header, clauses = render_pwsat(instance.formula).split("\n", 1)
    blocks = "".join(
        f"b {i} {kw} " + " ".join(str(v) for v in block) + " 0\n"
        for i, (block, kw) in enumerate(zip(instance.blocks, instance.block_weights), start=1)
    )
    return f"{header}\n{blocks}{clauses}"
