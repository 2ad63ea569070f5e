"""Independent Set to weighted-SAT reduction and seeded instance generators.

Independent Set is the shortest honest path from a W[1]-complete problem to
the verifier: one variable per vertex, one all-negated binary clause per
edge, and the parameter maps to itself.

Graph text format: header ``g <n>``, then one ``e <u> <v>`` line per edge.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .formula import (
    Assignment,
    AwsatInstance,
    ClassTag,
    GuardError,
    WeightedFormula,
)


# the most variable pairs, clauses or vertices a generator or reduce lists
CAP = 10**6


def _edge_problem(u: int, v: int, n: int) -> Optional[str]:
    """What is wrong with the edge (u, v) of a graph on vertices 1..n, or
    None: the one statement of an edge's rule, for ``Graph`` and the parser."""
    if u == v:
        return f"self-loop at vertex {u}"
    if not (1 <= u <= n and 1 <= v <= n):
        return f"edge ({u},{v}) out of range"
    return None


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a graph needs at least one vertex")
        normalized = set()
        for u, v in self.edges:
            problem = _edge_problem(u, v, self.n)
            if problem is not None:
                raise ValueError(problem)
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))


def parse_graph(text: str) -> Graph:
    """The graph of ``text``; every record error names its line."""
    n = None
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] not in ("g", "e"):
            raise ValueError(f"line {line_no}: unknown record {tokens[0]!r}")
        try:
            values = [int(t) for t in tokens[1:]]
        except ValueError:
            raise ValueError(f"line {line_no}: non-integer token in: {line}") from None
        if tokens[0] == "g":
            if n is not None:
                raise ValueError(f"line {line_no}: duplicate graph header")
            if len(values) != 1:
                raise ValueError(f"line {line_no}: header must read: g <n>")
            (n,) = values
            if n < 1:
                raise ValueError(f"line {line_no}: a graph needs at least one vertex")
        else:
            if n is None:
                raise ValueError(f"line {line_no}: edge before header")
            if len(values) != 2:
                raise ValueError(f"line {line_no}: edge must read: e <u> <v>")
            problem = _edge_problem(*values, n)
            if problem is not None:
                raise ValueError(f"line {line_no}: {problem}")
            edges.append(tuple(values))
    if n is None:
        raise ValueError(f"line {len(text.splitlines()) or 1}: missing graph header")
    return Graph(n, frozenset(edges))


class _PairClauses(dict):
    """The negated clause (-u, -v) of each pair u < v of variables 1..n,
    under its pair code u·(n+1)+v and made on first use, its literals taken
    from one list of -v at index v: every formula over n built here shares
    one tuple per clause and one int object per variable."""

    def __init__(self, n: int):
        super().__init__()
        self.width = n + 1
        self.negations = [-v for v in range(n + 1)]

    def __missing__(self, code: int) -> tuple[int, int]:
        u, v = divmod(code, self.width)
        clause = self[code] = (self.negations[u], self.negations[v])
        return clause

    def clause(self, u: int, v: int) -> tuple[int, int]:
        return self[u * self.width + v]


@functools.lru_cache(maxsize=8)
def _pair_clauses(n: int) -> _PairClauses:
    """The shared clause table of n: it holds only the pairs emitted so far,
    for the last 8 values of n used."""
    return _PairClauses(n)


def has_independent_set(g: Graph, k: int) -> bool:
    """Brute-force ground truth used to validate the reduction."""
    if k > g.n:
        return False
    for combo in itertools.combinations(range(1, g.n + 1), k):
        chosen = set(combo)
        if all(not (u in chosen and v in chosen) for u, v in g.edges):
            return True
    return False


def independent_set_to_wsat(g: Graph, k: int) -> WeightedFormula:
    """One clause (-u, -v) per edge; the graph has a size-k independent set iff
    the output has a satisfying assignment of weight exactly k.  Over
    ``CAP`` vertices (one literal each in the clause table) raise
    ``GuardError``."""
    if g.n > CAP:
        raise GuardError(f"the reduction covers at most 10^6 vertices, got {g.n}")
    if k > g.n:
        raise ValueError(f"k={k} exceeds the vertex count {g.n}")
    clause = _pair_clauses(g.n).clause
    clauses = tuple([clause(u, v) for u, v in sorted(g.edges)])
    return WeightedFormula(num_vars=g.n, clauses=clauses, class_tag=ClassTag.G12N, k=k)


def gen_planted_yes_with_witness(n: int, k: int, num_clauses: int, seed: int):
    """Planted yes-instance plus its hidden witness.

    A weight-k set S is fixed first; only clauses with at most one endpoint in
    S are emitted, so S satisfies every clause by construction.  The legal
    pairs u < v, taken in the order of ``itertools.combinations``, are
    never listed: ``rng.sample`` picks by index, so sampling positions from
    a range of their count picks the same pairs as from the list, and
    ``_legal_pair_codes`` maps the sorted positions to pair codes
    u·(n+1)+v, which sort as the pairs do, since v <= n.

    Every clause comes from the shared table of n (``_pair_clauses``), so
    all planted formulas over one n share their clause tuples: a
    4,000-clause formula holds about 32 KB of its own, its tuple of
    clauses, not about 224 KB of fresh 2-tuples.  The generator covers at
    most 10^6 pairs: a larger n (n > 1414) raises ``GuardError``."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if math.comb(n, 2) > CAP:
        raise GuardError("planted generator covers at most 10^6 variable pairs (n <= 1414)")
    rng = random.Random(seed)
    planted = set(rng.sample(range(1, n + 1), k))
    legal = math.comb(n, 2) - math.comb(k, 2)
    if num_clauses > legal:
        raise ValueError(
            f"only {legal} clauses avoid the planted set, {num_clauses} requested"
        )
    picks = sorted(rng.sample(range(legal), num_clauses))
    chosen = _legal_pair_codes(n, planted, picks)
    clauses = tuple(map(_pair_clauses(n).__getitem__, chosen))
    formula = WeightedFormula(num_vars=n, clauses=clauses, class_tag=ClassTag.G12N, k=k)
    return formula, Assignment(frozenset(planted))


def _legal_pair_codes(n: int, planted: set[int], picks: list[int]) -> list[int]:
    """The pair codes u·(n+1)+v at the sorted positions ``picks`` of the
    pairs u < v with at most one end in ``planted``, in combinations order,
    in one pass over the rows u.  Row u holds every v > u, n - u pairs whose
    codes run on from u·(n+1)+u+1, or, for a planted u, the unplanted v > u,
    a run of the sorted unplanted vertices."""
    free = [v for v in range(1, n + 1) if v not in planted]
    codes: list[int] = []
    start = at = 0  # the position of row u's first pair; the next pick
    for u in range(1, n):
        base = u * (n + 1)
        if u in planted:
            first = bisect.bisect_right(free, u)  # row u is free[first:]
            end = start + len(free) - first
            stop = bisect.bisect_left(picks, end, at)
            codes += [base + free[first - start + j] for j in picks[at:stop]]
        else:
            end = start + n - u
            stop = bisect.bisect_left(picks, end, at)
            codes += map((base + u + 1 - start).__add__, picks[at:stop])
        start, at = end, stop
    return codes


def gen_planted_yes(n: int, k: int, num_clauses: int, seed: int) -> WeightedFormula:
    formula, _ = gen_planted_yes_with_witness(n, k, num_clauses, seed)
    return formula


def gen_random(
    n: int,
    num_clauses: int,
    k: int,
    seed: int,
    class_tag: ClassTag = ClassTag.G12N,
    max_len: int = 3,
) -> WeightedFormula:
    """Uniform random clauses of the class; label with brute_force_wsat.
    Over ``CAP`` clauses raise ``GuardError``."""
    if n < 1 or n > 24:
        raise GuardError("generator covers 1..24 variables")
    if num_clauses > CAP:
        raise GuardError(f"generators make at most 10^6 clauses, got {num_clauses}")
    rng = random.Random(seed)
    clauses = []
    if class_tag is ClassTag.G12N:
        if n < 2:
            raise ValueError("binary clauses need at least two variables")
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        clause = _pair_clauses(n).clause
        for _ in range(num_clauses):
            clauses.append(clause(*rng.choice(pairs)))
    else:
        top = min(max_len, n)
        for _ in range(num_clauses):
            length = rng.randint(1, top)
            clauses.append(tuple(sorted(rng.sample(range(1, n + 1), length))))
    return WeightedFormula(num_vars=n, clauses=tuple(clauses), class_tag=class_tag, k=k)


def gen_random_awsat(
    n: int,
    block_sizes: tuple[int, ...],
    block_weights: tuple[int, ...],
    num_clauses: int,
    seed: int,
) -> AwsatInstance:
    """Random alternating instance: a shuffled partition into the given block
    sizes and uniform all-negated binary clauses.  Over ``CAP`` variable
    pairs or clauses raise ``GuardError``."""
    negative = [size for size in block_sizes if size < 0]
    if negative:
        raise ValueError(f"block size {negative[0]} is negative")
    if sum(block_sizes) != n:
        raise ValueError("block sizes must sum to the variable count")
    if len(block_sizes) != len(block_weights):
        raise ValueError("one weight per block is required")
    if math.comb(n, 2) > CAP:
        raise GuardError("awsat generator covers at most 10^6 variable pairs (n <= 1414)")
    if num_clauses > CAP:
        raise GuardError(f"generators make at most 10^6 clauses, got {num_clauses}")
    if n < 2 and num_clauses > 0:
        raise ValueError("binary clauses need at least two variables")
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    blocks = []
    at = 0
    for size in block_sizes:
        blocks.append(tuple(sorted(order[at : at + size])))
        at += size
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    clause = _pair_clauses(n).clause
    clauses = tuple([clause(*rng.choice(pairs)) for _ in range(num_clauses)])
    formula = WeightedFormula(
        num_vars=n, clauses=clauses, class_tag=ClassTag.G12N, k=sum(block_weights)
    )
    return AwsatInstance(formula=formula, blocks=tuple(blocks), block_weights=tuple(block_weights))
