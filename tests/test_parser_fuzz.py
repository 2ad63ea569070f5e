"""Hostile instance files: a rendered instance with 1-4 token edits, read by
each of the three parsers, ends in a ValueError that names its line, or in
an instance, and never allocates memory of a size the file names."""

import re
import tracemalloc

from hypothesis import example, given, settings, strategies as st

from ppcplab.formula import ClassTag, parse_awsat, parse_pwsat, render_awsat, render_pwsat
from ppcplab.reductions import gen_random, gen_random_awsat, parse_graph

# far more than a small file needs, far less than a list of a huge index
PEAK_BYTES = 1 << 20

TOKENS = st.one_of(
    st.integers(-12, 40).map(str),
    st.sampled_from([
        "-", "+", "00", "-0", "1e3", "99999999999", "-99999999999", str(2**63), str(10**30),
        "p", "b", "c", "e", "g", "pwsat", "g12n", "g21p", "\n", " ",
    ]),
)


@st.composite
def rendered(draw):
    """The text of a small pwsat, awsat or graph instance."""
    kind = draw(st.sampled_from(["pwsat", "awsat", "graph"]))
    seed = draw(st.integers(0, 99))
    if kind == "pwsat":
        tag = draw(st.sampled_from(ClassTag))
        return render_pwsat(gen_random(draw(st.integers(2, 8)), draw(st.integers(0, 6)), 2, seed, tag))
    if kind == "awsat":
        sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
        weights = tuple(draw(st.integers(0, size)) for size in sizes)
        return render_awsat(gen_random_awsat(sum(sizes), sizes, weights, draw(st.integers(0, 4)), seed))
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return f"g {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


@st.composite
def edited(draw):
    """A rendered instance after 1-4 token edits: a token replaced, inserted
    or deleted, a newline being a token too."""
    tokens = []
    for line in draw(rendered()).splitlines():
        tokens += line.split() + ["\n"]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        at = draw(st.integers(0, len(tokens)))
        if op == "insert":
            tokens.insert(at, draw(TOKENS))
        elif tokens and op == "replace":
            tokens[at % len(tokens)] = draw(TOKENS)
        elif tokens:
            del tokens[at % len(tokens)]
    return " ".join(tokens)


@settings(max_examples=300, deadline=None)
@given(edited())
# a block index no list of its length fits in memory, and one that fits
@example("p pwsat g12n 8 1 1\nb 99999999999 1 1 6 8 0\n-1 -2 0\n")
@example("p pwsat g12n 8 1 1\nb 1 1 1 6 8 0\nb 3 0 2 0\n-1 -2 0\n")
# a variable count no list of its length fits in memory, which the blocks
# must cover
@example("p pwsat g12n 99999999999 1 1\nb 1 1 1 2 0\n-1 -2 0\n")
def test_an_edited_file_parses_or_names_its_line(text):
    for parse in (parse_pwsat, parse_awsat, parse_graph):
        tracemalloc.start()
        try:
            parse(text)
        except ValueError as err:
            assert re.match(r"line \d+: ", str(err)), (parse.__name__, str(err))
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < PEAK_BYTES, (parse.__name__, peak)


def test_a_huge_block_index_is_a_contiguity_error():
    text = "p pwsat g12n 8 1 1\nb 99999999999 1 1 6 8 0\n-1 -2 0\n"
    try:
        parse_awsat(text)
    except ValueError as err:
        assert str(err) == "line 3: block indices must be contiguous from 1"
    else:
        raise AssertionError("parsed")
