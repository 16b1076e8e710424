"""Fuzzing of the three file parsers and of the CLI commands that read them.

A parser returns or raises ValueError; a command reading any file exits
0, 1 or 2 and lets no exception escape main.
"""
import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from longhop import cli, codes, topology

# lines close to each format, so the fuzzing gets past the first check
_LINES = st.one_of(
    st.text(alphabet="01", max_size=9),
    st.text(alphabet="0123 ", max_size=7),
    st.sampled_from(["d=1", "d=2", "d=3", "d=0", "d=-1", "d=99", "d=x", "d=", "# note", "", "1 1"]),
    st.text(max_size=6),
)


def _near(lines):
    """A file of well-formed lines, sometimes with one stray line appended."""
    return st.tuples(lines, st.one_of(st.just([]), st.lists(_LINES, max_size=1))).map(
        lambda parts: "\n".join(parts[0] + parts[1]))


_HOPSETS = st.integers(1, 4).flatmap(lambda d: _near(st.lists(
    st.text(alphabet="01", min_size=d, max_size=d).filter(lambda w: "1" in w),
    unique=True, max_size=(1 << d) - 1,
).map(lambda hops: [f"d={d}", *hops])))
_MATRICES = st.integers(1, 9).flatmap(lambda n: _near(st.lists(
    st.text(alphabet="01", min_size=n, max_size=n), min_size=1, max_size=5)))
_EDGES = _near(st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).map("{0[0]} {0[1]}".format), max_size=16))
TEXTS = st.one_of(
    st.text(),
    st.text(alphabet="01 23d=#-x\n\t\r", max_size=80),
    st.lists(_LINES, max_size=10).map("\n".join),
    _HOPSETS,
    _MATRICES,
    _EDGES,
)

COMMANDS = [
    ["bisect"],
    ["bisect", "--spectrum"],
    ["bisect", "--format", "json", "--spectrum"],
    ["mindist"],
    ["verify"],
    ["verify", "--edge-list"],
    ["convert", "--to-hops"],
    ["convert", "--to-code"],
    ["cluster", "--levels", "1"],
    ["cluster", "--levels", "2"],
    ["routes", "--dest", "1", "--diversity", "2"],
    ["ftable", "--diversity", "2"],
    ["compare", "--ports", "1000", "--radix", "64", "--lh-code"],
    ["optimize", "-d", "3", "-m", "5", "--method", "greedy", "--start"],
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("parse", [topology.parse_hopset, codes.parse_generator,
                                   topology.parse_edge_list])
@given(TEXTS)
def test_parser_returns_or_raises_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@pytest.mark.parametrize("command", COMMANDS, ids="_".join)
@given(st.one_of(TEXTS.map(lambda t: t.encode("utf-8")), st.binary(max_size=40)))
def test_commands_exit_cleanly(tmp_path_factory, command, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(data)
    code, err = run_cli([*command, str(path)])
    assert code in (0, 1, 2)
    assert (code == 0) == (err == "")   # every refusal says why on stderr
