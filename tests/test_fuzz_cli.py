"""Fuzz the command line: ``cli.main`` on argv built from the real
subcommands and options, fixture files and hostile numbers ends with an exit
code in {0, 1, 2, 3}, one ``error:`` line on stderr for exits 1 and 3, no
traceback, and no NaN or Infinity on stdout."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph.cli import build_parser, main

from fixt import hall_fixture, k4_ghz


# A graph, a bipartite graph, a state, a plan, a matrix and a malformed
# graph; ``missing.graph`` is never written.
_FIXTURES = {
    "k4.graph": pg.serialize_graph(k4_ghz()),
    "hall.graph": pg.serialize_graph(hall_fixture()),
    "k4.state": pg.serialize_state(pg.state_from_graph(k4_ghz(), normalize=True)),
    "k4.plan": pg.serialize_plan(pg.synthesize_setup(k4_ghz())),
    "m.json": "[[0, 2], [2, 0]]",
    "bad.graph": '{"vertices": ["a", "a"]}',
}
_PATHS = [*_FIXTURES, "missing.graph", "no-dir/out.txt", "."]
_NUMBERS = ["0", "1", "2", "3", "4", "8", "-1", "0.5", "nan", "inf", "-inf", "1e400"]
_JUNK = ["", "-", "--", "x", "text", "structured", "I", "II", "a:e", "a:b,c", "hall", "tutte", "--bogus", "-x", "\x00"]
_TOKEN = st.sampled_from(_PATHS + _NUMBERS + _JUNK)


def _ints(low: int, high: int):
    """The integers from ``low`` to ``high`` as text, and a few texts that
    are not integers."""
    return st.sampled_from([*map(str, range(low, high + 1)), "0.5", "nan", "1e400"])


# The values that set how much work or how many processes a call may take
# stay small; any other argument takes a number of its type, one of its
# choices, a path or any token.
_BOUNDED = {
    "n": _ints(-1, 12),
    "trials": _ints(-1, 50),
    "threads": _ints(-1, 2),
    "max_edges": _ints(-1, 8),
    "phases": st.lists(st.sampled_from(["0", "0.5", "3.14159", "-1", "nan", "inf", "1e400", "", "x"]), max_size=4)
    .map(",".join),
}
# A positional argument mostly gets a file of its kind.
_FITTING = {
    "graph": ["k4.graph", "hall.graph"],
    "graph1": ["k4.graph"],
    "graph2": ["hall.graph"],
    "state": ["k4.state"],
    "plan": ["k4.plan"],
    "file": ["m.json", "hall.graph"],
    "edge": ["I", "II"],
}


def _value(action):
    if action.dest in _BOUNDED:
        return _BOUNDED[action.dest]
    if action.choices:
        return st.sampled_from([*action.choices, "x"])
    if action.type is int:
        return _ints(-1, 8)
    if action.type is float:
        return st.sampled_from(["0", "0.2", "0.5", "0.8", "1", *_NUMBERS])
    fitting = st.sampled_from(_FITTING.get(action.dest, _PATHS))
    return st.one_of(fitting, fitting, fitting, st.sampled_from(_PATHS), _TOKEN)


def _tokens(action):
    """The tokens of one argument: a value, a flag, or a flag and its value."""
    if not action.option_strings:
        return _value(action).map(lambda value: [value])
    flag = st.sampled_from(action.option_strings)
    if action.nargs == 0:
        return flag.map(lambda f: [f])
    return st.tuples(flag, _value(action)).map(list)


_SUBPARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices
# help is drawn only as a stray, or most calls would print help and stop
_ACTIONS = {
    name: [a for a in parser._actions if a.dest != "help"]
    for name, parser in _SUBPARSERS.items()
}
_STRAYS = _TOKEN.map(lambda t: [t]) | st.sampled_from(
    [a for parser in _SUBPARSERS.values() for a in parser._actions if a.option_strings]
).flatmap(_tokens)


@st.composite
def _argv(draw) -> list[str]:
    """A subcommand with its positional and required arguments, each left out
    one time in ten, some of its other options, and now and then a stray
    token or another subcommand's option."""
    name = draw(st.sampled_from([*_SUBPARSERS, "no-such-command", "--format"]))
    actions = _ACTIONS.get(name, [])
    argv = [name]
    for action in actions:
        if (not action.option_strings or action.required) and draw(st.integers(0, 9)):
            argv += draw(_tokens(action))
    optional = [a for a in actions if a.option_strings and not a.required]
    for action in draw(st.lists(st.sampled_from(optional), max_size=4)) if optional else []:
        argv += draw(_tokens(action))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv += draw(_STRAYS)
    return argv


@given(argv=_argv())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_argv_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path, monkeypatch, capsys, argv):
    # Outputs land in the working directory and may overwrite a fixture, so
    # every example starts from freshly written ones.
    monkeypatch.chdir(tmp_path)
    for name, text in _FIXTURES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code in (1, 3):
        assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in out + err
    assert "NaN" not in out and "Infinity" not in out
