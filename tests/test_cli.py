"""CLI subcommands, exit codes, structured output."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import photongraph as pg
from photongraph import Edge, ExperimentGraph
from photongraph.cli import build_parser, main

from fixt import double_edge, hall_fixture, k4_ghz, layered6, spider, w_state_target


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    path.write_text(pg.serialize_graph(k4_ghz()), encoding="utf-8")
    return str(path)


@pytest.fixture
def k6_file(tmp_path):
    path = tmp_path / "k6.graph"
    path.write_text(pg.serialize_graph(pg.complete_graph(6)), encoding="utf-8")
    return str(path)


@pytest.fixture
def fig6_file(tmp_path):
    path = tmp_path / "fig6.graph"
    path.write_text(pg.serialize_graph(layered6()), encoding="utf-8")
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matchings_k4(capsys, k4_file):
    code, out = run(capsys, "matchings", k4_file)
    assert code == 0
    assert "3 matchings:" in out
    assert "I II" in out


def test_count_k6_prints_both(capsys, k6_file):
    code, out = run(capsys, "count", k6_file)
    assert code == 0
    assert "enumeration: 15" in out
    assert "hafnian: 15" in out


def test_count_merged_graph_reports_covers(capsys, tmp_path):
    merged = pg.merge_graphs(k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")])
    path = tmp_path / "merged.graph"
    path.write_text(pg.serialize_graph(merged), encoding="utf-8")
    code, out = run(capsys, "count", str(path))
    assert code == 0
    assert "enumeration: 9" in out
    assert "hafnian" not in out


def test_state_normalized_matches_eq1(capsys, fig6_file):
    code, out = run(capsys, "state", fig6_file, "--normalize")
    assert code == 0
    assert out.count("|") == 4
    assert "|1,2,1,2,0,0>" in out
    assert "0.5 " in out


def test_state_structured_is_a_state_document(capsys, fig6_file):
    code, out = run(capsys, "state", fig6_file, "--normalize", "--format", "structured")
    assert code == 0
    state = pg.parse_state(out)
    assert len(state.terms) == 4


def test_verify(capsys, tmp_path, k4_file, fig6_file):
    state_path = tmp_path / "target.state"
    state_path.write_text(
        pg.serialize_state(pg.state_from_graph(k4_ghz(), normalize=True)), encoding="utf-8"
    )
    code, out = run(capsys, "verify", k4_file, str(state_path))
    assert code == 0 and "MATCH" in out
    code, out = run(capsys, "verify", fig6_file, str(state_path))
    assert code == 0 and "MISMATCH" in out


def test_search_cli_finds_w_state(capsys, tmp_path):
    state_path = tmp_path / "w.state"
    state_path.write_text(pg.serialize_state(w_state_target()), encoding="utf-8")
    code, out = run(capsys, "search", str(state_path), "--format", "structured")
    assert code == 0
    found = pg.parse_graph(out)
    assert pg.verify_target(found, w_state_target())


@pytest.mark.parametrize("flag", ["--max-edges", "--max-mode", "--max-parallel"])
def test_search_negative_bound_is_one_error_line(capsys, tmp_path, flag):
    state_path = tmp_path / "w.state"
    state_path.write_text(pg.serialize_state(w_state_target()), encoding="utf-8")
    code = main(["search", str(state_path), flag, "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: domain-error:") and err.count("\n") == 1


def test_closed_stdout_ends_without_traceback(tmp_path):
    """`matchings k12.graph --limit-override | head -1`: the 10395 matching
    lines overflow the pipe buffer, so a write fails once the reader is
    gone; the process exits 1 and prints nothing on stderr."""
    path = tmp_path / "k12.graph"
    path.write_text(pg.serialize_graph(pg.complete_graph(12)), encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "photongraph.cli", "matchings", str(path), "--limit-override"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_unnormalized_state_document_verifies_and_is_found(capsys, tmp_path):
    """`state` without --normalize writes amp_mag 1.0 per ket; `verify` and
    `search` read that document as the same ray as the normalized one."""
    g = ExperimentGraph(
        list("abcd"),
        [Edge("ab", "a", "b"), Edge("cd", "c", "d"), Edge("ac", "a", "c", 1, 1), Edge("bd", "b", "d", 1, 1)],
    )
    graph_path = tmp_path / "g.json"
    graph_path.write_text(pg.serialize_graph(g), encoding="utf-8")
    code, out = run(capsys, "state", str(graph_path), "--format", "structured")
    assert code == 0 and [t["amp_mag"] for t in json.loads(out)] == [1.0, 1.0]
    state_path = tmp_path / "g.state"
    state_path.write_text(out, encoding="utf-8")
    assert run(capsys, "verify", str(graph_path), str(state_path)) == (0, "MATCH\n")
    code, out = run(capsys, "search", str(state_path), "--format", "structured")
    assert code == 0
    assert pg.verify_target(pg.parse_graph(out), pg.state_from_graph(g, normalize=True))


def test_frustrate(capsys, tmp_path):
    path = tmp_path / "double.graph"
    path.write_text(pg.serialize_graph(double_edge()), encoding="utf-8")
    code, out = run(capsys, "frustrate", str(path), "II", "--phases", f"0,{math.pi}")
    assert code == 0
    assert "intensity=4" in out
    assert "intensity=0" in out
    # a list that starts with a negative number needs the `=` form
    code, out = run(capsys, "frustrate", str(path), "II", "--phases=-1,2")
    assert code == 0
    assert out.startswith("phase=-1 intensity=") and "phase=2 intensity=" in out


def test_ghz_max(capsys, k4_file):
    code, out = run(capsys, "ghz-max", k4_file)
    assert code == 0
    assert "d = 3" in out


def test_factorize(capsys, k4_file):
    code, out = run(capsys, "factorize", k4_file)
    assert code == 0
    assert "1 factorizations:" in out


def test_layers(capsys, fig6_file):
    code, out = run(capsys, "layers", fig6_file)
    assert code == 0
    assert "3 layer matchings, 1 maverick matchings" in out


def test_check_hall_witness(capsys, tmp_path):
    path = tmp_path / "hall.graph"
    path.write_text(pg.serialize_graph(hall_fixture()), encoding="utf-8")
    code, out = run(capsys, "check", "hall", str(path), "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["exists"] is False
    assert doc["witness"]["subset_w"] == ["c", "e", "g"]


def test_check_hall_parts_by_order(capsys, tmp_path):
    g = pg.ExperimentGraph(
        ["x1", "x2", "y1", "y2"],
        [pg.Edge("a", "x1", "y1"), pg.Edge("b", "x2", "y2"), pg.Edge("c", "x1", "y2")],
    )
    path = tmp_path / "bip.graph"
    path.write_text(pg.serialize_graph(g), encoding="utf-8")
    code, out = run(capsys, "check", "hall", str(path), "--parts-by-order")
    assert code == 0
    assert "perfect matching exists" in out


def test_check_tutte_witness(capsys, tmp_path):
    path = tmp_path / "spider.graph"
    path.write_text(pg.serialize_graph(spider()), encoding="utf-8")
    code, out = run(capsys, "check", "tutte", str(path))
    assert code == 0
    assert "U = {d}" in out
    assert "odd components (3)" in out


def test_hafnian_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[0, 2], [2, 0]]", encoding="utf-8")
    code, out = run(capsys, "hafnian", str(path))
    assert code == 0 and out.strip() == "2"


def test_hafnian_graph_file(capsys, k6_file):
    code, out = run(capsys, "hafnian", k6_file)
    assert code == 0 and out.strip() == "15"


def test_permanent_complex_matrix(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[[0.0, 1.0]]]", encoding="utf-8")
    code, out = run(capsys, "permanent", str(path))
    assert code == 0
    assert out.strip() == "0+1j"


def test_merge_cli(capsys, tmp_path):
    p1 = tmp_path / "g1.graph"
    p2 = tmp_path / "g2.graph"
    p1.write_text(pg.serialize_graph(k4_ghz(("a", "b", "c", "d"))), encoding="utf-8")
    p2.write_text(pg.serialize_graph(k4_ghz(("e", "f", "g", "h"))), encoding="utf-8")
    out_path = tmp_path / "merged.graph"
    code, out = run(capsys, "merge", str(p1), str(p2), "--pairs", "d:e", "-o", str(out_path))
    assert code == 0
    merged = pg.parse_graph(out_path.read_text(encoding="utf-8"))
    assert merged.measured == frozenset({"d"})


def test_synth_unsynth_round_trip(capsys, tmp_path, k6_file):
    plan_path = tmp_path / "k6.plan"
    code, _ = run(capsys, "synth", k6_file, "-o", str(plan_path))
    assert code == 0
    code, out = run(capsys, "unsynth", str(plan_path), "--format", "structured")
    assert code == 0
    back = pg.parse_graph(out)
    assert sorted(e.id for e in back.edges) == sorted(e.id for e in pg.complete_graph(6).edges)


def test_synth_text_renders_plan(capsys, k4_file):
    code, out = run(capsys, "synth", k4_file)
    assert code == 0
    assert "layer 0:" in out


def test_random_zero_threads_is_one_error_line(capsys):
    code = main(["random", "--n", "6", "--p", "0.5", "--trials", "10", "--seed", "1", "--threads", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: domain-error:")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_random_order_guard_is_one_error_line(capsys, threads):
    code = main(["random", "--n", "26", "--p", "0.5", "--trials", "3", "--seed", "1", "--threads", threads])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: scale-limit: hafnian order 26 exceeds the guard (<= 24)\n"


def test_random_with_csv(capsys, tmp_path):
    csv_path = tmp_path / "report.csv"
    code, out = run(
        capsys, "random", "--n", "6", "--p", "0", "--p", "1",
        "--trials", "50", "--seed", "4", "--csv", str(csv_path),
    )
    assert code == 0
    assert "pm_exists_fraction=0.000000" in out
    assert "pm_exists_fraction=1.000000" in out
    lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "p,fraction,count,frequency"
    assert len(lines) == 3


def test_dot(capsys, k4_file):
    code, out = run(capsys, "dot", k4_file)
    assert code == 0
    assert 'label="I:(0,0)"' in out


def test_exit_code_domain_error(capsys, k4_file, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text('{"vertices": ["a", "a"]}', encoding="utf-8")
    code = main(["matchings", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: parse-error:")


def test_exit_code_scale_limit(capsys, tmp_path):
    big = tmp_path / "k12.graph"
    big.write_text(pg.serialize_graph(pg.complete_graph(12)), encoding="utf-8")
    code = main(["matchings", str(big)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: scale-limit:")
    assert main(["count", str(big), "--limit-override"]) == 0


def test_memory_error_is_one_out_of_memory_line(capsys, monkeypatch, k4_file):
    """A call the guards admit can still need more memory than the machine
    has: it ends as a refusal does, on one line and with exit 3."""
    def enumerate_pm(g, override_limits=False):
        raise MemoryError

    monkeypatch.setattr("photongraph.cli.matching", types.SimpleNamespace(enumerate_pm=enumerate_pm), raising=False)
    code = main(["matchings", k4_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: out-of-memory: ") and captured.err.count("\n") == 1


def test_limit_override_is_a_usage_error_where_nothing_is_guarded(capsys, k4_file):
    assert main(["check", "tutte", k4_file]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["check", "tutte", k4_file, "--limit-override"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["search", "target.state"],
    ["merge", "a.graph", "b.graph", "--pairs", "a:a"],
    ["synth", "a.graph"],
    ["unsynth", "a.plan"],
    ["random", "--n", "4", "--p", "0.5", "--trials", "2", "--seed", "1"],
    ["dot", "a.graph"],
])
def test_limit_override_only_on_guarded_subcommands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--limit-override"])
    assert exc.value.code == 2


def test_limit_override_on_every_guarded_subcommand():
    parser = build_parser()
    for argv in (
        ["matchings", "g"], ["count", "g"], ["state", "g"], ["verify", "g", "s"],
        ["frustrate", "g", "e", "--phases", "0"], ["ghz-max", "g"], ["factorize", "g"],
        ["layers", "g"], ["hafnian", "m"], ["permanent", "m"],
    ):
        assert parser.parse_args(argv + ["--limit-override"]).limit_override


def _subparsers(parser) -> dict:
    (action,) = (a for a in parser._actions if a.dest == "command")
    return action.choices


def _outcome(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name", list(_subparsers(build_parser())))
def test_one_subparser_build_matches_the_full_build(capsys, name):
    """``main`` builds only the subparser a call names: its help and its
    usage errors read exactly as those of the full parser."""
    single = _subparsers(build_parser(name))
    assert list(single) == [name]
    assert single[name].format_help() == _subparsers(build_parser())[name].format_help()
    for argv in ([name], [name, "--help"], [name, "--no-such-option"], [name, "a", "b", "c", "d", "e"]):
        assert _outcome(main, argv, capsys) == _outcome(build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("argv", [[], ["--help"], ["no-such-command"], ["--format", "text", "dot", "g"],
                                  ["dot", "g", "--bogus"], ["ghz-max", "g", "extra"]])
def test_help_and_bad_commands_report_as_the_full_parser(capsys, argv):
    assert _outcome(main, argv, capsys) == _outcome(build_parser().parse_args, argv, capsys)


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_structured_outputs_parse_losslessly(capsys, tmp_path, k4_file, k6_file, fig6_file):
    state_path = tmp_path / "t.state"
    state_path.write_text(
        pg.serialize_state(pg.state_from_graph(k4_ghz(), normalize=True)), encoding="utf-8"
    )
    spider_path = tmp_path / "spider.graph"
    spider_path.write_text(pg.serialize_graph(spider()), encoding="utf-8")
    bipartite_path = tmp_path / "hall.graph"
    bipartite_path.write_text(pg.serialize_graph(hall_fixture()), encoding="utf-8")
    w_path = tmp_path / "w.state"
    w_path.write_text(pg.serialize_state(w_state_target()), encoding="utf-8")
    second_k4 = tmp_path / "k4efgh.graph"
    second_k4.write_text(pg.serialize_graph(k4_ghz(("e", "f", "g", "h"))), encoding="utf-8")
    plan_path = tmp_path / "p.plan"
    main(["synth", k4_file, "-o", str(plan_path)])
    capsys.readouterr()

    invocations = [
        ["matchings", k4_file],
        ["count", k6_file],
        ["state", fig6_file, "--normalize"],
        ["verify", k4_file, str(state_path)],
        ["search", str(w_path)],
        ["frustrate", k4_file, "I", "--phases", "0,1"],
        ["ghz-max", k4_file],
        ["factorize", k4_file],
        ["layers", fig6_file],
        ["check", "hall", str(bipartite_path)],
        ["check", "tutte", str(spider_path)],
        ["hafnian", k6_file],
        ["permanent", str(bipartite_path)],
        ["merge", k4_file, str(second_k4), "--pairs", "d:e"],
        ["synth", k4_file],
        ["unsynth", str(plan_path)],
        ["random", "--n", "4", "--p", "0.5", "--trials", "20", "--seed", "1"],
        ["dot", k4_file],
    ]
    for argv in invocations:
        code = main(argv + ["--format", "structured"])
        out = capsys.readouterr().out
        assert code == 0, argv
        json.loads(out)


def test_unsynth_malformed_plan_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "bad.plan"
    path.write_text(json.dumps({"detectors": ["a", "b"], "layers": 5, "wiring": {}}), encoding="utf-8")
    assert main(["unsynth", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse-error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "matrix, location",
    [
        ("[[NaN]]", "matrix[0][0]"),
        ('[[["1", 2]]]', "matrix[0][0][0]"),
        ("[[[true, 0]]]", "matrix[0][0][0]"),
    ],
)
def test_malformed_matrix_is_one_located_error_line(capsys, tmp_path, matrix, location):
    path = tmp_path / "m.json"
    path.write_text(matrix, encoding="utf-8")
    assert main(["permanent", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: parse-error: {location}: ")
    assert len(captured.err.strip().splitlines()) == 1


_HUGE_PAIR = pg.serialize_graph(
    pg.ExperimentGraph(["a", "b"], [pg.Edge("x", "a", "b", amp_mag=1e308), pg.Edge("y", "a", "b", amp_mag=1e308)])
)


@pytest.mark.parametrize(
    "document, argv",
    [
        (_HUGE_PAIR, ["state"]),
        (_HUGE_PAIR, ["state", "--normalize"]),
        (_HUGE_PAIR, ["frustrate", "x", "--phases", "0"]),
        ("[[1e308, 1e308], [1e308, 1e308]]", ["permanent"]),
        pytest.param(f"[[{10**400}, 0.5], [0.5, 1]]", ["permanent"], id="integer-beyond-double-permanent"),
        pytest.param(f"[[0, {10**400}, 0, 0], [{10**400}, 0, 0, 0], [0, 0, 0, 0.5], [0, 0, 0.5, 0]]", ["hafnian"],
                     id="integer-beyond-double-hafnian"),
    ],
)
def test_overflow_is_one_error_line(capsys, tmp_path, document, argv):
    path = tmp_path / "input.json"
    path.write_text(document, encoding="utf-8")
    assert main([argv[0], str(path)] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: overflow: ")
    assert len(captured.err.strip().splitlines()) == 1


_DEEP = "[" * 200000 + "]" * 200000


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["state", "{doc}"], "parse-error"),
        (["verify", "{k4}", "{doc}"], "parse-error"),
        (["unsynth", "{doc}"], "parse-error"),
        (["hafnian", "{doc}"], "parse-error"),
        (["check", "tutte", "{doc}"], "parse-error"),
        (["dot", "{bytes}"], "io-error"),
    ],
    ids=["state", "verify", "unsynth", "hafnian", "check", "not-utf8"],
)
def test_unreadable_document_is_one_error_line(capsys, tmp_path, k4_file, argv, reason):
    deep, undecodable = tmp_path / "deep.json", tmp_path / "latin1.graph"
    deep.write_text(_DEEP, encoding="utf-8")
    undecodable.write_bytes(b'{"vertices": ["\xe9"]}')
    argv = [a.format(doc=deep, k4=k4_file, bytes=undecodable) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {reason}: ")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["state", "a\x00b"], "error: io-error: cannot read a\x00b: embedded null byte"),
        (["merge", "{k4}", "{k4b}", "--pairs", "d:e", "-o", "o\x00.graph"],
         "error: io-error: cannot write o\x00.graph: "),
        (["synth", "{k4}", "--dot", "{tmp}/no/such/dir.dot"],
         "error: io-error: cannot write {tmp}/no/such/dir.dot: "),
    ],
    ids=["read-nul", "write-nul", "write-missing-dir"],
)
def test_bad_path_is_one_io_error_line(capsys, tmp_path, k4_file, argv, message):
    k4b = tmp_path / "k4b.graph"
    k4b.write_text(pg.serialize_graph(k4_ghz(("e", "f", "g", "h"))), encoding="utf-8")
    fill = {"k4": k4_file, "k4b": str(k4b), "tmp": str(tmp_path)}
    assert main([a.format(**fill) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message.format(**fill))
    assert len(captured.err.strip().splitlines()) == 1


def test_text_state_does_not_serialize(capsys, monkeypatch, fig6_file):
    def refuse(state):
        raise AssertionError("text mode serialized the state")

    monkeypatch.setattr(pg.states, "serialize_state", refuse)
    code, out = run(capsys, "state", fig6_file, "--normalize")
    assert code == 0
    assert out.splitlines()[0] == "0.5 |0,0,0,0,0,0>"


@pytest.mark.parametrize(
    "argv",
    [
        ["frustrate", "{k4}", "I", "--phases", "abc"],
        ["frustrate", "{k4}", "I", "--phases", "0,inf"],
        ["frustrate", "{k4}", "I", "--phases", "nan", "--format", "structured"],
        ["random", "--n", "4", "--p", "abc", "--trials", "2", "--seed", "1"],
    ],
    ids=["phases-abc", "phases-inf", "phases-nan", "p-abc"],
)
def test_non_numeric_arguments_are_usage_errors(capsys, k4_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(k4=k4_file) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
