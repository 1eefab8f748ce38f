"""Lazy imports: the package namespace, the CLI's kernel modules and the
process pool load on first use, so a CLI call imports only what it runs."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import photongraph as pg
from photongraph import cli, networks

from fixt import hall_fixture, k4_ghz, k6_factored

SRC = str(Path(pg.__file__).resolve().parent.parent)

# Kernel modules each subcommand loads besides cli, errors and graph.
SUBCOMMAND_KERNELS = {
    "matchings": ({"matching"}, ["matchings", "k4.graph"]),
    "count": ({"matching", "counting"}, ["count", "k4.graph"]),
    "state": ({"states", "matching"}, ["state", "k4.graph"]),
    "verify": ({"states", "matching"}, ["verify", "k4.graph", "k4.state"]),
    "search": ({"states", "matching"}, ["search", "k4.state", "--max-edges", "6"]),
    "frustrate": ({"states", "matching"}, ["frustrate", "k4.graph", "I", "--phases", "0,1"]),
    "ghz-max": ({"matching"}, ["ghz-max", "k4.graph"]),
    "factorize": ({"matching"}, ["factorize", "k4.graph"]),
    "layers": ({"matching"}, ["layers", "k4.graph"]),
    "check": ({"feasibility", "matching"}, ["check", "hall", "bip.graph"]),
    "hafnian": ({"counting"}, ["hafnian", "k4.graph"]),
    "permanent": ({"counting"}, ["permanent", "bip.graph"]),
    "merge": (set(), ["merge", "k4.graph", "k4b.graph", "--pairs", "d:e"]),
    "synth": ({"compiler"}, ["synth", "k6f.graph"]),
    "unsynth": ({"compiler"}, ["unsynth", "k6f.plan"]),
    "random": ({"networks", "counting"},
               ["random", "--n", "4", "--p", "0.5", "--trials", "5", "--seed", "1", "--threads", "1"]),
    "dot": (set(), ["dot", "k4.graph"]),
}

# Runs cli.main on the given arguments in a fresh interpreter and reports
# its exit code, what it imported and whether the process pool and
# ``dataclasses`` were loaded.
PROBE = """
import contextlib, io, json, sys
from photongraph import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "modules": sorted(m[len("photongraph."):] for m in sys.modules if m.startswith("photongraph.")),
    "pool": "concurrent.futures.process" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
}))
"""


def _python(code: str, *argv: str, cwd=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("lazy")
    (path / "k4.graph").write_text(pg.serialize_graph(k4_ghz()), encoding="utf-8")
    (path / "k4b.graph").write_text(pg.serialize_graph(k4_ghz(("e", "f", "g", "h"))), encoding="utf-8")
    (path / "k4.state").write_text(pg.serialize_state(pg.state_from_graph(k4_ghz(), normalize=True)), encoding="utf-8")
    (path / "bip.graph").write_text(pg.serialize_graph(hall_fixture()), encoding="utf-8")
    (path / "k6f.graph").write_text(pg.serialize_graph(k6_factored()), encoding="utf-8")
    (path / "k6f.plan").write_text(pg.serialize_plan(pg.synthesize_setup(k6_factored())), encoding="utf-8")
    return path


def test_the_table_covers_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(SUBCOMMAND_KERNELS)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_KERNELS))
def test_a_subcommand_imports_only_its_kernels(workdir, command):
    kernels, argv = SUBCOMMAND_KERNELS[command]
    report = _python(PROBE, *argv, cwd=workdir)
    assert report["code"] == 0
    assert set(report["modules"]) == {"cli", "errors", "graph"} | kernels
    assert not report["pool"]
    assert not report["dataclasses"]


def test_only_a_parallel_scan_imports_the_process_pool(workdir):
    argv = ["random", "--n", "4", "--p", "0.5", "--trials", "4", "--seed", "1", "--threads", "2"]
    assert _python(PROBE, *argv, cwd=workdir)["pool"]


def test_bare_import_loads_no_submodule_and_names_resolve_on_first_use():
    report = _python(
        "import json, sys\n"
        "import photongraph as pg\n"
        "before = sorted(m for m in sys.modules if m.startswith('photongraph.'))\n"
        "cached = 'hafnian' in vars(pg)\n"
        "pg.hafnian\n"
        "print(json.dumps({'before': before, 'cached': [cached, 'hafnian' in vars(pg)],\n"
        "                  'amp_tol': pg.states.AMP_TOL, 'main': callable(pg.cli.main),\n"
        "                  'matching': pg.matching.__name__}))\n"
    )
    assert report["before"] == []
    assert report["cached"] == [False, True]
    assert report["amp_tol"] == pg.states.AMP_TOL and report["main"]
    assert report["matching"] == "photongraph.matching"


def test_every_public_name_is_its_home_modules_object():
    for name in pg.__all__:
        value = getattr(pg, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("photongraph.")
        assert getattr(home, name) is value


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from photongraph import *", namespace)
    for name in pg.__all__:
        assert namespace[name] is getattr(pg, name)


def test_dir_lists_public_names_and_submodules():
    listed = set(dir(pg))
    assert set(pg.__all__) <= listed
    assert {"cli", "compiler", "counting", "errors", "feasibility", "graph", "matching", "networks",
            "states"} <= listed


def test_unknown_attributes_raise_attribute_error():
    for module in (pg, cli, networks):
        with pytest.raises(AttributeError):
            module.no_such_name
        assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec("from photongraph import no_such_name", {})


def test_a_stub_on_cli_serves_the_handlers(monkeypatch, capsys, workdir):
    """Handlers look kernels and graph functions up on ``cli`` at call time,
    so a stand-in set there (as a tracer sets one) is what they call."""
    parsed = []

    def parse_graph(text):
        parsed.append(text)
        return pg.parse_graph(text)

    stub = types.SimpleNamespace(enumerate_pm=lambda g, override_limits=False: [("stub", "pm")])
    monkeypatch.setattr(cli, "matching", stub)
    monkeypatch.setattr(cli, "parse_graph", parse_graph)
    assert cli.main(["matchings", str(workdir / "k4.graph")]) == 0
    assert capsys.readouterr().out == "1 matchings:\n  stub pm\n"
    assert len(parsed) == 1
