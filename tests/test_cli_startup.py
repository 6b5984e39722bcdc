"""What a CLI process loads: the package's lazy exports and the one-verb parser.

``import gapforge`` binds no layer; ``gapforge.X`` imports X's module on
first use.  ``cli.main`` builds only the parser of the verb its command line
names, so the tests check that this parser matches the one in the whole tree
and that every command line the one-verb build does not take (help above a
verb, a misspelt verb, a flag before the verb) is answered by the whole tree.
No module of the package imports ``dataclasses`` or uses ``cached_property``,
and only ``reduce --text`` loads the plain-text formats.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapforge
from gapforge import cli
from gapforge import fixtures as shipped


def _run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports gapforge from this tree."""
    src = str(Path(gapforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


# ---------------------------------------------------------------------------
# Lazy package exports
# ---------------------------------------------------------------------------

_CHAIN_THEN_IMPORTS = """
import json, sys
from gapforge.cli import main
code = main(["check", "chain", "--in", sys.argv[1]])
loaded = sorted(name for name in sys.modules if name.startswith("gapforge") or name in ("dataclasses", "inspect"))
from gapforge import genlab
import gapforge
star = {}
exec("from gapforge import *", star)
print(json.dumps({
    "code": code,
    "loaded": loaded,
    "genlab_is_module": genlab is sys.modules["gapforge.genlab"] is gapforge.genlab,
    "star": sorted(name for name in star if name != "__builtins__"),
    "all": sorted(gapforge.__all__),
}), file=sys.stderr)
"""


def test_check_chain_loads_neither_soundness_nor_genlab_nor_fixtures():
    proc = _run_fresh(_CHAIN_THEN_IMPORTS, str(shipped.fixture_path("lc_id2")))
    result = json.loads(proc.stderr.strip().splitlines()[-1])
    assert result["code"] == 0
    assert json.loads(proc.stdout)["all_checks_passed"] is True
    assert {"gapforge.cli", "gapforge.pipeline", "gapforge.oracles"} <= set(result["loaded"])
    unused = {"gapforge.soundness", "gapforge.genlab", "gapforge.fixtures", "gapforge.plaintext"}
    assert not unused & set(result["loaded"])
    # the records are plain classes: neither dataclasses nor the inspect it pulls in is loaded
    assert not {"dataclasses", "inspect"} & set(result["loaded"])
    # a submodule still imports through the package, and a star import binds every public name
    assert result["genlab_is_module"] is True
    assert result["star"] == result["all"]


_IMPORT_EVERY_MODULE = """
import importlib, json, sys
from pathlib import Path
import gapforge
for path in sorted(Path(gapforge.__file__).parent.glob("*.py")):
    if path.stem != "__init__":
        importlib.import_module(f"gapforge.{path.stem}")
print(json.dumps({"modules": len([name for name in sys.modules if name.startswith("gapforge.")]),
                  "dataclasses": "dataclasses" in sys.modules}))
"""


_REDUCE_THEN_TEXT = """
import json, sys
from gapforge.cli import main
ssat, sis = sys.argv[2] + "/ssat.json", sys.argv[2] + "/sis"
loaded = []
for argv in (["reduce", "lc2ssat", "--in", sys.argv[1], "--out", ssat],
             ["reduce", "ssat2sis", "--in", ssat, "--out", sis + ".json"],
             ["reduce", "ssat2sis", "--in", ssat, "--out", sis + ".txt", "--text"]):
    assert main(argv) == 0
    loaded.append("gapforge.plaintext" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_reduce_text_loads_the_plain_text_module(tmp_path):
    proc = _run_fresh(_REDUCE_THEN_TEXT, str(shipped.fixture_path("lc_id2")), str(tmp_path))
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [False, False, True]


def test_no_gapforge_module_imports_dataclasses():
    result = json.loads(_run_fresh(_IMPORT_EVERY_MODULE).stdout)
    assert result == {"modules": len(list(Path(gapforge.__file__).parent.glob("*.py"))) - 1, "dataclasses": False}


def _names_used(source: str) -> set[str]:
    """Every name, attribute and imported name in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_no_gapforge_module_uses_cached_property():
    # a cached_property writes the instance __dict__ after construction; records build their tables in __post_init__
    for source in ("from functools import cached_property as cp", "import functools\nx = functools.cached_property"):
        assert "cached_property" in _names_used(source)
    modules = sorted(Path(gapforge.__file__).parent.glob("*.py"))
    assert [path.name for path in modules if "cached_property" in _names_used(path.read_text())] == []


@pytest.mark.parametrize("module", sorted(set(gapforge._MODULE_OF.values())))
def test_every_public_name_is_its_modules_object(module):
    owner = importlib.import_module(f"gapforge.{module}")
    names = [name for name in gapforge.__all__ if gapforge._MODULE_OF[name] == module]
    assert names
    for name in names:
        assert getattr(gapforge, name) is getattr(owner, name)
        assert name in dir(gapforge)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gapforge.no_such_name


# ---------------------------------------------------------------------------
# The one-verb parser
# ---------------------------------------------------------------------------

def _verb_parser(parser: argparse.ArgumentParser, path: tuple[str, ...]) -> argparse.ArgumentParser:
    for name in path:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


def _verb_paths(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()) -> list[tuple[str, ...]]:
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return [prefix]
    return [path for name, child in actions[0].choices.items() for path in _verb_paths(child, (*prefix, name))]


@pytest.mark.parametrize("path", list(cli._VERBS), ids=" ".join)
def test_the_one_verb_parser_is_the_whole_trees(path):
    whole, alone = _verb_parser(cli.build_parser(), path), _verb_parser(cli.build_parser(list(path)), path)
    assert alone.format_help() == whole.format_help()
    assert alone.format_usage() == whole.format_usage()
    assert _verb_paths(cli.build_parser([*path, "--in", "x.json"])) == [path]


def test_the_whole_tree_has_every_verb():
    assert _verb_paths(cli.build_parser()) == list(cli._VERBS)
    for argv in ([], ["--help"], ["check"], ["check", "chian"], ["--bogus", "solve", "lc"]):
        assert _verb_paths(cli.build_parser(argv)) == list(cli._VERBS)


# refused, misspelt and help command lines; the one-verb build must answer each as the whole tree does
_CORPUS = [
    "",
    "--help",
    "-h",
    "--version",
    "gen --help",
    "reduce --help",
    "solve --help",
    "check --help",
    "report --help",
    "gen lc --help",
    "reduce sis2ncp -h",
    "solve lc --help",
    "check chain --help",
    "check chian",
    "chek chain --in x.json",
    "solve lcc --in x.json",
    "solve",
    "check",
    "report",
    "check chain",
    "solve lc --in",
    "--bogus solve lc --in x.json",
    "-x check chain --in x.json",
    "solve lc --in x.json --box 2",
    "solve lc --in x.json extra",
    "solve ssat --in x.json --mode l2",
    "solve ncp --in x.json --full-field --box 1",
    "check chain --in x.json --box 0",
    "check chain --in x.json --bogus",
    "check chain --i x.json",
    "check claims --in x.json --super s.json --box 1",
    "check lists --in x.json --s-list abc",
    "reduce lc2ssat --in x.json",
    "reduce ssat2sis --in x.json --out y.json --g 2",
    "gen lc --out y.json --flip-seed 3",
    "gen lc --out y.json --planted --no-planted --bogus",
    "report --in x.json --text --text --box 1",
    "check chain --in missing.json",
    "report --in missing.json",
]


def _answer(capsys, argv: list[str]) -> tuple[object, str, str]:
    try:
        code: object = cli.main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("line", _CORPUS)
def test_refused_command_lines_are_answered_as_by_the_whole_tree(tmp_path, capsys, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    argv = line.split()
    fast = _answer(capsys, argv)
    whole = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: whole())
    assert _answer(capsys, argv) == fast
    assert not any(tmp_path.iterdir())
