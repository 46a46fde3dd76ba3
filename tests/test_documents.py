"""Field-mutation gate over the four JSON documents the CLI reads.

Every value in a fixture zone, scenario, MUD allowlist and region-group
document is replaced, in turn, by each of `REPLACEMENTS`, and also deleted
from its object or array.  Each mutant runs through the CLI in process, by
the command that reads that document.  No mutant may end in an internal
error (exit 70).  A replaced value may give exit 0 only when it has the
original's JSON type (an integer is not a float, and a bool is neither), or
when `ALLOWED` lists it: anything else must be refused as bad data.

Each mutant's exit code and `ecsloc:` stderr line, with the directory it
was written to shown as `{tmp}`, must equal its line in
fixtures/golden/document_mutants.txt.  Re-record the file, only when an
error's wording is meant to change, with

    PYTHONPATH=src python tests/test_documents.py
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from helpers import FIXTURES

from ecsloc import document
from ecsloc.cli import EXIT_INTERNAL, EXIT_OK, main

GOLDEN = FIXTURES / "golden"
MUTANT_LINES = GOLDEN / "document_mutants.txt"
REPLACEMENTS = [None, True, False, 0, -1, 1.5, "", "x", "A..B", [], {}, [1], {"k": 1}]
_DELETED = object()


def _port(value) -> bool:
    return value == "any" or type(value) is int


# document -> {key: test}: a replacement under that key that passes the test may give exit 0
ALLOWED = {
    "zone": {"default": lambda value: value is None},
    "mud": {"source-port": _port, "destination-port": _port},
}

# document -> (fixture it mutates, file name the mutant is written as, argv running it)
DOCUMENTS = {
    "zone": (FIXTURES / "zone.json", "zone.json",
             ["scenario", "run", str(FIXTURES / "scenario_ecs_user_defined.json"), "--zone", "{mutant}"]),
    "scenario": (FIXTURES / "scenario_ecs_user_defined.json", "scenario.json", ["scenario", "run", "{mutant}"]),
    "mud": (GOLDEN / "mud_generate_bulb_uk.out", "mud.json",
            ["mud", "compare", "{mutant}", str(GOLDEN / "mud_generate_bulb_us.out"),
             str(GOLDEN / "mud_generate_bulb_hk.out"), "--groups", str(FIXTURES / "groups_bulb.json")]),
    "groups": (FIXTURES / "groups_bulb.json", "groups.json",
               ["mud", "collapse", str(GOLDEN / "mud_unify_bulb.out"), "--groups", "{mutant}"]),
}


def fields(value, path=()):
    """(path, value) of every value below the root of a JSON document, parents first."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield (*path, key), child
        yield from fields(child, (*path, key))


def mutant(doc, path, value):
    """A copy of *doc* with the value at *path* replaced by *value*, or deleted."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    container = doc
    for key in parents:
        container = container[key]
    if value is _DELETED:
        del container[last]
    else:
        container[last] = value
    return doc


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def mutant_runs(name, directory):
    """(path, original, value, exit code, stderr) of each mutant of document *name*, written in *directory*."""
    source, file_name, argv = DOCUMENTS[name]
    doc = json.loads(source.read_text())
    (directory / "zone.json").write_text((FIXTURES / "zone.json").read_text())  # a scenario mutant's zone
    mutant_path = directory / file_name
    args = [arg.format(mutant=mutant_path) for arg in argv]
    mutant_path.write_text(json.dumps(doc))
    assert run(args)[0] == EXIT_OK  # the unmutated document
    for path, original in fields(doc):
        for value in [*REPLACEMENTS, _DELETED]:
            mutant_path.write_text(json.dumps(mutant(doc, path, value)))
            yield (path, original, value, *run(args))


def mutant_line(name, path, value, code, err, directory) -> str:
    """One mutant's recorded outcome: document, field path, value, exit code and `ecsloc:` stderr line."""
    message = next((line for line in err.splitlines() if line.startswith("ecsloc:")), "-")
    change = "deleted" if value is _DELETED else f"= {value!r}"
    return f"{name} {list(path)!r} {change}: exit {code}: {message.replace(str(directory), '{tmp}')}"


def mutant_lines(directory) -> list[str]:
    """The recorded outcome of every mutant of every document, each document's written in its own subdirectory."""
    lines = []
    for name in DOCUMENTS:
        (directory / name).mkdir()
        lines += [
            mutant_line(name, path, value, code, err, directory / name)
            for path, _, value, code, err in mutant_runs(name, directory / name)
        ]
    return lines


def test_at_words_a_caught_error_at_its_path():
    with pytest.raises(IndexError, match="^where: boom$") as got:
        with document.at("where", None, LookupError):
            raise IndexError("boom")
    assert type(got.value) is IndexError and got.value.__suppress_context__
    with pytest.raises(TypeError, match="^where: boom$"):
        with document.at("where", TypeError, (KeyError, ValueError)):
            raise ValueError("boom")


def test_at_passes_an_uncaught_error_through_unchanged():
    error = RuntimeError("internal")
    with pytest.raises(RuntimeError) as got:
        with document.at("where", ValueError, (KeyError, ValueError)):
            raise error
    assert got.value is error and str(error) == "internal"


def test_fields_cover_every_value():
    doc = {"a": [1, {"b": None}], "c": "x"}
    assert [path for path, _ in fields(doc)] == [("a",), ("a", 0), ("a", 1), ("a", 1, "b"), ("c",)]


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_bytes_not_utf8_are_bad_data_naming_the_document(name, tmp_path):
    source, file_name, argv = DOCUMENTS[name]
    (tmp_path / file_name).write_bytes(b"\xff" + source.read_bytes())
    code, err = run([arg.format(mutant=tmp_path / file_name) for arg in argv])
    message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert (code, err) == (3, f"ecsloc: error: {tmp_path / file_name}: {message}\n")


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_no_mutant_is_an_internal_error_or_accepted_as_another_type(name, tmp_path):
    faults, count = [], 0
    allowed_by_key = ALLOWED.get(name, {})
    for path, original, value, code, err in mutant_runs(name, tmp_path):
        allowed = allowed_by_key.get(path[-1], lambda value: False)
        count += 1
        if code == EXIT_INTERNAL:
            faults.append(f"{path} = {value!r}: internal error\n{err}")
        elif code == EXIT_OK and value is not _DELETED and type(value) is not type(original) \
                and not allowed(value):
            faults.append(f"{path} = {value!r}: accepted in place of {original!r}")
    assert count > 100
    assert faults == []


def test_mutant_errors_are_recorded(tmp_path):
    """Every mutant exits with the recorded code and the recorded error text, byte for byte."""
    assert mutant_lines(tmp_path) == MUTANT_LINES.read_text().splitlines()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        MUTANT_LINES.write_text("".join(line + "\n" for line in mutant_lines(Path(scratch))))
