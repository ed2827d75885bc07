"""The reach report's logic (``scripts/reach.py``) on a small fixture
module: which functions count as unreached, how their lines are counted,
and how the allow-list gates them.  No plan runs here."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

MODULE = "repro/fixture.py"
FIXTURE = '''\
def used():
    return [x for x in range(3)]


def dead(n):
    def helper():
        return n
    square = lambda v: v * v
    return helper() + square(n)


class Box:
    @property
    def size(self):
        return 1

    def unused(self):
        pass


def partly():
    def inner_dead():
        pass
    return 1
'''


def entered_keys():
    """Run the fixture under a profile hook, as the collector does, and
    return the keys of the code objects entered."""
    keys = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == MODULE:
            keys.add((MODULE, code.co_firstlineno, code.co_name))

    namespace = {}
    exec(compile(FIXTURE, MODULE, "exec"), namespace)
    sys.setprofile(hook)
    try:
        namespace["used"]()
        assert namespace["Box"]().size == 1
        namespace["partly"]()
    finally:
        sys.setprofile(None)
    return keys


@pytest.fixture
def dead():
    return reach.unreached(reach.functions(MODULE, FIXTURE), entered_keys())


def test_outermost_unreached_functions_only(dead):
    # the decorated property was entered: its key is its decorator's line
    assert [f.qualname for f in dead] == [
        "dead", "Box.unused", "partly.<locals>.inner_dead"]


def test_an_unreached_outer_function_reports_its_whole_span(dead):
    outer = dead[0]
    assert (outer.first, outer.last, outer.lines) == (5, 9, 5)


def test_nested_functions_and_lambdas_are_not_counted_twice(dead):
    # helper and the lambda lie inside dead's span and are not listed
    assert sum(f.lines for f in dead) == 5 + 2 + 2
    assert len(dead[0].children) == 2


def test_an_allow_line_without_a_reason_is_rejected():
    assert reach.load_allow("# comment\n\nrepro/a.py  kept: why\n") == {
        "repro/a.py": "kept: why"}
    with pytest.raises(ValueError, match="no reason"):
        reach.load_allow("repro/a.py\n")


def test_check_names_unlisted_functions_and_stale_entries(dead):
    allow = {f"{MODULE}:Box": "a class prefix covers its methods",
             f"{MODULE}:used": "stale: used() is reached"}
    unlisted, stale = reach.check(dead, allow)
    assert [f.qualname for f in unlisted] == ["dead", "partly.<locals>.inner_dead"]
    assert stale == [f"{MODULE}:used"]
    assert reach.check(dead, {MODULE: "the whole module"}) == ([], [])


@pytest.mark.parametrize("extra, status", [("", 0), ("repro/fixture.py:used stale\n", 1)])
def test_a_stale_entry_fails_check(monkeypatch, tmp_path, capsys, extra, status):
    allow = tmp_path / "allow.txt"
    allow.write_text(f"{MODULE} every function listed\n{extra}")
    monkeypatch.setattr(reach, "ALLOW", allow)
    monkeypatch.setattr(reach, "source_tree", lambda: reach.functions(MODULE, FIXTURE))
    monkeypatch.setattr(reach, "collect", entered_keys)
    assert reach.main(["--check"]) == status
    assert ("STALE" in capsys.readouterr().out) == bool(status)
