#!/usr/bin/env python3
"""Reach report: every function of ``src/repro`` that no experiment enters.

Usage, from the repository root::

    python scripts/reach.py            # drive every run, print the report
    python scripts/reach.py --check    # ... and gate it on reach_allow.txt

Each driven run is a fresh interpreter whose ``sitecustomize`` (written to
a temporary directory put first on ``PYTHONPATH``) installs a
``sys.setprofile`` / ``threading.setprofile`` hook.  The hook appends each
``src/repro`` code object it sees entered for the first time to one file,
so spawned workers (the live demo's switches and compare, the benchmark's
children) report too, even when they are terminated.

A function is reached when its own code object was entered.  The report
lists the outermost unreached functions only (an unreached function's
nested functions and lambdas are inside its span), grouped by module, with
line counts.  ``--check`` fails on an unreached function that
``reach_allow.txt`` does not list, and on a listed entry that matches no
unreached function any more, so the list can only shrink.  Allow-list
lines are ``ENTRY REASON``: ENTRY is a module (``repro/core/policy_ablation.py``)
or a module and a qualified name or ``fnmatch`` pattern, where a class covers
its methods (``repro/adversary/modify.py:PacketInjectionBehavior``,
``repro/traffic/ping.py:PingResult.*``); the reason is required.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW = Path(__file__).resolve().parent / "reach_allow.txt"

COLLECTOR = """\
import os, sys, threading
_fd = os.open({out!r}, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
_seen, _keep = set(), []
def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen.add(id(code))
            _keep.append(code)  # a live code object keeps its id unique
            if code.co_filename.startswith({prefix!r}):
                line = "%s\\t%d\\t%s\\n" % (
                    code.co_filename, code.co_firstlineno, code.co_name)
                os.write(_fd, line.encode())
sys.setprofile(_profile)
threading.setprofile(_profile)
"""

Key = Tuple[str, int, str]  # module path under src/, first line, code name


class Function(NamedTuple):
    module: str
    qualname: str
    first: int  # first decorator line, as ``co_firstlineno`` counts
    last: int
    key: Key
    children: Tuple["Function", ...]

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions(module: str, source: str) -> List[Function]:
    """The top-level function tree of one module's source."""

    def walk(node: ast.AST, prefix: str) -> List[Function]:
        found = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                found += walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                first = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", [])])
                inner = walk(child, f"{prefix}{name}.<locals>.")
                found.append(Function(module, prefix + name, first, child.end_lineno,
                                      (module, first, name), tuple(inner)))
            else:
                found += walk(child, prefix)
        return found

    return walk(ast.parse(source), "")


def unreached(tree: Iterable[Function], reached: Set[Key]) -> List[Function]:
    """Outermost functions whose code object was never entered."""
    out: List[Function] = []
    for function in tree:
        if function.key in reached:
            out += unreached(function.children, reached)
        else:
            out.append(function)
    return out


def load_allow(text: str) -> Dict[str, str]:
    """``{entry: reason}``; a line without a reason is an error."""
    allow = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        entry, *reason = line.split(None, 1)
        if not reason:
            raise ValueError(f"reach_allow.txt:{number}: {entry!r} has no reason")
        allow[entry] = reason[0]
    return allow


def covers(entry: str, function: Function) -> bool:
    module, _, pattern = entry.partition(":")
    return module == function.module and (
        not pattern or fnmatch.fnmatchcase(function.qualname, pattern)
        or fnmatch.fnmatchcase(function.qualname, pattern + ".*"))


def check(dead: List[Function], allow: Dict[str, str]) -> Tuple[List[Function], List[str]]:
    """``(unreached functions no entry lists, entries that list nothing)``."""
    unlisted = [f for f in dead if not any(covers(entry, f) for entry in allow)]
    stale = [entry for entry in allow if not any(covers(entry, f) for f in dead)]
    return unlisted, stale


def source_tree() -> List[Function]:
    tree = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        tree += functions(module, path.read_text(encoding="utf-8"))
    return tree


def commands(work: Path) -> List[List[str]]:
    """Every run the report covers, as argument lists for ``python``."""
    repro = ["-m", "repro"]
    cache, log, shards = str(work / "cache"), str(work / "events.jsonl"), str(work / "shards")
    report, obs_report = str(work / "report.json"), str(work / "obs.json")
    runs = [repro + ["all", "--quick", "--no-cache", "--jobs", "1"],
            repro + ["table1", "--quick", "--train", "32", "--no-cache"],
            repro + ["chaos", "--quick", "--no-cache",
                     "--chaos", str(ROOT / "examples/chaos_crash_central3.json")],
            repro + ["plan", "list"],
            repro + ["plan", "validate", *map(str, sorted((ROOT / "examples/plans").glob("*.json")))]]
    for _ in range(2):  # the second run is served from the cache
        runs.append(repro + ["plan", "run", str(ROOT / "examples/plans/smoke.json"),
                             "--cache-dir", cache, "--report", report, "--events-log", log,
                             "--serve", "0", "--serve-grace", "0"])
    runs += [repro + ["plan", "run", "smoke", "--no-cache", "--profile-shards", shards],
             repro + ["obs", "summary", "--quick", "--report", obs_report,
                      "--prometheus", str(work / "metrics.txt")],
             repro + ["obs", "dump", "--duration", "0.01", "-o", str(work / "dump.jsonl")],
             repro + ["obs", "diff", str(ROOT / "benchmarks/fig5_obs_baseline.json"), obs_report],
             repro + ["obs", "trace", "--duration", "0.01", "1"],
             repro + ["obs", "trace", "--ctrl", "--adversary", "lying", "--duration", "0.01", "1"],
             repro + ["fleet", "replay", log, "--check"],
             repro + ["fleet", "watch", "--events", log, "--once"],
             repro + ["fleet", "profile", shards],
             repro + ["live", "demo", "--packets", "120", "--interval", "0.005"],
             repro + ["live", "demo", "--crash-index", "40", "--restart-index", "100",
                      "--live-buffer-timeout", "0.05", "--packets", "160", "--interval", "0.01"]]
    runs += [[str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    runs.append([str(ROOT / "bench/run.py"), "--smoke"])
    return runs


def collect() -> Set[Key]:
    """Run every command under the collector; the code objects they entered."""
    prefix = str(SRC / "repro") + os.sep
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work, site, out = Path(tmp), Path(tmp) / "site", Path(tmp) / "entered.tsv"
        site.mkdir()
        (site / "sitecustomize.py").write_text(COLLECTOR.format(out=str(out), prefix=prefix))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(SRC)]))
        for argv in commands(work):
            start = time.perf_counter()
            done = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
            shown = " ".join(Path(a).name if a.startswith((str(ROOT), tmp)) else a
                             for a in argv)
            print(f"[reach] {time.perf_counter() - start:6.1f}s  {shown}", file=sys.stderr)
            if done.returncode != 0:
                sys.exit(f"reach: run failed ({done.returncode}): {shown}\n"
                         f"{done.stderr.decode(errors='replace')[-2000:]}")
        reached = set()
        for line in out.read_text().splitlines():
            filename, first, name = line.split("\t")
            reached.add((Path(filename).relative_to(SRC).as_posix(), int(first), name))
        return reached


def report(dead: List[Function], total: int) -> None:
    by_module: Dict[str, List[Function]] = {}
    for function in dead:
        by_module.setdefault(function.module, []).append(function)
    for module, found in sorted(by_module.items()):
        print(f"{module}  ({len(found)} functions, {sum(f.lines for f in found)} lines)")
        for function in found:
            print(f"    {function.first:5d}  {function.qualname}  ({function.lines} lines)")
    lines = sum(f.lines for f in dead)
    print(f"unreached: {len(dead)} functions, {lines} of {total} function lines")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail unless the unreached set equals what reach_allow.txt lists")
    args = parser.parse_args(argv)
    allow = load_allow(ALLOW.read_text(encoding="utf-8")) if args.check else {}
    tree = source_tree()
    dead = unreached(tree, collect())
    report(dead, sum(f.lines for f in tree))
    if not args.check:
        return 0
    unlisted, stale = check(dead, allow)
    for function in unlisted:
        print(f"NOT ALLOWED  {function.module}:{function.qualname}  ({function.lines} lines)")
    for entry in stale:
        print(f"STALE        {entry}  (reached now: delete the line)")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
