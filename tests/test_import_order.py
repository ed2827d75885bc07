"""What importing ``repro`` costs: a package is a namespace, the module
graph has no cycle, and a run loads exactly the modules it needs.

The graph is read statically: every ``import`` a module executes at load
time (``if TYPE_CHECKING:`` blocks and function bodies excluded), and
importing ``a.b.c`` also imports ``a`` and ``a.b``.  A fresh interpreter
must load exactly that graph's closure; the runtime half checks the
model on the root, every package and the OpenFlow substrate's modules,
and CI's import-smoke step imports every module first in its own
interpreter.
"""

from __future__ import annotations

import ast
import functools
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the one edge allowed to close a cycle: frozen ``bench/`` imports
#: ``DesTransport`` from the package (DESIGN §6)
ALLOWED_EDGES = {("repro.transport", "repro.transport.des")}

#: the names a package ``__init__`` still exports, for frozen ``bench/``
KEPT_EXPORTS = {
    "repro.sim": {"TraceBus"},
    "repro.transport": {"ROLE_COLLECT", "SessionSpec", "DesTransport"},
}

CENTRAL3_RUN = """
from repro.scenarios.testbed import build_testbed
from repro.traffic.iperf import run_udp_flow

testbed = build_testbed("central3", seed=1)
run_udp_flow(testbed.path(), rate_bps=50e6, duration=0.01)
"""

#: what each case loads, exactly: a module that joins must be needed by
#: the run, and one that leaves is struck from the list
FOOTPRINTS = {
    "central3_run": (CENTRAL3_RUN, [
        "repro",
        "repro.core",
        "repro.core.alarms",
        "repro.core.combiner",
        "repro.core.compare",
        "repro.core.endpoint",
        "repro.core.membership",
        "repro.core.policy",
        "repro.core.votes",
        "repro.net",
        "repro.net.addresses",
        "repro.net.host",
        "repro.net.link",
        "repro.net.node",
        "repro.net.packet",
        "repro.net.topology",
        "repro.obs",
        "repro.obs.metrics",
        "repro.openflow",
        "repro.openflow.actions",
        "repro.openflow.flowtable",
        "repro.openflow.match",
        "repro.openflow.messages",
        "repro.openflow.switch",
        "repro.scenarios",
        "repro.scenarios.registry",
        "repro.scenarios.testbed",
        "repro.sim",
        "repro.sim.engine",
        "repro.sim.rng",
        "repro.sim.trace",
        "repro.traffic",
        "repro.traffic.iperf",
        "repro.traffic.ping",
        "repro.traffic.stats",
        "repro.traffic.tcp",
        "repro.traffic.udp",
        "repro.transport",
        "repro.transport.base",
        "repro.transport.des",
    ]),
    "votes": ("import repro.core.votes", [
        "repro",
        "repro.core",
        "repro.core.votes",
    ]),
    # the trusted edge: its datapath base, packets and sessions, and
    # nothing of the untrusted OpenFlow switch
    "endpoint": ("import repro.core.endpoint", [
        "repro",
        "repro.core",
        "repro.core.endpoint",
        "repro.net",
        "repro.net.addresses",
        "repro.net.node",
        "repro.net.packet",
        "repro.obs",
        "repro.obs.metrics",
        "repro.sim",
        "repro.sim.engine",
        "repro.sim.trace",
        "repro.transport",
        "repro.transport.base",
        "repro.transport.des",
    ]),
}


#: the trusted base (DESIGN §11): a ceiling on the source lines each
#: trusted module's import closure loads.  A ceiling rises only with a
#: reason in DESIGN; the data-plane modules load nothing of the untrusted
#: OpenFlow switch (the control-plane voter needs its message types).
TRUSTED_CLOSURE_LINES = {
    "repro.core.votes": 300,
    "repro.core.alarms": 400,
    "repro.core.policy": 1_500,
    "repro.core.membership": 1_500,
    "repro.core.compare": 3_800,
    "repro.core.endpoint": 4_000,
    "repro.core.sampling": 5_300,
    "repro.transport.wire": 1_000,
    "repro.ctrl.digest": 2_400,
    "repro.ctrl.compare": 4_600,
}


def _modules() -> dict:
    """Module name -> source path, for every module under ``src/repro``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _load_time_imports(body: list):
    """Every import statement that runs when the module body runs."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _load_time_imports(node.orelse)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                inner = getattr(node, field, None)
                if isinstance(inner, list):
                    yield from _load_time_imports(inner)


@functools.lru_cache(maxsize=None)
def _import_graph() -> dict:
    modules = _modules()
    graph = {}
    for name, path in modules.items():
        edges = set()
        for node in _load_time_imports(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif node.level == 0 and node.module:
                targets = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for target in targets:
                parts = target.split(".")
                for depth in range(1, len(parts) + 1):
                    prefix = ".".join(parts[:depth])
                    if prefix in modules and prefix != name:
                        edges.add(prefix)
        graph[name] = edges
    return graph


def _cycle(graph: dict):
    """One import cycle of ``graph`` as a list of modules, or ``None``."""
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        return err.args[1]
    return None


def _without(graph: dict, edges) -> dict:
    return {
        name: {succ for succ in succs if (name, succ) not in edges}
        for name, succs in graph.items()
    }


def _closure(graph: dict, module: str) -> set:
    parts = module.split(".")
    todo = [".".join(parts[:depth]) for depth in range(1, len(parts) + 1)]
    seen: set = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def _loaded_by(code: str) -> list:
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_the_module_graph_is_acyclic():
    assert _cycle(_without(_import_graph(), ALLOWED_EDGES)) is None


def test_the_list_covers_the_cycle():
    # every allowed edge still closes a cycle: a stale entry leaves
    graph = _import_graph()
    for edge in ALLOWED_EDGES:
        assert _cycle(_without(graph, ALLOWED_EDGES - {edge})), edge


def test_every_package_is_a_namespace():
    for name, path in _modules().items():
        if path.name != "__init__.py" or name == "repro":
            continue
        body = ast.parse(path.read_text()).body
        assert isinstance(body[0], ast.Expr), f"{name} has no docstring"
        exported = set()
        for node in body[1:]:
            assert isinstance(node, ast.ImportFrom), (name, ast.dump(node))
            exported |= {alias.name for alias in node.names}
        assert exported == KEPT_EXPORTS.get(name, set()), name


@pytest.mark.parametrize("case", sorted(FOOTPRINTS))
def test_a_run_loads_its_pinned_modules(case):
    code, pinned = FOOTPRINTS[case]
    loaded, pinned = set(_loaded_by(code)), set(pinned)
    assert not loaded - pinned, f"not in the list: {sorted(loaded - pinned)}"
    assert not pinned - loaded, f"listed, never loaded: {sorted(pinned - loaded)}"


@pytest.mark.parametrize("module", sorted(TRUSTED_CLOSURE_LINES))
def test_the_trusted_base_stays_small(module):
    modules = _modules()
    closure = _closure(_import_graph(), module)
    lines = sum(len(modules[name].read_text().splitlines()) for name in closure)
    assert lines < TRUSTED_CLOSURE_LINES[module], (lines, sorted(closure))
    if not module.startswith("repro.ctrl."):
        assert not [name for name in closure if name.startswith("repro.openflow")]


def _sampled() -> list:
    modules = _modules()
    packages = [
        name for name, path in modules.items() if path.name == "__init__.py"
    ]
    openflow = [name for name in modules if name.startswith("repro.openflow.")]
    return sorted(packages + openflow)


@pytest.mark.parametrize("module", _sampled())
def test_imports_first_in_a_fresh_interpreter(module):
    assert set(_loaded_by(f"import {module}")) == _closure(
        _import_graph(), module
    )
