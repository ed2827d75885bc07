"""Every package imports cleanly as the *first* import of an interpreter.

``repro.openflow`` needs ``repro.net`` (addresses, packets) and
``repro.net`` exports the fat-tree builder, which needs an OpenFlow
switch: imported in the usual order (``repro.net`` first, as every test
and the CLI do) the cycle never shows, so each module here gets its own
fresh subprocess.  CI's ``tests`` job runs the same loop as a named step.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.openflow

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _modules() -> list:
    packages = [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ]
    openflow = [
        f"repro.openflow.{info.name}"
        for info in pkgutil.iter_modules(repro.openflow.__path__)
    ]
    return ["repro", *sorted(packages), *sorted(openflow)]


def test_the_list_covers_the_cycle():
    modules = _modules()
    assert {"repro.net", "repro.openflow", "repro.openflow.actions",
            "repro.openflow.messages", "repro.ctrl"} <= set(modules)


@pytest.mark.parametrize("module", _modules())
def test_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr[-2000:]
