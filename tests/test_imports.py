"""What a fresh interpreter loads: the package namespace resolves each name
on first access, and each command loads only the layers it runs."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import SHORTEST_PATH

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LATE_LAYERS = ("premlog.engine", "premlog.verify", "premlog.bench")


def fresh(code: str, *args: str):
    """Run code in a new interpreter with the package on its path; the JSON it prints."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


NAMESPACE = """
import importlib, json, sys
import premlog
loaded = sorted(m for m in sys.modules if m.startswith("premlog."))
homes = {n: getattr(importlib.import_module("premlog." + m), n) for n, m in premlog._HOME.items()}
try:
    premlog.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded": loaded,
    "not_home": [n for n in premlog.__all__ if getattr(premlog, n) is not homes[n]],
    "variants": sorted(premlog.bench.VARIANTS),
    "range": premlog.model.RANGE_PREDICATE,
    "dir": sorted(set(premlog.__all__) - set(dir(premlog))),
    "map": sorted(premlog._HOME),
    "all": sorted(premlog.__all__),
    "unique": sum(map(len, premlog._EXPORTS.values())) == len(premlog._HOME),
    "unknown": unknown,
}))
"""


def test_the_namespace_resolves_each_name_from_its_home_module():
    got = fresh(NAMESPACE)
    assert got["loaded"] == []  # a bare import loads no layer
    assert got["not_home"] == []
    # Read after only `import premlog as P` by the benchmark and the tests.
    assert got["variants"] == ["spath", "spath_mmin", "spath_prem"]
    assert got["range"] == "int_up2"
    assert got["dir"] == []
    assert got["map"] == got["all"] and got["unique"]  # no name has two home modules
    assert got["unknown"] == "module 'premlog' has no attribute 'no_such_name'"


COMMAND = """
import contextlib, io, json, sys
import premlog.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = premlog.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("premlog."))]))
"""


@pytest.mark.parametrize(
    "argv, late",
    [
        (["check"], []),
        (["optimize"], []),
        (["run"], ["premlog.engine"]),
        (["verify", "--samples", "10"], ["premlog.engine", "premlog.verify"]),
    ],
    ids=["check", "optimize", "run", "verify"],
)
def test_a_command_loads_only_the_layers_it_runs(tmp_path, argv, late):
    program = tmp_path / "spath.dl"
    program.write_text(SHORTEST_PATH)
    code, loaded = fresh(COMMAND, argv[0], str(program), *argv[1:])
    assert code == 0
    assert [m for m in loaded if m in LATE_LAYERS] == late
    assert {"premlog.parser", "premlog.analysis", "premlog.rewrite"} <= set(loaded)
