"""What a call loads: ``import distqc`` resolves its public names on first
use, and each subcommand imports only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distqc
from distqc import cli, resources, telegate
from distqc.cli import main

#: a fresh interpreter runs these steps in turn and prints, after each, the
#: distqc modules and json (if it did) that the step added
STEPS = """
import os, sys

def loaded():
    return {m for m in sys.modules if m.split(".")[0] in ("distqc", "json")}

before = loaded()
def step(name):
    global before
    print(name, sorted(loaded() - before))
    before = loaded()

import distqc
step("package")
import distqc.cli
step("import")
distqc.cli.main(["pump", "--schedule", "1,2,2", "--out", os.devnull])
step("pump")
# forget json, so that the steps after show whether they import it
for m in [m for m in sys.modules if m.split(".")[0] == "json"]:
    del sys.modules[m]
before = loaded()
distqc.cli.main(["threshold-curve", "--schedule", "1,2", "--grid", "0.9:1:2", "--out", os.devnull])
step("threshold-curve")
distqc.cli.main(["resource", "--schedule", "1,2", "--levels", "30", "--grid", "0.9:1:2", "--out", os.devnull])
step("resource")
# a refused seed ends verify after its imports and before its suites
distqc.cli.main(["verify", "--seed", "-1"])
step("verify")
"""


def test_each_subcommand_loads_only_the_modules_it_runs():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-W", "error", "-c", STEPS], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    added = dict(line.split(" ", 1) for line in child.stdout.splitlines())
    assert added == {
        "package": str(["distqc"]),
        "import": str(["distqc.cli", "distqc.pauli", "distqc.purify"]),
        "pump": str(["json", "json.decoder", "json.encoder", "json.scanner"]),
        "threshold-curve": str(["distqc.telegate", "distqc.threshold"]),
        "resource": str(["distqc.resources"]),
        "verify": str(["distqc.oracles"]),
    }


def test_each_public_name_is_its_home_modules_object():
    for name in distqc.__all__:
        home = importlib.import_module(f"distqc.{distqc._HOME[name]}")
        assert getattr(distqc, name) is getattr(home, name)
        assert getattr(home, name).__module__ == home.__name__
    assert distqc.__all__ == sorted(distqc.__all__) and len(distqc.__all__) == 35
    assert set(distqc.__all__) <= set(dir(distqc))
    from distqc import PumpSchedule, threshold_curve  # noqa: F401
    with pytest.raises(AttributeError, match="module 'distqc' has no attribute 'pump_single'"):
        distqc.pump_single
    with pytest.raises(ImportError, match="cannot import name 'pump_single'"):
        from distqc import pump_single  # noqa: F401


def test_the_parser_table_states_what_it_no_longer_imports(capsys):
    # --kind's choices are a literal, so the parser need not import telegate
    # for them; --T-per-gate's default is resolved in the resource handler
    assert cli.SUBCOMMANDS["ttg"][2]["--kind"]["choices"] == [kind.value for kind in telegate.GateKind]
    assert main(["resource", "--F", "0.9", "--schedule", "1,2,2", "--n-bits", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["T"] == resources.T_PER_PI8_AT_THIRD_THRESHOLD * payload["Omega"]
