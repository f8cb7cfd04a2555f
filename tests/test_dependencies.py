"""Every third-party import under ``src/repro`` is a declared dependency, and
the cold path loads no heavy numpy submodule it does not use."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def imported_packages():
    """Top-level names of every absolute import in the ``repro`` sources."""
    names = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - {"repro"} - set(sys.stdlib_module_names)


def declared_dependencies():
    """``[project].dependencies`` from pyproject.toml, read without tomllib."""
    text = (REPO / "pyproject.toml").read_text()
    match = re.search(r"^dependencies\s*=\s*(\[[^\]]*\])", text, re.MULTILINE)
    assert match, "pyproject.toml declares no [project].dependencies"
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in ast.literal_eval(match.group(1))}


def test_imports_match_declared_dependencies():
    assert imported_packages() == declared_dependencies()


#: Runs in a fresh interpreter: which heavy numpy submodules the cold CLI
#: import and a sampled campaign load.
COLD_PATH_PROBE = """
import json, sys
import repro.cli.main
after_import = "numpy.random" in sys.modules
from repro.api import ExperimentSpec, Session
for campaign in ({"scenario": "random", "faults": 2, "trials": 50},
                 {"scenario": "laser", "spot_trials": 10, "effects": ["flip", "stuck1"]}):
    Session().run(ExperimentSpec.from_dict({"fsm": {"name": "traffic_light"}, "campaign": campaign}))
print(json.dumps([after_import, "numpy.random" in sys.modules]))
"""


def test_sampled_campaigns_do_not_load_numpy_random():
    """The campaign draws replay ``random.Random`` without ``numpy.random``
    (which would add its modules and memory to every sampled campaign)."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", COLD_PATH_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [False, False]
