"""Checks on the library source itself and on the demos that use it."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sofic_lab"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the stdout of the deterministic demos.  The two counting demos
# were recorded with the backtracking coloring search, and the frontier pass
# that replaced it prints the same bytes.  rate_curves.py was recorded while
# every scan point still took each logarithm afresh; it prints a symmetry
# gap of order 1e-31, so a change in any bit of the rate curve shows.
DEMO_STDOUT_DIGESTS = {
    "sample_and_count.py": "d048e1fe4e95e4e25fbfabd78b16d1b4989386456bc4891713675de5c9c73813",
    "core_and_rigidity.py": "eb17f42e7e08b92c6dcef903e1bb36b743f94b61739eae144eb9096dbdd59db9",
    "rate_curves.py": "fac4c67acf9a094dec9abfa7173cf8320886cc6721452ca3b91b9b1f660d532a",
}


def _library_nodes():
    """(file name, node) for every syntax node of the library source."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_library():
    # python -O strips assert statements, so a guard written as one vanishes
    # from optimized runs; every check in the library must raise explicitly
    found = [
        "%s:%d" % (name, node.lineno)
        for name, node in _library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _reads_environment(node):
    if isinstance(node, ast.Attribute):
        return (node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os")
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ("environ", "getenv") for alias in node.names)
    return False


def test_library_reads_no_environment_variables():
    # an environment variable is an input that no "# params:" line records,
    # so an artifact could not be reproduced from itself
    found = ["%s:%d" % (name, node.lineno)
             for name, node in _library_nodes() if _reads_environment(node)]
    assert found == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # experiment_pipeline writes under tempfile's directory, so point it here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    assert list(tmp_path.glob("sofic_demo_*")) == []
    if demo.name in DEMO_STDOUT_DIGESTS:
        assert hashlib.sha256(result.stdout).hexdigest() == DEMO_STDOUT_DIGESTS[demo.name]
