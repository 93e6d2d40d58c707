"""Smoke tests keeping every example script runnable.

Examples are documentation; a broken one is a doc bug.  Each runs in a
subprocess (as a user would) and must exit 0 with its key output present.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

EXPECTED_SNIPPETS = {
    "quickstart.py": "serialization order: T1 -> T2 -> T3",
    "banking.py": "final total=1000 [OK]",
    "nested_orders.py": "serializable: True",
    "distributed_cluster.py": "max objects locked at once",
    "class_explorer.py": "Fig. 4 region",
    "long_transactions.py": "scanner survives",
    "snapshot_analytics.py": "snapshot consistency verified",
    "paper_tour.py": "tour complete",
    "recovery_demo.py": "bit-identical to the fault-free reference",
    "service_demo.py": "every variant committed a serializable projection",
}


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_SNIPPETS))
def test_example_runs_clean(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert EXPECTED_SNIPPETS[script] in result.stdout


def test_class_explorer_accepts_cli_log():
    result = _run("class_explorer.py", "R1[x] R2[x] W1[x] W2[x]")
    assert result.returncode == 0
    assert "not serializable" in result.stdout
