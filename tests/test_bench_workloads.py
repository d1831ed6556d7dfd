"""Each benchmark workload runs one pass on the current program and passes its checks.

The workloads in ``bench/workloads.py`` call the program by name, so a rename
or a changed signature that would break the benchmark shows up here as a
failed operation or a failed check.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["corpus", "train", "evaluate", "study"])
def test_workload_pass_fails_nothing_and_checks_out(name, tmp_path):
    workload = workloads.WORKLOADS[name]()
    workload.setup(0, tmp_path)
    result = workload.run_pass()
    assert result.attempted > 0
    assert result.failed == 0
    checks = workload.check(result.output)
    assert checks
    assert [key for key, ok in checks.items() if not ok] == []
