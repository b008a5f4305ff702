"""The benchmark's workloads (`perfbench/workloads.py`) against the
package, at sizes small enough for every test run: they drive porobiot
only through its public calls, so a signature they use that changes fails
here before it fails a benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


class SmallScale(workloads.Scale):
    NXS = (4, 8)


class SmallMandel(workloads.Mandel):
    NX = 6
    STEPS = 3


class SmallLSweep(workloads.LSweep):
    NX = 4
    GRID = np.array([0.1, 1.0, 10.0])


@pytest.mark.parametrize("workload", [SmallScale, SmallMandel, SmallLSweep])
def test_a_round_fails_no_operation(workload):
    assert workload(seed=1).run().failed == 0


def test_scale_round_checks_correct():
    scale = SmallScale(seed=1)
    assert scale.check(scale.run().payload) == []


def test_lsweep_check_runs():
    # the check steps its fastest cell again by `iterate_to_convergence`,
    # called positionally; at nx=4 the error bound need not hold
    sweep = SmallLSweep(seed=1)
    assert isinstance(sweep.check(sweep.run().payload), list)
