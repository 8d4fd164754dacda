"""The picking rule of tools/fork_sweep.py, on synthetic rows; nothing is timed."""

import importlib.util
import math
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "fork_sweep.py")


@pytest.fixture(scope="module")
def fork_sweep():
    spec = importlib.util.spec_from_file_location("fork_sweep", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (units, serial ms, forked ms); the summed medians by threshold are
# 100: 80.0, 200: 72.0, 300: 72.5, 400: 73.7, inf: 83.7
ROWS = [(100, 10.0, 18.0), (200, 12.5, 12.0), (300, 21.2, 20.0),
        (400, 40.0, 30.0)]


def test_summed_medians_run_fewer_units_serially(fork_sweep):
    total = fork_sweep.summed_medians(ROWS)
    assert list(total) == [100, 200, 300, 400, math.inf]
    assert [round(ms, 6) for ms in total.values()] == [80.0, 72.0, 72.5, 73.7,
                                                       83.7]


def test_choose_takes_the_largest_threshold_within_two_percent(fork_sweep):
    # least 72.0 at 200; 300 is 0.7% above it, 400 2.4%
    assert fork_sweep.WITHIN == 0.02
    assert fork_sweep.choose(ROWS) == 300
    # forking barely matters: infinity (every row serial) sums within 2%
    # of the least and is taken
    assert fork_sweep.choose([(100, 10.0, 10.1), (200, 20.0, 19.9)]) == math.inf
    # forking always wins by far: the smallest threshold
    assert fork_sweep.choose([(100, 10.0, 5.0), (200, 20.0, 10.0)]) == 100
    # rows given out of order pick the same threshold
    assert fork_sweep.choose(ROWS[::-1]) == 300
