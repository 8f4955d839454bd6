"""The per-test time limit of `conftest.py` and the `time_limit` fixture nested in it."""

from __future__ import annotations

import signal
import time

import pytest

from conftest import TEST_TIME_LIMIT


def remaining() -> float:
    return signal.getitimer(signal.ITIMER_REAL)[0]


def test_every_test_runs_under_the_limit():
    assert 0 < remaining() <= TEST_TIME_LIMIT


def test_a_nested_limit_restores_the_outer_remaining_time(time_limit):
    with time_limit(5):
        with time_limit(1):
            assert remaining() <= 1
        assert 4 < remaining() <= 5
        with pytest.raises(pytest.fail.Exception, match="time limit of 0.05 s"):
            with time_limit(0.05):
                time.sleep(1)
        assert 3 < remaining() <= 5
    assert TEST_TIME_LIMIT - 5 < remaining() <= TEST_TIME_LIMIT


def test_an_outer_limit_that_ends_first_still_fires(time_limit):
    with pytest.raises(pytest.fail.Exception, match="time limit of 0.05 s"):
        with time_limit(0.05):
            with time_limit(30):
                time.sleep(1)
    assert TEST_TIME_LIMIT - 5 < remaining() <= TEST_TIME_LIMIT
