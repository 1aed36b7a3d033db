"""Session-wide fixtures."""

import os

import pytest

from widthlab import suites


@pytest.fixture(scope="session")
def suite_records():
    """``suite_records(name, **params)``: the suite's records, each (suite, params) pair run once per session.

    Runs go through the suite process pool with one worker per CPU this
    process may use; records do not depend on the worker count.
    """
    cache = {}
    workers = len(os.sched_getaffinity(0))

    def run(name, **params):
        config = suites.SuiteConfig(name, params=params, workers=workers)
        key = (name, tuple(sorted(config.params.items())))
        if key not in cache:
            cache[key] = tuple(suites.run_suite(config))
        return cache[key]

    return run
