"""Make the benchmark modules and the program under test importable."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import run  # noqa: E402


@pytest.fixture(scope="session")
def repro():
    """The ``repro`` package from this checkout's ``src/``."""
    return run.load_program()
