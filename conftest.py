"""Shared by the tier-1 tests and the benchmark's self-tests.

``qseries._EXPANSION_CACHE`` keeps the longest c4, c6, Delta, j and j^k
expansion computed so far for the life of the process.  Clearing it before each test
makes every test start as a fresh process does, whatever ran before it; the
module is looked up rather than imported, so tests of what an import loads
see no extra module.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def cold_expansion_cache():
    qseries = sys.modules.get("tmfkit.qseries")
    if qseries is not None:
        qseries._EXPANSION_CACHE.clear()
