"""Run the executable examples embedded in docstrings."""

import doctest
import importlib

import pytest

MODULES = [
    importlib.import_module(name) for name in (
        "repro.events.engine",
        "repro.network.message",
        "repro.service.queue",
        "repro.system.collective_set",
    )
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
    assert results.failed == 0
