import os

import pytest


def pytest_collection_modifyitems(config, items):
    """Skip every ``long_run`` test unless RESONANCE_LONG=1: each takes
    tens of seconds to minutes, or hundreds of MB."""
    if os.environ.get("RESONANCE_LONG") == "1":
        return
    skip = pytest.mark.skip(reason="set RESONANCE_LONG=1")
    for item in items:
        if "long_run" in item.keywords:
            item.add_marker(skip)
