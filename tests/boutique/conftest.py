"""Boutique test fixtures: a fresh single-process app per test."""

from __future__ import annotations

import pytest

from repro.boutique import ALL_COMPONENTS
from repro.core.app import init


@pytest.fixture
def boutique_app():
    """A started single-process boutique application.

    Yielded to sync *and* async tests; async tests run inside asyncio.run
    (see tests/conftest.py), so the fixture creates the app lazily via a
    getter the test awaits.
    """

    async def make():
        return await init(components=ALL_COMPONENTS)

    return make
