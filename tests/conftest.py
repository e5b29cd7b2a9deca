"""Shared fixtures.

shallow_stack runs a test with the recursion limit only 100 frames above
the fixture's own depth, so a search that recurses once per instance,
vertex or concept fails on inputs of a few hundred; any call to
sys.setrecursionlimit during the test fails it outright.
"""

import sys

import pytest


def _depth() -> int:
    frame = sys._getframe(1)
    depth = 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@pytest.fixture
def shallow_stack(monkeypatch):
    set_limit = sys.setrecursionlimit
    old = sys.getrecursionlimit()

    def refuse(limit):
        pytest.fail(f"sys.setrecursionlimit({limit}) called under shallow_stack")

    set_limit(_depth() + 100)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    try:
        yield
    finally:
        set_limit(old)
