"""Shared exhaustive instance families, built once per session, and a
time limit for calls that must finish."""

import signal

import pytest

from cosp import Graph, Poset, is_cograph, is_nfree
from cosp import oracles


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "memory: measures memory or runs out of it in a process of its own; "
        "slow, so tools/mutants.py leaves it out of every kill suite",
    )


@pytest.fixture
def within():
    """``within(seconds, call)``: ``call()``'s result, or a TimeoutError
    raised inside the call once ``seconds`` have passed.  A walk that stops
    shrinking what is left loops forever; under this limit the test that
    meets it fails at once instead.  Needs ``signal.setitimer``."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("no interval timer here")

    def expire(signum, frame):
        raise TimeoutError("the call did not finish in time")

    def run(seconds, call):
        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return run


@pytest.fixture(scope="session")
def graphs_to_4() -> list[Graph]:
    out = []
    for n in range(5):
        out.extend(oracles.enumerate_graphs(n))
    return out


@pytest.fixture(scope="session")
def connected_cographs_to_6() -> list[Graph]:
    """Every connected cograph on 1..6 vertices, all labelings."""
    out = []
    for n in range(1, 7):
        for g in oracles.enumerate_graphs(n):
            if g.is_connected() and is_cograph(g):
                out.append(g)
    return out


@pytest.fixture(scope="session")
def posets_to_4() -> list[Poset]:
    out = []
    for n in range(5):
        out.extend(oracles.enumerate_posets(n))
    return out


@pytest.fixture(scope="session")
def connected_nfree_to_4(posets_to_4) -> list[Poset]:
    """Every connected N-free poset on 1..4 elements, all labelings."""
    return [
        p
        for p in posets_to_4
        if p.order >= 1 and p.is_connected() and is_nfree(p)
    ]
