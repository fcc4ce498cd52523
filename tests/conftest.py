import os

import pytest

import meadow
from meadow import gf, mk, q0, to_basic

from gen import random_closed_terms


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child processes (python -m meadow) import the meadow under test."""
    src = os.path.dirname(os.path.dirname(meadow.__file__))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def rationals():
    return q0()


@pytest.fixture(scope="session")
def m2():
    return mk(2)


@pytest.fixture(scope="session")
def m3():
    return mk(3)


@pytest.fixture(scope="session")
def m5():
    return mk(5)


@pytest.fixture(scope="session")
def m6():
    return mk(6)


@pytest.fixture(scope="session")
def m7():
    return mk(7)


@pytest.fixture(scope="session")
def m30():
    return mk(30)


@pytest.fixture(scope="session")
def g4():
    return gf(2, 2)


@pytest.fixture(scope="session")
def g9():
    return gf(3, 2)


@pytest.fixture(scope="session")
def finite_models(m2, m3, m5, m6, m7, m30, g4, g9):
    return [m2, m3, m5, m6, m7, m30, g4, g9]


@pytest.fixture(scope="session")
def all_models(rationals, finite_models):
    return [rationals] + finite_models


@pytest.fixture(scope="session")
def corpus():
    """1000 random closed divisive terms, depth <= 8, fixed seed."""
    return random_closed_terms(seed=90125, count=1000, depth=8)


@pytest.fixture(scope="session")
def corpus_basic(corpus):
    """Basic form of every corpus term, computed once per session."""
    return [(t, to_basic(t)) for t in corpus]
