import signal

import pytest

from parahoric import build_root_datum, extended_basis

#: Seconds one test may run before it fails, so that a walk that stops
#: terminating fails the suite instead of hanging it.
TEST_TIME_LIMIT_S = 300


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("PARAHORIC_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def a1():
    return build_root_datum("A1")


@pytest.fixture(scope="session")
def a2():
    return build_root_datum("A2")


@pytest.fixture(scope="session")
def c2():
    return build_root_datum("C2")


@pytest.fixture(scope="session")
def g2():
    return build_root_datum("G2")


@pytest.fixture(scope="session")
def a1xa1():
    return build_root_datum("A1xA1")


@pytest.fixture(scope="session")
def a2_basis(a2):
    return extended_basis(a2)
