import threading

import pytest

from scharm import blas
from scharm.blas import one_thread


def _run_with_timeout(fn, seconds=30.0):
    """Run fn in a daemon thread; a deadlock fails the test instead of hanging it."""
    errors = []

    def target():
        try:
            fn()
        except BaseException as e:  # re-raised in the test's thread
            errors.append(e)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "one_thread() deadlocked"
    if errors:
        raise errors[0]


def test_nested_blocks_read_one_thread_and_restore_the_outer_count(monkeypatch):
    count = [4]
    monkeypatch.setattr(blas, "_get_threads", lambda: count[0])
    monkeypatch.setattr(blas, "_set_threads", lambda k: count.__setitem__(0, k))

    def nested():
        with one_thread():
            assert count[0] == 1
            with one_thread():
                assert count[0] == 1
            assert count[0] == 1
        assert count[0] == 4

    _run_with_timeout(nested)


def test_nested_blocks_on_the_real_blas():
    before = blas._get_threads()

    def nested():
        with one_thread():
            with one_thread():
                assert blas._get_threads() == 1
            assert blas._get_threads() == 1
        assert blas._get_threads() == before

    _run_with_timeout(nested)


def test_decorated_function_restores_the_count_after_an_exception(monkeypatch):
    count = [3]
    monkeypatch.setattr(blas, "_get_threads", lambda: count[0])
    monkeypatch.setattr(blas, "_set_threads", lambda k: count.__setitem__(0, k))

    @one_thread()
    def fails():
        assert count[0] == 1
        raise KeyError("inside")

    def call():
        with pytest.raises(KeyError):
            fails()
        assert count[0] == 3

    _run_with_timeout(call)
