import subprocess
import sys

import pytest

from igachan.blas import _thread_count_functions, one_blas_thread


@pytest.fixture
def thread_count():
    """(get, set) of numpy's OpenBLAS; the count is put back afterwards."""
    functions = _thread_count_functions()
    if functions is None:
        pytest.skip("no OpenBLAS thread-count setter found beside numpy")
    get, set_ = functions
    before = get()
    yield get, set_
    set_(before)


def test_scope_runs_one_thread_and_restores_the_callers_count(thread_count):
    get, set_ = thread_count
    set_(2)
    with one_blas_thread():
        assert get() == 1
        with one_blas_thread():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_scope_restores_the_count_when_the_block_raises(thread_count):
    get, set_ = thread_count
    set_(2)
    with pytest.raises(ZeroDivisionError):
        with one_blas_thread():
            1 / 0
    assert get() == 2


def test_import_does_not_look_up_the_library():
    code = ("import igachan.cli, igachan.blas as b; "
            "print(b._thread_count_functions.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
