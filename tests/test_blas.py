import pytest

from knowmatch.blas import blas_threads, get_threads

needs_openblas = pytest.mark.skipif(get_threads() is None, reason="numpy links no OpenBLAS")


@needs_openblas
def test_blas_threads_sets_and_restores():
    before = get_threads()
    for n in (1, 2):
        with blas_threads(n):
            assert get_threads() == n
        assert get_threads() == before


@needs_openblas
def test_blas_threads_restores_after_error():
    before = get_threads()
    with pytest.raises(RuntimeError):
        with blas_threads(1):
            raise RuntimeError
    assert get_threads() == before
