"""Child Python processes inherit the suite's warnings policy: pytest turns
every warning into an error (``filterwarnings = ["error"]``), and the
``PYTHONWARNINGS`` setting below does the same, like ``-W error``, for each
``sys.executable`` a test starts.

The ``blas_workers_spin`` fixture tells whether a call leaves a BLAS worker
thread spinning after it returns."""

import time

import pytest


@pytest.fixture(autouse=True)
def _child_warnings_are_errors(monkeypatch):
    monkeypatch.setenv("PYTHONWARNINGS", "error")


@pytest.fixture
def blas_workers_spin():
    """``blas_workers_spin(call)``: the process's CPU-seconds per wall-second
    over a 50 ms sleep just after ``call()``.

    The calling thread sleeps, so the reading is the CPU that other threads
    of the process burn.  An OpenBLAS worker that a threaded product woke
    spins for about 0.135 CPU-seconds after it, so it reads about 1; an
    idle one reads 0.  A 0.4 s sleep before the call lets earlier spins
    lapse."""
    def measure(call) -> float:
        time.sleep(0.4)
        call()
        cpu, wall = time.process_time(), time.perf_counter()
        time.sleep(0.05)
        return (time.process_time() - cpu) / (time.perf_counter() - wall)
    return measure
