"""Child Python processes inherit the suite's warnings policy: pytest turns
every warning into an error (``filterwarnings = ["error"]``), and the
``PYTHONWARNINGS`` setting below does the same, like ``-W error``, for each
``sys.executable`` a test starts."""

import pytest


@pytest.fixture(autouse=True)
def _child_warnings_are_errors(monkeypatch):
    monkeypatch.setenv("PYTHONWARNINGS", "error")
