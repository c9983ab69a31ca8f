"""Tests for the metrics CLI (python -m repro.tools.metrics)."""

import pytest

from repro.net.registry import register_communicator, unregister_communicator
from repro.tools.metrics import main


def test_backend_choices_follow_the_registry(capsys):
    """``--backend`` offers exactly the registered communicators: a
    third-party registration is listed, a removed name is rejected."""
    register_communicator("scratch-cli", lambda config: None)
    try:
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "tcp"])
    finally:
        unregister_communicator("scratch-cli")
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    choices = err.split("choose from", 1)[1]
    for name in ("memory", "aio", "scratch-cli"):
        assert name in choices
    assert "tcp" not in choices
