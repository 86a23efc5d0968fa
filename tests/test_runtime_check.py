import sys
from pathlib import Path

import pytest

import mdma_relay
import runtime_check


@pytest.mark.slow
def test_the_runtime_check_passes(monkeypatch, tmp_path):
    # The checks the CI runs against an installed `mdma-relay`, run here on
    # the source tree; about 30 s on a 2-core host.
    monkeypatch.setenv("PYTHONPATH", str(Path(mdma_relay.__file__).resolve().parents[1]))
    runtime_check.run([sys.executable, "-m", "mdma_relay.cli"], tmp_path)
