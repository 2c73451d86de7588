import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"

# the ordinals reproduce_examples.py expects without --deep
EXPECTED = {8727391: 150, 1082401: 50, 24214051: 254}


@pytest.fixture
def reproduce():
    spec = importlib.util.spec_from_file_location(
        "reproduce_examples", SCRIPTS / "reproduce_examples.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_examples_exits_0_when_ordinals_match(reproduce, monkeypatch, capsys):
    monkeypatch.setattr(reproduce, "strong_pseudoprime_ordinal", lambda a, n, **kw: EXPECTED[n])
    assert reproduce.main(["--workers", "1"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_reproduce_examples_exits_1_on_mismatch(reproduce, monkeypatch, capsys):
    wrong = {**EXPECTED, 1082401: 49}
    monkeypatch.setattr(reproduce, "strong_pseudoprime_ordinal", lambda a, n, **kw: wrong[n])
    assert reproduce.main(["--workers", "1"]) == 1
    assert "MISMATCH, expected 50" in capsys.readouterr().out
