import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"

# the ordinals reproduce_examples.py expects without --deep
EXPECTED = {8727391: 150, 1082401: 50, 24214051: 254}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def reproduce():
    return load_script("reproduce_examples")


@pytest.fixture
def census():
    return load_script("pseudoprime_census")


def test_reproduce_examples_exits_0_when_ordinals_match(reproduce, monkeypatch, capsys):
    monkeypatch.setattr(reproduce, "strong_pseudoprime_ordinal", lambda a, n, **kw: EXPECTED[n])
    assert reproduce.main(["--workers", "1"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_reproduce_examples_exits_1_on_mismatch(reproduce, monkeypatch, capsys):
    wrong = {**EXPECTED, 1082401: 49}
    monkeypatch.setattr(reproduce, "strong_pseudoprime_ordinal", lambda a, n, **kw: wrong[n])
    assert reproduce.main(["--workers", "1"]) == 1
    assert "MISMATCH, expected 50" in capsys.readouterr().out


def test_census_exits_0_when_routes_agree(census, capsys):
    assert census.main(["--bound", "100000", "--workers", "1"]) == 0
    assert "the two routes agree" in capsys.readouterr().out


def test_census_exits_1_when_routes_disagree(census, monkeypatch, capsys):
    full = census.overpseudoprimes_upto
    monkeypatch.setattr(census, "overpseudoprimes_upto", lambda a, b: full(a, b)[1:])
    assert census.main(["--bound", "100000", "--workers", "1"]) == 1
    assert "DISAGREEMENT: scan-only [2047]" in capsys.readouterr().out
