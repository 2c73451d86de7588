import importlib.util
import io
import json
import subprocess
import tarfile
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


def test_census_skip_scan_runs_census_only(census, monkeypatch, capsys):
    monkeypatch.setattr(census, "scan", None)  # calling it would raise
    assert census.main(["--bound", "100000", "--skip-scan"]) == 0
    out = capsys.readouterr().out
    assert "constructive census: 8 overpseudoprimes to base 2 up to 100,000" in out
    assert "exhaustive scan" not in out


def test_census_exits_1_when_routes_disagree(census, monkeypatch, capsys):
    full = census.overpseudoprimes_upto
    monkeypatch.setattr(census, "overpseudoprimes_upto", lambda a, b: full(a, b)[1:])
    assert census.main(["--bound", "100000", "--workers", "1"]) == 1
    assert "DISAGREEMENT: scan-only [2047]" in capsys.readouterr().out


@pytest.fixture
def bench_pair():
    return load_script("bench_pair")


def test_bench_pair_names_a_run_without_a_result(bench_pair, monkeypatch, tmp_path):
    # perfbench/run.py prints only its "# {...}" header before exiting 2
    header = '# {"workload": "range", "seed": 7}\n'
    done = subprocess.CompletedProcess([], 2, stdout=header, stderr="error: worker died\n")
    monkeypatch.setattr(bench_pair.subprocess, "run", lambda *a, **kw: done)
    with pytest.raises(bench_pair.BenchError) as info:
        bench_pair.bench(tmp_path, "range", 7, 30)
    message = str(info.value)
    for part in (str(tmp_path), "range", "seed 7", "exited 2", "worker died"):
        assert part in message


def test_bench_pair_keeps_finished_workloads(bench_pair, monkeypatch, tmp_path):
    # a failed run stops the script, but the workloads finished before it
    # are in the output file, each run with its ops attempted and failed
    def bench(tree, workload, seed, seconds):
        if workload == "range":
            raise bench_pair.BenchError(f"{tree}: {workload} seed {seed} exited 2")
        spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        return {"correct": True, "attempted": 10, "failed": 1, "metrics": metrics}

    empty = io.BytesIO()
    tarfile.open(fileobj=empty, mode="w").close()
    archived = subprocess.CompletedProcess([], 0, stdout=empty.getvalue())
    monkeypatch.setattr(bench_pair, "bench", bench)
    monkeypatch.setattr(bench_pair, "git", lambda *args: "")
    monkeypatch.setattr(bench_pair.subprocess, "run", lambda *a, **kw: archived)
    out = tmp_path / "BENCH.json"
    runs = ["--run", "classify-mix:1-2", "--run", "range:3"]
    with pytest.raises(bench_pair.BenchError, match="range seed 3"):
        bench_pair.main(["--parent", "HEAD", "--out", str(out), *runs])
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["classify-mix"]
    runs = doc["workloads"]["classify-mix"]["runs"]
    assert [r["seed"] for r in runs] == [1, 2]
    assert all(r["attempted"] == {"parent": 10, "change": 10} for r in runs)
    assert all(r["failed"] == {"parent": 1, "change": 1} for r in runs)
