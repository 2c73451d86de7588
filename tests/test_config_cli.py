import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import primover
from conftest import record_pools
from primover.arith import (
    Factorization,
    FactorizationCache,
    factorize,
    settings,
    use_config,
)
from primover.cli import build_parser, main, parse_number
from primover.classification import classify, scan
from primover.config import Config, load_config
from primover.construct import cofactor_bound_report
from primover.errors import IncompleteFactorizationError


@pytest.fixture(autouse=True)
def isolated_runtime(monkeypatch):
    # CLI runs read os.environ; keep each test hermetic
    for key in list(os.environ):
        if key.startswith("PRIMOVER_"):
            monkeypatch.delenv(key)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


class TestParseNumber:
    def test_decimal(self):
        assert parse_number("97") == 97
        assert parse_number(" 97 ") == 97
        assert parse_number("0") == 0

    def test_expressions(self):
        assert parse_number("2^70-1") == 2**70 - 1
        assert parse_number("2^64+1") == 2**64 + 1
        assert parse_number("10^3-1") == 999

    @pytest.mark.parametrize(
        "bad", ["", "abc", "-5", "2^70", "2^n-1", "2^3*5", "2^3-2", "1e6"]
    )
    def test_rejections(self, bad):
        with pytest.raises(ValueError):
            parse_number(bad)

    @given(st.integers(min_value=0, max_value=10**30))
    def test_decimal_roundtrip(self, n):
        assert parse_number(str(n)) == n

    @given(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=1, max_value=200),
        st.sampled_from(["-1", "+1"]),
    )
    def test_expression_roundtrip(self, a, n, tail):
        assert parse_number(f"{a}^{n}{tail}") == a**n + (1 if tail == "+1" else -1)


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.coset_ceiling == 10_000_000
        assert cfg.rho_budget == 5_000_000
        assert cfg.workers == 1
        assert cfg.cache_path is None

    def test_run_settings_are_frozen(self):
        # a process-wide default changed in place would leak into every
        # later call; a run with other values builds another Config
        with pytest.raises(FrozenInstanceError):
            settings().rho_budget = 1
        with use_config(Config()):
            with pytest.raises(FrozenInstanceError):
                settings().workers = 2
        assert settings() == Config()

    def test_describe_names_every_field(self):
        text = Config().describe()
        assert "coset_ceiling=10000000" in text
        assert "cache_path=None" in text

    def test_empty_environment_gives_defaults(self):
        assert load_config(env={}) == Config()
        # trial division has a fixed bound, and no variable sets one
        assert load_config(env={"PRIMOVER_TRIAL_BOUND": "10"}) == Config()

    def test_file_values(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"coset_ceiling": 12345, "cache_path": "t.txt"}))
        cfg = load_config(str(p), env={})
        assert cfg.coset_ceiling == 12345
        assert cfg.cache_path == "t.txt"
        assert cfg.workers == 1

    def test_unknown_key_warns(self, tmp_path):
        # trial division has a fixed bound, and no file key sets one
        p = tmp_path / "cfg.json"
        for doc in ({"ceilings": 5}, {"trial_bound": 10}):
            p.write_text(json.dumps(doc))
            with pytest.warns(UserWarning, match="unknown config key"):
                assert load_config(str(p), env={}) == Config()

    def test_wrong_typed_file_values_dropped(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"coset_ceiling": "big", "cache_path": 7}))
        with pytest.warns(UserWarning):
            assert load_config(str(p), env={}) == Config()

    def test_malformed_file_warns_and_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.warns(UserWarning, match="ignoring config file"):
            assert load_config(str(p), env={}) == Config()

    def test_missing_file_warns_and_defaults(self, tmp_path):
        with pytest.warns(UserWarning, match="ignoring config file"):
            assert load_config(str(tmp_path / "absent.json"), env={}) == Config()

    def test_env_overrides_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"coset_ceiling": 111}))
        cfg = load_config(str(p), env={"PRIMOVER_COSET_CEILING": "222"})
        assert cfg.coset_ceiling == 222

    def test_env_file_discovery(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"workers": 3}))
        cfg = load_config(env={"PRIMOVER_CONFIG": str(p)})
        assert cfg.workers == 3

    def test_list_root_warns_once_and_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps([{"workers": 3}]))
        with pytest.warns(UserWarning) as record:
            assert load_config(str(p), env={}) == Config()
        assert len(record) == 1
        assert "config root must be an object" in str(record[0].message)

    def test_bad_env_integer_warns(self):
        with pytest.warns(UserWarning, match="non-integer"):
            cfg = load_config(env={"PRIMOVER_RHO_BUDGET": "lots"})
        assert cfg.rho_budget == Config().rho_budget


class TestFactorizationCacheFile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "factors.txt")
        cache = FactorizationCache(path)
        cache.put(factorize(4294967297))
        cache.put(factorize(2047))
        text = (tmp_path / "factors.txt").read_text()
        assert "4294967297 641 6700417" in text
        assert "2047 23 89" in text

        reloaded = FactorizationCache(path)
        assert len(reloaded) == 2
        assert reloaded.get(2047).factors == ((23, 1), (89, 1))
        assert reloaded.get(15) is None

    def test_put_skips_known_subjects(self, tmp_path):
        path = str(tmp_path / "factors.txt")
        cache = FactorizationCache(path)
        cache.put(factorize(2047))
        cache.put(factorize(2047))
        lines = (tmp_path / "factors.txt").read_text().splitlines()
        assert lines.count("2047 23 89") == 1

    def test_bad_records_skipped_with_warning(self, tmp_path):
        p = tmp_path / "factors.txt"
        p.write_text(
            "# comment\n"
            "2047 23 89\n"
            "junk\n"
            "16 5^2\n"  # recomposes to 25, not 16
            "21 9 ...\n"  # "..." is not a number
            "15 15\n"  # recomposes, but its one "prime" is composite
            "1082401 601 1801\n"
        )
        with pytest.warns(UserWarning, match="bad cache record") as record:
            cache = FactorizationCache(str(p))
        assert [str(w.message).split(":")[-2] for w in record] == ["3", "4", "5", "6"]
        assert len(cache) == 2
        assert cache.get(15) is None
        assert cache.get(1082401).factors == ((601, 1), (1801, 1))

    def test_exponent_syntax(self, tmp_path):
        p = tmp_path / "factors.txt"
        p.write_text("1194649 1093^2\n")
        cache = FactorizationCache(str(p))
        assert cache.get(1194649) == Factorization(1194649, ((1093, 2),))

    def test_unreadable_file_warns_and_keeps_memory(self, tmp_path):
        undecodable = tmp_path / "factors.txt"
        undecodable.write_bytes(b"2047 23 89\n\xff\n")
        for path in (tmp_path, undecodable):  # a directory, then bad bytes
            with pytest.warns(UserWarning, match="ignoring cache file"):
                cache = FactorizationCache(str(path))
            assert len(cache) == 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # in memory only, and silent
                cache.put(factorize(2047))
            assert cache.get(2047).factors == ((23, 1), (89, 1))
        assert undecodable.read_bytes() == b"2047 23 89\n\xff\n"

    def test_unwritable_file_warns_once(self, tmp_path):
        cache = FactorizationCache(str(tmp_path / "absent" / "factors.txt"))
        with pytest.warns(UserWarning, match="not writing cache file") as record:
            cache.put(factorize(2047))
            cache.put(factorize(341))
        assert len(record) == 1
        assert cache.get(341).factors == ((11, 1), (31, 1))

    def test_factorize_consults_active_cache(self, tmp_path):
        path = str(tmp_path / "factors.txt")
        # 100160063 = 10007 * 10009 has no factor that trial division takes
        # out, so under a budget of 1 only the cache can answer
        n = 10007 * 10009
        with use_config(Config(rho_budget=1)):
            with pytest.raises(IncompleteFactorizationError):
                factorize(n)
        cache = FactorizationCache(path)
        cache.put(factorize(n))
        with use_config(Config(cache_path=path, rho_budget=1)):
            got = factorize(n)
        assert got.factors == ((10007, 1), (10009, 1))


class TestCliVerbs:
    def test_classify_text(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--base", "2", "4294967297")
        assert code == 0
        assert "overpseudoprime (primover)" in out
        assert "641" in out and "6700417" in out
        assert "ord mod 641^1 = 64" in out

    def test_classify_json(self, capsys):
        doc = run_json(capsys, "classify", "--base", "2", "2^32+1")
        assert set(doc) == {"command", "result", "timing_ms", "probabilistic"}
        assert doc["command"] == {
            "verb": "classify",
            "arguments": {"base": 2, "subject": 4294967297},
        }
        res = doc["result"]
        assert res["status"] == "overpseudoprime"
        assert res["primover"] is True
        assert res["evidence"]["orders"] == [[641, 1, 64], [6700417, 1, 64]]
        assert res["evidence"]["h"] == 64
        assert doc["probabilistic"] is False

    def test_classify_plus_one_carries_the_order_hint(self, capsys, monkeypatch):
        # F_7 = 2^128 + 1: rho cannot split it within this budget, but the
        # hint 2 * 128 passes the certificate
        monkeypatch.setenv("PRIMOVER_RHO_BUDGET", "100000")
        code, out, _ = run_cli(capsys, "classify", "2^128+1")
        assert code == 0 and "overpseudoprime (primover)" in out
        assert "certificate for h = 256" in out and "factors" not in out
        # no hint for another base, or in decimal
        for argv in (("--base", "3", "2^128+1"), (str(2**128 + 1),)):
            code, _, err = run_cli(capsys, "classify", *argv)
            assert code == 2 and "budget exhausted" in err, argv

    def test_classify_prime(self, capsys):
        doc = run_json(capsys, "classify", "65537")
        assert doc["result"]["status"] == "prime"
        assert doc["result"]["primover"] is True

    def test_classify_psi12_is_composite(self, capsys):
        # psi_12 passes the strong test to the first twelve prime bases; the
        # thirteenth, 41, shows it composite
        psi12 = "318665857834031151167461"
        code, out, _ = run_cli(capsys, "classify", psi12)
        assert code == 0
        assert out.startswith(f"{psi12} to base 2: overpseudoprime (primover)\n")
        assert "factors: 399165290221 * 798330580441\n" in out
        doc = run_json(capsys, "classify", psi12)
        assert doc["result"]["status"] == "overpseudoprime"
        assert doc["result"]["primover"] is True
        assert doc["result"]["evidence"]["factorization"] == [
            [399165290221, 1],
            [798330580441, 1],
        ]
        assert doc["probabilistic"] is False

    def test_cosets(self, capsys):
        code, out, _ = run_cli(capsys, "cosets", "--base", "2", "7")
        assert code == 0
        assert "r = 2, h = 3" in out
        doc = run_json(capsys, "cosets", "--base", "2", "7")
        # each coset lists its orbit in generation order from the least member
        assert doc["result"]["cosets"] == [[1, 2, 4], [3, 6, 5]]

    def test_cofactor(self, capsys):
        doc = run_json(capsys, "cofactor", "--base", "2", "70")
        res = doc["result"]
        assert res["product"]["value"] == 24214051
        assert res["coprimality_holds"] is True
        assert res["classification"]["status"] == "overpseudoprime"
        assert [70, 1] in res["product"]["terms"]
        assert [35, -1] in res["product"]["terms"]

    def test_construct_two_prime(self, capsys):
        doc = run_json(capsys, "construct", "two-prime", "--base", "2", "5", "7")
        assert doc["result"]["product"]["value"] == 8727391
        assert doc["command"]["kind"] == "two-prime"
        code, out, _ = run_cli(capsys, "construct", "two-prime", "3", "7")
        assert code == 0
        assert "2359" in out and "coprime to complementary cofactor: no" in out

    def test_construct_fermat(self, capsys):
        doc = run_json(capsys, "construct", "fermat", "6")
        assert doc["result"]["product"]["value"] == 4294967297
        assert doc["result"]["classification"]["status"] == "overpseudoprime"

    def test_construct_prime_power(self, capsys):
        doc = run_json(capsys, "construct", "prime-power", "5", "2")
        assert doc["result"]["product"]["value"] == 1082401

    def test_construct_two_prime_power(self, capsys):
        doc = run_json(capsys, "construct", "two-prime-power", "3", "2", "5", "1")
        assert doc["result"]["product"]["value"] == 14709241

    def test_ordinal(self, capsys):
        code, out, _ = run_cli(capsys, "ordinal", "--base", "2", "2047")
        assert code == 0
        assert "#1" in out
        doc = run_json(capsys, "ordinal", "2047")
        assert doc["result"]["ordinal"] == 1

    def test_scan(self, capsys):
        doc = run_json(capsys, "scan", "--base", "2", "3000")
        res = doc["result"]
        assert res["strong_pseudoprimes"] == [2047]
        assert res["overpseudoprime_count"] == 1
        assert res["prime_count"] == 430
        assert res["primover_count"] == 431
        code, out, _ = run_cli(capsys, "scan", "3000")
        assert code == 0 and "2047" in out

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "identity", "70")
        assert code == 0
        assert "24 vs phi = 24: holds" in out
        doc = run_json(capsys, "identity", "70")
        assert doc["result"] == {"n": 70, "signed_sum": 24, "phi": 24, "holds": True}

    def test_bound(self, capsys):
        doc = run_json(capsys, "bound", "--base", "2", "70")
        res = doc["result"]
        assert res["value"] == 24214051
        assert res["implied_constant"] == pytest.approx(
            cofactor_bound_report(2, 70).implied_constant
        )
        assert res["asymptotic_regime"] is True
        code, out, _ = run_cli(capsys, "bound", "9")
        assert code == 0 and "below the asymptotic regime" in out


class TestCliContracts:
    def test_schema_is_stable_across_verbs(self, capsys):
        invocations = [
            ("classify", "341"),
            ("cosets", "9"),
            ("cofactor", "35"),
            ("construct", "fermat", "4"),
            ("ordinal", "2047"),
            ("scan", "2100"),
            ("identity", "9"),
            ("bound", "9"),
        ]
        for argv in invocations:
            doc = run_json(capsys, *argv)
            assert set(doc) == {"command", "result", "timing_ms", "probabilistic"}
            assert set(doc["command"]) >= {"verb", "arguments"}

    def test_identical_runs_agree_modulo_timing(self, capsys):
        def canonical(doc):
            doc.pop("timing_ms")
            return json.dumps(doc, sort_keys=True)

        a = canonical(run_json(capsys, "classify", "4294967297"))
        b = canonical(run_json(capsys, "classify", "4294967297"))
        assert a == b

    def test_scan_output_independent_of_workers(self, capsys):
        serial = run_json(capsys, "scan", "3000")
        parallel = run_json(capsys, "scan", "3000", "--workers", "2")
        assert serial["result"] == parallel["result"]

    def test_usage_errors_exit_1(self, capsys):
        for argv in (
            ["frobnicate", "7"],
            ["classify"],
            ["classify", "xyz"],
            ["construct", "two-prime", "5"],
            [],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert "usage" in err or "error" in err

    @pytest.mark.parametrize(
        "argv", (["cosets", "12x"], ["scan", "--base", "2^x", "100"], ["classify", "²"])
    )
    def test_malformed_number_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "not a number or a^n±1 expression" in err

    def test_domain_errors_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "cosets", "--base", "2", "8")
        assert code == 1
        assert "odd" in err
        code, _, err = run_cli(capsys, "ordinal", "341")
        assert code == 1

    @pytest.mark.parametrize("verb", ("ordinal", "scan"))
    def test_base_below_2_exits_1(self, capsys, verb):
        # every odd composite passes the strong test to base 1, so 9 would
        # otherwise be "strong pseudoprime #1 to base 1"
        code, out, err = run_cli(capsys, verb, "--base", "1", "9")
        assert code == 1
        assert out == ""
        assert "base must be at least 2" in err

    @pytest.mark.parametrize("fmt", ("text", "json"))
    @pytest.mark.parametrize(
        "argv, reason",
        (
            (["--base", "1", "7"], "base must be at least 2"),
            (["1"], "subject must exceed 1"),
            (["0"], "subject must exceed 1"),
            (["2^0-1"], "subject must exceed 1"),
        ),
    )
    def test_classify_out_of_domain_exits_1(self, capsys, fmt, argv, reason):
        # classify raises a domain error, like every other entry
        code, out, err = run_cli(capsys, "--format", fmt, "classify", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {reason}\n"

    @pytest.mark.parametrize("exponent", ("1155", "256"))
    def test_certified_cofactor_outlives_the_budget(self, capsys, monkeypatch, exponent):
        # rho cannot finish either value within this budget; the order
        # certificate decides it anyway, and fast (CPU time, so that a busy
        # host does not count)
        monkeypatch.setenv("PRIMOVER_RHO_BUDGET", "100000")
        start = time.process_time()
        code, out, _ = run_cli(capsys, "cofactor", "--base", "2", exponent)
        assert time.process_time() - start < 1.0
        assert code == 0
        assert "overpseudoprime (primover)" in out
        assert "factors:" not in out
        assert f"order certificate for h = {exponent} holds" in out
        assert "budget ran out" in out

    def test_fermat_8_prints_both_primes_at_the_default_budget(self, capsys):
        # rho alone spent the whole budget on F_8 and answered without
        # factors; ECM finds its 51-bit prime on the second curve. The
        # cofactor lies above psi_13, so the answer carries the note
        outs = []
        for _ in range(2):
            start = time.process_time()
            code, out, _ = run_cli(capsys, "classify", "2^256+1")
            assert time.process_time() - start < 3.0
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        cofactor = (2**256 + 1) // 1238926361552897
        assert len(str(cofactor)) == 62
        assert f"factors: 1238926361552897 * {cofactor}\n" in outs[0]
        assert "overpseudoprime (primover)" in outs[0]
        assert "result is probabilistic" in outs[0]

    def test_resource_errors_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "cosets", "--base", "2", "10000019")
        assert code == 2
        assert "ceiling" in err
        code, _, err = run_cli(capsys, "cosets", "--base", "2", "101", "--ceiling", "50")
        assert code == 2

    def test_identity_term_cap_exits_2(self, capsys):
        # 17 distinct primes: the 2^17-term build is refused up front
        code, out, err = run_cli(capsys, "identity", "1922760350154212639070")
        assert code == 2
        assert out == ""
        assert "distinct primes" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "classify" in out and "scan" in out

    def test_deep_gate(self, capsys):
        # refused before any work: 2^32 + 1 lies above the 10^9 gate
        code, out, err = run_cli(capsys, "ordinal", "2^32+1")
        assert code == 1 and out == ""
        assert "--deep" in err
        code, out, err = run_cli(capsys, "ordinal", "2047", "--deep")
        assert code == 0
        assert "#1" in out
        assert "walked" in err

    def test_ceiling_override_via_config_file(self, capsys, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"coset_ceiling": 100}))
        code, _, err = run_cli(capsys, "--config", str(p), "cosets", "333667")
        assert code == 2
        assert "ceiling" in err

    def test_cache_persists_across_runs(self, capsys, tmp_path):
        path = str(tmp_path / "factors.txt")
        doc1 = run_json(capsys, "--cache", path, "classify", "4294967297")
        assert "4294967297 641 6700417" in (tmp_path / "factors.txt").read_text()
        doc2 = run_json(capsys, "--cache", path, "classify", "4294967297")
        assert doc1["result"] == doc2["result"]

    @pytest.mark.parametrize("case", ("directory", "missing-directory"))
    def test_unusable_cache_path_warns(self, tmp_path, case):
        # the verb runs as without a cache, and the warning goes to stderr;
        # a subprocess, because pytest records warnings instead of printing
        path = tmp_path if case == "directory" else tmp_path / "absent" / "factors.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(primover.__file__).parents[1]))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "primover.cli", *argv],
                env=env, capture_output=True, text=True,
            )

        plain = run("classify", "2047")
        cached = run("--cache", str(path), "classify", "2047")
        assert cached.returncode == 0, cached.stderr
        assert cached.stdout == plain.stdout
        assert "UserWarning" in cached.stderr and str(path) in cached.stderr
        assert plain.stderr == ""

    def test_module_entry_point_exits_with_main_status(self):
        # `python -m primover.cli` runs entrypoint(), which turns main()'s
        # return value into the process's exit status
        env = dict(os.environ, PYTHONPATH=str(Path(primover.__file__).parents[1]))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "primover.cli", *argv],
                env=env, capture_output=True, text=True,
            )

        ok = run("classify", "2047")
        assert (ok.returncode, ok.stderr) == (0, "")
        assert ok.stdout.startswith("2047 to base 2: ")
        bad = run("frobnicate", "7")
        assert (bad.returncode, bad.stdout) == (1, "")
        assert bad.stderr.startswith("usage: primover ") and "error: " in bad.stderr
        help_ = run("--help")
        assert help_.returncode == 0 and "classify" in help_.stdout

    def test_parser_declares_every_verb(self):
        parser = build_parser()
        text = parser.format_help()
        for verb in (
            "classify",
            "cosets",
            "cofactor",
            "construct",
            "ordinal",
            "scan",
            "identity",
            "bound",
        ):
            assert verb in text


# --- every setting reaches the code it governs ----------------------------
# Each check runs the CLI with the setting in the environment and shows a
# behaviour that only the setting explains.


def _check_coset_ceiling(capsys, monkeypatch, tmp_path):
    # the cofactor of 2^35 - 1 is 8727391; its verdict drops the coset count
    code, out, _ = run_cli(capsys, "cofactor", "35")
    assert code == 0 and "r = 249354" in out
    monkeypatch.setenv("PRIMOVER_COSET_CEILING", "100")
    code, out, _ = run_cli(capsys, "cofactor", "35")
    assert code == 0 and "8727391 to base 2: overpseudoprime" in out
    assert "r = " not in out
    code, out, _ = run_cli(capsys, "construct", "two-prime", "5", "7")
    assert code == 0 and "r = " not in out


def _check_rho_budget(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("PRIMOVER_RHO_BUDGET", "1")
    code, _, err = run_cli(capsys, "classify", "2^67-1")
    assert code == 2 and "budget exhausted" in err
    # 604562901 = 3 * 201520967, and only the factorization of
    # 201520966 = 2 * 10007 * 10069 under the order computation needs rho
    code, _, err = run_cli(capsys, "classify", "604562901")
    assert code == 2 and "budget exhausted for 201520966" in err


def _check_workers(capsys, monkeypatch, tmp_path):
    sizes = record_pools(monkeypatch)
    assert run_cli(capsys, "ordinal", "2047", "--workers", "2")[0] == 0
    assert sizes == [2]
    monkeypatch.setenv("PRIMOVER_WORKERS", "2")
    assert run_cli(capsys, "scan", "3000")[0] == 0
    assert sizes == [2, 2]


def _check_cache_path(capsys, monkeypatch, tmp_path):
    path = tmp_path / "factors.txt"
    monkeypatch.setenv("PRIMOVER_CACHE_PATH", str(path))
    assert run_cli(capsys, "classify", "4294967297")[0] == 0
    assert "4294967297 641 6700417" in path.read_text()


_SETTING_CHECKS = {
    "coset_ceiling": _check_coset_ceiling,
    "rho_budget": _check_rho_budget,
    "workers": _check_workers,
    "cache_path": _check_cache_path,
}


@pytest.mark.parametrize("name", [f.name for f in fields(Config)])
def test_every_setting_takes_effect(name, capsys, monkeypatch, tmp_path):
    # a new field without a check here fails, and so does a dropped one
    assert sorted(_SETTING_CHECKS) == sorted(f.name for f in fields(Config))
    _SETTING_CHECKS[name](capsys, monkeypatch, tmp_path)


def test_cached_order_does_not_outlive_its_run():
    # 604562901 = 3 * 201520967: the order of 2 mod 201520967 needs rho on
    # 201520966, so a run with a budget of 1 must stop there even after an
    # earlier call has computed that order
    classify(2, 604562901)
    with use_config(Config(rho_budget=1)):
        with pytest.raises(IncompleteFactorizationError):
            classify(2, 604562901)


def test_scan_needs_no_factoring(capsys, monkeypatch, tmp_path):
    # scan decides overpseudoprimes by the order certificate, so neither the
    # factoring budget nor the cache takes part; 158397247 = 11257 * 14071,
    # a strong pseudoprime that rho would split
    default = scan(2, 158397247)
    with use_config(Config(rho_budget=1)):
        assert scan(2, 158397247) == default
    path = tmp_path / "factors.txt"
    with use_config(Config(cache_path=str(path))):
        assert scan(2, 158397247) == default
    assert not path.exists() or path.read_text() == ""
    monkeypatch.setenv("PRIMOVER_RHO_BUDGET", "1")
    res = run_json(capsys, "scan", "158397247")["result"]
    assert (len(res["strong_pseudoprimes"]), res["overpseudoprime_count"]) == (592, 318)
