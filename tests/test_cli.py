"""Command line behavior: outputs and the documented exit-code map."""

import json
import random
import sys

import pytest

from subparticle import cli
from subparticle.cli import main
from subparticle.codec import DEFAULT_ALPHABET

from oracles import divmod_decimal, random_word


def int_max_str_digits():
    get = getattr(sys, "get_int_max_str_digits", None)  # absent before 3.10.7
    return get() if get else None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_encode_to_stdout(self, capsys):
        code, out, err = run(capsys, "encode", "--word", "a")
        assert code == 0
        data = json.loads(out)
        assert data["code"] == "1"
        assert data["realized"][2] == "1"
        assert data["decoded"] == "a"
        assert err == ""

    def test_encode_empty_word_flags_degenerate_count(self, capsys):
        code, out, _ = run(capsys, "encode", "--word", "")
        assert code == 0
        data = json.loads(out)
        assert data["code"] == "0"
        assert data["lambda"]["degenerate"] is True
        assert data["lambda"]["infinite"] is False
        assert data["decoded"] == ""

    def test_encode_invalid_symbol(self, capsys):
        code, out, err = run(capsys, "encode", "--word", "Ω")
        assert code == 2
        assert "symbol not in alphabet at position 0" in err
        assert out == ""

    def test_encode_config_violation(self, capsys):
        code, _, err = run(capsys, "encode", "--word", "a", "--dims", "2")
        assert code == 3
        assert "config error" in err
        code, _, err = run(capsys, "encode", "--word", "a", "--coord", "9")
        assert code == 3

    def test_encode_to_file(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        code, out, _ = run(capsys, "encode", "--word", "abc", "--out", str(target))
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["decoded"] == "abc"

    def test_flags_override_config_file(self, capsys, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"base": 2, "dims": 5, "alphabet": "abcd"}), encoding="utf-8")
        code, out, _ = run(
            capsys, "encode", "--word", "dd", "--config", str(config_file), "--dims", "6"
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["base"] == 2
        assert data["config"]["dims"] == 6
        assert data["config"]["alphabet"] == "abcd"
        assert data["decoded"] == "dd"

    def test_unknown_config_file_key(self, capsys, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"bases": 2}), encoding="utf-8")
        code, _, err = run(capsys, "encode", "--word", "a", "--config", str(config_file))
        assert code == 3
        assert "unknown config key" in err

    def test_config_file_number_past_the_int_str_limit(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"dims": ' + "1" * 5000 + "}", encoding="utf-8")
        code, _, err = run(capsys, "encode", "--word", "a", "--config", str(config))
        assert code == 3
        assert err.startswith("config error: config file is not valid JSON")

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "encode", "--word", "a", "--config", "/nonexistent.json")
        assert code == 3

    def test_bundling_on_negative_sign_coordinate_still_decodes(self, capsys):
        code, out, _ = run(capsys, "encode", "--word", "ab", "--coord", "4")
        assert code == 0
        data = json.loads(out)
        assert data["bundle_sign"] == "-"
        assert data["realized"][3] == "-29"
        assert data["decoded"] == "ab"


class TestRealize:
    def encode_to(self, capsys, tmp_path, word="a"):
        target = tmp_path / "ledger.json"
        assert main(["encode", "--word", word, "--out", str(target)]) == 0
        capsys.readouterr()
        return target

    def test_realize_prints_recomputed_word(self, capsys, tmp_path):
        target = self.encode_to(capsys, tmp_path, "a")
        code, out, _ = run(capsys, "realize", "--ledger", str(target))
        assert code == 0
        assert out == "a\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "realize", "--ledger", "/nonexistent/ledger.json")
        assert code == 4
        assert "cannot read ledger" in err

    def test_malformed_json(self, capsys, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "realize", "--ledger", str(target))
        assert code == 4
        assert "malformed ledger" in err

    def test_schema_violation(self, capsys, tmp_path):
        target = self.encode_to(capsys, tmp_path)
        data = json.loads(target.read_text(encoding="utf-8"))
        del data["intermediate"]
        target.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, "realize", "--ledger", str(target))
        assert code == 4

    def test_tampered_intermediate_is_an_integrity_failure(self, capsys, tmp_path):
        target = self.encode_to(capsys, tmp_path, "a")
        data = json.loads(target.read_text(encoding="utf-8"))
        data["intermediate"][2] = [[0, "2", "1"]]  # now decodes to "b"
        target.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, "realize", "--ledger", str(target))
        assert code == 5
        assert "integrity failure" in err

    def test_tampered_decoded_field_is_an_integrity_failure(self, capsys, tmp_path):
        target = self.encode_to(capsys, tmp_path, "a")
        data = json.loads(target.read_text(encoding="utf-8"))
        data["decoded"] = "b"
        target.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, "realize", "--ledger", str(target))
        assert code == 5

    def test_ten_thousand_symbol_word_round_trips(self, capsys, tmp_path):
        before = int_max_str_digits()
        rng = random.Random(10_000)
        word = "".join(rng.choice(DEFAULT_ALPHABET) for _ in range(10_000))
        target = tmp_path / "ledger.json"
        code, out, err = run(capsys, "encode", "--word", word, "--out", str(target))
        assert (code, out, err) == (0, "", "")
        assert len(json.loads(target.read_text(encoding="utf-8"))["code"]) > 14_000
        code, out, err = run(capsys, "realize", "--ledger", str(target))
        assert (code, out, err) == (0, word + "\n", "")
        assert int_max_str_digits() == before

    def test_unary_ledger_with_a_huge_code_is_an_integrity_failure(self, capsys, tmp_path):
        # The code names a word of 10^30 symbols; it must be refused from its
        # length alone, before any symbol is spelled.
        target = tmp_path / "ledger.json"
        assert main(["encode", "--word", "x", "--alphabet", "x", "--out", str(target)]) == 0
        capsys.readouterr()
        data = json.loads(target.read_text(encoding="utf-8"))
        code = str(10**30)
        data["code"] = data["sequence_head"] = data["realized"][2] = code
        data["lambda"]["value"] = data["intermediate"][1] = [[1, code, "1"]]
        data["intermediate"][2] = [[0, code, "1"]]
        target.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "realize", "--ledger", str(target))
        assert (code, out) == (5, "")
        assert err == (
            f"integrity failure: recomputed code names a word of {10**30} symbols, "
            "but the stored decoded word has 1\n"
        )

    def test_huge_malformed_field_gives_a_short_message(self, capsys, tmp_path):
        target = self.encode_to(capsys, tmp_path, "ab")
        data = json.loads(target.read_text(encoding="utf-8"))
        data["code"] = "0" + "1" * 20000
        target.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "realize", "--ledger", str(target))
        assert (code, out) == (4, "")
        assert len(err.encode()) < 512
        assert "(20001 characters)" in err

    def test_number_past_the_int_str_limit_is_a_malformed_ledger(self, capsys, tmp_path):
        target = self.encode_to(capsys, tmp_path, "ab")
        text = target.read_text(encoding="utf-8").replace('"version": "1"', '"version": ' + "1" * 5000)
        target.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "realize", "--ledger", str(target))
        assert (code, out) == (4, "")
        assert err.startswith("malformed ledger: not valid JSON")

    def test_undecodable_ledger_file(self, capsys, tmp_path):
        target = tmp_path / "ledger.json"
        target.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "realize", "--ledger", str(target))
        assert code == 4
        assert "cannot read ledger" in err

    def test_realize_recovers_every_encoded_word(self, capsys, tmp_path):
        rng = random.Random(88)
        target = tmp_path / "ledger.json"
        for _ in range(50):
            word = random_word(rng, DEFAULT_ALPHABET, 10)
            assert main(["encode", "--word", word, "--out", str(target)]) == 0
            code, out, _ = run(capsys, "realize", "--ledger", str(target))
            assert code == 0
            assert out == word + "\n"


class TestEval:
    def test_standard_part(self, capsys):
        code, out, _ = run(capsys, "eval", "st(5 + 3*eps)")
        assert code == 0
        assert out == "5\n"

    def test_finite_appreciable_report(self, capsys):
        code, out, _ = run(capsys, "eval", "42*H*eps")
        assert code == 0
        assert out == "42 (FiniteAppreciable, st=42)\n"

    def test_infinitesimal_report(self, capsys):
        code, out, _ = run(capsys, "eval", "3*eps")
        assert code == 0
        assert out == "3*eps (Infinitesimal, st=0)\n"

    def test_infinite_report(self, capsys):
        code, out, _ = run(capsys, "eval", "H + 2")
        assert code == 0
        assert out == "H + 2 (Infinite)\n"

    def test_st_of_infinite_value(self, capsys):
        code, _, err = run(capsys, "eval", "st(H)")
        assert code == 6
        assert "standard part undefined: infinite value" in err

    def test_parse_error_is_column_anchored(self, capsys):
        code, _, err = run(capsys, "eval", "st(H")
        assert code == 2
        lines = err.splitlines()
        assert lines[0] == "error at column 5: expected ')'"
        assert lines[1] == "  st(H"
        assert lines[2] == "      ^"

    def test_eval_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "2^-1")
        assert code == 2
        assert "error at column 1" in err

    def test_big_power_prints_exactly(self, capsys):
        code, out, err = run(capsys, "eval", "2^20000")
        assert (code, err) == (0, "")
        assert out == divmod_decimal(2**20000) + " (FiniteAppreciable, st=" + divmod_decimal(2**20000) + ")\n"

    def test_five_thousand_digit_exponent_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "eval", "2^" + "1" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error at column 3: exponent exceeds the limit of 100000\n")

    def test_exponent_just_past_the_limit_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "eval", "eps^-100001")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == "error at column 6: exponent exceeds the limit of 100000"

    def test_five_thousand_digit_literal_prints_exactly(self, capsys):
        literal = "9" + "0123456789" * 500
        code, out, err = run(capsys, "eval", f"st({literal} + eps)")
        assert (code, out, err) == (0, literal + "\n", "")
        code, out, err = run(capsys, "eval", f"{literal}*H")
        assert (code, out, err) == (0, literal + "*H (Infinite)\n", "")

    def test_base_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "st(7*H*eps)", "--base", "2")
        assert code == 0
        assert out == "7\n"
        code, _, err = run(capsys, "eval", "1", "--base", "1")
        assert code == 3


class TestRoundtrip:
    def write_corpus(self, tmp_path, lines):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return corpus

    def test_all_pass(self, capsys, tmp_path):
        corpus = self.write_corpus(tmp_path, ["alpha", "beta", "gamma ray"])
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus))
        assert code == 0
        assert out.strip().endswith("3/3 ok")

    def test_hundred_word_corpus(self, capsys, tmp_path):
        rng = random.Random(17)
        corpus = self.write_corpus(tmp_path, [random_word(rng, DEFAULT_ALPHABET, 12) for _ in range(100)])
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus))
        assert code == 0
        assert out.strip() == "100/100 ok"

    def test_invalid_symbol_counts_as_failure(self, capsys, tmp_path):
        corpus = self.write_corpus(tmp_path, ["alpha", "badéword", "gamma"])
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus))
        assert code == 1
        assert "2/3 ok" in out
        assert "symbol not in alphabet" in out

    def test_empty_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus))
        assert code == 0
        assert out.strip() == "0/0 ok"

    def test_missing_corpus(self, capsys):
        code, _, err = run(capsys, "roundtrip", "--corpus", "/nonexistent.txt")
        assert code == 2

    def test_undecodable_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"ab\n\xff\n")
        code, _, err = run(capsys, "roundtrip", "--corpus", str(corpus))
        assert code == 2
        assert "cannot read corpus" in err

    def test_config_flags_apply(self, capsys, tmp_path):
        corpus = self.write_corpus(tmp_path, ["abba", "baab"])
        code, out, _ = run(
            capsys, "roundtrip", "--corpus", str(corpus), "--alphabet", "ab", "--base", "2"
        )
        assert code == 0
        assert "2/2 ok" in out


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_eval_reads_an_expression_after_double_dash(capsys):
    code, out, err = run(capsys, "eval", "--", "-H")
    assert (code, out, err) == (0, "-H (Infinite)\n", "")


class TestLastResort:
    def raise_from_eval(self, monkeypatch, exc):
        def command(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_eval", command)

    def test_unmapped_exception_is_exit_7_on_one_line(self, capsys, monkeypatch):
        self.raise_from_eval(monkeypatch, RuntimeError("boom\nsecond line " + "x" * 5000))
        code, out, err = run(capsys, "eval", "1")
        assert (code, out) == (7, "")
        assert err.startswith("internal error: RuntimeError: 'boom\\nsecond line ")
        assert err.count("\n") == 1 and len(err.encode()) < 512
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(3)])
    def test_interrupt_and_exit_pass_through(self, capsys, monkeypatch, exc):
        self.raise_from_eval(monkeypatch, exc)
        with pytest.raises(type(exc)):
            main(["eval", "1"])
