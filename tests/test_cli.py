"""Command line behavior: outputs and the documented exit-code map."""

import ast
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import subparticle
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
        assert err.startswith("config error: not valid JSON")

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "encode", "--word", "a", "--config", "/nonexistent.json")
        assert code == 3

    def test_config_file_that_is_not_utf8_cannot_be_read(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"base": "\xff"}')
        code, out, err = run(capsys, "encode", "--word", "a", "--config", str(config))
        assert (code, out) == (3, "")
        assert err.startswith("config error: cannot read config file: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_config_file_with_a_repeated_key_is_a_config_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"base": 2, "base": 10}', encoding="utf-8")
        code, out, err = run(capsys, "encode", "--word", "ab", "--config", str(config))
        assert (code, out, err) == (3, "", "config error: repeated key 'base'\n")

    def test_huge_unknown_key_in_a_config_file_is_quoted_briefly(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k" * 100_000: 1}), encoding="utf-8")
        code, out, err = run(capsys, "encode", "--word", "a", "--config", str(config))
        assert (code, out) == (3, "")
        assert err == f"config error: unknown config key(s): [{'k' * 40!r}... (100000 characters)]\n"

    @pytest.mark.parametrize("text", ["[1]", '"x"', "null"])
    def test_config_file_must_hold_an_object(self, capsys, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "encode", "--word", "a", "--config", str(config))
        assert (code, out, err) == (3, "", "config error: config file must hold a JSON object\n")

    @pytest.mark.parametrize("shape", ["[", '{"a":'])
    def test_deeply_nested_config_file_is_not_json(self, capsys, tmp_path, shape):
        config = tmp_path / "config.json"
        config.write_text(shape * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "encode", "--word", "a", "--config", str(config))
        assert (code, out) == (3, "")
        assert err.startswith("config error: not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing/run.json", "."])
    def test_out_file_that_cannot_be_written_is_an_input_error(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "encode", "--word", "ab", "--out", path)
        assert (code, out) == (2, "")
        assert err.startswith("cannot write ledger: ") and repr(path) in err  # the path in full
        assert err.count("\n") == 1

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
            f"integrity failure: stage 'decoded': recomputed code names a word of {10**30} symbols, "
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

    @pytest.mark.parametrize("shape", ["[", '{"a":'])
    def test_deeply_nested_ledger_file_is_malformed(self, capsys, tmp_path, shape):
        ledger = tmp_path / "ledger.json"
        ledger.write_text(shape * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "realize", "--ledger", str(ledger))
        assert (code, out) == (4, "")
        assert err.startswith("malformed ledger: not valid JSON: ")
        assert err.count("\n") == 1

    def test_value_nested_too_deep_to_quote_is_still_refused(self, capsys, tmp_path):
        # Just below the JSON parser's depth limit a value parses, but its
        # repr for the refusal message overflows the stack; the limit moves
        # with the caller's stack depth, so probe a wide band of depths.
        data = json.loads(self.encode_to(capsys, tmp_path, "ab").read_text(encoding="utf-8"))
        config, ledger = tmp_path / "config.json", tmp_path / "nested.json"
        encode_exits, realize_exits = set(), set()
        for depth in range(900, 1101):
            nested = "[" * depth + "]" * depth
            config.write_text('{"dims": %s}' % nested, encoding="utf-8")
            code, out, err = run(capsys, "encode", "--word", "ab", "--config", str(config))
            encode_exits.add(code)
            assert (out, err.count("\n")) == ("", 1) and err.startswith("config error: ")
            data["config"]["dims"] = "DIMS"
            ledger.write_text(json.dumps(data).replace('"DIMS"', nested), encoding="utf-8")
            code, out, err = run(capsys, "realize", "--ledger", str(ledger))
            realize_exits.add(code)
            assert (out, err.count("\n")) == ("", 1) and err.startswith("malformed ledger: ")
        assert (encode_exits, realize_exits) == ({3}, {4})

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

    @pytest.mark.parametrize(
        "expr, output",
        [
            ("(2*H)^-2", "1/4*eps^2 (Infinitesimal, st=0)"),
            ("eps^-3", "H^3 (Infinite)"),
            ("st((2)^-1 + eps)", "1/2"),
        ],
    )
    def test_negative_powers_of_monomials(self, capsys, expr, output):
        assert run(capsys, "eval", expr) == (0, output + "\n", "")

    @pytest.mark.parametrize("expr", ["(1+eps)^-1", "2^-1"])
    def test_negative_power_of_another_body_is_an_input_error(self, capsys, expr):
        code, out, err = run(capsys, "eval", expr)
        assert (code, out) == (2, "")
        message = "negative exponent requires a monomial body (eps, H, or a parenthesized monomial)"
        assert err.splitlines() == [f"error at column 1: {message}", f"  {expr}", "  ^"]

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

    def test_fail_line_of_a_huge_word_is_short(self, capsys, tmp_path):
        corpus = self.write_corpus(tmp_path, ["a" * 50_000 + "#" + "b" * 49_999])
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus))
        fail, summary = out.splitlines()
        assert (code, summary) == (1, "0/1 ok")
        assert fail.startswith(f"FAIL {'a' * 40!r}... (100000 characters): symbol not in alphabet at position 50000")
        assert len(fail.encode()) < 200

    def test_decoded_word_in_a_fail_line_is_quoted_briefly(self, capsys, tmp_path, monkeypatch):
        real = cli.run_pipeline

        def misdecoded(word, config):
            return dataclasses.replace(real(word, config), decoded="z" * 100_000)

        monkeypatch.setattr(cli, "run_pipeline", misdecoded)
        corpus = self.write_corpus(tmp_path, ["ab"])
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus))
        assert (code, out) == (1, f"FAIL 'ab': decoded to {'z' * 40!r}... (100000 characters)\n0/1 ok\n")

    def test_empty_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("", encoding="utf-8")
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus))
        assert code == 0
        assert out.strip() == "0/0 ok"

    # str.splitlines would also end a line at these, and check "a", "b" and "ab".
    @pytest.mark.parametrize("separator", ["\x85", "\u2028"])
    def test_only_a_line_end_ends_a_word(self, capsys, tmp_path, separator):
        corpus = self.write_corpus(tmp_path, [f"a{separator}b", "ab"])
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus), "--alphabet", "ab" + separator)
        assert (code, out) == (0, "2/2 ok\n")

    def test_cr_and_crlf_end_lines_and_a_blank_line_is_the_empty_word(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"ab\r\nba\rab\n\nb")
        code, out, _ = run(capsys, "roundtrip", "--corpus", str(corpus), "--alphabet", "ab")
        assert (code, out) == (0, "5/5 ok\n")

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


def test_main_is_the_one_place_a_failure_becomes_an_exit_code():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    callers = {f.name for f in functions for node in ast.walk(f)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail"}
    assert callers == {"main"}
    for f in functions:
        if f.name.startswith("_cmd_"):
            returned = {node.value for node in ast.walk(f) if isinstance(node, ast.Return)}
            assert {ast.unparse(value) for value in returned} <= {
                "EXIT_OK", "EXIT_OK if not failures else EXIT_CORPUS_FAILURE"}, f.name
    assert ast.unparse(tree).count("except (OSError, UnicodeDecodeError)") == 1


def _run_module(argv, tmp_path, unbuffered, **kwargs):
    """``python -m subparticle`` with ``PYTHONUNBUFFERED`` set to ``unbuffered``, or removed if it is None."""
    src = pathlib.Path(subparticle.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(src), **({} if unbuffered is None else {"PYTHONUNBUFFERED": unbuffered}))
    return subprocess.run([sys.executable, "-m", "subparticle", *argv], cwd=tmp_path, env=env, timeout=60, **kwargs)


# The interpreter flushes stdout and stderr again at exit, and a buffered
# stream that cannot take its data would turn any exit code into 120.
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, expected",
    [(["eval", "1+"], 2), (["realize", "--ledger", "no-such-ledger.json"], 4), (["encode", "--word", "ab"], 7)],
)
def test_exit_code_holds_when_stdout_and_stderr_are_a_closed_pipe(argv, expected, unbuffered, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write now fails with a broken pipe
    try:
        done = _run_module(argv, tmp_path, unbuffered, stdout=write_end, stderr=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == expected


@pytest.mark.parametrize("argv, expected", [(["encode", "--word", "ab"], 0), (["eval", "1+"], 2)])
def test_exit_code_holds_when_stdout_was_never_open(argv, expected, tmp_path):
    # With file descriptor 1 closed, Python starts with sys.stdout None, and print writes nothing.
    done = _run_module(argv, tmp_path, None, preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True)
    assert done.returncode == expected
    assert "Traceback" not in done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_output_to_a_full_device_is_an_internal_error(unbuffered, tmp_path):
    with open("/dev/full", "w") as full:
        done = _run_module(["encode", "--word", "ab"], tmp_path, unbuffered, stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 7
    assert done.stderr.startswith("internal error: OSError: ") and done.stderr.count("\n") == 1


# Fuzzed command lines: well-formed for argparse, with fuzzed values, file
# names relative to one directory.  Every one gives a documented exit code
# and, on failure, one stderr line or the 3-line caret block, never a
# traceback.  One parser serves every call, so this also checks its reuse.
SOUP = st.lists(st.sampled_from(["0", "1", "2", "H", "eps", "st", "(", ")", "+", "-", "*", "/", "^"]), max_size=16)
FACTORS = st.tuples(
    st.sampled_from(["0", "1", "2", "1/2", "H", "eps", "-eps", "(H + 1)", "(1 - eps)"]),
    st.sampled_from(["", " ^ 0", " ^ 1", " ^ 2", " ^ -1"]),
).map("".join)
SUMS = st.lists(st.lists(FACTORS, min_size=1, max_size=3).map(" * ".join), min_size=1, max_size=3).map(" + ".join)
EXPRESSIONS = SOUP.map(" ".join) | SUMS | SUMS.map("st({})".format)  # every exponent literal is 0-2 or -1
SMALL = st.integers(min_value=-1, max_value=12)
SOMETIMES = st.sampled_from([False, False, True])
WORDS = st.text(alphabet="abz xyA-é", max_size=12)
LEDGER_FILES = ["genuine.json", "tampered.json", "bad.json", "no.json"]


@st.composite
def command_lines(draw):
    """A command line, and the corpus file's lines."""
    command = draw(st.sampled_from(["encode", "realize", "eval", "roundtrip"]))
    corpus = draw(st.lists(WORDS, max_size=4))
    if command == "realize":
        return [command, "--ledger=" + draw(st.sampled_from(LEDGER_FILES))], corpus
    if command == "eval":
        return [command, f"--base={draw(SMALL)}", "--", draw(EXPRESSIONS)], corpus
    if command == "encode":
        argv = [command, "--word=" + draw(WORDS)]
    else:
        argv = [command, "--corpus=" + draw(st.sampled_from(["corpus.txt", "no.txt"]))]
    for flag in ("--base", "--dims", "--coord"):
        if draw(SOMETIMES):
            argv.append(f"{flag}={draw(SMALL)}")
    if draw(SOMETIMES):
        argv.append("--alphabet=" + draw(st.text(alphabet="abz -é", max_size=5)))
    config = draw(st.sampled_from([None, None, "config.json", "bad.json", "no.json"]))
    if config:
        argv.append("--config=" + config)
    if command == "encode" and draw(st.booleans()):
        argv.append("--out=out.json")
    return argv, corpus


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        assert main(["encode", "--word", "ab", "--out", "genuine.json"]) == 0
        data = json.loads((root / "genuine.json").read_text(encoding="utf-8"))
        data["intermediate"][2][0][1] = "30"
        (root / "tampered.json").write_text(json.dumps(data), encoding="utf-8")
        (root / "bad.json").write_text("{nope", encoding="utf-8")
        (root / "config.json").write_text('{"base": 2, "dims": 5}', encoding="utf-8")
        yield root


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_fuzzed_command_lines_give_documented_exits(fuzz_dir, case):
    argv, corpus = case
    (fuzz_dir / "corpus.txt").write_text("\n".join(corpus), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in range(8)
    assert "Traceback" not in err and len(err.encode()) < 1024
    lines = err.splitlines()
    if code in (0, 1):
        assert err == ""
    else:
        assert len(lines) == 1 or (len(lines) == 3 and lines[0].startswith("error at column ") and lines[1].isprintable())


# The caret block echoes each character of the window as one printable
# column, so the caret sits under the character that column N names even
# when the window holds tabs, CR, LF or other characters that do not print.
def eval_error(expr):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--", expr])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "expr, block",
    [
        ("1\t+\t* 2", ["error at column 5: unexpected token '*'", "  1 + * 2", "      ^"]),
        ("1 +\n* 2", ["error at column 5: unexpected token '*'", "  1 + * 2", "      ^"]),
        ("1 +\f2", ["error at column 4: unexpected character '\\x0c'", "  1 + 2", "     ^"]),
    ],
)
def test_caret_block_renders_whitespace_as_spaces(expr, block):
    code, err = eval_error(expr)
    assert code == 2
    assert err.splitlines() == block


@settings(deadline=None)
@given(st.text(alphabet="1+*H() \t\r\n\x0b\x0c\x00\x1b\x7f\x85\xa0\u2028", max_size=120))
def test_caret_sits_under_the_offending_character(expr):
    code, err = eval_error(expr)
    if code != 2:
        return
    first, shown, caret = err.splitlines()  # str.splitlines also splits at \x0b, \x0c, \x85 and more
    assert shown.isprintable() and caret.strip() == "^"
    index = int(first.split()[3][:-1]) - 1
    if index < len(expr):
        assert shown[len(caret) - 1] == (expr[index] if expr[index].isprintable() else " ")
