"""Config and ledger serialization tests."""

import dataclasses
import hashlib
import json
import random
from collections import UserList
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subparticle.engine as engine
import subparticle.ledger as ledger_module
import subparticle.pipeline as pipeline
from subparticle.cli import main
from subparticle.codec import DEFAULT_ALPHABET
from subparticle.engine import IntermediateSubparticle
from subparticle.hyperreal import Hypernatural, Hyperreal, lambda_for_code
from subparticle.ledger import LEDGER_VERSION, Config, Ledger, LedgerError
from subparticle.pipeline import IntegrityError, recompute_decoded, run_pipeline, verify_ledger

from oracles import divmod_decimal, expected_document, ledger_document, random_word, shortlex_words


class TestConfig:
    def test_defaults(self):
        config = Config()
        assert config.base == 10
        assert config.dims == 8
        assert config.bundle_coordinate == 3
        assert config.quality_signs == "+-+-+-"
        assert config.bundle_sign == 1

    def test_signs_derived_for_custom_dims(self):
        assert Config(dims=3).quality_signs == "+"
        assert Config(dims=5).quality_signs == "+-+"

    def test_sign_tuple_is_parsed_once_from_the_string(self):
        config = Config(dims=6, quality_signs="--++")
        assert config.particle.signs == (-1, -1, 1, 1)
        assert config.bundle_sign == -1
        assert Config().particle.signs == (1, -1, 1, -1, 1, -1)
        # The particle and its bundled sign are derived, so they take no part in equality.
        assert Config(dims=5) == Config(dims=5, quality_signs="+-+")
        assert "signs=(" not in repr(Config()) and "bundle_sign" not in repr(Config())
        assert not hasattr(config, "signs")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 1},
            {"dims": 2},
            {"alphabet": ""},
            {"alphabet": "abca"},
            {"bundle_coordinate": 2},
            {"bundle_coordinate": 9},
            {"quality_signs": "++"},
            {"quality_signs": "+-x-+-"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Config(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            Config.from_dict({"base": 10, "mystery": 1})

    def test_dict_roundtrip(self):
        config = Config(base=2, dims=5, alphabet="abcd", bundle_coordinate=4, quality_signs="-+-")
        assert Config.from_dict(config.to_dict()) == config
        assert config.bundle_sign == 1

    def test_parsed_configs_are_shared(self):
        data = Config(base=2, dims=32, bundle_coordinate=4).to_dict()
        assert Config.from_dict(data) is Config.from_dict(dict(data))
        text = run_pipeline("ab", Config.from_dict(data)).to_json()
        assert Ledger.from_json(text).config is Ledger.from_json(text).config

    def test_configs_built_from_flags_are_shared(self):
        assert Config.from_dict({}) is Config.from_dict({"base": 10})  # spc encode with no --config and no flags

    @pytest.mark.parametrize("key", ["base", "dims", "alphabet", "bundle_coordinate", "quality_signs"])
    @pytest.mark.parametrize("bad", [[1], {"a": 1}, True, 10.0, 3.0, None])
    def test_inexact_settings_are_ledger_errors_after_a_good_parse(self, key, bad, tmp_path, capsys):
        data = run_pipeline("ab").to_dict()
        Ledger.from_dict(data)  # the good config is in the memo now; 10.0 and True must still miss it
        data["config"][key] = bad
        with pytest.raises(LedgerError, match="^invalid config: "):
            Ledger.from_dict(data)
        target = tmp_path / "ledger.json"
        target.write_text(json.dumps(data), encoding="utf-8")
        assert main(["realize", "--ledger", str(target)]) == 4
        assert capsys.readouterr().err.startswith("malformed ledger: invalid config: ")


class TestLedgerRoundTrip:
    def test_json_roundtrip_is_structural_identity(self):
        ledger = run_pipeline("hello world")
        assert Ledger.from_json(ledger.to_json()) == ledger

    def test_roundtrip_for_empty_word(self):
        ledger = run_pipeline("")
        assert ledger.code == 0
        assert ledger.count.is_degenerate
        assert Ledger.from_json(ledger.to_json()) == ledger

    def test_roundtrip_with_custom_config(self):
        config = Config(base=2, dims=6, alphabet="xyz ", bundle_coordinate=4, quality_signs="-+-+")
        ledger = run_pipeline("zzy x", config)
        assert ledger.decoded == "zzy x"
        assert ledger.config.bundle_sign == 1
        assert Ledger.from_json(ledger.to_json()) == ledger

    def test_emitted_fields(self):
        data = run_pipeline("ab").to_dict()
        assert data["version"] == LEDGER_VERSION
        assert data["code"] == data["sequence_head"] == "29"
        assert data["lambda"]["value"] == [[1, "29", "1"]]
        assert data["lambda"]["infinite"] is True
        assert data["lambda"]["degenerate"] is False
        assert data["bundle_sign"] == "+"
        assert data["realized"] == ["0", "0", "29", "0", "0", "0", "0", "0"]
        assert data["decoded"] == "ab"

    def test_negative_sign_coordinate_realizes_negated(self):
        config = Config(bundle_coordinate=4)  # default signs make coordinate 4 negative
        ledger = run_pipeline("ab", config)
        assert ledger.config.bundle_sign == -1
        assert not hasattr(ledger, "bundle_sign")
        assert ledger.realized[3] == Fraction(-29)
        assert ledger.decoded == "ab"
        assert Ledger.from_json(ledger.to_json()) == ledger


class TestLedgerValidation:
    def base_dict(self):
        return run_pipeline("ab").to_dict()

    def rejects(self, data, fragment):
        with pytest.raises(LedgerError) as info:
            Ledger.from_dict(data)
        assert fragment in str(info.value)

    def test_not_json(self):
        with pytest.raises(LedgerError):
            Ledger.from_json("{nope")

    def test_not_an_object(self):
        with pytest.raises(LedgerError):
            Ledger.from_json("[1, 2]")

    @pytest.mark.parametrize("shape", ["[", '{"a":'])
    def test_nesting_past_the_stack_is_not_json(self, shape):
        with pytest.raises(LedgerError) as info:
            Ledger.from_json(shape * 100_000)
        assert str(info.value).startswith("not valid JSON: ")

    def test_missing_field(self):
        data = self.base_dict()
        del data["realized"]
        self.rejects(data, "missing ledger field")

    def test_unknown_field(self):
        data = self.base_dict()
        data["extra"] = 1
        self.rejects(data, "unknown ledger field")

    def test_missing_field_is_named_before_an_unknown_one(self):
        data = self.base_dict()
        del data["realized"]
        data["extra"] = 1
        with pytest.raises(LedgerError, match=r"^missing ledger field\(s\): \['realized'\]$"):
            Ledger.from_dict(data)

    def test_lambda_with_an_extra_key(self):
        data = self.base_dict()
        data["lambda"]["extra"] = 1
        with pytest.raises(LedgerError, match="^lambda must be an object with value, infinite, and degenerate fields$"):
            Ledger.from_dict(data)

    def test_sequence_head_with_a_leading_zero(self):
        data = self.base_dict()
        data["sequence_head"] = "029"
        with pytest.raises(LedgerError, match="^sequence_head must be a decimal string of a natural number, got '029'$"):
            Ledger.from_dict(data)

    def test_unsupported_version(self):
        data = self.base_dict()
        data["version"] = "2"
        self.rejects(data, "unsupported ledger version")

    def test_sequence_head_must_equal_code(self):
        data = self.base_dict()
        data["sequence_head"] = "30"
        self.rejects(data, "sequence_head must equal code")

    def test_code_must_be_digit_string(self):
        data = self.base_dict()
        data["code"] = 29
        self.rejects(data, "code")

    def test_lambda_flags_must_match_value(self):
        data = self.base_dict()
        data["lambda"]["infinite"] = False
        self.rejects(data, "lambda flags")

    def test_lambda_must_be_natural(self):
        data = self.base_dict()
        data["lambda"]["value"] = [[-1, "1", "1"]]
        self.rejects(data, "invalid lambda")

    def test_coordinate_lists_must_match_dims(self):
        data = self.base_dict()
        data["intermediate"] = data["intermediate"][:-1]
        self.rejects(data, "intermediate")

    def test_bad_triple_in_coordinates(self):
        data = self.base_dict()
        data["ultrasubparticle"][2] = [[0, "x", "1"]]
        self.rejects(data, "ultrasubparticle coordinate 3")

    def test_realized_strings_validated(self):
        data = self.base_dict()
        data["realized"][2] = "1.5"
        self.rejects(data, "realized coordinate 3")

    def test_realized_suppressed_slots(self):
        data = self.base_dict()
        data["realized"][0] = "1"
        self.rejects(data, "must be zero")

    def test_bundle_sign_consistency(self):
        data = self.base_dict()
        data["bundle_sign"] = "-"
        self.rejects(data, "bundle_sign")

    def test_invalid_config_inside_ledger(self):
        data = self.base_dict()
        data["config"]["dims"] = 2
        self.rejects(data, "invalid config")


# A zero hyperreal is written as [] and nothing else reads as one.  Each place
# holds a zero: where it sits, the word whose ledger it is, and the field the
# message names.
ZERO_PLACES = [
    (("ultrasubparticle", 0), "ab", "invalid ultrasubparticle coordinate 1"),
    (("intermediate", 0), "ab", "invalid intermediate coordinate 1"),
    (("lambda", "value"), "", "invalid lambda"),
]


@pytest.mark.parametrize("place, word, field", ZERO_PLACES, ids=[p[0][0] for p in ZERO_PLACES])
@pytest.mark.parametrize("value", ["", {}, 0, None, "[]"], ids=repr)
def test_zero_hyperreal_is_only_the_empty_list(place, word, field, value, tmp_path, capsys):
    data = run_pipeline(word).to_dict()
    outer, inner = place
    assert data[outer][inner] == []
    data[outer][inner] = value
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["realize", "--ledger", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"malformed ledger: {field}: a hyperreal must be a list of triples, got {value!r}\n"


class TestRecompute:
    def test_recompute_agrees_on_emitted_ledgers(self):
        for word in ("", "a", "zebra crossing", "qq"):
            ledger = run_pipeline(word)
            assert recompute_decoded(ledger) == word

    def test_tampered_intermediate_changes_the_recomputed_word(self):
        ledger = run_pipeline("ab")
        data = ledger.to_dict()
        data["intermediate"][2] = [[0, "30", "1"]]  # bundled slot now says 30, not 29
        tampered = Ledger.from_dict(data)
        assert recompute_decoded(tampered) == "ac"
        assert tampered.decoded == "ab"

    def test_non_natural_realized_value_is_an_integrity_error(self):
        ledger = run_pipeline("ab")
        data = ledger.to_dict()
        data["intermediate"][2] = [[0, "1", "2"]]  # realizes to 1/2
        with pytest.raises(IntegrityError, match="^stage 'decoded': "):
            recompute_decoded(Ledger.from_dict(data))

    def test_unrealizable_intermediate_is_an_integrity_error(self):
        ledger = run_pipeline("ab")
        data = ledger.to_dict()
        data["intermediate"][3] = [[1, "1", "1"]]  # an unbundled infinite slot
        with pytest.raises(IntegrityError, match="^stage 'realized': "):
            recompute_decoded(Ledger.from_dict(data))


def test_base_two_and_ten_ledgers_agree_on_visible_fields():
    for word in ("", "a", "hello world"):
        two = run_pipeline(word, Config(base=2))
        ten = run_pipeline(word, Config(base=10))
        assert two.code == ten.code
        assert two.realized == ten.realized
        assert two.decoded == ten.decoded
        assert two.to_dict()["code"] == ten.to_dict()["code"]
        assert two.to_dict()["realized"] == ten.to_dict()["realized"]


# Where each decimal field sits in the ledger of "ab" (code 29); code and
# sequence_head must agree, so they are set together.
FIELD_PATHS = {
    "code": [("code",), ("sequence_head",)],
    "lambda_num": [("lambda", "value", 0, 1)],
    "lambda_den": [("lambda", "value", 0, 2)],
    "coord_num": [("intermediate", 2, 0, 1)],
    "coord_den": [("intermediate", 2, 0, 2)],
    "realized": [("realized", 2)],
}
# Whitespace, a trailing newline, "+", "_", non-ASCII digits and non-strings
# are refused everywhere; leading zeros only where the field allowed them
# before.  Every accepted string names the stored value, 29 or 1.
_REFUSED = ["29\n", " 29", "29 ", "+29", "2_9", "٢٩", "２９", "", "29.0", None, 29]
_DEN_REFUSED = ["1\n", " 1", "+1", "0", "00", "-1", "١", "1/1", "", None, 1]
REFUSED = {
    "code": _REFUSED + ["029", "-29", "29/1"],
    "lambda_num": _REFUSED + ["29/1"],
    "lambda_den": _DEN_REFUSED,
    "coord_num": _REFUSED + ["29/1"],
    "coord_den": _DEN_REFUSED,
    "realized": _REFUSED + ["29/0", "29/-1", "29/1\n"],
}
ACCEPTED = {
    "code": ["29"],
    "lambda_num": ["29", "029"],
    "lambda_den": ["1", "01"],
    "coord_num": ["29", "029"],
    "coord_den": ["1", "01"],
    "realized": ["29", "029", "29/1", "58/2"],
}
FIELD_CASES = [(field, text, False) for field, texts in REFUSED.items() for text in texts] + [
    (field, text, True) for field, texts in ACCEPTED.items() for text in texts
]


@pytest.mark.parametrize("field,text,accepted", FIELD_CASES, ids=[f"{f}-{t!r}" for f, t, _ in FIELD_CASES])
def test_decimal_fields_accept_only_their_forms(field, text, accepted):
    original = run_pipeline("ab")
    data = original.to_dict()
    for path in FIELD_PATHS[field]:
        *parents, last = path
        target = data
        for key in parents:
            target = target[key]
        target[last] = text
    if accepted:
        assert Ledger.from_dict(data) == original
    else:
        with pytest.raises(LedgerError):
            Ledger.from_dict(data)


# sha256 of the ledger JSON of the acceptance corpus, one ledger a line, as
# the loop codec and str()-based serialization wrote it: ledger format v1
# must stay byte-identical.  The last config, whose alphabet needs JSON
# escapes, was added later; its ledgers were hashed by the writer that built
# the config block for each ledger, before the block was built once a config.
CORPUS_LEDGER_SHA256 = "b7fabdb751f7a094cbaf68bbf27b2e44fb2334da4e8989cb3967818bba3f3813"


def test_acceptance_corpus_ledgers_are_byte_identical():
    digest = hashlib.sha256()
    small = Config(alphabet="abcd")
    for word in shortlex_words("abcd", 4):
        digest.update(run_pipeline(word, small).to_json().encode() + b"\n")
    rng = random.Random(424242)
    big = [random_word(rng, DEFAULT_ALPHABET, 12) for _ in range(1000)]
    for config in (Config(), Config(base=2, dims=32, bundle_coordinate=4)):
        for word in big:
            digest.update(run_pipeline(word, config).to_json().encode() + b"\n")
    escaped = Config(base=2, dims=3, alphabet='"\\\u00e9\x07a', quality_signs="-")  # a config block JSON escapes
    for word in shortlex_words(escaped.alphabet, 3):
        digest.update(run_pipeline(word, escaped).to_json().encode() + b"\n")
    assert digest.hexdigest() == CORPUS_LEDGER_SHA256


def test_long_word_ledger_round_trips():
    rng = random.Random(9)
    word = "".join(rng.choice(DEFAULT_ALPHABET) for _ in range(6000))
    ledger = run_pipeline(word, Config(bundle_coordinate=4))
    text = ledger.to_json()
    data = json.loads(text)
    assert data["code"] == divmod_decimal(ledger.code)
    assert data["realized"][3] == divmod_decimal(-ledger.code)
    loaded = Ledger.from_json(text)
    assert loaded == ledger
    assert recompute_decoded(loaded) == word
    assert loaded.to_json() == text


# Symbols JSON must escape or write as \u escapes, among plain ones.
_SYMBOLS = '"\\\n\u00e9\U0001f600ab z0'


@st.composite
def random_ledgers(draw):
    dims = draw(st.integers(min_value=3, max_value=40))
    alphabet = "".join(draw(st.lists(st.sampled_from(_SYMBOLS), min_size=1, unique=True)))
    config = Config(
        base=draw(st.sampled_from([2, 10, 97])),
        dims=dims,
        alphabet=alphabet,
        bundle_coordinate=draw(st.integers(min_value=3, max_value=dims)),
        quality_signs=draw(st.text(alphabet="+-", min_size=dims - 2, max_size=dims - 2)),
    )
    return run_pipeline(draw(st.text(alphabet=alphabet, max_size=80)), config)


@settings(deadline=None)
@given(random_ledgers())
@example(run_pipeline("", Config(base=2, dims=3)))
@example(run_pipeline(_SYMBOLS * 8, Config(base=97, dims=40, alphabet=_SYMBOLS, bundle_coordinate=40)))
def test_writer_matches_the_naive_document(ledger):
    assert ledger.to_json() == json.dumps(ledger_document(ledger), indent=2)


def test_emitter_matches_json_dumps_on_every_ledger_shape():
    ledgers = [run_pipeline(word, config) for word in ("", "a", "zebra crossing")
               for config in (Config(), Config(base=2, dims=32, bundle_coordinate=4), Config(dims=3))]
    ledgers.append(run_pipeline("\u00e9\U0001f600\"\\\n", Config(alphabet="\u00e9\U0001f600\"\\\n")))
    for ledger in ledgers:
        assert ledger.to_json() == json.dumps(ledger.to_dict(), indent=2)


@pytest.mark.parametrize("code", [True, -1])
def test_writer_refuses_a_code_that_is_not_natural(code):
    ledger = dataclasses.replace(run_pipeline("a"), code=code)
    with pytest.raises(ValueError, match=f"^code must be a nonnegative integer, got {code}$"):
        ledger.to_json()


# json.loads keeps the last of two equal keys, so a ledger holding both would
# pass as evidence for one while it also claims the other.
@pytest.mark.parametrize(
    "field, repeated, key",
    [
        ('"word": "ab"', '"word": "zz",\n  "word": "ab"', "word"),
        ('"base": 10', '"base": 10,\n    "base": 10', "base"),
        ('"infinite": true', '"infinite": false,\n    "infinite": true', "infinite"),
    ],
    ids=["top level", "config", "lambda"],
)
def test_a_repeated_key_is_a_malformed_ledger(capsys, tmp_path, field, repeated, key):
    text = run_pipeline("ab").to_json()
    assert text.count(field) == 1
    text = text.replace(field, repeated)
    with pytest.raises(LedgerError, match=f"^repeated key '{key}'$"):
        Ledger.from_json(text)
    target = tmp_path / "ledger.json"
    target.write_text(text, encoding="utf-8")
    assert main(["realize", "--ledger", str(target)]) == 4
    assert capsys.readouterr() == ("", f"malformed ledger: repeated key '{key}'\n")


def test_number_past_the_int_str_limit_is_a_malformed_ledger():
    text = run_pipeline("ab").to_json().replace('"version": "1"', '"version": ' + "1" * 5000)
    with pytest.raises(LedgerError, match="not valid JSON"):
        Ledger.from_json(text)


def test_huge_field_is_quoted_briefly():
    data = run_pipeline("ab").to_dict()
    data["code"] = "0" + "1" * 20000
    with pytest.raises(LedgerError) as info:
        Ledger.from_dict(data)
    assert len(str(info.value)) < 200
    assert "20001 characters" in str(info.value)


# An unknown key is quoted through brief, and keys of any types sort by repr.
@pytest.mark.parametrize(
    "extra, listed",
    [
        ({"k" * 100_000: 1}, f"[{'k' * 40!r}... (100000 characters)]"),
        ({1: 1, "x": 2}, "['x', 1]"),
        ({"b": 1, "a": 2}, "['a', 'b']"),
    ],
    ids=["huge", "mixed types", "sorted"],
)
def test_unknown_keys_are_listed_briefly(extra, listed):
    data = run_pipeline("ab").to_dict()
    with pytest.raises(LedgerError) as info:
        Ledger.from_dict(data | extra)
    assert str(info.value) == f"unknown ledger field(s): {listed}"
    with pytest.raises(ValueError) as info:
        Config.from_dict(data["config"] | extra)
    assert str(info.value) == f"unknown config key(s): {listed}"
    assert len(str(info.value)) < 200


def test_recompute_refuses_a_code_whose_word_differs_in_length():
    ledger = run_pipeline("ab")
    data = ledger.to_dict()
    data["intermediate"][2] = [[0, str(27**3), "1"]]  # a 3-symbol word's code
    with pytest.raises(IntegrityError, match="word of 3 symbols, but the stored decoded word has 2"):
        recompute_decoded(Ledger.from_dict(data))


@pytest.mark.parametrize(
    "count_slot, message",
    [
        ([[0, "1", "2"]], "hypernatural coefficients must be nonnegative integers"),
        ([[0, "-1", "1"]], "hypernatural coefficients must be nonnegative integers"),
        ([[-1, "1", "1"]], "a hypernatural cannot carry negative powers of H"),
    ],
)
def test_stored_count_slot_is_checked_when_realized(count_slot, message):
    data = run_pipeline("ab").to_dict()
    data["intermediate"][1] = count_slot
    with pytest.raises(IntegrityError) as info:
        recompute_decoded(Ledger.from_dict(data))
    assert str(info.value) == f"stage 'realized': stored intermediate cannot be realized: {message}"


def test_stored_intermediate_keeps_its_length_check():
    ledger = run_pipeline("ab")
    short = dataclasses.replace(ledger, intermediate=ledger.intermediate[:2])
    with pytest.raises(IntegrityError, match="^stage 'realized': .*needs at least 3 coordinates"):
        recompute_decoded(short)


def test_run_pipeline_checks_the_bundled_vector_once(monkeypatch):
    # Realization reads only the slots bundling moved: one standard part, on
    # the bundled slot, and a type check of the count and bundled entries,
    # never of an entry that is the particle's own.
    st_, check = Hyperreal.st, engine._hyperreal_vector
    for config in (Config(), Config(base=2, dims=4096, bundle_coordinate=4096)):
        standard_parts, checked = [], []

        def counting_st(self):
            standard_parts.append(self)
            return st_(self)

        def recording(base, entries, *args, **kwargs):
            entries = tuple(entries)
            checked.extend(entries)
            return check(base, entries, *args, **kwargs)

        monkeypatch.setattr(Hyperreal, "st", counting_st)
        monkeypatch.setattr(engine, "_hyperreal_vector", recording)
        ledger = run_pipeline("ab", config)
        monkeypatch.undo()
        bundled = ledger.intermediate[config.bundle_coordinate - 1]
        assert ledger.decoded == "ab"
        assert len(standard_parts) == 1 and standard_parts[0] is bundled
        assert [id(entry) for entry in checked] == [id(ledger.intermediate[1]), id(bundled)]
        own = {id(entry) for entry in config.particle.coords()}
        assert not own & {id(entry) for entry in checked}


@st.composite
def words_and_configs(draw):
    dims = draw(st.integers(min_value=3, max_value=64))
    alphabet = "".join(draw(st.lists(st.sampled_from(_SYMBOLS), min_size=1, unique=True)))
    config = Config(
        base=draw(st.sampled_from([2, 10, 97])),
        dims=dims,
        alphabet=alphabet,
        bundle_coordinate=draw(st.integers(min_value=3, max_value=dims)),
        quality_signs=draw(st.just("") | st.text(alphabet="+-", min_size=dims - 2, max_size=dims - 2)),  # "": alternating
    )
    return draw(st.text(alphabet=alphabet, max_size=40)), config


@settings(deadline=None)
@given(words_and_configs())
@example(("", Config(dims=4096, bundle_coordinate=4096)))
@example(("zebra crossing", Config(base=97, dims=4096, bundle_coordinate=2048)))
def test_document_is_the_one_the_papers_formulas_give(word_and_config):
    word, config = word_and_config
    assert json.loads(run_pipeline(word, config).to_json()) == expected_document(word, config)


# The particle's rows are cached on the config.  An entry that is its slot's
# row in value but not in type must still be refused with the reader's own
# message, and any other entry must read as what it says.
@pytest.mark.parametrize("field", ["ultrasubparticle", "intermediate"])
@pytest.mark.parametrize(
    "slot, entry, message",
    [
        (2, [[-1.0, "1", "1"]], "coordinate 3: exponent must be an integer, got -1.0"),
        (3, [[-1.0, "-1", "1"]], "coordinate 4: exponent must be an integer, got -1.0"),
        (1, [[False, "1", "1"]], "coordinate 2: exponent must be an integer, got False"),
        (1, [[0.0, "1", "1"]], "coordinate 2: exponent must be an integer, got 0.0"),
        (4, [[-1, "1", "1"], [-1, "1", "1"]], "coordinate 5: triples must be in strictly descending exponent order"),
        (4, [[-1, "1", "1", "1"]], "coordinate 5: expected an [exponent, numerator, denominator] triple, got [-1, '1', '1', '1']"),
    ],
)
def test_entry_equal_to_a_cached_row_but_not_exactly_is_refused(field, slot, entry, message):
    data = run_pipeline("hello world").to_dict()
    data[field][slot] = entry
    with pytest.raises(LedgerError) as info:
        Ledger.from_dict(data)
    assert str(info.value) == f"invalid {field} {message}"


def test_cached_rows_are_read_as_the_particles_own_objects():
    ledger = run_pipeline("hello world")
    loaded = Ledger.from_json(ledger.to_json())
    own = loaded.config.particle.coords()
    assert all(entry is mine for entry, mine in zip(loaded.ultrasubparticle, own))
    assert [entry is mine for entry, mine in zip(loaded.intermediate, own)] == [True, False, False] + [True] * 5


def test_eps_row_with_an_extra_triple_reads_as_what_it_says():
    data = run_pipeline("hello world").to_dict()
    data["ultrasubparticle"][5] = data["ultrasubparticle"][4] + [[-2, "1", "1"]]  # eps + eps^2: well formed
    ledger = Ledger.from_dict(data)
    assert ledger.ultrasubparticle[5] == ledger.config.particle.coords()[4] + ledger.config.particle.coords()[4] ** 2
    with pytest.raises(IntegrityError, match="^stage 'ultrasubparticle': "):
        verify_ledger(ledger)


@pytest.mark.parametrize("field, slots", [("ultrasubparticle", (2, 3)), ("intermediate", (3, 4))])
def test_swapped_eps_rows_read_but_fail_their_stage(field, slots):
    data = run_pipeline("hello world").to_dict()
    a, b = slots
    data[field][a], data[field][b] = data[field][b], data[field][a]
    ledger = Ledger.from_dict(data)
    own = ledger.config.particle.coords()
    entries = getattr(ledger, field)
    assert entries[a] == own[b] and entries[b] == own[a] != own[b]
    assert not any(entries[slot] is mine for slot in slots for mine in own)  # compared slot by slot, never searched
    with pytest.raises(IntegrityError) as info:
        verify_ledger(ledger)
    assert str(info.value).startswith(f"stage {field!r}: ")


def test_cached_rows_are_shared_and_built_only_for_ledgers():
    config = Config(base=2, dims=4096, bundle_coordinate=4)
    ledger = run_pipeline("ab", config)
    assert "table" not in vars(config)  # building the config and running the pipeline write no ledger
    ultra, intermediate, realized = config.table
    assert [vector.moved for vector in config.table] == [(), (1, 3), (3,)]
    assert ultra.own is intermediate.own is config.particle.coords() and realized.own == (0,) * 4096
    lists = ultra.values
    assert intermediate.values is lists and intermediate.marshalled is ultra.marshalled
    assert len({id(row) for row in lists}) <= 4
    assert "layout" not in vars(config)
    document = json.loads(ledger.to_json())
    assert "layout" in vars(config)  # built on the first ledger written
    for vector in config.table:
        assert len(vector.values) == 4096
        assert vector.values == [json.loads(vector.write(entry)) for entry in vector.own]
        unmoved = [slot for slot in range(4096) if slot not in vector.moved]
        assert [vector.values[slot] for slot in unmoved] == [document[vector.key][slot] for slot in unmoved]


# Each vector field with one slot set to each value below or to its own list as
# a UserList, its triple given an extra triple, a fourth item, each position
# set to each value below or made a UserList, or the slot swapped with the
# next.  Reading and verifying must give what they give when the field's table
# matches nothing, so that every entry is read: the same ledger and word, or
# the same error message.
MUTANT_VALUES = [-1.0, 0.0, False, True, None, "0", "-0", [], {}]


def _mutants(entries, slot):
    entry = entries[slot]
    mutants = list(MUTANT_VALUES)
    if isinstance(entry, list):
        mutants += [entry + [[-7, "1", "1"]], UserList(entry)]
        for triple in entry[:1]:
            mutants += [[triple + ["1"]], [UserList(triple)]]
            mutants += [[triple[:i] + [value] + triple[i + 1:]] for i in range(3) for value in MUTANT_VALUES]
    for mutant in mutants:
        yield [*entries[:slot], mutant, *entries[slot + 1:]]
    if slot + 1 < len(entries):
        yield [*entries[:slot], entries[slot + 1], entry, *entries[slot + 2:]]


def _read_and_verify(data):
    try:
        ledger = Ledger.from_dict(data)
    except LedgerError as exc:
        return "LedgerError", str(exc)
    try:
        return ledger, verify_ledger(ledger)
    except IntegrityError as exc:
        return ledger, "IntegrityError", str(exc)


@pytest.mark.parametrize("key", ["ultrasubparticle", "intermediate", "realized"])
@pytest.mark.parametrize(
    "config, slots",
    [
        (Config(), range(8)),
        (Config(base=2, dims=32, bundle_coordinate=4), range(32)),
        (Config(dims=4096, bundle_coordinate=2048), (2047, 4095)),
    ],
    ids=["default", "negative slot", "4096 dims, sampled slots"],
)
def test_reader_gives_what_reading_every_entry_gives(config, slots, key, monkeypatch):
    document = run_pipeline("ab", config).to_dict()
    documents = [{**document, key: mutant} for slot in slots for mutant in _mutants(document[key], slot)]
    outcomes = [_read_and_verify(data) for data in documents]
    shared = Ledger.from_dict(document).config  # the config every one of these documents reads with
    table = tuple(vector._replace(marshalled=b"") if vector.key == key else vector for vector in shared.table)
    monkeypatch.setitem(vars(shared), "table", table)
    for data, outcome in zip(documents, outcomes):
        assert _read_and_verify(data) == outcome, data[key][:40]


# The realized stage reads only the slots that are not the particle's own
# objects.  It must give what the full realization of the whole vector gives,
# value for value, and fail as that does, type and message.
def _full_realize(coords, particle):
    return engine.realize(IntermediateSubparticle(particle.base, coords))


@settings(deadline=None)
@given(words_and_configs())
@example(("", Config(dims=4096, bundle_coordinate=4096)))
@example(("zebra crossing", Config(base=97, dims=4096, bundle_coordinate=2048)))
def test_realized_stage_equals_the_full_realization(word_and_config):
    word, config = word_and_config
    ledger = run_pipeline(word, config)
    full = _full_realize(ledger.intermediate, config.particle).coords
    assert ledger.realized == full
    loaded = Ledger.from_json(ledger.to_json())
    assert loaded.realized == full
    assert pipeline._realized(config, vars(loaded)) == full
    assert recompute_decoded(loaded) == word


def _stage_outcome(config, coords):
    fields = {"intermediate": coords()}
    try:
        return pipeline._realized(config, fields)
    except Exception as exc:
        return type(exc), str(exc)


def _with(entries, **slots):
    """``entries`` with ``s<i>=value`` put in slot i (0-based)."""
    entries = list(entries)
    for key, value in slots.items():
        entries[int(key[1:])] = value
    return entries


HAND_BUILT = {
    "as run": lambda own, inter, base: inter,
    "fresh objects equal to the particle's": lambda own, inter, base: _with(
        inter, s0=Hyperreal.zero(base), s4=Hyperreal.epsilon(base), s5=-Hyperreal.epsilon(base)
    ),
    "fresh one in the count slot": lambda own, inter, base: _with(inter, s1=Hyperreal.one(base)),
    "not a hyperreal": lambda own, inter, base: _with(inter, s4=Fraction(0)),
    "another base": lambda own, inter, base: _with(inter, s5=Hyperreal.epsilon(base + 1)),
    "H on an unbundled quality": lambda own, inter, base: _with(inter, s6=Hyperreal.generator(base)),
    "H on the naming slot": lambda own, inter, base: _with(inter, s0=Hyperreal.generator(base)),
    "non-natural count": lambda own, inter, base: _with(inter, s1=Hyperreal.from_rational(base, Fraction(1, 2))),
    "H and a non-natural count": lambda own, inter, base: _with(
        inter, s6=Hyperreal.generator(base), s1=Hyperreal.from_rational(base, -1)
    ),
    "a non-natural count and a non-hyperreal": lambda own, inter, base: _with(
        inter, s1=Hyperreal.from_rational(base, -1), s7=Fraction(1)
    ),
    "another base before a non-hyperreal": lambda own, inter, base: _with(
        inter, s4=Hyperreal.epsilon(base + 1), s6="x"
    ),
    "H before a non-hyperreal": lambda own, inter, base: _with(inter, s4=Hyperreal.generator(base), s7=None),
    "two infinite qualities": lambda own, inter, base: _with(inter, s5=Hyperreal.generator(base), s4=-Hyperreal.generator(base)),
    "own entry of the wrong slot": lambda own, inter, base: _with(inter, s4=own[3], s3=own[4]),
    "a list": lambda own, inter, base: list(inter),
    "an iterator": lambda own, inter, base: iter(inter),
    "one entry short": lambda own, inter, base: inter[:-1],
    "one entry long": lambda own, inter, base: tuple(inter) + (own[-1],),
    "two entries": lambda own, inter, base: inter[:2],
    "not iterable": lambda own, inter, base: 7,
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
@pytest.mark.parametrize(
    "config",
    [Config(), Config(base=2, dims=9, bundle_coordinate=4), Config(base=97, dims=4096, bundle_coordinate=4096)],
    ids=["default", "negative slot", "4096 dims"],
)
def test_hand_built_intermediate_realizes_as_the_full_check_does(case, config, monkeypatch):
    ledger = run_pipeline("ab", config)
    own = config.particle.coords()
    coords = lambda: HAND_BUILT[case](own, ledger.intermediate, config.base)  # noqa: E731 (an iterator is used once)
    got = _stage_outcome(config, coords)
    monkeypatch.setattr(pipeline, "realize", _full_realize)
    assert got == _stage_outcome(config, coords)
    if case == "as run":
        assert got == ledger.realized


# ``spc realize`` on a ledger whose realized entry in one slot is replaced:
# slot 1 (naming), slot 2 (count), slot 3 (bundled) and slot 5 (unbundled) of
# the default config's ledger of "ab", code 29.  Realized entries are rational
# strings with no canonical form, so "-0", "00" and "0/7" read as 0.
_OK = (0, "ab\n", "")
_LAYOUT = (4, "", "malformed ledger: invalid realized vector: naming and count entries of a realized vector must be zero\n")
_STAGE = (5, "", "integrity failure: stage 'realized': the stored realized is not the one its stage computes from the fields before it\n")


def _unreadable(slot, why):
    return 4, "", f"malformed ledger: invalid realized coordinate {slot}: {why}\n"


REALIZED_ENTRIES = [
    # value: outcome in slots 1, 2, 3, 5
    ("0", [_OK, _OK, _STAGE, _OK]),
    ("-0", [_OK, _OK, _STAGE, _OK]),
    ("00", [_OK, _OK, _STAGE, _OK]),
    ("0/7", [_OK, _OK, _STAGE, _OK]),
    (0, [_unreadable(n, "not a decimal string: 0") for n in (1, 2, 3, 5)]),
    ("0.0", [_unreadable(n, "not a decimal string: '0.0'") for n in (1, 2, 3, 5)]),
    (" 0", [_unreadable(n, "not a decimal string: ' 0'") for n in (1, 2, 3, 5)]),
    ("", [_unreadable(n, "not a decimal string: ''") for n in (1, 2, 3, 5)]),
    (None, [_unreadable(n, "not a decimal string: None") for n in (1, 2, 3, 5)]),
    ([], [_unreadable(n, "not a decimal string: []") for n in (1, 2, 3, 5)]),
    ("1", [_LAYOUT, _LAYOUT, _STAGE, _STAGE]),
    ("1/0", [_unreadable(n, "zero denominator: '1/0'") for n in (1, 2, 3, 5)]),
]


def _realize_document(data, tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["realize", "--ledger", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("value, outcomes", REALIZED_ENTRIES, ids=[repr(v) for v, _ in REALIZED_ENTRIES])
@pytest.mark.parametrize("index", range(4), ids=["slot 1", "slot 2", "bundled slot 3", "unbundled slot 5"])
def test_realized_entry_gives_the_documented_exit(value, outcomes, index, tmp_path, capsys):
    data = run_pipeline("ab").to_dict()
    data["realized"][[0, 1, 2, 4][index]] = value
    assert _realize_document(data, tmp_path, capsys) == outcomes[index]


@pytest.mark.parametrize(
    "config, realized, outcome",
    [
        (Config(), ["0", "0", "29"] + ["0"] * 4, (4, "", "malformed ledger: realized must be a list of 8 coordinates\n")),
        (Config(), ["0", "0", "29"] + ["0"] * 6, (4, "", "malformed ledger: realized must be a list of 8 coordinates\n")),
        (Config(dims=5, bundle_coordinate=5), ["0"] * 4, (4, "", "malformed ledger: realized must be a list of 5 coordinates\n")),
        (Config(dims=5, bundle_coordinate=5), ["0"] * 4 + ["29", "0"], (4, "", "malformed ledger: realized must be a list of 5 coordinates\n")),
        (Config(dims=5, bundle_coordinate=5), ["0"] * 5, _STAGE),
        (Config(dims=5, bundle_coordinate=5), ["0", "0", "0", "-0", "29"], _OK),
    ],
    ids=["short", "long", "short of the last, bundled slot", "long past the bundled slot", "all zero", "-0"],
)
def test_realized_list_gives_the_documented_exit(config, realized, outcome, tmp_path, capsys):
    data = run_pipeline("ab", config).to_dict()
    data["realized"] = realized
    assert _realize_document(data, tmp_path, capsys) == outcome


# ``Ledger.from_json`` reads a text in its config's layout without parsing the
# whole document, and hands any other text to ``from_dict(read_json(text))``.
# The two must agree on every text: an equal ledger whose slots are the
# config's own objects at the same places, or the same error and message.
LAYOUT_CONFIGS = {
    "default": (Config(), 1500),
    "base 2, 32 dims": (Config(base=2, dims=32, bundle_coordinate=4), 1500),
    "4096 dims": (Config(dims=4096, bundle_coordinate=2048), 10),
    "escaped alphabet": (Config(alphabet='ab"\\é\x01 '), 1500),
}
EDIT_CHARS = ' "0123-,:[]{}\\\nxé\x00/e'


def _outcome(read, text):
    try:
        ledger = read(text)
    except LedgerError as exc:
        return "LedgerError", str(exc)
    own = [[entry is mine for entry, mine in zip(getattr(ledger, vector.key), vector.own)]
           for vector in ledger.config.table]
    return ledger, own


def _both_readers_agree(text):
    general = _outcome(lambda t: Ledger.from_dict(ledger_module.read_json(t)), text)
    assert _outcome(Ledger.from_json, text) == general, text[:200]
    return general


def _layout_words(name):
    words = ["", "ab"]
    return words + ['é"a\\\x01 b'] if name == "escaped alphabet" else words


def _cut(text, config):
    """The ``layout`` pieces a run's text holds, in order: the empty word's cut for code 0, else the other."""
    head, pieces, empty, tail = config.layout
    return (head, empty, tail) if json.loads(text)["code"] == "0" else (head, *pieces, tail)


def _edits(text, config, budget):
    """A deletion, a substitution and an insertion at each position of a stride that gives about ``budget``
    positions over the whole text, and at every position next to or at either end of a piece of its cut."""
    ends, pos = set(), 0
    for piece in _cut(text, config):
        pos = text.index(piece, pos)
        ends.update(range(pos - 1, pos + 2))
        pos += len(piece)
        ends.update(range(pos - 1, pos + 2))
    positions = set(range(0, len(text), max(1, len(text) // budget))) | (ends & set(range(len(text))))
    for i in sorted(positions):
        char = EDIT_CHARS[i % len(EDIT_CHARS)]
        yield from (text[:i] + text[i + 1:], text[:i] + char + text[i + 1:], text[:i] + char + text[i:])


@pytest.mark.parametrize("name", LAYOUT_CONFIGS)
def test_layout_reader_agrees_with_the_general_reader_on_single_edits(name):
    config, budget = LAYOUT_CONFIGS[name]
    for word in _layout_words(name):
        text = run_pipeline(word, config).to_json()
        assert isinstance(_both_readers_agree(text)[0], Ledger)
        outcomes = {type(_both_readers_agree(mutant)[0]) for mutant in _edits(text, config, budget)}
        assert outcomes == {str, Ledger}  # some edits leave a ledger, such as an escape that names the same word


def _reorder(text, first, second):
    """``text`` with the top-level fields ``first`` and ``second``, adjacent in that order, swapped."""
    start, middle = text.index(f'\n  "{first}": '), text.index(f'\n  "{second}": ')
    end = text.index(",\n  ", middle) if second != "decoded" else text.rindex("\n}")
    return text[:start] + text[middle:end] + "," + text[start:middle - 1] + text[end:]


@pytest.mark.parametrize("name", LAYOUT_CONFIGS)
def test_layout_reader_agrees_with_the_general_reader_on_rewritten_texts(name):
    config, _ = LAYOUT_CONFIGS[name]
    for word in _layout_words(name):
        text = run_pipeline(word, config).to_json()
        data = json.loads(text)
        lam = text.index('"value": ') + len('"value": ')
        texts = [
            json.dumps(data),
            json.dumps(data, separators=(",", ":")),
            json.dumps(data, indent=2),
            json.dumps(data, indent=2, ensure_ascii=False),
            json.dumps(dict(reversed(data.items())), indent=2),
            _reorder(text, "word", "code"),
            _reorder(text, "realized", "decoded"),
            text.replace('\n  "word": ', '\n  "word": "zz",\n  "word": ', 1),
            text.replace('\n    "value": ', '\n    "value": [],\n    "value": ', 1),
            text.replace('\n  "decoded": ', '\n  "decoded": "zz",\n  "decoded": ', 1),
            text[:lam] + "[" * 100_000 + text[lam:],
            text.replace(f'"word": {json.dumps(word)}', '"word": null', 1),
            text.replace(f'"decoded": {json.dumps(word)}', '"decoded": ["ab"]', 1),
        ]
        texts += [text + tail for tail in ("\n", " \t\r\n ", "\n\n\n", " ", "x", "\nx", "\n}", "0", "\x00", "\xa0")]
        outcomes = [_both_readers_agree(other)[0] for other in texts]
        read = [True] * 7 + [False] * 6 + [True] * 4 + [False] * 6  # no-break space is not JSON whitespace
        assert [isinstance(outcome, Ledger) for outcome in outcomes] == read
        written = text.replace(f'"word": {json.dumps(word)}', f'"word": {json.dumps(word, ensure_ascii=False)}')
        assert written != text or word.isascii()
        assert _both_readers_agree(written)[0] == Ledger.from_json(text)


# The same digits at all six of the code's places: only a canonical natural
# other than 0 is read through the template, and the readers must agree.
CODE_COPIES = {"30": True, "1" * 5000: True, "029": False, "0": False, "-29": False, "+29": False, "29.0": False,
               "2_9": False, "\u0662\u0669": False, " 29": False, "29 ": False, "": False}


@pytest.mark.parametrize("name", LAYOUT_CONFIGS)
def test_layout_reader_agrees_with_the_general_reader_on_every_copy_of_the_code_rewritten(name):
    config, _ = LAYOUT_CONFIGS[name]
    run_pipeline("ab", config).to_json()
    head, pieces, _, tail = config.layout
    for digits, read in CODE_COPIES.items():
        text = "".join((head, '"ab"', digits.join(pieces), '"ab"', tail))
        assert isinstance(_both_readers_agree(text)[0], Ledger) is read, digits


def test_repeated_key_and_deep_nesting_give_the_general_messages():
    text = run_pipeline("ab").to_json()
    lam = text.index('"value": ') + len('"value": ')
    cases = {
        text.replace('\n    "value": ', '\n    "value": [],\n    "value": ', 1): "repeated key 'value'",
        text[:lam] + "[" * 100_000 + text[lam:]: "not valid JSON: maximum recursion depth exceeded",
    }
    for other, message in cases.items():
        with pytest.raises(LedgerError) as info:
            Ledger.from_json(other)
        assert str(info.value).startswith(message)


def _refuse(*args):
    raise AssertionError("a run's text went to the general writer or reader")


@pytest.mark.parametrize("name", LAYOUT_CONFIGS)
def test_canonical_text_is_read_without_parsing_the_document(name, monkeypatch):
    config, _ = LAYOUT_CONFIGS[name]
    Ledger.from_json(run_pipeline("", config).to_json())  # the config's layout built and its block parsed, once
    monkeypatch.setattr(ledger_module, "read_json", _refuse)
    monkeypatch.setattr(ledger_module, "_written", _refuse)
    for word in _layout_words(name) + ["".join(random.Random(8000).choices(config.alphabet, k=8000))]:
        ledger = run_pipeline(word, config)
        text = ledger.to_json()
        expected = Ledger.from_dict(json.loads(text))
        assert Ledger.from_json(text) == Ledger.from_json(text + "\n") == expected == ledger


# ``to_json`` writes a run's ledger through its config's ``layout`` and any
# other ledger with every entry written.  Both must give the text the
# every-entry writer gives, which the naive document pins byte for byte.
def _every_entry_text(ledger):
    return ledger_module._written(ledger, encode_basestring_ascii)


@pytest.mark.parametrize("name", LAYOUT_CONFIGS)
def test_run_ledgers_are_written_through_the_layout_as_the_every_entry_writer_writes_them(name, monkeypatch):
    config, _ = LAYOUT_CONFIGS[name]
    ledgers = [run_pipeline(word, config) for word in ("", "ab", "".join(random.Random(8).choices(config.alphabet, k=8000)))]
    expected = [_every_entry_text(ledger) for ledger in ledgers]
    monkeypatch.setattr(ledger_module, "_written", _refuse)
    assert [ledger.to_json() for ledger in ledgers] == expected


def _off_the_run_shape(ledger):
    """Ledgers one field away from a run's, by the change each makes."""
    config, own = ledger.config, ledger.config.particle.coords()
    base, slot, count = config.base, config.bundle_coordinate - 1, ledger.count.value
    bundled, replace = ledger.realized[slot], dataclasses.replace

    def put(field, index, value):
        entries = list(getattr(ledger, field))
        entries[index] = value
        return replace(ledger, **{field: tuple(entries)})

    return {
        "count plus 1": replace(ledger, count=Hypernatural(count + 1)),
        "count of the next code": replace(ledger, count=lambda_for_code(ledger.code + 1, base)),
        "count slot plus 1": put("intermediate", 1, count + 1),
        "equal naming slot": put("intermediate", 0, Hyperreal.zero(base)),
        "equal eps": put("ultrasubparticle", 2, Hyperreal(base, dict(own[2].terms))),
        "equal realized zero": put("realized", 0, Fraction(0)),
        "realized bundled plus 1/2": put("realized", slot, bundled + Fraction(1, 2)),
        "realized bundled negated, minus 1": put("realized", slot, -bundled - 1),
        "realized bundled as an int": put("realized", slot, int(bundled)),
        "intermediate as a list": replace(ledger, intermediate=list(ledger.intermediate)),
    }


@pytest.mark.parametrize("name", LAYOUT_CONFIGS)
@pytest.mark.parametrize("word", ["", "ab"])
def test_ledgers_off_the_run_shape_have_every_entry_written(name, word, monkeypatch):
    config, _ = LAYOUT_CONFIGS[name]
    calls = []
    written = ledger_module._written
    monkeypatch.setattr(ledger_module, "_written", lambda *args: calls.append(args) or written(*args))
    for case, ledger in _off_the_run_shape(run_pipeline(word, config)).items():
        calls.clear()
        assert ledger.to_json() == json.dumps(ledger_document(ledger), indent=2), case
        assert len(calls) == 1, case
