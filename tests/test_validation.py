"""One check per concept: the library, `spc encode --config` and `spc realize`
refuse each invalid setting alike, with a short message and no traceback."""

import json
import pathlib

import pytest

import subparticle
from subparticle import engine
from subparticle.cli import main
from subparticle.codec import Alphabet, decode, word_length
from subparticle.engine import MAX_DIMS, QualitySpec, Ultrasubparticle
from subparticle.hyperreal import Hypernatural, Hyperreal, lambda_for_code
from subparticle.ledger import Config, Ledger
from subparticle.pipeline import run_pipeline

HUGE = -(10**5000)

# (config field, invalid value, the library call that owns the check, or
# None where Config itself owns it, and the exception that call raises).
# Config raises ValueError for every row.
CONFIG_ROWS = [
    ("base", 1, lambda v: Ultrasubparticle(v, 4), ValueError),
    ("base", "10", lambda v: Ultrasubparticle(v, 4), ValueError),
    ("base", 1, lambda v: Hyperreal.zero(v), ValueError),
    ("dims", 2, lambda v: Ultrasubparticle(10, v), ValueError),
    ("dims", MAX_DIMS + 1, lambda v: Ultrasubparticle(10, v), ValueError),
    ("dims", "8", lambda v: Ultrasubparticle(10, v), ValueError),
    ("alphabet", "", Alphabet, ValueError),
    ("alphabet", "abca", Alphabet, ValueError),
    ("alphabet", 5, Alphabet, ValueError),
    # the coordinate check is the engine's, and there an IndexError
    ("bundle_coordinate", 2, lambda v: Ultrasubparticle(10, 8).sign(v), IndexError),
    ("bundle_coordinate", 9, lambda v: Ultrasubparticle(10, 8).sign(v), IndexError),
    ("bundle_coordinate", "3", lambda v: Ultrasubparticle(10, 8).sign(v), IndexError),
    ("quality_signs", "++", lambda v: Ultrasubparticle(10, 8, signs=(1, 1)), ValueError),
    ("quality_signs", "+-x-+-", lambda v: Ultrasubparticle(10, 8, signs=(1, -1, "x", -1, 1, -1)), ValueError),
    ("quality_signs", None, None, None),
    ("quality_signs", 0, None, None),
    ("quality_signs", False, None, None),
    ("quality_signs", [], None, None),
]
ROW_IDS = [f"{field}={value!r}" for field, value, _, _ in CONFIG_ROWS]

# Values no config file carries, which the library refuses alone, and the
# start of each refusal.
LIBRARY_ONLY = [
    (lambda: Config(base=HUGE), "base must be an integer >= 2, got -1000"),
    (lambda: Ultrasubparticle(HUGE, 4), "base must be an integer >= 2, got -1000"),
    (lambda: Hyperreal.one(HUGE), "base must be an integer >= 2, got -1000"),
    (lambda: Ultrasubparticle(10, 4, naming=-1), "naming must be a nonnegative integer, got -1"),
    (lambda: QualitySpec(entries=(), tail_scale=-1), "tail_scale must be a nonnegative integer, got -1"),
    (lambda: lambda_for_code(-1, 10), "code must be a nonnegative integer, got -1"),
    (lambda: Hypernatural.from_int(-1, 10), "n must be a nonnegative integer, got -1"),
    (lambda: decode(-1), "code must be a nonnegative integer, got -1"),
    (lambda: word_length(-1), "code must be a nonnegative integer, got -1"),
]

# Each text below is the message of one concept's check and is written once.
ONE_SITE = [
    "base must be an integer >= 2",
    "dims must be an integer >= 3",
    "alphabet symbols must be distinct",
    "must be a nonnegative integer",
    "quality coordinate must be in 3..",
    "naming and count entries",
]


def short_refusal(call, error=ValueError):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert len(str(info.value)) < 200
    return str(info.value)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("field, value, owner, error", CONFIG_ROWS, ids=ROW_IDS)
def test_config_and_owner_refuse(field, value, owner, error):
    short_refusal(lambda: Config(**{field: value}))
    if owner is not None:
        short_refusal(lambda: owner(value), error)


@pytest.mark.parametrize("field, value, owner, error", CONFIG_ROWS, ids=ROW_IDS)
def test_encode_config_file_is_a_config_error(capsys, tmp_path, field, value, owner, error):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}), encoding="utf-8")
    code, out, err = run(capsys, "encode", "--word", "a", "--config", str(config))
    assert (code, out) == (3, "")
    assert err.startswith("config error: ") and "Traceback" not in err
    assert len(err.encode()) < 512


@pytest.mark.parametrize("field, value, owner, error", CONFIG_ROWS, ids=ROW_IDS)
def test_realize_on_a_ledger_with_the_value_is_malformed(capsys, tmp_path, field, value, owner, error):
    data = run_pipeline("ab").to_dict()
    data["config"][field] = value
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "realize", "--ledger", str(ledger))
    assert (code, out) == (4, "")
    assert err.startswith("malformed ledger: invalid config: ") and "Traceback" not in err
    assert len(err.encode()) < 512


@pytest.mark.parametrize("call, message", LIBRARY_ONLY)
def test_library_only_values_are_refused_briefly(call, message):
    assert short_refusal(call).startswith(message)


def test_huge_negative_base_is_quoted_briefly():
    assert short_refusal(lambda: Ultrasubparticle(HUGE, 4)).endswith("... (5002 characters)")


def test_negative_code_in_a_ledger_is_malformed(capsys, tmp_path):
    data = run_pipeline("ab").to_dict()
    data["code"] = data["sequence_head"] = "-1"
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "realize", "--ledger", str(ledger))
    assert (code, out) == (4, "")
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ONE_SITE)
def test_each_check_is_raised_in_one_place(text):
    package = pathlib.Path(subparticle.__file__).parent
    assert sum(path.read_text(encoding="utf-8").count(text) for path in package.glob("*.py")) == 1


def test_empty_quality_signs_mean_the_default_layout():
    config = Config(quality_signs="")
    assert config.quality_signs == "+-+-+-"
    assert config == Config(quality_signs="+-+-+-")


def test_config_holds_the_particle_and_alphabet_it_describes():
    config = Config(base=2, dims=6, alphabet="xyz", bundle_coordinate=4, quality_signs="-+-+")
    assert config.particle == Ultrasubparticle(2, 6, signs=(-1, 1, -1, 1))
    assert config.codec_alphabet == Alphabet("xyz")
    assert config.signs == (-1, 1, -1, 1) and config.bundle_sign == 1
    assert Config.from_dict(config.to_dict()) == config
    assert list(config.to_dict()) == ["base", "dims", "alphabet", "bundle_coordinate", "quality_signs"]


def test_a_ledger_reuses_its_configs_particle(monkeypatch):
    ledger = Ledger.from_json(run_pipeline("ab", Config(dims=5)).to_json())
    monkeypatch.setattr(engine.Ultrasubparticle, "__post_init__", None)  # no particle may be built now
    assert run_pipeline("ab", ledger.config) == ledger


def test_dims_limit_is_checked_before_the_default_sign_layout(monkeypatch):
    def no_layout(dims):
        raise AssertionError(f"sign layout built for dims {dims}")

    monkeypatch.setattr(engine, "alternating_signs", no_layout)
    short_refusal(lambda: Ultrasubparticle(10, MAX_DIMS + 1))
    short_refusal(lambda: Config(dims=MAX_DIMS + 1))


def test_dims_at_the_limit_is_accepted():
    assert len(Config(dims=MAX_DIMS).quality_signs) == MAX_DIMS - 2


def test_dims_flag_past_the_limit_is_a_config_error(capsys):
    code, out, err = run(capsys, "encode", "--word", "a", "--dims", str(MAX_DIMS + 1))
    assert (code, out) == (3, "")
    assert err == f"config error: dims must be an integer >= 3 and at most {MAX_DIMS}, got {MAX_DIMS + 1}\n"


def test_eval_base_check_runs_before_parsing(capsys):
    code, out, err = run(capsys, "eval", "--base", "1", "(")
    assert (code, out) == (3, "")
    assert err == "config error: base must be an integer >= 2, got 1\n"


def test_quality_spec_coordinates_are_checked_against_the_dims_limit():
    QualitySpec(entries=((MAX_DIMS, lambda_for_code(1, 10)),))
    with pytest.raises(IndexError):
        QualitySpec(entries=((MAX_DIMS + 1, lambda_for_code(1, 10)),))
