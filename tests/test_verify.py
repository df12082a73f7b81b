"""Ledger verification: every stored field is recomputed from the stored
fields before it, and ``spc realize`` names the first one that disagrees."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subparticle.pipeline as pipeline
from subparticle.cli import main
from subparticle.codec import SymbolNotInAlphabetError
from subparticle.ledger import Config, Ledger, LedgerError
from subparticle.pipeline import STAGES, IntegrityError, run_pipeline, verify_ledger


def realize_file(capsys, path):
    code = main(["realize", "--ledger", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, data, name="ledger.json"):
    target = tmp_path / name
    target.write_text(json.dumps(data), encoding="utf-8")
    return target


def test_the_stage_table_is_the_ledger():
    fields = [field for field, _, _ in STAGES]
    assert fields == ["code", "count", "ultrasubparticle", "intermediate", "realized", "decoded"]
    assert list(Ledger.__dataclass_fields__) == ["config", "word", *fields]
    assert {field: key for field, key, _ in STAGES if field != key} == {"count": "lambda"}


@pytest.mark.parametrize("config", [
    Config(),
    Config(base=2, dims=32, bundle_coordinate=4),
    Config(dims=3),
    Config(alphabet="x"),
    Config(quality_signs="--+-+-"),
])
def test_verify_returns_the_word_of_a_genuine_ledger(config):
    for word in ("", config.alphabet[0], config.alphabet[-1] * 3):
        assert verify_ledger(run_pipeline(word, config)) == word
        assert verify_ledger(Ledger.from_json(run_pipeline(word, config).to_json())) == word


def test_verify_names_a_tampered_decoded_word():
    data = run_pipeline("ab").to_dict()
    data["decoded"] = "ac"
    with pytest.raises(IntegrityError, match="^stage 'decoded': "):
        verify_ledger(Ledger.from_dict(data))


# Seven hand edits of the ledger of "ab", each with the stage that disagrees.
# The code is not recomputed (that would encode), so an edited code shows at
# the first stage computed from it, and an edited word at the code stage.
def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(data):
        for step in path:
            data = data[step]
        data[key] = value
    return edit


def _set_code(data):
    data["code"] = data["sequence_head"] = "7"


TAMPERS = {
    "word": (_set("word", "zz"), "code"),
    "code": (_set_code, "lambda"),
    "realized[2]": (_set("realized", 2, "5"), "realized"),
    "ultrasubparticle[0]": (_set("ultrasubparticle", 0, [[0, "1", "1"]]), "ultrasubparticle"),
    "ultrasubparticle[3] sign": (_set("ultrasubparticle", 3, [[-1, "1", "1"]]), "ultrasubparticle"),
    "lambda": (_set("lambda", "value", [[1, "3", "1"]]), "lambda"),
    "intermediate[5]": (_set("intermediate", 5, [[-1, "2", "1"]]), "intermediate"),
}


@pytest.mark.parametrize("name", TAMPERS)
def test_tampered_ledger_names_the_stage_that_disagrees(capsys, tmp_path, name):
    edit, stage = TAMPERS[name]
    data = run_pipeline("ab").to_dict()
    edit(data)
    code, out, err = realize_file(capsys, write(tmp_path, data))
    assert (code, out) == (5, "")
    assert err.startswith(f"integrity failure: stage '{stage}': ")
    assert err.count("\n") == 1


def test_untouched_ledger_prints_its_word(capsys, tmp_path):
    code, out, err = realize_file(capsys, write(tmp_path, run_pipeline("ab").to_dict()))
    assert (code, out, err) == (0, "ab\n", "")


def test_realize_encodes_no_word(capsys, tmp_path, monkeypatch):
    target = write(tmp_path, run_pipeline("ab").to_dict())

    def refuse(*args):
        raise AssertionError("spc realize encoded a word")
    monkeypatch.setattr(pipeline, "encode", refuse)
    assert realize_file(capsys, target) == (0, "ab\n", "")


def test_other_base_and_leading_zero_numerator_are_genuine(capsys, tmp_path):
    data = run_pipeline("ab").to_dict()
    data["config"]["base"] = 2
    assert realize_file(capsys, write(tmp_path, data)) == (0, "ab\n", "")
    data["intermediate"][1] = [[1, "029", "1"]]
    assert realize_file(capsys, write(tmp_path, data)) == (0, "ab\n", "")


# Mutated-ledger fuzzing: real ledgers from short words under both benchmark
# configs, with one JSON value replaced.
LEDGERS = [run_pipeline(word, config).to_dict()
           for word in ("", "a", "ab", "zebra", "qq z")
           for config in (Config(), Config(base=2, dims=32, bundle_coordinate=4))]


def value_paths(value, path=()):
    """The path to every value inside a JSON tree, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from value_paths(item, path + (key,))


POOL = [None, True, False, 0, 1, 2, -1, 40, "", "0", "1", "-1", "029", "1/2", "a", "zz", [], {}]


def replacements(old):
    """Values near ``old`` (so that some mutations stay genuine) and others."""
    near = []
    if isinstance(old, bool):
        near = [not old]
    elif isinstance(old, int):
        near = [old + 1, old - 1, 2 * old, str(old)]
    elif isinstance(old, str):
        near = [old + "a", old[1:], "0" + old, "-" + old, old.upper(), old[::-1]]
        if old.lstrip("-").isdigit():
            near += [str(int(old) + 1), str(int(old) - 1)]
    elif isinstance(old, list):
        near = [old[:-1], old + old[-1:], old[::-1]]
    elif isinstance(old, dict):
        near = [dict(list(old.items())[:-1])]
    return st.sampled_from(near + POOL) | st.integers(-5, 50) | st.text(max_size=3)


def genuine(data):
    """True when the document is exactly what run_pipeline writes for its
    word and config, None when it is malformed."""
    try:
        ledger = Ledger.from_dict(data)
    except LedgerError:
        return None
    try:
        return ledger == run_pipeline(data["word"], Config.from_dict(data["config"]))
    except SymbolNotInAlphabetError:
        return False


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_ledger_exits_zero_only_when_genuine(tmp_path_factory, data):
    document = json.loads(json.dumps(data.draw(st.sampled_from(LEDGERS))))
    key = data.draw(st.sampled_from(list(document)))  # each field as likely as the next
    path = data.draw(st.sampled_from([(key,), *((key, *rest) for rest in value_paths(document[key]))]))
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = data.draw(replacements(parent[path[-1]]))
    target = write(tmp_path_factory.mktemp("fuzz"), document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["realize", "--ledger", str(target)])
    out, err = out.getvalue(), err.getvalue()
    assert code in {0, 4, 5}
    verdict = genuine(document)
    assert (code == 0) == (verdict is True)
    assert (code == 4) == (verdict is None)
    if code == 0:
        assert (out, err) == (document["word"] + "\n", "")
    else:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 512
