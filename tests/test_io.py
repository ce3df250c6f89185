import copy
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasscode.cli import main
from grasscode.constructions import mub_code
from grasscode.core_linalg import Code
from grasscode.errors import FormatError, GrasscodeError
from grasscode.io import code_from_dict, code_to_dict, read_code, write_code

from conftest import random_code


def test_round_trip_bytes_stable(tmp_path):
    S = random_code(5, 2, 4, seed=801)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_code(S, p1)
    T = read_code(p1)
    write_code(T, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for s, t in zip(S, T):
        assert np.abs(s.projection() - t.projection()).max() < 1e-15


def test_document_structure():
    S = random_code(4, 2, 3, seed=802)
    doc = code_to_dict(S)
    assert doc["format"] == "grasscode-v1"
    assert doc["n"] == 4 and doc["m"] == 2
    assert len(doc["subspaces"]) == 3
    entry = doc["subspaces"][0]
    assert len(entry) == 4            # n rows
    assert len(entry[0]) == 2         # m columns
    assert len(entry[0][0]) == 2      # [re, im]
    # survives a JSON round trip
    T = code_from_dict(json.loads(json.dumps(doc)))
    assert len(T) == 3


def test_labels_round_trip(tmp_path):
    S = mub_code(3)
    path = tmp_path / "mub.json"
    write_code(S, path)
    T = read_code(path)
    assert T.labels == S.labels


def test_bad_format_tag():
    S = random_code(4, 1, 2, seed=803)
    doc = code_to_dict(S)
    doc["format"] = "grasscode-v2"
    with pytest.raises(FormatError):
        code_from_dict(doc)


def test_missing_key():
    S = random_code(4, 1, 2, seed=804)
    doc = code_to_dict(S)
    del doc["subspaces"]
    with pytest.raises(FormatError):
        code_from_dict(doc)


def test_ragged_rows_rejected():
    S = random_code(4, 2, 2, seed=805)
    doc = code_to_dict(S)
    doc["subspaces"][0] = doc["subspaces"][0][:-1]
    with pytest.raises(FormatError):
        code_from_dict(doc)


def test_ragged_or_non_numeric_entries_rejected():
    S = random_code(4, 2, 2, seed=809)
    for bad in (["x", 0.0], [0.5], None):
        doc = code_to_dict(S)
        doc["subspaces"][1][2][0] = bad
        with pytest.raises(FormatError):
            code_from_dict(doc)


def test_orthonormality_enforced_on_load():
    S = random_code(4, 2, 2, seed=806)
    doc = code_to_dict(S)
    # scale one basis column: span unchanged, orthonormality broken
    for row in doc["subspaces"][0]:
        row[0] = [2 * row[0][0], 2 * row[0][1]]
    with pytest.raises(FormatError):
        code_from_dict(doc)
    # a looser tolerance cannot rescue a 2x violation
    with pytest.raises(FormatError):
        code_from_dict(doc, tol=0.5)


@pytest.mark.filterwarnings("error")
def test_non_finite_entry_rejected_on_load():
    S = random_code(4, 2, 2, seed=808)
    for bad in (float("nan"), float("inf")):
        doc = code_to_dict(S)
        doc["subspaces"][1][2][0] = [bad, 0.0]
        with pytest.raises(FormatError):
            code_from_dict(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_code_is_not_written(tmp_path, bad):
    # bare NaN or Infinity tokens are not JSON (RFC 8259): refused before
    # the file is opened
    B = mub_code(3).bases.copy()
    B[2, 1, 0] = bad
    path = tmp_path / "bad.json"
    with pytest.raises(FormatError, match="subspace 2 has a non-finite"):
        write_code(Code(B, check_duplicates=False), path)
    assert not path.exists()


def test_seventeen_digit_precision(tmp_path):
    S = random_code(6, 3, 3, seed=807)
    path = tmp_path / "c.json"
    write_code(S, path)
    T = read_code(path)
    for s, t in zip(S, T):
        assert np.abs(s.basis - t.basis).max() < 1e-16


def info_exit(data):
    "run `grasscode info` on a file holding these bytes: (exit code, out, err)"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["info", path])
    return code, out.getvalue(), err.getvalue()


VALID = code_to_dict(random_code(3, 2, 2, seed=810))
VALID["labels"] = ["a", "b"]


@pytest.mark.parametrize("key, value", [
    ("n", b"1e999"),    # was an OverflowError traceback
    ("n", b"2.7"),      # was read as n = 2
    ("n", b"true"),
    ("m", b"2.0"),
    ("m", b"0"),
])
def test_header_dimensions_must_be_integers(key, value):
    text = json.dumps(dict(VALID, **{key: "@"})).encode().replace(b'"@"', value)
    code, out, err = info_exit(text)
    assert (code, out) == (1, "")
    assert err.startswith("error: %s must be an integer >= 1" % key)
    with pytest.raises(FormatError):
        code_from_dict(json.loads(text))


@pytest.mark.parametrize("data", [
    b'{"format": "grasscode-v1", "n": 3\xff\xfe}',     # not UTF-8
    b"\x80" * 10,
    b"[" * 100000 + b"]" * 100000,                      # nested too deep
    b'{"format": "grasscode-v1", "n": ' + b"1" * 5000 + b"}",   # huge int
], ids=["not-utf8", "stray-bytes", "too-deep", "huge-int"])
def test_undecodable_file_is_format_error(data):
    code, out, err = info_exit(data)
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON:")


def test_entries_must_be_numbers():
    # a string or null where a number belongs is not read as one, even where
    # it would spell the right value
    doc = {"format": "grasscode-v1", "n": 2, "m": 1,
           "subspaces": [[[[1.0, 0.0]], [[0.0, 0.0]]],
                         [[[0.0, 0.0]], [[1, 0]]]]}
    assert len(code_from_dict(doc)) == 2
    for bad in (["1.0", "0.0"], [1, "0"], [1.0, None], [[1.0], 0.0],
                [True, 0.0]):
        broken = copy.deepcopy(doc)
        broken["subspaces"][0][0][0] = bad
        with pytest.raises(FormatError, match="subspace 0:"):
            code_from_dict(broken)


def plant(entry):
    "put a bad value at row 1, column 0 of member 3"
    return lambda member: member[1].__setitem__(0, entry)


SHAPE = "subspace 3: not 4 rows of 2 [re, im] number pairs"


@pytest.mark.parametrize("spoil, message", [
    (plant([True, 0.0]), SHAPE),                      # a bool among floats
    (plant(["0.5", 0.0]), SHAPE),                     # a string
    (plant([None, 0.0]), SHAPE),                      # null
    (plant([2 ** 70, 0.0]), SHAPE),                   # beyond int64
    (lambda member: member[1].append([0.0, 0.0]),     # a ragged row
     "subspace 3: setting an array element with a sequence"),
    (plant([float("inf"), 0.0]), "subspace 3 has a non-finite entry"),
    (plant([0.0, float("nan")]), "subspace 3 has a non-finite entry"),
    (lambda member: [row.append([0.0, 0.0]) for row in member], SHAPE)])
def test_malformed_member_is_named(spoil, message):
    # the list is read in one array; a failure is traced to its member
    doc = code_to_dict(random_code(4, 2, 5, seed=812))
    spoil(doc["subspaces"][3])
    with pytest.raises(FormatError) as exc:
        code_from_dict(doc)
    assert str(exc.value).startswith(message)


# the fuzz suite: every document below is malformed by construction, and
# each must fail as a GrasscodeError with its documented exit code, from the
# library and from the command line, never with a traceback or exit 0
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30)
    | st.floats() | st.text(max_size=6),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8)


def finite_pair(v):
    return (isinstance(v, list) and len(v) == 2
            and all(type(x) in (int, float) and math.isfinite(x) for x in v))


@st.composite
def malformed_documents(draw):
    doc = copy.deepcopy(VALID)
    kind = draw(st.sampled_from(["header", "drop", "entry", "scale", "rows",
                                 "labels", "top"]))
    if kind == "header":
        key = draw(st.sampled_from(["format", "n", "m", "subspaces"]))
        doc[key] = draw(json_values.filter(lambda v: v != VALID[key]))
    elif kind == "drop":
        del doc[draw(st.sampled_from(["format", "n", "m", "subspaces"]))]
    elif kind == "entry":
        member = doc["subspaces"][draw(st.integers(0, 1))]
        row = member[draw(st.integers(0, 2))]
        row[draw(st.integers(0, 1))] = draw(
            json_values.filter(lambda v: not finite_pair(v)))
    elif kind == "scale":
        # one column times a factor far from 1: orthonormality is lost
        factor = draw(st.floats(0, 1e300).filter(lambda f: abs(f - 1) > 1e-3))
        col = draw(st.integers(0, 1))
        for row in doc["subspaces"][draw(st.integers(0, 1))]:
            row[col] = [factor * x for x in row[col]]
    elif kind == "rows":
        member = doc["subspaces"][draw(st.integers(0, 1))]
        if draw(st.booleans()):
            member.pop(draw(st.integers(0, 2)))
        else:
            member.append(copy.deepcopy(member[0]))
    elif kind == "labels":
        doc["labels"] = draw(json_values.filter(
            lambda v: v is not None
            and not (isinstance(v, list) and len(v) == 2)))
    else:
        doc = draw(json_values.filter(
            lambda v: not isinstance(v, dict)
            or v.get("format") != "grasscode-v1"))
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(malformed_documents())
def test_fuzz_malformed_documents_fail_cleanly(doc):
    with pytest.raises(GrasscodeError) as caught:
        code_from_dict(doc)
    code, out, err = info_exit(json.dumps(doc).encode())
    assert code == caught.value.exit_code == 1
    assert out == "" and err.startswith("error: ")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
def test_fuzz_arbitrary_bytes_fail_cleanly(data):
    code, out, err = info_exit(data)
    assert code == 1
    assert out == "" and err.startswith("error: ")
