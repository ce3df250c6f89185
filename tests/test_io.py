import json

import numpy as np
import pytest

from grasscode.constructions import mub_code
from grasscode.errors import FormatError
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


def test_seventeen_digit_precision(tmp_path):
    S = random_code(6, 3, 3, seed=807)
    path = tmp_path / "c.json"
    write_code(S, path)
    T = read_code(path)
    for s, t in zip(S, T):
        assert np.abs(s.basis - t.basis).max() < 1e-16
