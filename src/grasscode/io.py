"""Reading and writing codes in the grasscode-v1 JSON exchange format.

A file is a UTF-8 JSON document

    {"format": "grasscode-v1", "n": 4, "m": 2,
     "subspaces": [ [[ [re,im], ... m entries ], ... n rows ], ... ]}

with plain decimal numbers (repr round-trip, at most 17 significant digits).
An optional "labels" list is written when the code carries labels; unknown
keys are ignored on read.  Loaded bases must pass the orthonormality check.
"""

import json

from .core_linalg import Code, Subspace
from .errors import FormatError, RankDeficient

import numpy as np

FORMAT_NAME = "grasscode-v1"


def code_to_dict(code):
    "JSON-ready dict in the exchange format"
    subs = []
    for s in code.members:
        rows = [[[float(z.real), float(z.imag)] for z in row] for row in s.basis]
        subs.append(rows)
    doc = {"format": FORMAT_NAME, "n": code.n, "m": code.m, "subspaces": subs}
    if code.labels is not None:
        doc["labels"] = list(code.labels)
    return doc


def write_code(code, path):
    "write a Code to a grasscode-v1 file (canonical text: sorted keys, no spaces)"
    doc = code_to_dict(code)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
        fp.write("\n")


def code_from_dict(doc, tol=1e-8):
    "parse and validate a dict in the exchange format"
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise FormatError("not a %s document" % FORMAT_NAME)
    try:
        n = int(doc["n"])
        m = int(doc["m"])
        subs = doc["subspaces"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError("missing or malformed header field: %s" % exc) from None
    if not isinstance(subs, list) or not subs:
        raise FormatError("subspaces must be a nonempty list")
    members = []
    for idx, rows in enumerate(subs):
        try:
            arr = np.asarray(rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError("subspace %d: %s" % (idx, exc)) from None
        if arr.shape != (n, m, 2):
            raise FormatError(
                "subspace %d has shape %r, expected (%d,%d,2)" % (idx, arr.shape, n, m))
        if not np.isfinite(arr).all():
            raise FormatError("subspace %d has a non-finite entry" % idx)
        members.append(Subspace(arr[..., 0] + 1j * arr[..., 1]))
        try:
            members[-1].validate(tol)
        except RankDeficient as exc:
            raise FormatError("subspace %d: %s" % (idx, exc)) from None
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(members):
            raise FormatError("labels list does not match subspace count")
        labels = [str(x) for x in labels]
    return Code(members, labels=labels, check_duplicates=False)


def read_code(path, tol=1e-8):
    "read and validate a grasscode-v1 file"
    with open(path, "r", encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as exc:
            raise FormatError("invalid JSON: %s" % exc) from None
    return code_from_dict(doc, tol=tol)
