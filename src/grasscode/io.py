"""Reading and writing codes in the grasscode-v1 JSON exchange format.

A file is a UTF-8 JSON document

    {"format": "grasscode-v1", "n": 4, "m": 2,
     "subspaces": [ [[ [re,im], ... m entries ], ... n rows ], ... ]}

with plain decimal numbers (repr round-trip, at most 17 significant digits).
An optional "labels" list is written when the code carries labels; unknown
keys are ignored on read.  Loaded bases must pass the orthonormality check,
and repeated members are refused at the code's first pair request.
"""

import json
from itertools import chain

from .core_linalg import Code, orthonormality_defects
from .errors import FormatError, RankDeficient

import numpy as np

FORMAT_NAME = "grasscode-v1"


def code_to_dict(code):
    "JSON-ready dict in the exchange format; a non-finite entry is refused"
    B = code.bases
    bad = np.flatnonzero(~np.isfinite(B).all(axis=(1, 2)))
    if bad.size:
        raise FormatError("subspace %d has a non-finite entry" % bad[0])
    doc = {"format": FORMAT_NAME, "n": code.n, "m": code.m,
           "subspaces": np.stack([B.real, B.imag], -1).tolist()}
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


def _scalars(subs):
    "the entries of a list of members of rows of [re, im] pairs, in order"
    return chain.from_iterable(chain.from_iterable(chain.from_iterable(subs)))


def _member(rows, idx, n, m):
    """member idx as an (n, m, 2) float array, or a FormatError naming it: a
    string, null or an integer beyond int64 leaves no numeric dtype, and a
    boolean among numbers is upcast, so it is looked for"""
    try:
        arr = np.asarray(rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError("subspace %d: %s" % (idx, exc)) from None
    if (arr.shape != (n, m, 2) or arr.dtype.kind not in "iuf"
            or bool in set(map(type, _scalars([rows])))):
        raise FormatError("subspace %d: not %d rows of %d [re, im] "
                          "number pairs" % (idx, n, m))
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise FormatError("subspace %d has a non-finite entry" % idx)
    return arr


def code_from_dict(doc, tol=1e-8):
    "parse and validate a dict in the exchange format"
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise FormatError("not a %s document" % FORMAT_NAME)
    try:
        n, m, subs = doc["n"], doc["m"], doc["subspaces"]
    except KeyError as exc:
        raise FormatError("missing header field: %s" % exc) from None
    for key, val in (("n", n), ("m", m)):
        if type(val) is not int or val < 1:   # not 2.7, 1e999 or true
            raise FormatError("%s must be an integer >= 1, got %r" % (key, val))
    if not isinstance(subs, list) or not subs:
        raise FormatError("subspaces must be a nonempty list")
    try:   # the whole list at once; a member found wrong is named below
        arr = np.asarray(subs)
        ok = (arr.shape == (len(subs), n, m, 2) and arr.dtype.kind in "iuf"
              and bool not in set(map(type, _scalars(subs))))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        arr = np.array([_member(rows, idx, n, m)
                        for idx, rows in enumerate(subs)])
    arr = arr.astype(float)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=(1, 2, 3)))
    if bad.size:
        raise FormatError("subspace %d has a non-finite entry" % bad[0])
    bases = arr[..., 0] + 1j * arr[..., 1]
    try:
        orthonormality_defects(bases, tol)
    except RankDeficient as exc:
        raise FormatError(str(exc)) from None
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(subs):
            raise FormatError("labels list does not match subspace count")
        labels = [str(x) for x in labels]
    return Code(bases, labels=labels)


def read_code(path, tol=1e-8):
    "read and validate a grasscode-v1 file"
    with open(path, "r", encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except (ValueError, RecursionError) as exc:   # also bad UTF-8
            raise FormatError("invalid JSON: %s" % exc) from None
    return code_from_dict(doc, tol=tol)
