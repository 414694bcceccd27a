"""Matrix file ingestion: MatrixMarket symmetric coordinate and raw dense.

Raw format: first line the dimension d, then d*d whitespace-separated
row-major floats (line breaks anywhere).  Both readers skip a leading
byte-order mark and reject, naming its line, a dimension below 1, a byte
that is not UTF-8 and a NaN or infinite entry, as the MatrixMarket reader
does a pair (i, j) given twice, also as (j, i).  They enforce symmetry by
averaging M/2 + M^T/2 (linalg.symmetrize) and report the maximum asymmetry
found; one past the largest float is an error, reported at the last line.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MatrixParseError
from .linalg import SymMatrix, symmetrize


# The sha256 of the bytes of the last file parsed without error, and its result.
_last = (None, None)


def parse_matrix_file(path: str) -> tuple[SymMatrix, float]:
    """Read a matrix file, returning (matrix, max asymmetry before averaging).

    While the file's bytes equal those of the previous successful call, that
    call's result is returned again.  Its entries are read-only, so no caller
    can change what the next one gets.
    """
    global _last
    import hashlib  # here, to keep it off every other subcommand's start-up
    import io

    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).digest()
    if digest == _last[0]:
        return _last[1]
    try:
        lines = io.TextIOWrapper(io.BytesIO(data),
                                 encoding="utf-8-sig").readlines()
    except UnicodeDecodeError:
        raise MatrixParseError("not UTF-8 text", _undecodable_line(data)) from None
    del data  # no copy of the file stays alive through the parse
    if lines and lines[0].startswith("%%MatrixMarket"):
        m = _parse_matrix_market(lines)
    else:
        m = _parse_raw(lines)
    with np.errstate(over="ignore"):
        asym = float(np.max(np.abs(m - m.T)))
    if asym == math.inf:
        raise MatrixParseError("asymmetry max |M - M^T| overflows", len(lines))
    mat = symmetrize(m)
    mat.entries.flags.writeable = False
    _last = digest, (mat, asym)
    return mat, asym


def _undecodable_line(data: bytes) -> int:
    """Number of the line holding the first byte of data that is not UTF-8."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1


def _parse_raw(lines: list[str]) -> np.ndarray:
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines)]
    rows = [(no, ln) for no, ln in rows if ln]
    if not rows:
        raise MatrixParseError("empty file", 1)
    header_no, header = rows[0]
    try:
        d = int(header)
    except ValueError:
        raise MatrixParseError(f"expected integer dimension, got {header!r}", header_no)
    if d < 1:
        raise MatrixParseError("dimension must be >= 1", header_no)
    values = []
    for no, ln in rows[1:]:
        toks = ln.split()
        before = len(values)
        try:
            values += map(float, toks)
            ok = math.isfinite(sum(values[before:]))
        except ValueError:
            ok = False
        if not ok:
            # Report what a token-by-token read meets first: a bad or
            # non-finite token, or the entry past d*d when that comes before
            # it.  A sum that overflowed on finite entries is no error.
            bad = [(k, why) for k, why in enumerate(map(_bad_entry, toks)) if why]
            if bad:
                k, why = bad[0]
                if before + k < d * d:
                    raise MatrixParseError(f"{why} entry {toks[k]!r}", no)
                raise MatrixParseError(f"more than {d * d} entries", no)
        if len(values) > d * d:
            raise MatrixParseError(f"more than {d * d} entries", no)
    if len(values) != d * d:
        last = rows[-1][0]
        raise MatrixParseError(
            f"expected {d * d} entries, got {len(values)}", last
        )
    return np.array(values).reshape(d, d)


def _bad_entry(tok: str):
    """None if tok is a finite float, else why it is no entry: "bad" or
    "non-finite"."""
    try:
        return None if math.isfinite(float(tok)) else "non-finite"
    except ValueError:
        return "bad"


def _parse_matrix_market(lines: list[str]) -> np.ndarray:
    header = lines[0].strip().lower().split()
    # %%MatrixMarket matrix coordinate real symmetric
    if header[1:] != ["matrix", "coordinate", "real", "symmetric"]:
        raise MatrixParseError(
            "only 'matrix coordinate real symmetric' is supported", 1
        )
    idx = 1
    while idx < len(lines) and lines[idx].lstrip().startswith("%"):
        idx += 1
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise MatrixParseError("missing size line", len(lines))
    size_no = idx + 1
    parts = lines[idx].split()
    if len(parts) != 3:
        raise MatrixParseError("size line must be 'rows cols nnz'", size_no)
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixParseError("size line must contain integers", size_no)
    if rows != cols:
        raise MatrixParseError(f"matrix must be square, got {rows}x{cols}", size_no)
    if rows < 1:
        raise MatrixParseError("dimension must be >= 1", size_no)
    m = np.zeros((rows, cols))
    given = set()
    for off, ln in enumerate(lines[idx + 1 :], start=size_no + 1):
        if not ln.strip() or ln.lstrip().startswith("%"):
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise MatrixParseError("entry line must be 'i j value'", off)
        try:
            i, j = int(parts[0]), int(parts[1])
            val = float(parts[2])
        except ValueError:
            raise MatrixParseError(f"bad entry line {ln.strip()!r}", off)
        if not math.isfinite(val):
            raise MatrixParseError(f"non-finite entry {parts[2]!r}", off)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixParseError(f"index ({i},{j}) out of range", off)
        pair = (min(i, j), max(i, j))
        if pair in given:
            raise MatrixParseError(f"entry ({i},{j}) given twice", off)
        given.add(pair)
        m[i - 1, j - 1] = val
        m[j - 1, i - 1] = val
    if len(given) != nnz:
        raise MatrixParseError(f"expected {nnz} entries, found {len(given)}",
                               len(lines))
    return m

