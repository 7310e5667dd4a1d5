"""The writers of every output file: JSON and CSV written from arrays.

``write_json`` is the one JSON writer: it writes the bytes of
``json.dumps(jsonify(obj), indent=2, sort_keys=True)`` and a newline, and
``jsonify`` makes numpy arrays and scalars, dataclasses and ``IntRows``
JSON values.  ``write_csv`` is the one CSV writer: the bytes of
``csv.writer`` in its excel dialect, fed ints, ``repr`` of floats and empty
cells for NaN.  Both write from the arrays the routes hold, with no list or
row object per draw or replica row between them and the file: a sample's
draws come as one ``IntRows`` array, written by one join, and a column of
few distinct values as ``Cells``, each value formatted once.
"""
from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np


class IntRows(NamedTuple):
    """Int lists of unequal lengths held in one array: list i holds the
    non-negative entries of row i of ``padded``, in order, so that the -1
    padding of ``sampler.decode_edges`` drops out.  ``jsonify`` makes it a
    list of lists; ``write_json`` writes it from the array."""

    padded: np.ndarray


class Cells(NamedTuple):
    """A CSV column of few distinct values: row i holds ``values[codes[i]]``.
    ``write_csv`` formats each of ``values`` once and writes the rows from
    those cells."""

    values: np.ndarray
    codes: np.ndarray


def jsonify(obj):
    """Recursively convert numpy scalars/arrays, dataclasses and ``IntRows`` for json."""
    if isinstance(obj, IntRows):
        return [row[row >= 0].tolist() for row in obj.padded]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonify(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        # bool and int items are their own JSON values: no walk
        return obj.tolist() if obj.dtype.kind in "biu" else [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, list) and set(map(type, obj)) <= {int}:
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def _json_scalar(v) -> str:
    """JSON text of a string, number, bool or None as ``json.dumps`` writes
    its ``jsonify``: a numpy number as its Python value, a NaN as null."""
    if isinstance(v, (np.floating, np.integer)):
        v = v.item()
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if math.isfinite(v):
            return float.__repr__(v)
        return "null" if v != v else "Infinity" if v > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _json_text(obj, indent: str) -> str:
    """``json.dumps(jsonify(obj), indent=2, sort_keys=True)``, nested
    ``indent`` deep, in one walk that converts what it writes.  A list that
    holds no container is rendered by one ``str.join`` over its items,
    through ``repr`` when every item is an int; an ``IntRows`` from its
    array (``_int_rows_text``)."""
    if isinstance(obj, IntRows):
        return _int_rows_text(obj.padded, indent)
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        brackets = "{}"
        keyed = {str(k): v for k, v in obj.items()}
        items = (f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(keyed.items()))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        brackets = "[]"
        types = set(map(type, obj))
        if types == {int}:
            items = map(repr, obj)
        elif not any(issubclass(t, (list, tuple, dict, np.ndarray)) or is_dataclass(t) for t in types):
            items = map(_json_scalar, obj)
        else:
            items = (_json_text(v, inner) for v in obj)
    else:
        return _json_scalar(obj)
    body = (",\n" + inner).join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _int_rows_text(rows: np.ndarray, indent: str) -> str:
    """The JSON text of ``IntRows(rows)``, nested ``indent`` deep, as one
    join over tokens placed by index arithmetic: per list its opening
    (after the comma that ends the list before it), then per entry its
    digits and what follows them, a comma or the list's close.  The digits
    come from one table over the entries' range when it is no longer than
    twice their count."""
    if not len(rows):
        return "[]"
    inner, item = indent + "  ", indent + "    "
    live = rows >= 0
    lens = live.sum(axis=1)
    ends = np.cumsum(1 + 2 * lens)   # past each list's tokens
    heads = ends - 1 - 2 * lens      # each list's opening
    tokens = np.empty(ends[-1], dtype=object)
    tokens.fill(",\n" + item)   # one string in every slot: np.full would copy it into each
    opens = np.array(["[]", "[\n" + item, ",\n" + inner + "[]", ",\n" + inner + "[\n" + item],
                     dtype=object)
    tokens[heads] = opens[(lens > 0) + 2 * (np.arange(len(rows)) > 0)]
    tokens[ends[lens > 0] - 1] = "\n" + inner + "]"
    values = rows[live]
    if values.size:
        at = np.repeat(heads + 1 - 2 * (np.cumsum(lens) - lens), lens) + 2 * np.arange(values.size)
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < 2 * values.size:
            tokens[at] = np.array(list(map(repr, range(lo, hi + 1))), dtype=object)[values - lo]
        else:
            tokens[at] = np.array(list(map(repr, values.tolist())), dtype=object)
    return f"[\n{inner}{''.join(tokens.tolist())}\n{indent}]"


def write_json(obj, path: str) -> None:
    """Write ``json.dumps(jsonify(obj), indent=2, sort_keys=True)`` and a
    newline to ``path``, byte for byte, in one write.

    ``json`` falls back to its pure-Python encoder whenever it indents,
    and walks every int of a sample's draws one call at a time; here the
    conversion and the text are one walk, each list of scalars
    (coefficients, spectra) is joined in one call, an ``IntRows`` (a
    sample's draws) is written from its array, and only the nesting above
    them runs in Python.
    """
    text = _json_text(obj, "") + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# the cells of a CSV table formatted and written at a time: their strings
# are small objects, and the allocator keeps what a block of them grew
CSV_BLOCK_CELLS = 1 << 10


def _cells(values: np.ndarray) -> list:
    """The CSV cells of an int or float array: an int by str, a float by
    repr, NaN empty."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def write_csv(path: str, columns: dict) -> None:
    """Write ``columns`` (name -> an int or float array, one entry per row,
    or its ``Cells``) to ``path`` with the bytes of ``csv.writer`` in its
    excel dialect, fed ints, ``repr`` of the floats and empty cells for NaN:
    a row is its cells joined by "," and ended by "\\r\\n".  No cell of
    these tables needs quoting, and none is a row alone.  The rows are
    formatted column by column and written in blocks of about
    ``CSV_BLOCK_CELLS`` cells; the values of ``Cells`` once, up front."""
    keys = list(columns)
    coded = {key: np.array(_cells(col.values), dtype=object)
             for key, col in columns.items() if isinstance(col, Cells)}
    first = columns[keys[0]]
    rows = len(first.codes if keys[0] in coded else first)
    width = 2 * len(keys)   # a cell and what follows it
    block = max(1, CSV_BLOCK_CELLS // len(keys))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(keys) + "\r\n")
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            text = [","] * ((hi - lo) * width)
            text[width - 1 :: width] = ["\r\n"] * (hi - lo)
            for j, key in enumerate(keys):
                text[2 * j :: width] = (coded[key][columns[key].codes[lo:hi]].tolist() if key in coded
                                        else _cells(columns[key][lo:hi]))
            fh.write("".join(text))
