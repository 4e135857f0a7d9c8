"""The one output format of every table the package writes.

A table is a tuple of (header, accessor) columns, declared next to its
record type. In CSV a float cell is repr(float(v)), a bool (numpy's too)
is true/false, an int or str is str(v), and None, a value that does not
exist, is nan. JSON is json.dump's indent=2 text, one object per record:
the same floats, true/false, and null for None.
"""

import json

import numpy as np

# rows converted at a time: a float column goes through one C-level map,
# yet a long trajectory is never held whole as Python floats or text
BATCH_ROWS = 4096


def header(columns):
    """The CSV header line of a table, without its newline."""
    return ",".join(name for name, _ in columns)


def _cell(value):
    if value is None:
        return "nan"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _texts(values):
    if isinstance(values, np.ndarray):
        if values.dtype == bool:
            return [("false", "true")[v] for v in values.tolist()]
        values = values.tolist()
    try:
        # float.__repr__(v) is repr(float(v)), numpy floats included; any
        # other value raises TypeError
        return list(map(float.__repr__, values))
    except TypeError:
        return list(map(_cell, values))


def _write_columns(columns, values, stream):
    """Write the header, then one line per index into the value columns."""
    stream.write(header(columns) + "\n")
    for i in range(0, len(values[0]), BATCH_ROWS):
        text = [_texts(column[i:i + BATCH_ROWS]) for column in values]
        stream.write("\n".join(map(",".join, zip(*text))) + "\n")


def write_csv(columns, records, stream):
    """Write the header, then one line per record."""
    records = list(records)
    _write_columns(columns, [list(map(get, records)) for _, get in columns],
                   stream)


def write_array_csv(columns, source, stream, every=1):
    """Write one line per array element: each accessor maps source to a
    1-D array, of which every every-th element is written."""
    _write_columns(columns, [get(source)[::every] for _, get in columns],
                   stream)


def write_json(columns, records, stream):
    """Write a list of objects keyed by the column headers."""
    json.dump([{name: get(r) for name, get in columns} for r in records],
              stream, indent=2)
    stream.write("\n")
