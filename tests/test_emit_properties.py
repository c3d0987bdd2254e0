"""Emission round trip over every cell type the emitter writes: ints, bools,
None, floats across many exponents plus nan and inf, and non-numeric text
with commas, quotes and newlines.  ``emit_records`` -> ``load_records`` ->
``emit_records`` must reproduce the CSV bytes, and the JSONL stream and the
metadata sidecar must be strict JSON, the stream carrying the schema's field
names in order."""

import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from wrsim.cli import emit_records, load_records


def _refuse(token):
    raise ValueError(f"bare {token} in JSON output")


def _numeric(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0),
              st.integers(-300, 300)),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0]))
TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(["a", ",", '"', "\n", "\r", " ", "x y", "''"]),
             max_size=8).map("".join),
).filter(lambda t: not _numeric(t))
CELLS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)


@st.composite
def streams(draw):
    schema = draw(st.lists(TEXT, min_size=1, max_size=6, unique=True))
    records = draw(st.lists(
        st.fixed_dictionaries({key: CELLS for key in schema}), max_size=6))
    return schema, records


@settings(max_examples=300, deadline=None)
@given(streams())
def test_csv_round_trip_and_jsonl_fields(stream):
    schema, records = stream
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        emit_records(records, schema, first, "csv", {})
        loaded_schema, loaded = load_records(first + ".csv")
        assert loaded_schema == schema
        emit_records(loaded, loaded_schema, second, "csv", {})
        with open(first + ".csv", "rb") as a, open(second + ".csv", "rb") as b:
            assert a.read() == b.read()
        emit_records(records, schema, first, "jsonl", {"records": records})
        with open(first + ".jsonl") as fh:
            rows = [json.loads(line, parse_constant=_refuse) for line in fh]
        with open(first + ".meta.json") as fh:
            meta = json.load(fh, parse_constant=_refuse)
    assert [list(row) for row in rows] == [schema] * len(records)
    # JSON has no NaN or infinity: such a cell is its CSV text
    text = [{k: repr(v) if isinstance(v, float) and not math.isfinite(v)
             else v for k, v in record.items()} for record in records]
    assert rows == meta["records"] == text
