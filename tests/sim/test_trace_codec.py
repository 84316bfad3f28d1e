"""Trace payload codec: schema-2 columns are exact, schema 1 still reads.

Schema 2 writes every time and value column as base64 of little-endian
float64 and each distinct time vector once.  These properties pin that
decoding gives back bit-identical floats, that re-encoding gives the
same payload, and that decoding follows ``Trace.append``'s rules.
"""

import base64
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.trace import Trace, TraceSet

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-309, float("inf"), float("-inf")
]

#: Every float64 bit pattern class the codec must carry exactly.
samples = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, width=64),
    st.floats(min_value=-1e-307, max_value=1e-307, allow_subnormal=True),
)
times = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False)), max_size=12
).map(sorted)


def _bits(xs):
    return struct.pack(f"<{len(xs)}d", *xs)


def _column(*xs):
    return base64.b64encode(_bits(xs)).decode()


def _appended(name, ts, vs):
    trace = Trace(name)
    for t, v in zip(ts, vs):
        trace.append(t, v)
    return trace


@st.composite
def trace_sets(draw):
    """Traces with shared and private time vectors, plus aliases."""
    traces = TraceSet()
    shared = draw(times)
    names = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=6))
    for name in names:
        own = shared if draw(st.booleans()) else draw(times)
        # Repeated times in ``own`` exercise the equal-time overwrite.
        values = draw(st.lists(samples, min_size=len(own), max_size=len(own)))
        trace = traces.trace(name)
        for t, v in zip(own, values):
            trace.append(t, v)
    for alias in draw(st.lists(st.sampled_from("stuvwxyz"), unique=True, max_size=3)):
        if names:
            traces.alias(alias, draw(st.sampled_from(names)))
    return traces


@given(trace_sets())
def test_schema2_round_trip_is_bit_exact_and_byte_stable(traces):
    payload = traces.to_payload()
    rebuilt = TraceSet.from_payload(payload)
    assert rebuilt.names() == traces.names()
    for name in traces.names():
        assert _bits(rebuilt[name]._times) == _bits(traces[name]._times)
        assert _bits(rebuilt[name]._values) == _bits(traces[name]._values)
        # Aliases stay shared objects after the round trip.
        owners = [n for n in traces.names() if traces[n] is traces[name]]
        assert all(rebuilt[n] is rebuilt[name] for n in owners)
    assert rebuilt.to_payload() == payload


@given(trace_sets())
def test_each_distinct_time_vector_is_written_once(traces):
    payload = traces.to_payload()
    written = [entry["times"] for entry in payload.values() if "times" in entry]
    assert len(written) == len(set(written))
    for entry in payload.values():
        if "times_of" in entry:
            assert "times" in payload[entry["times_of"]]


@given(trace_sets())
def test_schema1_lists_decode_to_the_same_traces(traces):
    """A schema-1 payload (decimal lists) of the same traces decodes to
    bit-identical samples, and re-encodes to the schema-2 payload."""
    legacy = {}
    for name in traces.names():
        trace = traces[name]
        first = next(n for n in traces.names() if traces[n] is trace)
        legacy[name] = (
            {"alias": first}
            if first != name
            else {"times": list(trace._times), "values": list(trace._values)}
        )
    rebuilt = TraceSet.from_payload(legacy, 1)
    for name in traces.names():
        assert _bits(rebuilt[name]._times) == _bits(traces[name]._times)
        assert _bits(rebuilt[name]._values) == _bits(traces[name]._values)
    assert rebuilt.to_payload() == traces.to_payload()


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]), samples), max_size=10
    )
)
def test_decoding_follows_append_rules(pairs):
    """Any column pair decodes exactly as appending its samples would:
    backwards times raise, equal times keep the first time and the last
    value."""
    ts = [t for t, _ in pairs]
    vs = [v for _, v in pairs]
    payload = {"x": {"times": _column(*ts), "values": _column(*vs)}}
    try:
        want = _appended("x", ts, vs)
    except SimulationError:
        with pytest.raises(SimulationError, match="time went backwards"):
            TraceSet.from_payload(payload)
        return
    got = TraceSet.from_payload(payload)["x"]
    assert _bits(got._times) == _bits(want._times)
    assert _bits(got._values) == _bits(want._values)


def test_empty_and_single_sample_traces():
    traces = TraceSet()
    traces.trace("empty")
    traces.trace("one").append(-0.0, 5e-324)
    payload = traces.to_payload()
    assert payload["empty"] == {"times": "", "values": ""}
    assert payload["one"] == {"times": _column(-0.0), "values": _column(5e-324)}
    rebuilt = TraceSet.from_payload(payload)
    assert len(rebuilt["empty"]) == 0
    assert _bits(rebuilt["one"]._times) == _bits([-0.0])


def test_shared_time_vector_is_referenced_not_copied():
    traces = TraceSet()
    for t in (0.0, 1.0, 2.0):
        traces.trace("b").append(t, 2 * t)
        traces.trace("a").append(t, t)
    traces.trace("c").append(0.0, 9.0)
    payload = traces.to_payload()
    assert payload["a"] == {
        "times": _column(0.0, 1.0, 2.0),
        "values": _column(0.0, 1.0, 2.0),
    }
    assert payload["b"] == {"times_of": "a", "values": _column(0.0, 2.0, 4.0)}
    assert payload["c"] == {"times": _column(0.0), "values": _column(9.0)}


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"x": {"times": _column(0.0, 1.0), "values": _column(1.0)}},
            "2 times but 1 values",
        ),
        (
            {"x": {"times": _column(1.0, 0.0), "values": _column(1.0, 2.0)}},
            "went backwards",
        ),
        ({"x": {"times": "not base64!", "values": ""}}, "not base64 float64"),
        ({"x": {"times": "AAAA", "values": "AAAA"}}, "not base64 float64"),
        ({"x": {"times_of": "y", "values": _column(1.0)}}, "carries none"),
        ({"x": {"alias": "missing"}}, "no trace named"),
    ],
    ids=["length", "backwards", "not-base64", "partial-float", "times-of", "alias"],
)
def test_malformed_schema2_payloads_raise(payload, message):
    with pytest.raises(SimulationError, match=message):
        TraceSet.from_payload(payload)
