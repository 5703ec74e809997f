"""Property test: GlobalIndex.query against a brute-force byte model.

The extent-map tests verify ownership; this verifies the *read planner*
end to end: for random record sets and random queries, materialising the
plan must reproduce exactly the bytes a naive byte-at-a-time model holds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plfs import constants
from repro.plfs.index import GlobalIndex, make_record

LIMIT = 600

records_strategy = st.lists(
    st.tuples(
        st.integers(0, LIMIT - 1),  # logical offset
        st.integers(1, 80),  # length
        st.integers(0, 3),  # dropping id
    ),
    min_size=0,
    max_size=25,
)

queries_strategy = st.lists(
    st.tuples(st.integers(0, LIMIT + 50), st.integers(0, 120)),
    min_size=1,
    max_size=10,
)


def materialise(plan, droppings: dict[int, bytes]) -> bytes:
    out = bytearray()
    for piece in plan:
        if piece.dropping == constants.HOLE:
            out.extend(b"\x00" * piece.length)
        else:
            data = droppings[piece.dropping]
            out.extend(data[piece.physical_offset : piece.physical_offset + piece.length])
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(records=records_strategy, queries=queries_strategy)
def test_query_plans_reproduce_model_bytes(records, queries):
    # Build per-dropping "data files" and the model byte array.  Each
    # dropping's payload is distinct so misplaced physical offsets show.
    phys_cursor = {d: 0 for d in range(4)}
    payloads = {d: bytearray() for d in range(4)}
    model = bytearray()
    all_records = []
    for ts, (offset, length, dropping) in enumerate(records):
        chunk = bytes(
            (17 * (ts + 1) + i * (dropping + 3)) % 251 + 1 for i in range(length)
        )
        rec = make_record(
            logical_offset=offset,
            physical_offset=phys_cursor[dropping],
            length=length,
            pid=dropping,
            timestamp=float(ts),
            dropping=dropping,
        )
        all_records.append(rec)
        payloads[dropping].extend(chunk)
        phys_cursor[dropping] += length
        if len(model) < offset + length:
            model.extend(b"\x00" * (offset + length - len(model)))
        model[offset : offset + length] = chunk

    index = (
        GlobalIndex([b"".join(all_records)]) if all_records else GlobalIndex()
    )
    droppings = {d: bytes(p) for d, p in payloads.items()}

    assert index.logical_size == len(model)

    for offset, count in queries:
        plan = index.query(offset, count)
        expected = bytes(model[offset : offset + count])
        assert materialise(plan, droppings) == expected
        # Plan pieces must be contiguous and within the request.
        pos = offset
        for piece in plan:
            assert piece.logical_offset == pos
            assert piece.length > 0
            pos += piece.length
        assert pos <= min(offset + count, len(model)) or not plan
