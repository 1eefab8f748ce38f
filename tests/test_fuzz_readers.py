"""Fuzz the document readers: whatever the text, a reader returns a value or
raises a ``PhotonGraphError``, never another exception."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph.cli import _load_matrix

# Every key a graph, state or plan document knows, so that generated
# documents get past the top-level checks and reach the field validators.
_KEYS = st.sampled_from(
    ["vertices", "measured", "edges", "id", "u", "v", "mode_u", "mode_v", "amp_mag", "amp_phase_rad",
     "layer", "modes", "detectors", "layers", "wiring", "a", "b"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), -1, 0, 1, 2])
    | st.floats()
    | st.sampled_from(["a", "b", "c", "e0", ""])
    | st.text(max_size=3)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS | st.text(max_size=2), inner, max_size=6),
    max_leaves=24,
)
_TEXTS = _VALUES.map(json.dumps) | st.text(max_size=40) | st.integers(0, 3000).map(lambda d: "[" * d + "]" * d)


def _reads_or_refuses(read, text):
    try:
        read(text)
    except pg.PhotonGraphError:
        pass


@pytest.mark.parametrize("read", [pg.parse_graph, pg.parse_state, pg.parse_plan], ids=["graph", "state", "plan"])
@given(text=_TEXTS)
@settings(max_examples=100, deadline=None)
def test_reader_returns_a_value_or_a_photongraph_error(read, text):
    _reads_or_refuses(read, text)


@given(data=_TEXTS.map(str.encode) | st.binary(max_size=40))
@settings(max_examples=100, deadline=None)
def test_matrix_loader_returns_a_value_or_a_photongraph_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        _reads_or_refuses(_load_matrix, str(path))
