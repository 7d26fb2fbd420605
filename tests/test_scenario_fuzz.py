"""Mutated scenario documents load or fail with a field path, never crash."""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vanetsim.cli import main
from vanetsim.scenario import (
    BUILTIN_SCENARIOS,
    ConfigError,
    builtin_scenario,
    load_config,
    serialize_config,
)

# json.dumps cannot write 1e400 (it overflows to inf as a float), so a
# placeholder string is swapped for the raw token in the document text
OVERFLOW = "<1e400>"
BAD_VALUES = [
    math.nan, math.inf, -math.inf, OVERFLOW, 10**400, -1, -3, 0, 0.5, 2.0,
    True, False, None, "x", "", [], [1], [1, 2, 3], {}, {"kind": "x"},
]
BAD_IDS = [-1, -7, True, False, 1.0, 15.5]
EXTRA_KEYS = ["extra", "nodes", "kind", "range", "flow", "dsdv"]
FIELD_PATH = re.compile(r"[a-z_]+(\.[a-z_]+|\[\d+\])*: ")

DOCUMENTS = [json.loads(serialize_config(builtin_scenario(name, protocol)))
             for name in BUILTIN_SCENARIOS for protocol in ("AODV", "DSDV")]


ID_SLOTS = [("placements", 0), ("motions", 0), ("flows", "src"),
            ("flows", "sink")]


@st.composite
def mutated_documents(draw):
    """A builtin document with one to three mutations, as JSON text.

    Drawn values are copied, so a later mutation never edits BAD_VALUES.
    """
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    bad_id = draw(st.booleans())
    if bad_id:
        key, slot = draw(st.sampled_from(ID_SLOTS))
        item = draw(st.sampled_from(doc[key]))
        item[slot] = draw(st.sampled_from(BAD_IDS))
    for _ in range(draw(st.integers(0 if bad_id else 1, 2))):
        # descend from a top-level key, a coin flip per level, so whole
        # sections are hit as often as single numbers deep inside them
        parent, key = doc, draw(st.sampled_from(sorted(doc)))
        while (isinstance(parent[key], (list, dict)) and parent[key]
               and draw(st.booleans())):
            parent, key = parent[key], draw(st.sampled_from(
                sorted(parent[key]) if isinstance(parent[key], dict)
                else range(len(parent[key]))))
        kind = draw(st.sampled_from(["swap", "delete", "extra"]))
        if kind == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent[key], dict):
            parent[key][draw(st.sampled_from(EXTRA_KEYS))] = copy.deepcopy(
                draw(st.sampled_from(BAD_VALUES)))
    return json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400")


def load_or_error(text):
    """None if text loads, else the ConfigError message."""
    try:
        load_config(text)
    except ConfigError as e:
        return str(e)
    return None


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_documents())
def test_mutated_document_loads_or_names_field(text):
    message = load_or_error(text)
    assert message is None or FIELD_PATH.match(message), message


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(text=mutated_documents().filter(lambda t: load_or_error(t)))
def test_cli_rejects_mutated_document_without_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--scenario", str(path),
                         "--out", str(Path(tmp) / "out")])
    assert code == 1
    assert err.getvalue().startswith("error: ")
    assert FIELD_PATH.match(err.getvalue()[len("error: "):]), err.getvalue()
    assert "Traceback" not in err.getvalue()
