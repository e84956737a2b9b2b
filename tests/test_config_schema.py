"""The config key table in ``cli`` against the JSON Schema it replaced.

``config_schema.json`` next to this file is the schema the CLI once checked
configs with; ``jsonschema``'s Draft 2020-12 validator reads it as the
reference.  The two must name the same top-level keys for every document,
except that the table also rejects integral floats such as ``60.0`` on
integer keys, which Draft 2020-12 counts as integers.
"""

import json
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from caponplus.cli import DEFAULT_CONFIG, _violations
from caponplus.presets import PRESETS

SCHEMA = json.loads((Path(__file__).parent / "config_schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)
INTEGER_KEYS = {key for key, rule in SCHEMA["properties"].items() if rule.get("type") == "integer"}

# Values tried in any slot: every JSON type, bools, integral floats, numbers
# at and beyond each bound (DOAs at -90 and 90 among them), each key's
# allowed strings, empty strings, good and bad number arrays, and whole,
# partial, empty and over-full sweep objects.
VALUES = [
    None, True, False,
    -1, 0, 1, 2, 7, 60, 10**20,
    -90, 90, -90.0, 90.0, -90.5, 89.999, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 60.0, 1e300,
    "", "x", "oracle", "c", "alpha_sweep", "gaussian", "psk8", "snr_db", "t0", "alpha",
    "exact", "measured", "csv", "json", "r.csv",
    [], [0.0], [-90, 45.0], [90], [-90.5, 0], [1, "a"], [True], [None], [[1.0]], {},
    {"variable": "t0"}, {"values": [30, 60]}, {"variable": "snr_db", "values": []},
    {"variable": "alpha", "values": [0.5]}, {"variable": "t0", "values": [30], "step": 1},
    {"variable": "power", "values": [1]}, {"variable": "t0", "values": 30},
    {"variable": "t0", "values": [30.0, True]},
]
UNKNOWN_KEYS = ["mystery_knob", "Antennas", "variable", "values", "sweep.values", ""]


@st.composite
def mutated_configs(draw):
    """A valid config (some keys of the defaults or of a preset) with up to
    four keys, known or unknown, set to values from :data:`VALUES`."""
    base = draw(st.sampled_from([DEFAULT_CONFIG, *PRESETS.values()]))
    keep = draw(st.lists(st.sampled_from(sorted(base)), unique=True))
    doc = {key: base[key] for key in keep}
    slots = st.sampled_from(sorted(DEFAULT_CONFIG) + UNKNOWN_KEYS)
    for key in draw(st.lists(slots, max_size=4)):
        doc[key] = draw(st.sampled_from(VALUES))
    return doc


def schema_names(doc: dict) -> set:
    names = set()
    for error in VALIDATOR.iter_errors(doc):
        if error.absolute_path:
            names.add(error.absolute_path[0])
        else:  # additionalProperties at the top level
            names |= set(doc) - set(SCHEMA["properties"])
    return names


def table_names(doc: dict) -> set:
    """The top-level keys the table rejects; each is checked on its own."""
    return {key for key in doc if _violations({key: doc[key]})}


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(mutated_configs())
@example(dict(DEFAULT_CONFIG))
@example({"sweep.variable": "t0", "sweep.values": [30.0]})
@example({"snapshots": 60.0, "seed": -1.0, "interferer_doas_deg": [-90, 90.0]})
def test_table_names_the_keys_the_schema_names(doc):
    integral_floats = {key for key in INTEGER_KEYS & set(doc)
                       if isinstance(doc[key], float) and doc[key].is_integer()}
    assert table_names(doc) == schema_names(doc) | integral_floats
    per_key = [v for key in doc for v in _violations({key: doc[key]})]
    assert sorted(_violations(doc)) == sorted(per_key)

