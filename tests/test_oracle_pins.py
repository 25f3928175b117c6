"""Byte-level pins on the contract surface of ``__ray_entry__.py``.

``tests/oracle_pins.json`` holds the sha256 of every ``oracle_sql()`` string
and the sorted ``queries()`` names.  The oracle SQL is composed from shared
fragments in ``__ray_entry__.py``; these pins make any change to a composed
string (a dropped space, a reordered CTE) a test failure rather than a
silent change to what the contract checks.  Regenerate the file only when
an oracle is meant to change, and say why in CHANGES.md.
"""

import hashlib
import json
import os

import __ray_entry__ as entrymod

PINS = json.load(open(os.path.join(os.path.dirname(__file__), "oracle_pins.json")))


def test_query_names_pinned():
    assert sorted(entrymod.queries()) == PINS["queries"]


def test_oracle_sql_byte_identical():
    got = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in entrymod.oracle_sql().items()}
    assert sorted(got) == sorted(PINS["oracle_sql"])
    changed = sorted(k for k in got if got[k] != PINS["oracle_sql"][k])
    assert not changed, f"oracle SQL changed: {changed}"
