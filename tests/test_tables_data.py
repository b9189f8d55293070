"""Guards on the embedded move-table data.

The table entries are transcribed ground truth; the checksum pins the
file byte for byte so that accidental edits fail loudly, and the spot
checks below re-state a sample of rows as literals so a bad transcription
cannot hide behind its own checksum.
"""

import hashlib
from importlib import resources

from linkhom.closure import get_row, move_tables

EXPECTED_SHA256 = "3df2e614b017fc6a8283fa9c399f4fdb00b3e68689278e090dc09706877c2782"


def test_checksum():
    blob = resources.files("linkhom").joinpath("move_tables.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == EXPECTED_SHA256


def test_structure_sources_below_targets():
    for rows in move_tables().values():
        for row in rows:
            targets = set(row.targets())
            for target, pairs in row.increments:
                for source, sign in pairs:
                    assert len(source) < len(target)
                    assert sign in (1, -1)
                    assert source not in targets


def test_row_numbering_and_counts():
    tables = move_tables()
    for name, rows in tables.items():
        assert [r.row for r in rows] == list(range(1, len(rows) + 1))
    assert all(r.pc is not None for r in tables["n3-partial-conjugations"])
    assert all(r.pc is not None for r in tables["n4-partial-conjugations"])
    assert all(r.pc is not None for r in tables["n4-generating"])
    assert all(r.pc is not None for r in tables["n5-split-generating"])
    assert all(r.pc is None for r in tables["n4-closure-moves"])
    assert all(r.pc is None for r in tables["n5-split-closure-moves"])


def incs(table, row):
    return {
        ".".join(map(str, t)): sorted(
            (".".join(map(str, s)), sign) for s, sign in pairs
        )
        for t, pairs in get_row(table, row).increments
    }


def test_spot_check_n4_closure_moves():
    assert incs("n4-closure-moves", 5) == {
        "1.2.3.4": [("1.4", 1)],
        "1.3.2.4": [("1.4", -1)],
    }


def test_spot_check_n4_partial_conjugations():
    assert incs("n4-partial-conjugations", 6) == {
        "1.2.4": [("1.2", 1)],
        "2.3.4": [("2.3", -1)],
        "1.3.2.4": [("1.2.3", -1)],
    }
    assert incs("n4-partial-conjugations", 3) == {
        "1.2.4": [("1.2", -1)],
        "1.3.4": [("1.3", -1)],
        "1.2.3.4": [("1.2.3", -1)],
        "1.3.2.4": [("1.2.3", 1)],
    }


def test_spot_check_n5_generating():
    assert incs("n5-split-generating", 1) == {
        "1.2.3.4": [("1.3.4", 1)],
        "1.2.3.5": [("1.3.5", 1)],
        "1.2.4.5": [("1.4.5", 1)],
        "1.2.3.4.5": [("1.3.4.5", 1)],
        "1.2.4.3.5": [("1.4.3.5", 1)],
    }
    assert incs("n5-split-generating", 8) == {
        "1.2.3.4": [("1.3.4", -1)],
        "1.2.3.5": [("1.3.5", -1)],
        "1.3.2.4": [("1.3.4", 1)],
        "1.3.2.5": [("1.3.5", 1)],
        "2.3.4.5": [("3.4.5", -1)],
        "1.2.3.4.5": [("1.3.4.5", -1)],
        "1.3.2.4.5": [("1.3.4.5", 1)],
        "1.4.2.3.5": [("1.4.3.5", -1)],
        "1.4.3.2.5": [("1.4.3.5", 1)],
    }
    assert incs("n5-split-generating", 6)["1.3.4.2.5"] == [
        ("1.2.3.4", 1), ("1.3.2.4", 1),
    ]


def test_spot_check_n5_closure_moves():
    assert incs("n5-split-closure-moves", 13) == {
        "1.2.3.4.5": [("2.3.4", 1)],
        "1.2.4.3.5": [("2.3.4", -1)],
        "1.3.4.2.5": [("2.3.4", -1)],
        "1.4.3.2.5": [("2.3.4", 1)],
    }
    assert incs("n5-split-closure-moves", 19) == {"1.2.3.4.5": [("3.4.5", 1)]}
