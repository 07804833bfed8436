"""Document hygiene enforced by tier-1."""

from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
#: lines that existed at 9081083, before the cap; they stay as written
UNCAPPED_LINES = 18
ENTRY_CAP = 3000


def test_new_changes_entries_are_capped():
    """A CHANGES.md entry says what changed, what was claimed, the verdict
    and where the numbers are (ROADMAP audit (i)) — in ≤ 3000 characters a
    line."""
    lines = CHANGES.read_text().splitlines()
    assert len(lines) >= UNCAPPED_LINES
    long = {n: len(line)
            for n, line in enumerate(lines[UNCAPPED_LINES:], UNCAPPED_LINES + 1)
            if len(line) > ENTRY_CAP}
    assert not long, f"CHANGES.md lines over {ENTRY_CAP} characters: {long}"
