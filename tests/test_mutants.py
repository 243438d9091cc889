"""The standing mutant list (tests/mutants.py) stays applicable."""

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_once():
    # the runner refuses an entry whose text is gone; failing here as well
    # means a change that rewrites mutated code mends or removes the entry
    # on purpose, not in a CI step alone
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        for node in m.selection:
            assert (ROOT / node.split("::")[0]).is_file(), node
