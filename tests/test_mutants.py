"""The committed mutants of mutants.py stay applicable: run nothing, only read the files."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_each_old_text_occurs_once_in_its_file(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.old != mutant.new and mutant.tests


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.id)
def test_each_test_it_names_exists(mutant):
    for node in mutant.tests:
        path, *scopes = node.split("::")
        text = (ROOT / path).read_text()
        for scope, keyword in zip(scopes, ["class"] * (len(scopes) - 1) + ["def"]):
            assert re.search(rf"^\s*{keyword} {re.escape(scope)}\b", text, re.M), node


def test_ids_are_unique():
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS)
