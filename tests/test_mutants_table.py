"""The mutation guard's table stays runnable: each snippet occurs exactly
once in its file and each node id names a test that exists.  Running the
mutants themselves is ``python tests/mutants.py``, a CI step of its own."""

import ast

import pytest

import mutants


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=[
    f"{i}-{row[0]}" for i, row in enumerate(mutants.MUTANTS)])
def test_mutant_snippet_matches_once_and_names_existing_tests(row):
    file, snippet, replacement, node_ids = row
    assert snippet != replacement and node_ids
    assert (mutants.PACKAGE / file).read_text().count(snippet) == 1
    for node_id in node_ids:
        path, name = node_id.split("[")[0].split("::")
        tree = ast.parse((mutants.ROOT / path).read_text())
        assert name in {f.name for f in tree.body
                        if isinstance(f, ast.FunctionDef)}, node_id
