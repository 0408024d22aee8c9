"""Corpus entries: round-trippable, content-addressed, versioned."""

from __future__ import annotations

import json

import pytest

from repro.conformance.corpus import (
    CORPUS_VERSION,
    case_from_entry,
    corpus_entries,
    entry_from_verdict,
    load_entry,
    replay_entry,
    write_entry,
)
from repro.conformance.differential import DifferentialCase, run_case
from repro.conformance.stacks import StackContext
from repro.datalog import Instance, parse_facts, parse_program

PROGRAM = parse_program("O(x) :- E(x, y), x != y.")
FACTS = Instance(parse_facts("E(1, 1). E(2, 3)."))
CONTEXT = StackContext(seed=9, scheduler="storm", chaos=True)


def _verdict():
    return run_case(
        DifferentialCase(program=PROGRAM, instance=FACTS, context=CONTEXT)
    )


def test_entry_roundtrips_to_an_identical_case(tmp_path):
    entry = entry_from_verdict(_verdict())
    path = write_entry(tmp_path, entry)
    rebuilt = case_from_entry(load_entry(path))
    assert rebuilt.program_text() == "O(x) :- E(x, y), x != y."
    assert rebuilt.instance == FACTS
    assert rebuilt.context == CONTEXT
    assert set(rebuilt.program.output_relations) == {"O"}
    assert rebuilt.program.edb().arity("E") == 2


def test_entry_names_are_content_addressed_and_stable(tmp_path):
    entry = entry_from_verdict(_verdict())
    first = write_entry(tmp_path, entry)
    second = write_entry(tmp_path, entry)
    assert first == second
    assert first.name.startswith("differential-")
    assert len(list(tmp_path.iterdir())) == 1


def test_version_mismatch_is_rejected(tmp_path):
    entry = entry_from_verdict(_verdict())
    entry["version"] = CORPUS_VERSION + 1
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(entry))
    with pytest.raises(ValueError, match="version"):
        load_entry(path)


def test_missing_directory_yields_no_entries(tmp_path):
    assert corpus_entries(tmp_path / "nonesuch") == []


def test_replay_runs_the_stored_case(tmp_path):
    entry = entry_from_verdict(_verdict())
    path = write_entry(tmp_path, entry)
    verdict = replay_entry(load_entry(path), stacks=("naive", "kernel"))
    assert verdict.passed
    assert verdict.case.context == CONTEXT
