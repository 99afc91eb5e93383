"""The frame-pipeline callers must reproduce their recorded outputs exactly.

See ``golden_outputs.py`` for the cases and for how the file was made.
"""

import json

import pytest

import golden_outputs as go


@pytest.fixture(scope="module")
def golden():
    return json.loads(go.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(go.SIMULATE_CASES))
def test_simulate_point_rows(golden, name):
    assert go.simulate_row(name) == golden["simulate_point"][name]


@pytest.mark.parametrize("name", sorted(go.CONSTRUCTION_CASES))
def test_first_error_counts(golden, name):
    assert go.construction_counts(name) == golden["first_error_counts"][name]


@pytest.mark.parametrize("name", sorted(go.WEIGHT_CASES))
def test_enumerate_low_weight(golden, name):
    assert go.weight_histogram(name) == golden["enumerate_low_weight"][name]


def test_golden_cases_see_errors_and_both_stops(golden):
    # Rows without frame errors would leave the decisions unchecked, and
    # each stop rule (error target, frame budget) should end some row.
    frames = {name: int(row.split(",")[11]) for name, row in golden["simulate_point"].items()}
    errors = {name: int(row.split(",")[12]) for name, row in golden["simulate_point"].items()}
    assert all(errors.values())
    assert frames["hybrid_pinned"] == 150 and errors["hybrid_awgn"] == 40
