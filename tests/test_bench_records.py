"""Every benchmark record at the repository root says what it measured,
on what machine, against which parent and by which method, so a speed
claim can be read against the figures it came from."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_names_its_measurement(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    for key in ("what", "parent", "method"):
        assert record.get(key), f"{path.name} has no {key!r}"
    machine = record.get("machine")
    assert isinstance(machine, dict), f"{path.name} has no 'machine'"
    assert isinstance(machine.get("nproc"), int) and machine["nproc"] >= 1
    assert isinstance(machine.get("python"), str) and machine["python"]
