"""The scripted CLI flow (tests/flow.py) against its pinned hashes."""

import json

import flow


def test_cli_flow_matches_pinned_hashes():
    pinned = json.loads(flow.HASHES.read_text())
    got = flow.run_flow()
    assert len(got) == len(pinned) > 200
    assert flow.diff(pinned, got) == []
