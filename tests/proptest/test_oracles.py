"""The oracles: green on generated cases, loud on violated guarantees."""

import json

import pytest

from repro.core.river import RiverWire, route_channel
from repro.geometry.layers import nmos_technology
from repro.proptest import gen
from repro.proptest.oracles import (
    ORACLES,
    OracleFailure,
    same_layer_conflicts,
)
from repro.proptest.prng import Rng


def test_registry_names_and_claims():
    assert sorted(ORACLES) == [
        "abut",
        "floorplan",
        "model",
        "pipeline",
        "river",
        "stretch",
        "wal",
    ]
    for oracle in ORACLES.values():
        assert oracle.claim
        assert oracle.cost >= 1


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_green_on_generated_cases(name):
    oracle = ORACLES[name]
    budget = max(2, 10 // oracle.cost)
    stream = Rng(1234).fork(name)
    for index in range(budget):
        case = oracle.generate(stream.fork(index))
        assert oracle.check(case) in (None, "vacuous")


def test_river_oracle_vacuous_on_nonplanar_case():
    case = {
        "lambda": 250,
        "tracks_per_channel": 4,
        "wires": [
            {"name": "a", "layer": "metal", "width": 750,
             "u_in": 0, "u_out": 5000, "entry_v": 0},
            {"name": "b", "layer": "metal", "width": 750,
             "u_in": 2500, "u_out": 1000, "entry_v": 0},
        ],
    }
    # The router refuses crossing wires; refusal is not a failure.
    assert ORACLES["river"].check(case) == "vacuous"


def test_same_layer_conflicts_detects_crossing():
    tech = nmos_technology()
    wires = [
        RiverWire("a", "metal", 750, u_in=0, u_out=6000),
        RiverWire("b", "metal", 750, u_in=3000, u_out=9000),
    ]
    route = route_channel(wires, tech)
    assert same_layer_conflicts(route) == []
    # Force the illegal order the old greedy packer produced.
    a, b = route.wires
    a.track_v, b.track_v = b.track_v, a.track_v
    assert same_layer_conflicts(route) == [("a", "b")]


def test_stretch_oracle_accepts_perturbed_feasible_targets():
    # Growing the last gap keeps the case feasible; the solver must
    # still honour it exactly.
    case = json.loads(json.dumps(gen.gen_stretch_case(Rng(5))))
    names = sorted(case["targets"])
    case["targets"][names[-1]] += 250
    assert ORACLES["stretch"].check(case) is None


def test_stretch_oracle_fails_on_missed_target(monkeypatch):
    import repro.rest.stretch as stretch_mod

    def identity_stretch(cell, axis, pin_targets, tech, name=None):
        return cell.remapped(name or cell.name, lambda c: c, lambda c: c)

    monkeypatch.setattr(stretch_mod, "stretch_pins", identity_stretch)
    stream = Rng(9).fork("stretch")
    tripped = False
    for index in range(20):
        case = ORACLES["stretch"].generate(stream.fork(index))
        try:
            ORACLES["stretch"].check(case)
        except OracleFailure as exc:
            assert "constrained to" in str(exc)
            tripped = True
            break
    assert tripped, "identity stretch never missed a target"


def test_abut_oracle_fails_on_unmoved_from(monkeypatch):
    import repro.core.abut as abut_mod
    from repro.core.abut import AbutResult

    def lazy_abut(pending, overlap=False):
        # A broken abutment that reports success without moving anything.
        return AbutResult(moved_by=None, warnings=[], made=len(pending))

    monkeypatch.setattr(abut_mod, "abut", lazy_abut)
    case = gen.gen_abut_case(Rng(2))
    with pytest.raises(OracleFailure):
        ORACLES["abut"].check(case)


def test_wal_oracle_fails_on_dropped_entries(monkeypatch):
    from repro.core.replay import Journal

    recorded = Journal.record

    def leaky_record(self, command, **kwargs):
        if command == "move_by":
            return None  # lose MOVE BY commands: replay must diverge
        return recorded(self, command, **kwargs)

    monkeypatch.setattr(Journal, "record", leaky_record)
    stream = Rng(77).fork("wal")
    tripped = False
    for index in range(30):
        case = ORACLES["wal"].generate(stream.fork(index))
        if not any(op.get("op") == "move_by" for op in case.get("ops", [])):
            continue
        try:
            ORACLES["wal"].check(case)
        except OracleFailure:
            tripped = True
            break
    assert tripped, "no session with a move_by diverged under a leaky journal"


def test_model_oracle_fails_on_stale_key(monkeypatch):
    from repro.composition.instance import Instance

    inputs = Instance._inputs

    def stale_inputs(self):
        # Leave a composition cell's current box out of its instances'
        # key: editing ``blk`` then leaves ``top``'s view of it stale.
        cell, box, *placement = inputs(self)
        return (cell, box if cell.is_leaf else None, *placement)

    monkeypatch.setattr(Instance, "_inputs", stale_inputs)
    stream = Rng(0).fork("model")
    for index in range(30):
        case = ORACLES["model"].generate(stream.fork(index))
        try:
            ORACLES["model"].check(case)
        except OracleFailure as exc:
            assert "bounding box" in str(exc)
            return
    pytest.fail("no tape exposed a stale composition-cell box")
