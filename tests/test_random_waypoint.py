"""Seeded random-waypoint documents, and the invariants under them."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from vanetsim.metrics import KeptTrace
from vanetsim.scenario import (
    build_simulation,
    builtin_scenario,
    load_config,
    random_waypoint_document,
)


def bench_workloads():
    """bench/workloads.py, which keeps its own copy of the generator."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_matches_bench_documents():
    """Same text as the bench's rwp-aodv documents, so bench/reference.json
    still describes what this generator yields."""
    bench = bench_workloads()
    for seed in range(4):
        doc = random_waypoint_document(
            seed, bench.RWP_NODES, bench.RWP_FLOWS, bench.RWP_DURATION)
        assert doc == bench.rwp_document(seed), seed


def test_generator_is_a_valid_document():
    config = load_config(random_waypoint_document(5, 30, 10, 60.0, pause=30.0))
    assert (config.name, config.protocol) == ("rwp-aodv", "AODV")
    assert len(config.placements) == 30 and len(config.flows) == 10
    assert config.background_mobility.pause == 30.0
    assert all(f.src != f.sink for f in config.flows)


def audited_run(seed, protocol, pause):
    config = dataclasses.replace(
        load_config(random_waypoint_document(seed, 30, 10, 60.0, pause)),
        protocol=protocol)
    return build_simulation(config, auditing=True,
                            trace=KeptTrace()).run(config.duration)


@pytest.mark.parametrize("pause", [0.0, 30.0])
@pytest.mark.parametrize("protocol", ["AODV", "DSDV"])
def test_invariants_hold_under_random_waypoint(protocol, pause):
    """Every node roams, so routes break and heal all run long; the loop,
    parity and conservation auditors must see no violation, and a seed
    must replay to the same trace."""
    for seed in range(3):
        sim = audited_run(seed, protocol, pause)
        routes, transport = sim.route_auditor, sim.transport_auditor
        assert routes.mutations > 0 and transport.checks > 0
        assert routes.loop_violations == [], seed
        assert routes.parity_violations == [], seed
        assert transport.violations == [], seed
        if seed == 0:
            again = audited_run(seed, protocol, pause)
            assert again.ledger.trace_text() == sim.ledger.trace_text()


@pytest.mark.parametrize("document", ["random-waypoint", "scripted"])
def test_both_protocols_roam_alike(document):
    """DSDV's start staggers draw from a stream of their own, so the AODV
    and DSDV runs of one document move every node alike: their mobility
    lines, an independent record of the motion, are equal."""
    if document == "scripted":
        config = dataclasses.replace(
            builtin_scenario("short-distance", "AODV"), duration=60.0)
    else:
        config = load_config(random_waypoint_document(7, 50, 10, 60.0))
    moves = {}
    for protocol in ("AODV", "DSDV"):
        sim = build_simulation(dataclasses.replace(config, protocol=protocol),
                               trace=KeptTrace())
        text = sim.run(config.duration).ledger.trace_text()
        moves[protocol] = [line for line in text.splitlines()
                           if line.startswith("M ")]
    assert len(moves["AODV"]) == {"random-waypoint": 137, "scripted": 102}[document]
    assert moves["DSDV"] == moves["AODV"]
