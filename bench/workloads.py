"""The benchmark's workloads and the seeded random-waypoint generator.

A workload turns the benchmark seed into one run input. Builtin workloads
hand the program a shipped scenario with its seed replaced; the generated
workload hands it only a scenario JSON document, which the child reads
through ``vanetsim.scenario.load_config``. Why each workload is here:
README.md, "Workloads".
"""

import json
import random
from dataclasses import dataclass

# Random-waypoint methodology of Broch et al. (MobiCom 1998), with a
# non-zero minimum speed after Yoon, Liu & Noble (INFOCOM 2003).
RWP_NODES = 50
RWP_FIELD = (1500.0, 300.0)
RWP_SPEED = (1.0, 20.0)
RWP_FLOWS = 20
RWP_FLOW_START_MAX = 10.0
RWP_SEND_INTERVAL = 0.25
RWP_DURATION = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    builtin: tuple = None  # (scenario name, protocol) or None if generated

    def input(self, seed):
        """The run input for a seed: a builtin spec or a generated document."""
        if self.builtin is not None:
            return {"builtin": list(self.builtin), "seed": seed}
        return {"document": rwp_document(seed)}


WORKLOADS = {
    w.name: w for w in (
        Workload("long-aodv", ("long-distance", "AODV")),
        Workload("short-dsdv", ("short-distance", "DSDV")),
        Workload("rwp-aodv"),
    )
}


def rwp_document(seed):
    """A random-waypoint scenario document drawn from random.Random(seed).

    The document's own seed, which drives the waypoint draws, is seed too.
    """
    rng = random.Random(seed)
    width, height = RWP_FIELD
    placements = [[node, [rng.uniform(0.0, width), rng.uniform(0.0, height)]]
                  for node in range(RWP_NODES)]
    flows = []
    for i in range(RWP_FLOWS):
        src, sink = rng.sample(range(RWP_NODES), 2)
        flows.append({
            "flow": f"f{i}", "src": src, "sink": sink,
            "start_t": rng.uniform(0.0, RWP_FLOW_START_MAX),
            "send_interval": RWP_SEND_INTERVAL,
        })
    doc = {
        "name": "rwp-aodv",
        "protocol": "AODV",
        "duration": RWP_DURATION,
        "seed": seed,
        "field": list(RWP_FIELD),
        "nodes": RWP_NODES,
        "placements": placements,
        "flows": flows,
        "background_mobility": {
            "kind": "random-waypoint",
            "v_min": RWP_SPEED[0], "v_max": RWP_SPEED[1], "pause": 0.0,
        },
    }
    return json.dumps(doc, indent=1) + "\n"
