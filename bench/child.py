"""One repetition of a workload input, in a fresh interpreter.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON holds the checkout root, the input (a builtin scenario and seed,
or a scenario document path), the output directory, the parent's
CLOCK_MONOTONIC reading just before it started this process, and the
mode: "full", "traced", or "setup", which stops at the first event. The
child runs ``vanetsim.scenario.run`` once and prints one JSON line with
its phase timings, peak RSS and, when traced, the span table and
counters.

Phases come from wrapping the public ``scenario.build_simulation`` and
``Simulation.run`` here; nothing in ``src/`` is modified.
"""

import json
import os
import resource
import sys
import time


class SetupDone(Exception):
    """Ends a set-up-only repetition at its first event."""


def now():
    # CLOCK_MONOTONIC is system-wide, so it compares with the parent's
    # reading taken before this interpreter started
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import vanetsim
    from vanetsim import scenario
    from vanetsim.simulation import Simulation

    if not os.path.abspath(vanetsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported vanetsim from {vanetsim.__file__}, not {src}")

    if "builtin" in spec:
        import dataclasses
        name, protocol = spec["builtin"]
        config = dataclasses.replace(
            scenario.builtin_scenario(name, protocol), seed=spec["seed"])
    else:
        with open(spec["document"]) as fh:
            config = scenario.load_config(fh.read())

    mode = spec["mode"]
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(scenario)

    marks = {}
    sims = []
    build = scenario.build_simulation
    sim_run = Simulation.run

    def timed_build(*args, **kwargs):
        marks["build_start"] = now()
        sim = build(*args, **kwargs)
        marks["build_end"] = now()
        return sim

    def timed_run(self, until):
        sims.append(self)
        marks["simulate_start"] = now()
        if mode == "setup":
            raise SetupDone
        result = sim_run(self, until)
        marks["simulate_end"] = now()
        return result

    scenario.build_simulation = timed_build
    Simulation.run = timed_run

    run_start = now()
    try:
        scenario.run(config, spec["out"])
    except SetupDone:
        print(json.dumps(
            {"setup_s": marks["simulate_start"] - spec["spawned_at"]}))
        return
    run_end = now()
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "setup_s": marks["simulate_start"] - spec["spawned_at"],
        "wall_s": run_end - run_start,
        "build_s": marks["build_end"] - marks["build_start"],
        "simulate_s": marks["simulate_end"] - marks["simulate_start"],
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.report(sims[0], result["wall_s"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
