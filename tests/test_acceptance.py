"""End-to-end acceptance checks, one test and one printed verdict per criterion.

Criteria 1-8 are exact machine-checked properties (determinism, routing
oracles, loop freedom, sequence parity, transport conservation, trace
format, metric identities). Criteria 9-14 are tolerance-based checks of
the comparative behavior the builtin scenarios were designed to show.
"""

import json
import math
import random
import time

import pytest

from vanetsim.aodv import AodvAgent
from vanetsim.dsdv import DsdvAgent, DsdvConfig
from vanetsim.engine import Scheduler
from vanetsim.metrics import KeptTrace, MetricsLedger
from vanetsim.mobility import FieldConfig, MobilityModel
from vanetsim.radio import RadioMedium
from vanetsim.scenario import (build_simulation, builtin_scenario, compare,
                               format_comparison, run)
from vanetsim.tracewriter import format_block, parse_mobility_trace
from vanetsim.transport import DataPacket

from make_golden import (GOLDEN, WINDOW, combo_key, comparison_key, digests,
                         text_digest)

BUILTINS = ("long-distance", "short-distance")
COMBOS = [(name, proto) for name in BUILTINS for proto in ("AODV", "DSDV")]
TOPOLOGY_COUNT = 200

# frozen initial-placement lines for the grid's four central columns;
# the builtin scenarios must reproduce these byte for byte
GOLDEN_PLACEMENT_LINES = """\
M 0.00000 2 (550.00, 290.00, 0.00), (550.00, 290.00), 0.00
M 0.00000 17 (550.00, 430.00, 0.00), (550.00, 430.00), 0.00
M 0.00000 32 (550.00, 570.00, 0.00), (550.00, 570.00), 0.00
M 0.00000 47 (550.00, 710.00, 0.00), (550.00, 710.00), 0.00
M 0.00000 62 (550.00, 850.00, 0.00), (550.00, 850.00), 0.00
M 0.00000 77 (550.00, 990.00, 0.00), (550.00, 990.00), 0.00
M 0.00000 92 (550.00, 1130.00, 0.00), (550.00, 1130.00), 0.00
M 0.00000 3 (755.00, 360.00, 0.00), (755.00, 360.00), 0.00
M 0.00000 18 (755.00, 520.00, 0.00), (755.00, 520.00), 0.00
M 0.00000 33 (755.00, 680.00, 0.00), (755.00, 680.00), 0.00
M 0.00000 48 (755.00, 840.00, 0.00), (755.00, 840.00), 0.00
M 0.00000 63 (755.00, 1000.00, 0.00), (755.00, 1000.00), 0.00
M 0.00000 78 (755.00, 1160.00, 0.00), (755.00, 1160.00), 0.00
M 0.00000 93 (755.00, 1320.00, 0.00), (755.00, 1320.00), 0.00
M 0.00000 4 (960.00, 320.00, 0.00), (960.00, 320.00), 0.00
M 0.00000 19 (960.00, 490.00, 0.00), (960.00, 490.00), 0.00
M 0.00000 34 (960.00, 660.00, 0.00), (960.00, 660.00), 0.00
M 0.00000 49 (960.00, 830.00, 0.00), (960.00, 830.00), 0.00
M 0.00000 64 (960.00, 1000.00, 0.00), (960.00, 1000.00), 0.00
M 0.00000 79 (960.00, 1170.00, 0.00), (960.00, 1170.00), 0.00
M 0.00000 94 (960.00, 1340.00, 0.00), (960.00, 1340.00), 0.00
M 0.00000 5 (1150.00, 320.00, 0.00), (1150.00, 320.00), 0.00
M 0.00000 20 (1150.00, 440.00, 0.00), (1150.00, 440.00), 0.00
M 0.00000 35 (1150.00, 560.00, 0.00), (1150.00, 560.00), 0.00
M 0.00000 50 (1150.00, 680.00, 0.00), (1150.00, 680.00), 0.00
M 0.00000 65 (1150.00, 800.00, 0.00), (1150.00, 800.00), 0.00
M 0.00000 80 (1150.00, 920.00, 0.00), (1150.00, 920.00), 0.00
""".splitlines()


def verdict(label, problems):
    ok = not problems
    print(f"{'PASS' if ok else 'FAIL'} {label}"
          + ("" if ok else ": " + "; ".join(problems)))
    assert ok, f"{label}: " + "; ".join(problems)


# -- shared runs -------------------------------------------------------------

@pytest.fixture(scope="module")
def timed_reports(tmp_path_factory):
    """scenario.run artifacts for every combo, twice, with wall times."""
    out = {}
    for name, proto in COMBOS:
        runs = []
        for attempt in ("a", "b"):
            out_dir = tmp_path_factory.mktemp(f"{name}-{proto}-{attempt}")
            t0 = time.perf_counter()
            report = run(builtin_scenario(name, proto), out_dir=str(out_dir),
                         window=WINDOW)
            runs.append((report, out_dir, time.perf_counter() - t0))
        out[(name, proto)] = runs
    return out


@pytest.fixture(scope="module")
def reports(timed_reports):
    return {combo: runs[0][0] for combo, runs in timed_reports.items()}


@pytest.fixture(scope="module")
def audited_sims():
    """One completed audited simulation per combo, ledger attached.

    Auditors only read state, so these runs also serve every check that
    needs a finished simulation; c01 checks that their traces equal the
    unaudited runs' trace.txt.
    """
    return {
        (name, proto):
            build_simulation(builtin_scenario(name, proto), auditing=True,
                             trace=KeptTrace()).run(600.0)
        for name, proto in COMBOS
    }


def _bfs(adj, root):
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@pytest.fixture(scope="module")
def topologies():
    """Random connected static topologies with all-pairs hop distances."""
    rng = random.Random(20260814)
    out = []
    for _ in range(TOPOLOGY_COUNT):
        n = rng.randint(4, 30)
        side = 250.0 * max(2.0, 0.9 * math.sqrt(n))
        while True:
            pos = {i: (rng.uniform(0.0, side), rng.uniform(0.0, side))
                   for i in range(n)}
            adj = {i: [j for j in range(n)
                       if j != i and math.dist(pos[i], pos[j]) <= 250.0]
                   for i in range(n)}
            if len(_bfs(adj, 0)) == n:
                break
        dists = {u: _bfs(adj, u) for u in range(n)}
        diameter = max(max(d.values()) for d in dists.values())
        out.append((side, pos, dists, diameter))
    return out


def _static_world(side, pos):
    sched = Scheduler()
    mobility = MobilityModel(FieldConfig(side, side))
    for node, (x, y) in pos.items():
        mobility.add_node(node, x, y)
    return sched, RadioMedium(sched, mobility, MetricsLedger())


# -- exact property suites ---------------------------------------------------

def test_c01_determinism_and_runtime(timed_reports, audited_sims):
    problems = []
    for combo, ((rep_a, dir_a, dt_a), (rep_b, dir_b, dt_b)) in \
            timed_reports.items():
        audited = audited_sims[combo].ledger.trace_text()
        if audited != (dir_a / "trace.txt").read_text():
            problems.append(f"{combo}: audited run's trace differs from trace.txt")
        for dt in (dt_a, dt_b):
            if dt >= 60.0:
                problems.append(f"{combo}: run took {dt:.1f}s")
        if rep_a.manifest != rep_b.manifest:
            problems.append(f"{combo}: manifests differ")
            continue
        for rel in rep_a.manifest:
            if (dir_a / rel).read_bytes() != (dir_b / rel).read_bytes():
                problems.append(f"{combo}: {rel} differs between equal-seed runs")
    verdict("c01 determinism: equal seeds give byte-identical artifacts, "
            "auditing leaves the trace unchanged, each 600s run under 60s",
            problems)


def test_artifacts_match_golden_digests(timed_reports):
    """Every file run() wrote for each combo has its pinned digest.

    A change meant to alter output regenerates the digests with
    ``python3 tests/make_golden.py``.
    """
    golden = json.loads(GOLDEN.read_text())
    problems = []
    if set(golden) != ({combo_key(*combo) for combo in COMBOS}
                       | {comparison_key(name) for name in BUILTINS}):
        problems.append(f"{GOLDEN.name} holds {sorted(golden)}")
    for combo, ((_report, out_dir, _dt), _rerun) in timed_reports.items():
        key = combo_key(*combo)
        got, want = digests(out_dir), golden.get(key, {})
        problems += [f"{key}: {rel} differs from {GOLDEN.name}"
                     for rel in sorted(set(got) | set(want))
                     if got.get(rel) != want.get(rel)]
    verdict("golden artifacts: every file of the four builtin runs has the "
            "digest pinned in tests/golden_artifacts.json", problems)


def test_comparison_matches_golden_digest(reports):
    """Each builtin's comparison.txt text has its pinned digest."""
    golden = json.loads(GOLDEN.read_text())
    problems = []
    for name in BUILTINS:
        text = format_comparison(compare(reports[(name, "AODV")],
                                         reports[(name, "DSDV")]))
        if text_digest(text) != golden.get(comparison_key(name)):
            problems.append(f"{name}: comparison.txt differs from {GOLDEN.name}")
    verdict("golden comparison: each builtin's comparison.txt has the digest "
            "pinned in tests/golden_artifacts.json", problems)


def test_c02_reactive_first_route_matches_shortest_path(topologies):
    class FirstRoute:
        def __init__(self):
            self.hops = None

        def on_route_mutation(self, node, dest):
            if self.hops is None and node == self.src and dest == self.dst:
                entry = self.agents[node].table.get(dest)
                if entry is not None:
                    self.hops = entry.hop_count

    problems = []
    for i, (side, pos, dists, _diam) in enumerate(topologies):
        src = max(pos, key=lambda u: max(dists[u].values()))
        dst = max(dists[src], key=dists[src].get)
        sched, radio = _static_world(side, pos)
        recorder = FirstRoute()
        recorder.src, recorder.dst = src, dst
        recorder.agents = {
            node: AodvAgent(sched, radio, node, auditor=recorder,
                            deliver_up=lambda p, t: None)
            for node in pos
        }
        recorder.agents[src].send_packet(DataPacket("probe", 0, 512), dst)
        sched.run_until(5.0)
        if recorder.hops != dists[src][dst]:
            problems.append(f"topology {i}: first route {recorder.hops} hops, "
                            f"shortest {dists[src][dst]}")
    verdict(f"c02 first discovered route equals breadth-first distance on "
            f"{len(topologies)} random topologies", problems)


def test_c03_proactive_tables_converge_to_shortest_paths(topologies):
    problems = []
    for i, (side, pos, dists, diameter) in enumerate(topologies):
        sched, radio = _static_world(side, pos)
        config = DsdvConfig()
        agents = {node: DsdvAgent(sched, radio, node, config=config,
                                  deliver_up=lambda p, t: None)
                  for node in sorted(pos)}
        for agent in agents.values():
            agent.start(0.0)
        # diameter+1 synchronized rounds fire at k*interval, k < diameter+1
        sched.run_until(diameter * config.update_interval + 1.0)
        for u, agent in agents.items():
            if set(agent.table) != set(pos):
                problems.append(f"topology {i}: node {u} table incomplete")
                break
            for v, entry in agent.table.items():
                if entry.metric != dists[u][v]:
                    problems.append(
                        f"topology {i}: {u}->{v} metric {entry.metric} "
                        f"!= {dists[u][v]}")
                    break
                if entry.seq % 2 != 0:
                    problems.append(f"topology {i}: {u}->{v} odd seq")
                    break
            else:
                continue
            break
    verdict(f"c03 proactive tables equal breadth-first distances with even "
            f"sequences after diameter+1 rounds on {len(topologies)} "
            f"topologies", problems)


def test_c04_loop_freedom_over_full_runs(audited_sims):
    problems = []
    for combo, sim in audited_sims.items():
        auditor = sim.route_auditor
        if auditor.mutations == 0:
            problems.append(f"{combo}: no route mutations audited")
        if auditor.loop_violations:
            problems.append(
                f"{combo}: {len(auditor.loop_violations)} loop violations, "
                f"first {auditor.loop_violations[0]}")
    total = sum(s.route_auditor.mutations for s in audited_sims.values())
    verdict(f"c04 loop freedom: table walks after {total} route mutations "
            f"never revisit a node", problems)


def test_c05_sequence_parity_matches_metric(audited_sims):
    problems = []
    checked = 0
    for (name, proto), sim in audited_sims.items():
        if proto != "DSDV":
            continue
        auditor = sim.route_auditor
        checked += auditor.mutations
        if auditor.mutations == 0:
            problems.append(f"{name}: no mutations audited")
        if auditor.parity_violations:
            problems.append(
                f"{name}: {len(auditor.parity_violations)} parity violations, "
                f"first {auditor.parity_violations[0]}")
    verdict(f"c05 odd sequence iff infinite metric across {checked} "
            f"table mutations", problems)


def test_c06_transport_conservation(audited_sims):
    problems = []
    checks = 0
    for combo, sim in audited_sims.items():
        auditor = sim.transport_auditor
        checks += auditor.checks
        if auditor.checks == 0:
            problems.append(f"{combo}: transport never audited")
        for violation in auditor.violations[:3]:
            problems.append(f"{combo}: {violation}")
    verdict(f"c06 delivered+in-flight+pending+unsent inventory and "
            f"window bound hold at every event ({checks} checks)", problems)


def test_c07_trace_format_golden_lines_and_round_trip(audited_sims):
    problems = []
    sim = build_simulation(builtin_scenario("long-distance", "AODV"),
                           trace=KeptTrace()).run(0.0)
    emitted = {line.split()[2]: line
               for line in sim.ledger.trace_text().splitlines()
               if line.startswith("M ")}
    for golden in GOLDEN_PLACEMENT_LINES:
        node = golden.split()[2]
        if emitted.get(node) != golden:
            problems.append(f"node {node}: {emitted.get(node)!r} != {golden!r}")

    # write -> parse -> rewrite is lossless on a full mobile run
    trace = audited_sims[("long-distance", "AODV")].ledger.trace_text()
    original = [l for l in trace.splitlines() if l.startswith("M ")]
    records, _skipped = parse_mobility_trace(trace)
    rebuilt = format_block(records).splitlines()
    if rebuilt != original:
        problems.append(
            f"round trip changed {sum(a != b for a, b in zip(rebuilt, original))}"
            f" of {len(original)} lines")
    verdict("c07 27 golden placement lines byte-exact; trace round trip "
            "lossless", problems)


def test_c08_metric_identities(audited_sims):
    problems = []
    zero_variance_windows = 0
    for (name, proto), sim in audited_sims.items():
        ledger = sim.ledger
        for fc in builtin_scenario(name, proto).flows:
            deliveries = ledger.deliveries(fc.flow)
            total_bits = sum(bits for _t, _d, _s, bits in deliveries)
            series = ledger.throughput_series(fc.flow, 600.0, WINDOW)
            window_sum = sum(v for _t, v in series.points) * WINDOW
            if abs(window_sum - total_bits) > 1e-9 * max(1.0, total_bits):
                problems.append(
                    f"{name}/{proto}/{fc.flow}: window sum {window_sum} "
                    f"!= delivered bits {total_bits}")
            jitter = {round(t / WINDOW) - 1: v for t, v in
                      ledger.jitter_series(fc.flow, 600.0, WINDOW).points}
            by_window = {}
            for t, delay, _seq, _bits in deliveries:
                by_window.setdefault(int(t // WINDOW), []).append(delay)
            for k, delays in by_window.items():
                if len(delays) >= 2 and min(delays) == max(delays):
                    zero_variance_windows += 1
                    if jitter.get(k) != 0.0:
                        problems.append(
                            f"{name}/{proto}/{fc.flow}: window {k} has "
                            f"constant delay but jitter {jitter.get(k)}")
    if zero_variance_windows == 0:
        problems.append("no zero-variance windows observed")
    verdict(f"c08 jitter exactly 0 in {zero_variance_windows} constant-delay "
            f"windows; throughput sums conserve bits to 1e-9", problems)


# -- comparative behavior ----------------------------------------------------

def _geometric_break(sim, a, b, radio_range=250.0):
    mob = sim.mobility

    def within(t):
        return math.dist(mob.position_at(a, t),
                         mob.position_at(b, t)) <= radio_range

    lo, hi = 10.0, 600.0
    assert within(lo) and not within(hi)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if within(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_c09_long_distance_break_time(audited_sims):
    problems = []
    t_break = _geometric_break(audited_sims[("long-distance", "AODV")], 0, 15)
    if abs(t_break - 29.73) > 3.0:
        problems.append(f"break at {t_break:.3f}s, outside 29.73 +/- 3")
    verdict(f"c09 0-15 separation leaves radio range at {t_break:.2f}s "
            f"(29.73 +/- 3)", problems)


def test_c10_post_break_behavior(audited_sims):
    problems = []
    t_break = _geometric_break(audited_sims[("long-distance", "AODV")], 0, 15)
    aodv = audited_sims[("long-distance", "AODV")].ledger
    dsdv = audited_sims[("long-distance", "DSDV")].ledger

    relayed = [
        (t, chain) for t, chain in aodv.paths_taken().get("f0", ())
        if t > t_break and len(chain) > 2
    ]
    if not relayed:
        problems.append("reactive run never re-established a relayed 0->15 route")

    aodv_live = [t for t, v in
                 aodv.throughput_series("f0", 600.0, WINDOW).points
                 if t > 35.0 and v > 0.0]
    if len(aodv_live) < 5:
        problems.append(f"reactive throughput nonzero in only "
                        f"{len(aodv_live)} windows past 35s")

    update_interval = 40.0  # long-distance proactive broadcast period
    late = [t for t, _d, _s, _b in dsdv.deliveries("f0")
            if t > t_break]
    if any(t <= t_break + update_interval for t in late):
        problems.append("proactive delivered 0->15 data within one update "
                        "interval of the break")
    flat = all(v == 0.0 for t, v in
               dsdv.throughput_series("f0", 600.0, WINDOW).points
               if t - WINDOW >= 35.0)
    if not flat:
        problems.append("proactive throughput not flat zero over [35, 600]")
    verdict(f"c10 reactive reroutes after the break "
            f"({len(aodv_live)} live windows); proactive stays silent",
            problems)


def test_c11_long_distance_jitter_and_delay_ordering(reports):
    problems = []
    stats = {proto: {s.flow: s for s in
                     reports[("long-distance", proto)].flows}["f0"]
             for proto in ("AODV", "DSDV")}
    for metric in ("max_jitter", "max_delay"):
        reactive = getattr(stats["AODV"], metric)
        proactive = getattr(stats["DSDV"], metric)
        if not (reactive > 0.0 and reactive >= 10.0 * proactive):
            problems.append(
                f"{metric}: reactive {reactive:.6f} not >= 10x "
                f"proactive {proactive:.6f}")
    verdict("c11 long-distance reactive max jitter and delay exceed "
            "proactive by >= 10x", problems)


def test_c12_short_distance_first_route(reports):
    problems = []
    report = reports[("short-distance", "DSDV")]
    stats = {s.flow: s for s in report.flows}["f1"]
    first = stats.first_delivery
    if first is None or abs(first - 153.0) > 30.0:
        problems.append(f"first 1->25 delivery at {first}, outside 153 +/- 30")
    chains = report.paths.get("f1", [])
    if not chains:
        problems.append("no 1->25 path recorded")
    else:
        relays = chains[0][1][1:-1]
        if 1 in relays or not all(0 <= r <= 99 for r in relays):
            problems.append(f"first path relays {relays} not stationary "
                            f"grid nodes")
    detail = "none" if first is None else f"{first:.3f}s"
    verdict(f"c12 proactive short-distance first delivery at {detail} "
            f"via stationary relays", problems)


def test_c13_short_distance_ordering(reports, audited_sims):
    problems = []
    aodv = {s.flow: s for s in reports[("short-distance", "AODV")].flows}["f1"]
    dsdv = {s.flow: s for s in reports[("short-distance", "DSDV")].flows}["f1"]

    aodv_post_153 = [t for t, _d, _s, _b in
                     audited_sims[("short-distance", "AODV")].ledger.deliveries("f1")
                     if t >= 153.0]
    if not aodv_post_153:
        problems.append("reactive run has no post-153 deliveries")
    elif dsdv.first_delivery is None \
            or dsdv.first_delivery > min(aodv_post_153):
        problems.append(
            f"proactive first {dsdv.first_delivery} not <= reactive "
            f"first post-153 {min(aodv_post_153)}")

    if not dsdv.sink_bandwidth_bits > aodv.sink_bandwidth_bits:
        problems.append(
            f"proactive cumulative sink bandwidth "
            f"{dsdv.sink_bandwidth_bits:.0f} not above reactive "
            f"{aodv.sink_bandwidth_bits:.0f}")

    rise = aodv.first_sink_bandwidth_window
    second_rise = dsdv.first_data_window
    if rise is None or second_rise is None or not rise < second_rise:
        problems.append(f"reactive bandwidth rise {rise} not before "
                        f"proactive data rise {second_rise}")
    verdict("c13 proactive delivers first, ends with more sink bandwidth; "
            "reactive bandwidth rises earlier", problems)


def test_c14_comparison_verdicts(reports):
    problems = []
    long_cmp = compare(reports[("long-distance", "AODV")],
                       reports[("long-distance", "DSDV")])
    short_cmp = compare(reports[("short-distance", "AODV")],
                        reports[("short-distance", "DSDV")])
    expectations = [
        ("long", long_cmp, "reactive_max_delay_exceeds_proactive"),
        ("short", short_cmp, "reactive_max_delay_exceeds_proactive"),
        ("short", short_cmp, "proactive_throughput_geq_reactive"),
        ("long", long_cmp, "reactive_throughput_geq_proactive"),
    ]
    for scenario, result, name in expectations:
        if not result["verdicts"][name]:
            problems.append(f"{scenario}: verdict {name} is false")
    verdict("c14 comparison verdicts: reactive delay higher, proactive "
            "wins short-distance throughput, reactive wins long-distance",
            problems)
