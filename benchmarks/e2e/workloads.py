"""The four end-to-end workloads and the round that runs one of them.

A round builds its worlds from the seed, times set-up, then runs a fixed
number of operations one after another (a closed loop with one client:
the next operation starts when the previous one returns).  Every input
comes from the seed, so rounds of one seed do identical work; each
workload returns a ``signature`` of its deterministic outcomes, which the
orchestrator requires to be identical across rounds.

Operation counts are sized so that a round measures two to three
seconds on a 2-core host at ``scale=1``; ``scale`` multiplies them.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import traceback
from bisect import bisect_right
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional

from repro.attacks.campaign import OBJECTIVES, CampaignGenerator, run_campaign
from repro.hub.users import insecure_hub_config
from repro.monitor import AnalyzerDepth, JupyterNetworkMonitor
from repro.topology import WorldBuilder, spec_preset
from repro.util.ids import seed_ids
from repro.workload.scientist import ScientistWorkload

from layers import LayerTracer

HIGH = ("high", "critical")
#: Campaign objectives in a fixed rotation.
OBJECTIVE_CYCLE = sorted(OBJECTIVES)
#: hostile-campaigns draws its campaigns from these fixed generator seeds
#: (measured, then warm-up); only the worlds they hit come from ``--seed``.
#: Campaign parameters (mining rounds, exfiltration volume, optional
#: stages) set the work: drawn from the run's seed, interpreter ops per
#: round spread by 27% over seeds 1-10, and throughput with them.
CAMPAIGN_MIX_SEED = 0
WARM_UP_MIX_SEED = -1
#: Full spans are kept for this many operations per round.
SPAN_OPS = 20


def _high(notices) -> int:
    return sum(1 for n in notices if n.severity in HIGH)


def monitor_counters(monitor: JupyterNetworkMonitor) -> Counter:
    h = monitor.health
    return Counter({
        "monitor.segments": h.segments_seen,
        "monitor.dropped": h.segments_dropped,
        "monitor.parse_errors": h.parse_errors,
        "monitor.bytes": h.bytes_seen,
        "monitor.jupyter_msgs": h.jupyter_msgs,
        "monitor.dedupe_hits": h.jupyter_dedup_hits,
        "monitor.weird": len(monitor.logs.weird),
        "monitor.notices": len(monitor.logs.notices),
        "monitor.high_notices": _high(monitor.logs.notices),
    })


def world_counters(world) -> Counter:
    """Cumulative outcome counters a hub world keeps: monitor health,
    proxy stats, SOC actions and audit denials."""
    c = Counter()
    for m in getattr(world.monitor, "monitors", None) or [world.monitor]:
        c += monitor_counters(m)
    # The merged view adds fleet-level notices to the shard monitors'.
    notices = world.monitor.logs.notices
    c["monitor.notices"] = len(notices)
    c["monitor.high_notices"] = _high(notices)
    shards = getattr(world, "shards", None)
    for proxy in [s.proxy for s in shards] if shards else [world.proxy]:
        s = proxy.stats
        c["hub.routed"] += s.routed_total
        c["hub.denied"] += s.denied_total
        c["hub.upstream_errors"] += s.upstream_errors
        c["hub.buffer_overflows"] += s.buffer_overflows
    if world.soc is not None:
        for action in world.soc.executed:
            if not action.ok:
                c["soc.actions_failed"] += 1
            elif not action.dry_run:
                c["soc.actions_executed"] += 1
    c["audit.denied"] += sum(a.denied_count() for a in world.auditors.values())
    return c


def _delta(after: Counter, before: Counter) -> Counter:
    return Counter({k: after[k] - before[k] for k in after})


class Workload:
    """One workload: ``setup`` (timed as set-up), ``op(i)`` (one timed
    operation; returns False or raises when it failed) and ``finish``
    (outcomes and checks, untimed)."""

    name = ""
    base_ops = 1

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.n_ops = max(1, round(self.base_ops * scale))
        self.counters = Counter()
        self.checks: List[Dict[str, object]] = []
        self.benign_sessions = 0
        self.false_alerts = 0
        self.campaigns = 0
        self.detected = 0
        self.leads: List[float] = []

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": str(detail)})

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> bool:
        raise NotImplementedError

    def finish(self) -> object:
        """Complete ``counters``/``checks``; return the deterministic
        signature of this round's outcomes."""
        raise NotImplementedError


class BenignSessions(Workload):
    """Scientist sessions round-robin over the tenants of one long-lived
    defended sharded hub."""

    name = "benign-sessions"
    base_ops = 120

    def setup(self) -> None:
        self.world = WorldBuilder().build(spec_preset("defended-sharded-hub", seed=self.seed))
        self.tenants = list(self.world.tenant_names)
        for name in self.tenants:
            ScientistWorkload(self.world, username=name, seed_name="warm-up").run_session()
        self.before = world_counters(self.world)
        self.cells = 0

    def op(self, i: int) -> bool:
        report = ScientistWorkload(self.world, username=self.tenants[i % len(self.tenants)],
                                   seed_name=f"session{i}").run_session()
        self.cells += report.cells_executed
        return report.errors == 0

    def finish(self) -> object:
        self.counters = _delta(world_counters(self.world), self.before)
        self.benign_sessions = self.n_ops
        self.false_alerts = self.counters["monitor.high_notices"]
        self.check("hub.upstream_errors == 0", self.counters["hub.upstream_errors"] == 0,
                   self.counters["hub.upstream_errors"])
        return [self.cells, sorted(self.counters.items())]


class HostileCampaigns(Workload):
    """A fresh defended sharded hub per campaign: one short benign session,
    then a multi-stage campaign from a fixed mix against it."""

    name = "hostile-campaigns"
    base_ops = 80

    def setup(self) -> None:
        self.spec = spec_preset("defended-sharded-hub", n_tenants=12,
                                hub_config=insecure_hub_config())
        self.generator = CampaignGenerator(CAMPAIGN_MIX_SEED)
        self.outcomes: List[list] = []
        # Warm-up: one campaign of each objective from their own stream.
        warm_up = CampaignGenerator(WARM_UP_MIX_SEED)
        for k, objective in enumerate(OBJECTIVE_CYCLE):
            self._campaign(self.seed * 1000 - 1 - k, warm_up.generate(objective))
        self.counters.clear()
        self.outcomes.clear()
        self.false_alerts = 0

    def _campaign(self, world_seed: int, campaign) -> None:
        world = WorldBuilder().build(self.spec, seed=world_seed)
        ScientistWorkload(world, username=world.default_tenant,
                          seed_name="benign").run_session(cells=3)
        self.false_alerts += _high(world.monitor.logs.notices)
        outcome = run_campaign(world, campaign)
        self.counters += world_counters(world)
        lead = outcome.containment_leadtime
        self.outcomes.append([campaign.objective, outcome.detected,
                              None if lead is None else round(lead, 9),
                              outcome.contained, outcome.failed_stage])

    def op(self, i: int) -> bool:
        campaign = self.generator.generate(OBJECTIVE_CYCLE[i % len(OBJECTIVE_CYCLE)])
        self._campaign(self.seed * 1000 + i, campaign)
        return True

    def finish(self) -> object:
        self.benign_sessions = self.n_ops
        self.campaigns = len(self.outcomes)
        self.detected = sum(1 for o in self.outcomes if o[1])
        self.leads = [o[2] for o in self.outcomes if o[2] is not None]
        self.check("one outcome per campaign", len(self.outcomes) == self.n_ops,
                   len(self.outcomes))
        return self.outcomes


class TraceReplay(Workload):
    """Offline batched replay of one recorded tap trace through a fresh
    monitor per pass, one fixed-size slice of the trace per operation."""

    name = "trace-replay"
    SESSIONS = 60
    CAMPAIGN_EVERY = 8  # a campaign after sessions 3, 11, 19, ... (8 of them)
    PASSES = 12
    #: Payload bytes per operation.  Equal slices keep per-operation
    #: latency comparable across seeds, whatever the sessions hold.
    CHUNK_BYTES = 64 * 1024

    def __init__(self, seed: int, scale: float):
        super().__init__(seed, scale)
        self.passes = max(1, round(self.PASSES * scale))

    def setup(self) -> None:
        world = WorldBuilder().build(spec_preset("hub", seed=self.seed, n_tenants=6,
                                                 hub_config=insecure_hub_config()))
        # The live intake path on the same tap: its logs are what every
        # replay pass must reproduce.
        live = JupyterNetworkMonitor(depth=AnalyzerDepth.JUPYTER)
        live.attach(world.tap)
        generator = CampaignGenerator(self.seed)
        tenants = list(world.tenant_names)
        starts: List[float] = []
        kinds: List[str] = []
        for i in range(self.SESSIONS):
            starts.append(world.clock.now())
            kinds.append("benign")
            ScientistWorkload(world, username=tenants[i % len(tenants)],
                              seed_name=f"session{i}").run_session()
            if i % self.CAMPAIGN_EVERY == 3:
                objective = OBJECTIVE_CYCLE[kinds.count("campaign") % len(OBJECTIVE_CYCLE)]
                starts.append(world.clock.now())
                kinds.append("campaign")
                run_campaign(world, generator.generate(objective))
        self.expected = self._logs(live)
        # Outcomes are scored on the live logs; every pass is checked equal.
        hit = set()
        for n in live.logs.notices:
            if n.severity in HIGH:
                k = bisect_right(starts, n.ts) - 1
                if kinds[k] == "campaign":
                    hit.add(k)
                else:
                    self.false_alerts += 1
        self.detected = len(hit)
        self.campaigns = kinds.count("campaign")
        self.benign_sessions = kinds.count("benign")

        self.chunks: List[list] = [[]]
        size = 0
        for seg in world.tap.segments:
            self.chunks[-1].append(seg)
            size += len(seg.payload)
            if size >= self.CHUNK_BYTES:
                self.chunks.append([])
                size = 0
        if not self.chunks[-1]:
            self.chunks.pop()
        self.n_ops = self.passes * len(self.chunks)
        warm_up = JupyterNetworkMonitor(depth=AnalyzerDepth.JUPYTER)
        for chunk in self.chunks:
            warm_up.replay_segments(chunk)
        self.check("warm-up pass logs == live logs", self._logs(warm_up) == self.expected)
        self.monitors: List[Optional[JupyterNetworkMonitor]] = [
            JupyterNetworkMonitor(depth=AnalyzerDepth.JUPYTER) for _ in range(self.passes)]

    @staticmethod
    def _logs(monitor: JupyterNetworkMonitor) -> list:
        return [sorted(monitor.logs.counts().items()),
                sorted(Counter(n.name for n in monitor.logs.notices).items())]

    def op(self, i: int) -> bool:
        p, c = divmod(i, len(self.chunks))
        monitor = self.monitors[p]
        monitor.replay_segments(self.chunks[c])
        if c == len(self.chunks) - 1:
            self.check(f"pass {p} logs == live logs", self._logs(monitor) == self.expected)
            self.counters += monitor_counters(monitor)
            self.monitors[p] = None
        return True

    def finish(self) -> object:
        done = sum(1 for m in self.monitors if m is None)
        self.check("every pass completed", done == self.passes, done)
        return [self.expected, self.detected, self.false_alerts, len(self.chunks)]


class BulkOutput(Workload):
    """Large notebook outputs on an undefended sharded hub: a model
    download, a kernel start and three cells printing 40-80 KB each."""

    name = "bulk-output"
    base_ops = 150
    OUTPUT_KB = (40, 60, 80)

    def setup(self) -> None:
        self.world = WorldBuilder().build(spec_preset("sharded-hub", seed=self.seed, n_tenants=3))
        self.tenants = list(self.world.tenant_names)
        self.rng = self.world.rng.child("bulk-output")
        self.mismatches: List[str] = []
        # Every tenant gets the same model file, uploaded through the front
        # door.  Decimal text keeps the upload below the entropy detector.
        self.model = ",".join(f"{self.rng.random():.6f}" for _ in range(2500))
        upload = {"type": "file", "format": "text", "content": self.model}
        for name in self.tenants:
            self.world.user_client(username=name).json(
                "PUT", "/api/contents/models/weights.bin", upload)
        for i in range(len(self.tenants)):
            self._bulk(i)
        self.mismatches.clear()
        self.before = world_counters(self.world)

    def _bulk(self, i: int) -> None:
        client = self.world.user_client(username=self.tenants[i % len(self.tenants)])
        resp = client.request("GET", "/api/contents/models/weights.bin")
        if resp.status != 200 or json.loads(resp.body)["content"] != self.model:
            self.mismatches.append(f"op {i}: model download failed ({resp.status})")
        client.start_kernel()
        client.connect_channels()
        for kb in self.OUTPUT_KB:
            word = f"{self.rng.randint(0, 999_999):06d},"
            reps = kb * 1024 // len(word)
            reply = client.execute(f"print({word!r} * {reps})")
            msg_id = reply.parent_header.msg_id if reply is not None else None
            got = "".join(m.content.get("text", "") for m in client.iopub
                          if m.msg_type == "stream" and m.parent_header is not None
                          and m.parent_header.msg_id == msg_id)
            if got != word * reps + "\n":
                self.mismatches.append(f"op {i}: {kb} KB cell printed {len(got)} chars")
        client.close()

    def op(self, i: int) -> bool:
        before = len(self.mismatches)
        self._bulk(i)
        return len(self.mismatches) == before

    def finish(self) -> object:
        self.counters = _delta(world_counters(self.world), self.before)
        self.benign_sessions = self.n_ops
        self.false_alerts = self.counters["monitor.high_notices"]
        self.check("outputs and downloads intact", not self.mismatches, self.mismatches[:3])
        return sorted(self.counters.items())


WORKLOADS = {w.name: w for w in (BenignSessions, HostileCampaigns, TraceReplay, BulkOutput)}


#: Best-of-three time of ``calibration_s``'s loop on an idle 2-vCPU VM,
#: the reference host.  Timings are reported in reference seconds
#: (``ref_s``): each wall time is scaled by ``CALIBRATION_REF_S`` over the
#: calibration measured just before it.
CALIBRATION_REF_S = 0.25e-3
#: How often, in wall seconds, the calibration is repeated between operations.
CALIBRATION_EVERY_S = 0.05


def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python loop doing the dict,
    string, JSON and sort work the simulator does.  The host can run this
    process slower for seconds at a time; the loop slows with it.  The
    garbage collector is off meanwhile, so collections of the program's
    heap, which a change under test can make costlier, never land in the
    loop and scale them away."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(3):
            t = perf_counter()
            d: Dict[str, int] = {}
            for i in range(300):
                key = f"key{i % 97}:{i}"
                d[key] = d.get(key, 0) + i
            text = json.dumps(d, sort_keys=True)
            json.loads(text)
            sorted(d.items(), key=lambda kv: kv[1])
            (text.encode() * 4).find(b"key96")
            best = min(best, perf_counter() - t)
    finally:
        gc.enable()
    return best


def run_round(name: str, seed: int, scale: float, trace: bool,
              spans_path: Optional[str] = None) -> Dict[str, object]:
    """Run one round of one workload in this process; returns its
    measurements, outcomes and checks as a JSON-ready dict."""
    tracer = LayerTracer() if trace else None
    if tracer is not None:
        tracer.install()
    seed_ids(seed)
    workload = WORKLOADS[name](seed, scale)
    calibrations = [calibration_s()]
    t0 = perf_counter()
    workload.setup()
    setup_s = (perf_counter() - t0) * CALIBRATION_REF_S / calibrations[0]
    layers: Dict[str, object] = {}
    if tracer is not None:
        topology_setup_s = tracer.layer_self("topology")
        tracer.reset()
    durations: List[float] = []
    scaled: List[float] = []
    failed = 0
    calibrated_at = 0.0
    t_start = perf_counter()
    for i in range(workload.n_ops):
        if perf_counter() - calibrated_at > CALIBRATION_EVERY_S:
            calibrations.append(calibration_s())
            calibrated_at = perf_counter()
        if tracer is not None:
            tracer.op = i
            tracer.recording = i < SPAN_OPS
        t = perf_counter()
        try:
            ok = workload.op(i)
        except Exception:  # an operation that raises counts as failed; the round goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        durations.append(perf_counter() - t)
        scaled.append(durations[-1] * CALIBRATION_REF_S / calibrations[-1])
        failed += not ok
    if tracer is not None:
        tracer.recording = False
        layers = tracer.snapshot()
        layers["topology_setup_s"] = topology_setup_s
        if spans_path:
            tracer.write_spans(spans_path, t_start)
    signature = workload.finish()
    return {
        "workload": name, "seed": seed, "ops": workload.n_ops, "failed": failed,
        "setup_s": setup_s,
        "op_s": sum(durations),
        "scaled_op_s": sum(scaled),
        "latencies_ms": [d * 1000.0 for d in scaled],
        "host_speed": CALIBRATION_REF_S / statistics.median(calibrations),
        "tap_bytes": workload.counters["monitor.bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "benign_sessions": workload.benign_sessions,
        "false_alerts": workload.false_alerts,
        "campaigns": workload.campaigns, "detected": workload.detected,
        "leads": workload.leads,
        "counters": dict(workload.counters),
        "checks": workload.checks,
        "signature": json.loads(json.dumps(signature)),
        "layers": layers,
    }
