"""Per-layer self-time tracing, installed from outside the program.

Every layer is timed around calls into its entry points: the wrappers
replace class attributes of the ``repro`` modules, so nothing under
``src/`` changes.  They must be installed before any world is built,
because some callers bind methods at construction time
(``JupyterNetworkMonitor.attach`` subscribes a bound ``on_segment``, the
monitor's ``_hot`` tuple binds ``scan_jupyter``, gateways and auditors
register bound ``feed``/hook methods).

Accounting is by self time on one span stack: a span's self time is its
duration minus the time its child spans cover, so the self times of all
layers plus ``unattributed`` add up to the wall time of the measured
phase.  Wrapper overhead lands in the enclosing span's layer.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> entry points as (module, "Class.method").  Layers are named
#: after the repro package that owns the code.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "simnet": (("repro.simnet.loop", "EventLoop.step"),
               ("repro.simnet.net", "TcpConnection._send")),
    "hub": (("repro.hub.proxy", "ReverseProxy.handle_request"),
            ("repro.hub.proxy", "_ProxyChannel.feed"),
            ("repro.hub.proxy", "_ProxyChannel._on_backend_data")),
    "server": (("repro.server.app", "JupyterServer.handle_request"),
               ("repro.server.gateway", "_GatewayConnection.feed"),
               ("repro.server.zmtpbind", "KernelZmtpBinding._on_request"),
               ("repro.server.zmtpbind", "ZmtpKernelClient._dispatch")),
    "client": tuple(("repro.server.gateway", f"WebSocketKernelClient.{m}")
                    for m in ("request", "start_kernel", "connect_channels",
                              "execute", "close", "_feed_ws")),
    "kernel": (("repro.kernel.runtime", "KernelRuntime.handle"),),
    "audit": (("repro.audit.auditor", "KernelAuditor._pre_execute"),
              ("repro.audit.auditor", "KernelAuditor._on_event")),
    "messaging": (("repro.messaging.session", "Session.msg"),
                  ("repro.messaging.session", "Session.serialize"),
                  ("repro.messaging.session", "Session.unserialize"),
                  ("repro.messaging.message", "Message.to_websocket_json"),
                  ("repro.messaging.message", "Message.from_websocket_json")),
    "wire": (("repro.wire.websocket", "WebSocketDecoder.feed"),
             ("repro.wire.zmtp", "ZmtpDecoder.feed")),
    "monitor": (("repro.monitor.engine", "JupyterNetworkMonitor.on_segment"),
                ("repro.monitor.engine", "JupyterNetworkMonitor.replay_segments")),
    "signatures": (("repro.monitor.signatures", "SignatureEngine.scan_jupyter"),
                   ("repro.monitor.signatures", "SignatureEngine.scan_http")),
    "soc": (("repro.soc.controller", "ResponseController.poll"),),
    "topology": (("repro.topology.builder", "WorldBuilder.build"),),
    "attacks": (("repro.attacks.base", "Attack.run"),),
}


# -- count hooks: (tracer, args) -> state before, (tracer, args, result, state) after
def _step_pre(tracer: "LayerTracer", args) -> None:
    tracer.counts["simnet.events"] += 1
    depth = len(args[0]._heap)
    if depth > tracer.heap_max:
        tracer.heap_max = depth


def _kernel_post(tracer: "LayerTracer", args, result, _state) -> None:
    kernel, request = args[0], args[1]
    if request.msg_type == "execute_request" and kernel.history:
        rec = kernel.history[-1]
        tracer.counts["kernel.ops"] += int(rec.resources.get("ops", 0))
        if rec.status != "ok":
            tracer.counts["kernel.error_cells"] += 1


def _poll_pre(_tracer, args):
    soc = args[0]
    return len(soc.correlator.incidents), len(soc.executed)


def _poll_post(tracer: "LayerTracer", args, _result, state) -> None:
    soc = args[0]
    if len(soc.correlator.incidents) > state[0] or len(soc.executed) > state[1]:
        tracer.counts["soc.useful_polls"] += 1


def _gateway_pre(_tracer, args) -> int:
    return len(args[0].gateway.protocol_errors)


def _gateway_post(tracer: "LayerTracer", args, _result, before: int) -> None:
    tracer.counts["server.protocol_errors"] += len(args[0].gateway.protocol_errors) - before


HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "EventLoop.step": (_step_pre, None),
    "KernelRuntime.handle": (None, _kernel_post),
    "ResponseController.poll": (_poll_pre, _poll_post),
    "_GatewayConnection.feed": (_gateway_pre, _gateway_post),
}

#: Count-only wrappers (no span): (module, attribute path, counter).
#: The probes are module globals of the monitor engine, read at call
#: time, so patching the engine's binding counts exactly the calls the
#: monitor makes; a ``None`` result is a fall-back to the classic parse.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simnet.net", "TcpConnection._emit_segment", "simnet.segments"),
    ("repro.monitor.engine", "probe_ws_canonical", "wire.probe"),
    ("repro.monitor.engine", "probe_zmtp_header", "wire.probe"),
)


class LayerTracer:
    """Self-time and call aggregates per layer, plus in-memory spans for
    the operations marked ``recording``."""

    def __init__(self) -> None:
        self.layers: List[str] = list(LAYERS)
        self.self_s: List[float] = [0.0] * len(self.layers)
        self.calls: List[int] = [0] * len(self.layers)
        self.counts: Counter = Counter()
        self.heap_max = 0
        self.stack: List[list] = []
        #: [name, start, end, parent index, op]; filled while ``recording``.
        self.spans: List[list] = []
        self.op = -1
        self.recording = False

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        for li, layer in enumerate(self.layers):
            for module, qualname in LAYERS[layer]:
                pre, post = HOOKS.get(qualname, (None, None))
                self._patch(module, qualname,
                            lambda fn, name=f"{layer}:{qualname}", li=li, pre=pre, post=post:
                            self._timed(li, name, fn, pre, post))
        for module, path, key in COUNTED:
            self._patch(module, path, lambda fn, key=key: self._counted(key, fn))

    def _patch(self, module: str, path: str, make: Callable) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)

    def _timed(self, li: int, name: str, fn: Callable, pre, post) -> Callable:
        tracer = self
        self_s, calls, stack, spans = self.self_s, self.calls, self.stack, self.spans
        clock = perf_counter

        def traced(*args, **kwargs):
            state = pre(tracer, args) if pre is not None else None
            frame = [0.0, -1]
            if tracer.recording:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1, tracer.op])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[li] += dur - frame[0]
                calls[li] += 1
                if stack:
                    stack[-1][0] += dur
                if frame[1] >= 0:
                    span = spans[frame[1]]
                    span[1] = t0
                    span[2] = t1
            if post is not None:
                post(tracer, args, result, state)
            return result

        return traced

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts
        calls_key, miss_key = f"{key}_calls", f"{key}_misses"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[calls_key] += 1
            if result is None:
                counts[miss_key] += 1
            return result

        return counted

    # -- phases ---------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh measured phase (set-up aggregates are dropped)."""
        for i in range(len(self.layers)):
            self.self_s[i] = 0.0
            self.calls[i] = 0
        self.counts.clear()
        self.heap_max = 0

    def layer_self(self, layer: str) -> float:
        return self.self_s[self.layers.index(layer)]

    def snapshot(self) -> Dict[str, object]:
        return {
            "self_s": dict(zip(self.layers, self.self_s)),
            "calls": dict(zip(self.layers, self.calls)),
            "counts": dict(self.counts),
            "heap_max": self.heap_max,
        }

    def write_spans(self, path: str, t_base: float) -> None:
        """Write the recorded spans as JSON lines, times relative to ``t_base``."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - t_base, 7),
                                     "end": round(end - t_base, 7),
                                     "parent": parent, "op": op}) + "\n")
