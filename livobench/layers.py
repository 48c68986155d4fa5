"""Per-layer timing from outside the program.

Each layer is the set of public functions listed in ``LAYERS`` (named
after the modules that define them).  ``install`` swaps every one of
them for a wrapper that records one ``Span`` per outermost call: the
class attribute for methods, and for plain functions every loaded
``repro`` module that bound the function object, because ``from x
import f`` copies the name into the importing module.

Generator paths (``LiVoSender.encode_steps``,
``ConferenceDriver.tick_steps``) do not run as one interval, so they
are timed where their work happens: at the codec kernels they request
and at ``BatchPlane.run``/``run_lockstep``, which drive them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

from intervals import Span

# layer -> "module:attribute" targets.  A dotted attribute is a method
# and must be defined on that class itself (subclasses are listed).
LAYERS: dict[str, tuple[str, ...]] = {
    "capture": (
        "repro.perf.capture:CachedFrameSource.capture",
        "repro.capture.rig:CaptureRig.capture",
    ),
    "prepare": ("repro.core.sender:LiVoSender.prepare",),
    "codec.transform": (
        "repro.codec.dct:forward_dct",
        "repro.codec.dct:inverse_dct",
    ),
    "codec.motion": (
        "repro.codec.motion:estimate_motion",
        "repro.codec.motion:motion_batch",
    ),
    "codec.entropy": (
        "repro.codec.entropy:encode_levels",
        "repro.codec.entropy:encode_levels_batch",
        "repro.codec.entropy:decode_levels",
    ),
    "runtime.batchplane": (
        "repro.runtime.batchplane:BatchPlane.run",
        "repro.runtime.batchplane:BatchPlane.run_lockstep",
    ),
    "transport": (
        "repro.transport.channel:WebRTCChannel.send_frame",
        "repro.transport.channel:WebRTCChannel.process_until",
        "repro.transport.channel:WebRTCChannel.poll_deliveries",
    ),
    "decode": (
        "repro.core.receiver:LiVoReceiver.decode_pair",
        "repro.core.receiver:LiVoReceiver.decode_pair_safe",
    ),
    "render": (
        "repro.core.receiver:LiVoReceiver.reconstruct",
        "repro.core.receiver:LiVoReceiver.render_view",
    ),
    "quality": (
        "repro.metrics.pointssim:pointssim",
        "repro.metrics.pointssim:pointssim_batch",
        "repro.metrics.pointssim:precompute_features",
        # The reference cloud each score is taken against.
        "repro.core.session:ground_truth_cloud",
    ),
    "sfu": (
        "repro.sfu.node:SFUNode.ingest",
        "repro.sfu.node:SFUNode.forward",
    ),
    # Result waits: a serial executor computes inline (its children
    # then cover the time), a process pool blocks the caller.
    "runtime.executors": (
        "repro.runtime.executors:SerialExecutor.map",
        "repro.runtime.executors:SerialExecutor.submit",
        "repro.runtime.executors:ThreadExecutor.map",
        "repro.runtime.executors:ProcessExecutor.map",
        "repro.runtime.executors:_FallbackFuture.result",
        "repro.runtime.workers:_PendingCall.result",
    ),
    "runtime.shm": (
        "repro.runtime.shm:ShmArena.allocate",
        "repro.runtime.shm:ShmArena.share",
        "repro.runtime.shm:ShmArena.release",
        "repro.runtime.shm:attach_array",
    ),
    "service.http": ("repro.service.app:ServiceApp.handle",),
    "service.registry": tuple(
        f"repro.service.registry:SessionRegistry.{name}"
        for name in ("create", "join", "leave", "stats", "kill", "reap", "take_pending_ops")
    ),
    "service.workers": ("repro.service.workers:TickWorkerPool.run_round",),
    "obs": ("repro.obs.metrics:MetricsRegistry.to_dict",),
}


class Recorder:
    """Collects spans from wrapped calls, one per outermost call per layer.

    A call into a layer that is already active on the same thread is
    part of the outer call and is not recorded again.  ``on_result``
    hooks see a target's return value, for counts taken at the boundary.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def wrap(self, layer: str, fn, on_result=None):
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if layer in stack:
                result = fn(*args, **kwargs)
            else:
                parent = stack[-1] if stack else None
                stack.append(layer)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans.append(Span(layer, parent, threading.get_ident(), start, end))
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def install(self, layers=LAYERS, hooks=None) -> None:
        """Wrap every target of ``layers``; ``hooks`` maps target -> on_result."""
        hooks = hooks or {}
        for layer, targets in layers.items():
            for target in targets:
                replace(target, lambda fn: self.wrap(layer, fn, hooks.get(target)))


def replace(target: str, make_wrapper) -> None:
    """Swap a ``module:attribute`` target for ``make_wrapper(original)``.

    A dotted attribute is a method and is replaced on its class.  A
    function is replaced in every loaded ``repro`` module that bound
    it; modules imported later pick the wrapper up from its home.
    """
    module_name, _, attribute = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        setattr(owner, method, make_wrapper(owner.__dict__[method]))
        return
    original = getattr(module, attribute)
    wrapped = make_wrapper(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for binding, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, binding, wrapped)


def probe(target: str, sink: list, on_call=None) -> None:
    """Record ``(start, end)`` of every call to ``target`` into ``sink``.

    Used for the tick boundaries the end-to-end metrics need; it takes
    no part in layer attribution and costs two clock reads per call.
    ``on_call(args, result)`` sees each call, for checks on the outputs.
    """

    def make(fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            sink.append((start, perf_counter()))
            if on_call is not None:
                on_call(args, result)
            return result

        return probed

    replace(target, make)
