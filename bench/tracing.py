"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function and public method of the
package's layer modules (except a few hot leaf helpers, ``UNTRACED``), and rebinds each wrapper wherever a module of
the package holds the original (``from .bloom import clear_spare_bits``
included). A wrapper records one span: the callable, start and end in
nanoseconds, the span that was open when it was called, the op id set
by the workload, whether it raised, and an optional note (bytes
expanded, admission refused, request accepted).

Op ids: an int for a timed op, ``BACKGROUND`` for timed background work
(certificate pushes, epoch closes) and ``UNTIMED`` for the rest (set-up,
warm-up, checks; workloads pass ``None`` to ``begin``). Per-layer metrics cover the timed spans; key
generation and key installation come from the untimed spans.
"""

from __future__ import annotations

import contextlib
import enum
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("bloom", "identity", "crypto", "keymgmt", "protocol", "fss", "netsim")
PACKAGE = "discoverfriends"
BACKGROUND = -2
UNTIMED = -1
FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "raised", "note")

# Hot leaf helpers, called only from their own layer: their time stays in
# the caller's span, and leaving them unwrapped keeps the trace small.
UNTRACED = {"bloom.murmur3_32", "bloom.hash_positions", "netsim.Simulator.log"}

# Extra facts recorded on a span, keyed by qualified callable name.
NOTES = {
    "crypto.keystream": lambda args, result: args[1],
    "crypto.prg_permute_into": lambda args, result: len(args[0]),
    "keymgmt.admit_certificate": lambda args, result: int(result.value != "accepted"),
    "protocol.process_setup_request": lambda args, result: int(type(result).__name__ == "Accept"),
}

# name, unit, better, and the end-to-end metric and workloads it should move.
PER_LAYER = [
    ("bloom.self_ms", "ms", "lower", "latency_p50_ms on discover"),
    ("bloom.insert_calls", "count", "lower", "1,000 per op on discover"),
    ("bloom.probe_calls", "count", "lower", "bloom.self_ms"),
    ("bloom.probe_us", "us", "lower", "latency_p50_ms on discover"),
    ("bloom.decode_us", "us", "lower", "latency_p50_ms on discover"),
    ("bloom.fp_ratio", "ratio", "lower", "about 0.02; each false positive wastes a friend scan"),
    ("identity.self_ms", "ms", "lower", "latency_p50_ms on discover"),
    ("identity.mask_calls", "count", "lower", "latency_p50_ms on discover"),
    ("identity.mask_us", "us", "lower", "latency_p50_ms on discover"),
    ("crypto.self_ms", "ms", "lower", "latency_p50_ms on group, discover and checkin"),
    ("crypto.keystream_ms", "ms", "lower", "latency_p50_ms on discover and checkin"),
    ("crypto.keystream_bytes", "bytes", "lower", "latency_p50_ms on discover and checkin"),
    ("crypto.prg_ms", "ms", "lower", "latency_p50_ms on checkin"),
    ("crypto.prg_bytes", "bytes", "lower", "latency_p50_ms on checkin"),
    ("crypto.keygen_ms", "ms", "lower", "setup_s on discover and group"),
    ("crypto.keygen_calls", "count", "lower", "setup_s on discover and group"),
    ("crypto.wrap_us", "us", "lower", "latency_p50_ms on group"),
    ("crypto.unwrap_us", "us", "lower", "latency_p50_ms on group"),
    ("crypto.unwrap_calls", "count", "lower", "latency_p50_ms on group"),
    ("crypto.unwrap_useful_ratio", "ratio", "higher", "latency_p50_ms on group; members' hello decryptions / attempts"),
    ("crypto.verify_us", "us", "lower", "throughput_ops_s on group, latency_p50_ms on discover"),
    ("crypto.verify_calls", "count", "lower", "throughput_ops_s on group, latency_p50_ms on discover"),
    ("crypto.sym_us", "us", "lower", "latency_p50_ms on group and discover"),
    ("crypto.sym_failures", "count", "lower", "wasted decryptions"),
    ("keymgmt.self_ms", "ms", "lower", "throughput_ops_s on group"),
    ("keymgmt.admit_calls", "count", "lower", "throughput_ops_s on group"),
    ("keymgmt.trust_path_us", "us", "lower", "throughput_ops_s on group"),
    ("keymgmt.install_ms", "ms", "lower", "setup_s on discover and group"),
    ("keymgmt.rejected", "count", "lower", "must stay 0"),
    ("protocol.self_ms", "ms", "lower", "latency_p50_ms on every protocol workload"),
    ("protocol.decode_us", "us", "lower", "latency_p50_ms on discover and group"),
    ("protocol.setup_request_ms", "ms", "lower", "latency_p50_ms on discover"),
    ("protocol.complete_ms", "ms", "lower", "latency_p50_ms on discover"),
    ("protocol.process_request_ms", "ms", "lower", "latency_p50_ms on discover"),
    ("protocol.cert_update_ms", "ms", "lower", "throughput_ops_s on group"),
    ("protocol.send_us", "us", "lower", "latency_p50_ms on group"),
    ("protocol.receive_us", "us", "lower", "latency_p50_ms on group"),
    ("protocol.accept_ratio", "ratio", "higher", "share of setup requests answered"),
    ("fss.self_ms", "ms", "lower", "latency_p50_ms on checkin"),
    ("fss.gen_ms", "ms", "lower", "latency_p50_ms on checkin"),
    ("fss.eval_full_ms", "ms", "lower", "latency_p50_ms on checkin"),
    ("fss.key_decode_us", "us", "lower", "latency_p50_ms on checkin"),
    ("fss.close_ms", "ms", "lower", "throughput_ops_s on checkin"),
    ("fss.decode_slots_ms", "ms", "lower", "throughput_ops_s on checkin"),
    ("fss.key_bytes", "bytes", "lower", "latency_p50_ms on checkin"),
    ("fss.recovered_ratio", "ratio", "higher", "must be 1.0"),
    ("fss.collisions", "count", "lower", "detect-only index collisions, informational"),
    ("netsim.self_ms", "ms", "lower", "latency_p50_ms on group and discover"),
    ("netsim.frames", "count", "lower", "latency_p50_ms on group and discover"),
    ("netsim.deliveries", "count", "lower", "latency_p50_ms on group and discover"),
    ("netsim.frames_per_s", "1/s", "higher", "latency_p50_ms on group and discover"),
    ("netsim.drops", "count", "lower", "should be 0"),
    ("netsim.trace_rows", "count", "lower", "peak_rss_mb on group and discover"),
    ("bench.trace_overhead", "ratio", "lower", "traced over untraced latency_p50_ms"),
    ("bench.machine_speed", "ratio", "higher", "reference kernel's nominal over measured time; scales every figure"),
]

# Counts that must be non-zero on the workload each layer is meant to stress,
# so that a missed binding cannot pass as "0 ms".
STRESSED = {
    "discover": ["bloom.insert_calls", "bloom.probe_calls", "bloom.decode_us", "identity.mask_calls",
                 "crypto.keystream_bytes", "crypto.verify_calls", "keymgmt.admit_calls",
                 "protocol.decode_us", "netsim.frames"],
    "group": ["crypto.unwrap_calls", "crypto.wrap_us", "keymgmt.admit_calls",
              "protocol.send_us", "netsim.frames"],
    "checkin": ["fss.gen_ms", "fss.eval_full_ms", "fss.key_decode_us", "crypto.prg_bytes",
                "fss.decode_slots_ms"],
}


class NullTracer:
    """Tracing off: every hook is a no-op and handlers stay unwrapped."""

    enabled = False
    BACKGROUND = BACKGROUND

    def begin(self, op) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def wrap_handler(self, handler):
        return handler

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """Spans kept in one flat int64 array, FIELDS values per span."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = UNTIMED
        self._blank = array("q", bytes(8 * len(FIELDS)))

    def begin(self, op) -> None:
        self._op = UNTIMED if op is None else op

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self) -> tuple[int, int]:
        base = len(self.spans)
        self.spans.extend(self._blank)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(base // len(FIELDS))
        return base, parent

    def _close(self, base, name_id, start, parent, raised, extra) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[base : base + len(FIELDS)] = array(
            "q", (name_id, start, end, parent, self._op, raised, extra)
        )

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        note = NOTES.get(name)
        opener, closer, clock = self._open, self._close, time.perf_counter_ns

        def traced(*args, **kwargs):
            base, parent = opener()
            raised, extra = 0, 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(args, result)
                return result
            except BaseException:
                raised = 1
                raise
            finally:
                closer(base, name_id, start, parent, raised, extra)

        traced.__wrapped__ = fn
        return traced

    def wrap_handler(self, handler):
        return self._wrap(handler, "bench.handler")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        name_id = self._name_id(name)
        base, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(base, name_id, start, parent, 0, 0)

    def install(self) -> None:
        """Wrap the layer modules' public callables."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and f"{layer}.{attr}" not in UNTRACED:
                    wrapped[id(value)] = self._wrap(value, f"{layer}.{attr}")
                elif inspect.isclass(value) and not issubclass(value, (BaseException, enum.Enum)):
                    self._wrap_methods(value, f"{layer}.{attr}")
        # Rebind each wrapped function wherever a package module holds it.
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in UNTRACED:
                continue
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self._wrap(value.__func__, name)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(value, name))

    def table(self):
        """The spans as an (n, FIELDS) int64 array."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(FIELDS))

    def write_spans(self, path, header: str) -> None:
        """Gzipped CSV, one span per line, after a commented header line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# {header}\n")
            out.write("index," + ",".join(FIELDS) + "\n")
            for index, row in enumerate(self.table().tolist()):
                row[0] = self.names[row[0]]
                out.write(f"{index}," + ",".join(map(str, row)) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over the timed spans, per op unless per call."""
        t = self.table()
        name, start, end, parent, op, raised, note = t.T
        dur = end - start
        child = np.zeros(len(t), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        timed = op != UNTIMED

        def by_name(values, mask):
            return np.bincount(name[mask], weights=values[mask], minlength=len(self.names))

        calls_of = by_name(np.ones(len(t)), timed)
        ns_of = by_name(dur, timed)
        raised_of = by_name(raised, timed)
        note_of = by_name(note, timed)
        setup_calls = by_name(np.ones(len(t)), ~timed)
        setup_ns = by_name(dur, ~timed)
        layer_of = np.array([LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS else len(LAYERS)
                             for n in self.names] or [0])
        self_ns = np.bincount(layer_of[name[timed]], weights=(dur - child)[timed],
                              minlength=len(LAYERS) + 1)

        def get(table, n):
            return float(table[self.names.index(n)]) if n in self.names else 0.0

        def calls(n):
            return get(calls_of, n)

        def per_op_ms(n):
            return get(ns_of, n) / 1e6 / ops

        def per_call_us(*names):
            n = sum(calls(x) for x in names)
            return sum(get(ns_of, x) for x in names) / 1e3 / n if n else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        def setup_per_call_ms(n):
            return ratio(get(setup_ns, n) / 1e6, get(setup_calls, n))

        ops = max(ops, 1)
        counts = self.counts
        epochs = max(counts["epochs"], 1)
        m = {f"{layer}.self_ms": self_ns[i] / 1e6 / ops for i, layer in enumerate(LAYERS)}
        m.update({
            "bloom.insert_calls": calls("bloom.BloomFilter.insert") / ops,
            "bloom.probe_calls": calls("bloom.BloomFilter.contains") / ops,
            "bloom.probe_us": per_call_us("bloom.BloomFilter.contains"),
            "bloom.decode_us": per_call_us("bloom.BloomFilter.from_bytes"),
            "bloom.fp_ratio": ratio(counts["nontarget_hits"], counts["nontarget_probes"]),
            "identity.mask_calls": calls("identity.id_mask") / ops,
            "identity.mask_us": per_call_us("identity.id_mask"),
            "crypto.keystream_ms": per_op_ms("crypto.keystream"),
            "crypto.keystream_bytes": get(note_of, "crypto.keystream") / ops,
            "crypto.prg_ms": per_op_ms("crypto.prg_permute_into"),
            "crypto.prg_bytes": get(note_of, "crypto.prg_permute_into") / ops,
            "crypto.keygen_ms": setup_per_call_ms("crypto.generate_keypair"),
            "crypto.keygen_calls": get(setup_calls, "crypto.generate_keypair"),
            "crypto.wrap_us": per_call_us("crypto.wrap_key"),
            "crypto.unwrap_us": per_call_us("crypto.unwrap_key"),
            "crypto.unwrap_calls": calls("crypto.unwrap_key") / ops,
            "crypto.unwrap_useful_ratio": ratio(counts["hello_decrypted"], counts["hello_unwraps"]),
            "crypto.verify_us": per_call_us("crypto.verify_certificate"),
            "crypto.verify_calls": calls("crypto.verify_certificate") / ops,
            "crypto.sym_us": per_call_us("crypto.sym_encrypt", "crypto.sym_decrypt"),
            "crypto.sym_failures": get(raised_of, "crypto.sym_decrypt") / ops,
            "keymgmt.admit_calls": calls("keymgmt.admit_certificate") / ops,
            "keymgmt.trust_path_us": per_call_us("keymgmt.trust_path_exists"),
            "keymgmt.install_ms": setup_per_call_ms("protocol.install_network_keys"),
            "keymgmt.rejected": get(note_of, "keymgmt.admit_certificate"),
            "protocol.decode_us": per_call_us("protocol.decode_frame"),
            "protocol.setup_request_ms": per_op_ms("protocol.build_setup_request"),
            "protocol.complete_ms": per_op_ms("protocol.complete_initialization"),
            "protocol.process_request_ms": per_op_ms("protocol.process_setup_request"),
            "protocol.cert_update_ms": per_op_ms("protocol.apply_cert_update"),
            "protocol.send_us": per_call_us("protocol.send_message"),
            "protocol.receive_us": per_call_us("protocol.receive_message"),
            "protocol.accept_ratio": ratio(
                get(note_of, "protocol.process_setup_request"), calls("protocol.process_setup_request")
            ),
            "fss.gen_ms": per_op_ms("fss.dpf_gen"),
            "fss.eval_full_ms": per_op_ms("fss.eval_full"),
            "fss.key_decode_us": per_call_us("fss.DpfKey.from_bytes"),
            "fss.close_ms": get(ns_of, "bench.epoch_close") / 1e6 / epochs,
            "fss.decode_slots_ms": get(ns_of, "bench.decode_slots") / 1e6 / epochs,
            "fss.key_bytes": ratio(counts["key_bytes"], counts["keys"]),
            "fss.recovered_ratio": ratio(counts["recovered"], counts["clean_writes"]),
            "fss.collisions": counts["collisions"] / epochs,
            "netsim.frames": counts["frames"] / ops,
            "netsim.deliveries": counts["deliveries"] / ops,
            "netsim.frames_per_s": ratio(counts["frames"], self_ns[LAYERS.index("netsim")] / 1e9),
            "netsim.drops": counts["drops"],
            "netsim.trace_rows": counts["trace_rows"] / ops,
        })
        return {k: float(v) for k, v in m.items()}
