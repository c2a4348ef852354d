"""Spans around the calls into each rsuq layer, recorded from outside the package.

`traced(tracer)` replaces the attributes that the package's callers look
up (module globals such as `rsuq.quantizer.stream_uniforms`, and methods
such as `Lattice.embed_rows`) with timing wrappers, and restores the
originals on exit.  Spans stay in memory; `layer_metrics` turns them into
per-layer self times and exact counts.  The per-bit `BitWriter` and
`BitReader` methods are deliberately not wrapped: a span costs more than
the bit it would measure.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# Package modules; a span counts toward the layer named before its dot.
LAYERS = ("cli", "coding", "quantizer", "dither", "lattices", "layered", "mc")


def _rows(a):
    return int(np.shape(a)[0])


def _words(a):
    return int(np.size(a))


class Tracer:
    """In-memory span recorder.

    A span row is [name id, request, parent row, start, end, rows, words];
    the request is the benchmark's job index, shared by all spans of one
    job.  `kept` holds (span name, request, payload) for the accounting
    done after the run, so no arithmetic happens inside a traced call.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.kept: list[tuple] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, keep=None):
        """Wrapper recording one span per call; count(args) -> (rows, words)."""
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        spans, stack, kept, perf = self.spans, self._stack, self.kept, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [idx, self.request, stack[-1] if stack else -1, 0.0, 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                rec[3] = t0
                stack.pop()
            if count is not None:
                rec[5], rec[6] = count(args)
            if keep is not None:
                kept.append((name, self.request, keep(args, kwargs, out)))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def arrays(self):
        """Spans as numpy columns: name, request, parent, start, end, rows, words."""
        a = np.asarray(self.spans, dtype=np.float64).reshape(-1, 7)
        return {"name": a[:, 0].astype(np.int64), "request": a[:, 1].astype(np.int64),
                "parent": a[:, 2].astype(np.int64), "start": a[:, 3], "end": a[:, 4],
                "rows": a[:, 5].astype(np.int64), "words": a[:, 6].astype(np.int64)}

    def save(self, path):
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def _targets():
    """(owner, attribute, span name, count, keep) for every wrapped call."""
    import rsuq.cli
    import rsuq.layered
    import rsuq.mc
    import rsuq.quantizer
    from rsuq.lattices import Lattice
    from rsuq.layered import GaussianNoise

    cli, qz, lay = rsuq.cli, rsuq.quantizer, rsuq.layered
    return [
        (cli, "encode_batch", "quantizer.encode_batch", None,
         lambda a, kw, out: (a[0].lat, out[0])),
        (cli, "decode_batch", "quantizer.decode_batch", None, None),
        (cli, "lrsuq_encode_batch", "layered.lrsuq_encode_batch", None,
         lambda a, kw, out: (a[1], out[0])),
        (cli, "encode_stream", "coding.encode_stream", None,
         lambda a, kw, out: (a[0], kw.get("lat"), len(out))),
        (cli, "decode_stream", "coding.decode_stream", None,
         lambda a, kw, out: (out[0], kw.get("lat"), len(a[0]), out[1])),
        (cli, "read_vectors", "coding.read_vectors", None, None),
        (cli, "write_vectors", "coding.write_vectors", None, None),
        (rsuq.mc, "rate_from_descriptions", "mc.rate_from_descriptions", None, None),
        # One quantizer-side stream_uniforms call is one rejection round.
        (qz, "stream_uniforms", "dither.stream_uniforms",
         lambda a: (len(a[0]), len(a[0]) * int(a[2])), None),
        (qz, "gathered_uniforms", "dither.gathered_uniforms",
         lambda a: (_rows(a[1]), _words(a[1])), None),
        (qz, "fold_rows", "dither.fold_rows", lambda a: (_rows(a[1]), 0), None),
        (lay, "stream_uniforms", "layered.level_draw",
         lambda a: (len(a[0]), len(a[0]) * int(a[2])), None),
        (GaussianNoise, "sample_level", "layered.sample_level",
         lambda a: (_rows(a[1]), 0), None),
        (Lattice, "nearest_rows", "lattices.nearest_rows", lambda a: (_rows(a[1]), 0), None),
        (Lattice, "embed_rows", "lattices.embed_rows", lambda a: (_rows(a[1]), 0), None),
        (Lattice, "coords_rows", "lattices.coords_rows", lambda a: (_rows(a[1]), 0), None),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count, keep in _targets():
            orig = vars(owner)[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, count, keep))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def self_times(tracer: Tracer):
    """Per span name: (self seconds, calls, rows, words, total seconds).

    Self time is a span's duration minus the durations of its direct child
    spans; calls are synchronous, so children nest and never overlap.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    own = dur - child
    out = {}
    for idx, name in enumerate(tracer.names):
        sel = a["name"] == idx
        out[name] = (float(own[sel].sum()), int(sel.sum()),
                     int(a["rows"][sel].sum()), int(a["words"][sel].sum()),
                     float(dur[sel].sum()))
    return out


def _bit_split(tracer: Tracer):
    """Header/Golomb/coordinate/pad bits of every stream packed or unpacked.

    Header size follows the RSQ1 layout: 47 fixed bytes plus the lattice id.
    """
    from rsuq.coding import golomb_for_lattice, lattice_for_header

    ks = {}
    for name, req, payload in tracer.kept:
        if name == "quantizer.encode_batch":
            ks[req] = payload[1]
    split = dict(header=0, golomb=0, coord=0, pad=0, packed=0, unpacked=0)
    bad = 0
    for name, req, payload in tracer.kept:
        if name == "coding.encode_stream":
            header, lat, nbytes = payload
            K = ks[req]
        elif name == "coding.decode_stream":
            header, lat, nbytes, K = payload
        else:
            continue
        lat = lattice_for_header(header, lat)
        hb = 8 * (47 + len(header.lattice_id.encode("ascii")))
        gb = int(golomb_for_lattice(lat).length(K).sum()) if len(K) else 0
        cb = header.count * header.n * int(2 * header.coord_bound).bit_length()
        pad = 8 * nbytes - hb - gb - cb
        bad += not 0 <= pad < 8
        split["header"] += hb
        split["golomb"] += gb
        split["coord"] += cb
        split["pad"] += pad
        split["packed" if name == "coding.encode_stream" else "unpacked"] += gb + cb
    return split, bad


def _k_stats(tracer: Tracer):
    """Count, sum and max of the encoders' K, and the terms of the acceptance z-score.

    Each draw is accepted with probability packing_density(lat), so the
    accepted count over sum(K) draws has mean p*sum(K), variance p(1-p)*sum(K).
    """
    from rsuq.lattices import packing_density

    n = total = kmax = 0
    expect = var = 0.0
    for name, _req, payload in tracer.kept:
        if name in ("quantizer.encode_batch", "layered.lrsuq_encode_batch") and len(payload[1]):
            lat, K = payload
            p = packing_density(lat)
            d = int(K.sum())
            n += len(K)
            total += d
            kmax = max(kmax, int(K.max()))
            expect += p * d
            var += d * p * (1.0 - p)
    return n, total, kmax, expect, var


# Unit of a per-layer metric, by the first matching name suffix.
UNITS = (("_mbit_s", "Mbit/s"), ("_s", "s"), ("_bits", "bit"), ("_frac", "ratio"),
         ("_rows", "rows"), ("_calls", "count"), (".rounds", "count"),
         (".row_draws", "count"), (".words", "count"), (".k_mean", "draws"),
         (".k_max", "draws"), (".accept_ratio", "ratio"), (".accept_z", "sigma"))


def unit(name):
    return next(u for suffix, u in UNITS if name.endswith(suffix))


def layer_metrics(tracer: Tracer, untraced_busy: float):
    """Per-layer metrics from one traced pass; returns (metrics, consistency failures).

    `untraced_busy` is the summed cli.main time of the same calls run
    without tracing, which gives the tracing overhead.
    """
    st = self_times(tracer)

    def s(name):
        return st.get(name, (0.0, 0, 0, 0, 0.0))

    busy = s("cli.main")[4]
    split, bad = _bit_split(tracer)
    kn, ksum, kmax, kexp, kvar = _k_stats(tracer)
    rounds = s("dither.stream_uniforms")
    gather = s("dither.gathered_uniforms")
    encoded = s("quantizer.encode_batch")[1] + s("layered.lrsuq_encode_batch")[1]
    # Every accepted vector was drawn once per round up to its K.
    if encoded and ksum != rounds[2]:
        bad += 1
    pack, unpack = s("coding.encode_stream")[0], s("coding.decode_stream")[0]
    m = {
        "coding.pack_s": pack,
        "coding.pack_mbit_s": split["packed"] / pack / 1e6 if pack else 0.0,
        "coding.unpack_s": unpack,
        "coding.unpack_mbit_s": split["unpacked"] / unpack / 1e6 if unpack else 0.0,
        "coding.vqf_read_s": s("coding.read_vectors")[0],
        "coding.vqf_write_s": s("coding.write_vectors")[0],
        "coding.header_bits": split["header"],
        "coding.golomb_bits": split["golomb"],
        "coding.coord_bits": split["coord"],
        "coding.pad_bits": split["pad"],
        "quantizer.encode_self_s": s("quantizer.encode_batch")[0],
        "quantizer.decode_self_s": s("quantizer.decode_batch")[0],
        "quantizer.rounds": rounds[1],
        "quantizer.row_draws": rounds[2],
        "quantizer.k_mean": ksum / kn if kn else 0.0,
        "quantizer.k_max": kmax,
        "quantizer.accept_ratio": kn / ksum if ksum else 0.0,
        "quantizer.accept_z": (kn - kexp) / kvar ** 0.5 if kvar > 0 else 0.0,
        "dither.gen_s": rounds[0] + gather[0],
        "dither.words": rounds[3] + gather[3],
        "dither.fold_s": s("dither.fold_rows")[0],
        "dither.fold_rows": s("dither.fold_rows")[2],
        "lattices.nearest_s": s("lattices.nearest_rows")[0],
        "lattices.nearest_rows": s("lattices.nearest_rows")[2],
        "lattices.embed_s": s("lattices.embed_rows")[0],
        "lattices.embed_rows": s("lattices.embed_rows")[2],
        "lattices.embed_calls": s("lattices.embed_rows")[1],
        "lattices.coords_s": s("lattices.coords_rows")[0],
        "lattices.coords_rows": s("lattices.coords_rows")[2],
        "layered.encode_self_s": s("layered.lrsuq_encode_batch")[0],
        "layered.level_s": s("layered.level_draw")[0] + s("layered.sample_level")[0],
        "layered.level_rows": s("layered.level_draw")[2],
        "mc.rate_s": s("mc.rate_from_descriptions")[0],
        "cli.self_s": s("cli.main")[0],
    }
    for layer in LAYERS:
        own = sum(v[0] for k, v in st.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.busy_frac"] = own / busy if busy else 0.0
    m["trace.overhead_frac"] = busy / untraced_busy - 1.0 if untraced_busy else 0.0
    return m, bad
