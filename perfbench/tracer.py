"""Outside-in tracer: spans and tape counters installed by monkeypatching.

Nothing in ``src/`` knows about this module. ``Tracer.install`` swaps
each traced public function for a timing shim in every ``tvadapt``
namespace that holds a reference to it (a ``from .x import f`` copy is
a separate binding, so patching only the defining module would miss
it), and ``Tracer.uninstall`` puts the originals back.

What is recorded, all kept in memory:

- spans: inclusive time per call path, e.g.
  ``("model.batch_loss", "backbone.encode_video", "backbone.vit_block")``;
- tensor ops: calls and forward time per primitive op (every function
  in ``tvadapt.tensor`` that creates a node through ``_make``), nodes
  created and nodes recorded on the tape per op kind;
- backward: each taped node's ``_bw`` closure is wrapped, so its time is
  charged to its op kind (from the closure's ``__qualname__``) and to
  the span path that was open when the node was created;
- ``Tensor._accumulate`` calls and the bytes of gradient buffers it
  allocates fresh;
- waste ratios observed at span boundaries (warp rows, sentence picks).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# (span name, defining module, attribute path inside that module)
SPANS = (
    ("data.generate_dataset", "tvadapt.data", "generate_dataset"),
    ("checkpoint.save", "tvadapt.checkpoint", "save_checkpoint"),
    ("checkpoint.load", "tvadapt.checkpoint", "load_checkpoint"),
    ("backbone.patchify", "tvadapt.backbone", "patchify"),
    ("backbone.vit_block", "tvadapt.backbone", "vit_block"),
    ("backbone.attention_core", "tvadapt.backbone", "attention_core"),
    ("backbone.encode_text", "tvadapt.backbone", "encode_text"),
    ("backbone.encode_video", "tvadapt.backbone", "encode_video"),
    ("modulation.video_apply", "tvadapt.modulation", "VideoModulation.apply"),
    ("modulation.text_apply", "tvadapt.modulation", "TextModulation.apply"),
    ("attention.selection_masks", "tvadapt.attention", "selection_masks"),
    ("attention.warp_kv", "tvadapt.attention", "warp_kv"),
    ("model.pick_sentences", "tvadapt.model", "AdapterModel._pick_sentences"),
    ("model.batch_loss", "tvadapt.model", "AdapterModel.batch_loss"),
    ("retrieval.video_embedding", "tvadapt.retrieval", "video_embedding"),
    ("retrieval.contrastive_loss", "tvadapt.retrieval", "contrastive_loss"),
    ("retrieval.metrics_report", "tvadapt.retrieval", "metrics_report"),
    ("retrieval.dsl", "tvadapt.retrieval", "dsl"),
    ("train.adam_step", "tvadapt.train", "Adam.step"),
    ("train.evaluate_model", "tvadapt.train", "evaluate_model"),
    ("tensor.backward", "tvadapt.tensor", "Tensor.backward"),
)

# op record fields
CALLS, FWD_NS, NODES, TAPED, BW_CALLS, BW_NS = range(6)


def primitive_ops():
    """Names of the ``tvadapt.tensor`` functions that create tape nodes."""
    T = importlib.import_module("tvadapt.tensor")
    return sorted(
        name for name, fn in vars(T).items()
        if callable(fn) and getattr(fn, "__module__", None) == T.__name__
        and "_make" in getattr(getattr(fn, "__code__", None), "co_names", ())
    )


def _op_kind(backward_fn):
    return backward_fn.__qualname__.partition(".")[0]


class Tracer:
    def __init__(self):
        self._stack = []
        self._patches = []
        self._observers = {
            "attention.warp_kv": self._observe_warp_rows,
            "model.pick_sentences": self._observe_picks,
        }
        self.paths = defaultdict(lambda: [0, 0])  # path -> [calls, ns]
        self.bw_paths = defaultdict(int)  # creation path -> backward ns
        self.ops = defaultdict(lambda: [0] * 6)
        self.counters = defaultdict(int)

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, attr in SPANS:
            self._replace(module, attr, lambda fn, name=name: self._span(name, fn))
        T = importlib.import_module("tvadapt.tensor")
        for op in primitive_ops():
            self._replace("tvadapt.tensor", op, lambda fn, op=op: self._op(op, fn))
        self._replace("tvadapt.tensor", "_make", self._make_shim)
        self._set(T.Tensor, "_accumulate", self._accumulate_shim(T.Tensor._accumulate))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, module, attr, make_shim):
        owner = importlib.import_module(module)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        shim = make_shim(original)
        if outer:  # a method: the class is the only binding
            self._set(owner, leaf, shim)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "tvadapt" or mod_name.startswith("tvadapt."):
                if getattr(mod, leaf, None) is original:
                    self._set(mod, leaf, shim)

    # -- shims -------------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(name)
            path = tuple(stack)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec = self.paths[path]
                rec[0] += 1
                rec[1] += perf_counter_ns() - t0
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return shim

    def _op(self, kind, fn):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            t0 = perf_counter_ns()
            out = fn(*args, **kwargs)
            rec = self.ops[kind]
            rec[CALLS] += 1
            rec[FWD_NS] += perf_counter_ns() - t0
            return out

        return shim

    def _make_shim(self, make):
        @functools.wraps(make)
        def shim(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            kind = _op_kind(backward_fn)
            rec = self.ops[kind]
            rec[NODES] += 1
            if out._backward is not None:
                rec[TAPED] += 1
                out._backward = self._timed_backward(backward_fn, rec, tuple(self._stack))
            return out

        return shim

    def _timed_backward(self, backward_fn, rec, path):
        def bw(g):
            t0 = perf_counter_ns()
            backward_fn(g)
            dt = perf_counter_ns() - t0
            rec[BW_CALLS] += 1
            rec[BW_NS] += dt
            self.bw_paths[path] += dt

        return bw

    def _accumulate_shim(self, accumulate):
        counters = self.counters

        @functools.wraps(accumulate)
        def shim(tensor, g):
            counters["accumulate_calls"] += 1
            if tensor.grad is None:
                counters["grad_alloc_bytes"] += tensor.data.nbytes
            accumulate(tensor, g)

        return shim

    # -- observations at span boundaries -------------------------------------

    def _observe_warp_rows(self, args, kwargs, out):
        selection = kwargs.get("selection", args[3] if len(args) > 3 else None)
        mask = np.asarray(getattr(selection, "mask", selection), dtype=bool)
        self.counters["warp_rows_selected"] += int(mask.sum())
        self.counters["warp_rows_resampled"] += int(mask.size)

    def _observe_picks(self, args, kwargs, out):
        # args: (model, videos, candidates); a paired batch or corpus has
        # the ground-truth sentence of video i at candidate row i
        candidates = np.asarray(kwargs.get("candidates", args[2] if len(args) > 2 else None))
        picks = np.asarray(out)
        if candidates.shape[0] == picks.shape[0]:
            self.counters["pick_hits"] += int((picks == np.arange(picks.shape[0])).sum())
            self.counters["picks"] += int(picks.shape[0])

    # -- summaries -----------------------------------------------------------

    def inclusive_ns(self, name, under=None):
        """Total time in spans called ``name`` (optionally nested in ``under``).

        A path that recurses into ``name`` counts only its outermost call.
        """
        total = 0
        for path, (_, ns) in self.paths.items():
            if path[-1] == name and name not in path[:-1]:
                if under is None or under in path[:-1]:
                    total += ns
        return total

    def backward_ns_under(self, name):
        return sum(ns for path, ns in self.bw_paths.items() if name in path)

    def top_level_ns(self):
        return sum(ns for path, (_, ns) in self.paths.items() if len(path) == 1)

    def op_table(self):
        """Per op kind: forward calls and ms, nodes, taped nodes, backward calls and ms."""
        return {
            kind: {"calls": rec[CALLS], "fwd_ms": rec[FWD_NS] / 1e6, "nodes": rec[NODES],
                   "taped": rec[TAPED], "bw_calls": rec[BW_CALLS], "bw_ms": rec[BW_NS] / 1e6}
            for kind, rec in sorted(self.ops.items())
        }

    def span_tree(self):
        """Per call path: calls, inclusive and self milliseconds."""
        children = defaultdict(int)
        for path, (_, ns) in self.paths.items():
            if len(path) > 1:
                children[path[:-1]] += ns
        return {
            "/".join(path): {
                "calls": calls,
                "ms": ns / 1e6,
                "self_ms": (ns - children.get(path, 0)) / 1e6,
                "bw_ms": self.bw_paths.get(path, 0) / 1e6,
            }
            for path, (calls, ns) in sorted(self.paths.items())
        }
