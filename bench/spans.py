"""In-memory span tracing of the package's public functions.

The tracer wraps each named function in every module namespace that holds
it (``pipeline`` imports ``forward`` and ``relabel_epoch`` by name,
``retrieval`` imports ``k_reciprocal_neighbors`` by name, and so on), so a
call is timed whichever module it is made through.  Spans are
``(name, start, end, parent)`` tuples kept in a list and written as JSONL
when the run ends.  Self times are derived from the spans: a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("datamodel", "encoder", "losses", "pseudolabel", "retrieval", "pipeline")


def _rows(args, kwargs, out):
    raws = kwargs.get("raws", args[1] if len(args) > 1 else None)
    return {"encoder.forward_rows": len(raws)}


def _neighbor_pairs(args, kwargs, out):
    return {"pseudolabel.neighbor_pairs": sum(len(s) for s in out)}


def _membership(args, kwargs, out):
    return {"pseudolabel.membership_nonzeros": int((out != 0).sum()),
            "pseudolabel.membership_entries": out.size}


# (module, function, counter) for every traced function; the metric name is
# "<module>.<function>_s" and its call count "<module>.<function>_calls".
TRACED = (
    ("datamodel", "generate_synthetic", None),
    ("encoder", "pk_sample", None),
    ("encoder", "forward", _rows),
    ("encoder", "forward_cached", _rows),
    ("encoder", "backward", None),
    ("encoder", "adam_step", None),
    ("encoder", "ema_update", None),
    ("encoder", "queue_push", None),
    ("encoder", "encode_dataset", None),
    ("losses", "soft_ce_batch", None),
    ("losses", "moco_batch", None),
    ("losses", "softmax_triplet_loss", None),
    ("losses", "cross_entropy_batch", None),
    ("pseudolabel", "pairwise_euclidean", None),
    ("pseudolabel", "k_reciprocal_neighbors", _neighbor_pairs),
    ("pseudolabel", "membership_matrix", _membership),
    ("pseudolabel", "jaccard_from_membership", None),
    ("pseudolabel", "dbscan", None),
    ("pseudolabel", "relabel_epoch", None),
    ("retrieval", "rerank", None),
    ("retrieval", "evaluate", None),
    ("pipeline", "stage_pretrain", None),
    ("pipeline", "stage_mmt_plus", None),
    ("pipeline", "eval_encoder", None),
)

# Spans whose self time (net of child spans) is reported as well.
SELF_TIMED = ("retrieval.rerank", "pipeline.stage_mmt_plus")

COUNTS = ("encoder.forward_rows", "pseudolabel.neighbor_pairs")


class Tracer:
    """Records nested spans: calls of the TRACED functions while installed,
    and ``span()`` blocks."""

    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index or -1)
        self.counts: list = []    # (span index, {counter: value})
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block, such as the root of one timed round."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts.append((idx, counter(args, kwargs, out)))
            return out
        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"uda_reid.{name}") for name in MODULES}
        for home, fname, counter in TRACED:
            original = getattr(modules[home], fname)
            wrapper = self._wrap(f"{home}.{fname}", original, counter)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def self_times(spans) -> list:
    """Per span, its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize_roots(tracer: Tracer, root_name: str) -> list:
    """One dict per root span named ``root_name``: per traced name its total
    seconds, call count and self seconds, plus the counters, over the spans
    that descend from that root."""
    spans = tracer.spans
    root_of = [-1] * len(spans)
    for idx, (name, _, _, parent) in enumerate(spans):
        if name == root_name and parent == -1:
            root_of[idx] = idx
        elif parent >= 0:
            root_of[idx] = root_of[parent]
    own = self_times(spans)
    per_root = {idx: {"seconds": defaultdict(float), "calls": defaultdict(int),
                      "self": defaultdict(float), "counts": defaultdict(int),
                      "wall": spans[idx][2] - spans[idx][1]}
                for idx, (name, _, _, parent) in enumerate(spans)
                if name == root_name and parent == -1}
    for idx, (name, start, end, _) in enumerate(spans):
        summary = per_root.get(root_of[idx])
        if summary is None:
            continue
        # no traced function calls itself, so per-name sums never double count
        summary["seconds"][name] += end - start
        summary["calls"][name] += 1
        summary["self"][name] += own[idx]
    for idx, values in tracer.counts:
        summary = per_root.get(root_of[idx])
        if summary is not None:
            for key, value in values.items():
                summary["counts"][key] += value
    return [per_root[idx] for idx in sorted(per_root)]
