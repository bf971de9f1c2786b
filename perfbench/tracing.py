"""Per-layer spans for `orienteer solve`, recorded from outside the package.

``Tracer.patch()`` replaces the public functions of each layer where their
callers look them up, with wrappers that time the call and count it, and
``unpatch()`` puts the originals back.  The package itself is unchanged, and
no solver argument is changed: passing ``window_solver=`` to
``solve_orienteering`` would halve its rooted bound and change the work.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  Memo misses are counted by the identity of the returned
object: a table or length dict that a solver has not returned before is a
new build.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import Counter, defaultdict

#: (owner, attribute, layer, counter hook): the owner is a module, or
#: "module:Class" for a method; the hook names a Tracer method that sees
#: each call's arguments and result.
PATCH_POINTS = (
    ("orienteer.cli", "solve_ktsp", "ktsp", None),
    ("orienteer.cli", "solve_mktsp", "mktsp", "_mktsp"),
    ("orienteer.cli", "solve_orienteering", "orienteering", None),
    ("orienteer.orienteering", "solve_mktsp", "mktsp", "_orienteering_mktsp"),
    ("orienteer.window_solver:ExactWindowSolver", "single_slot_table", "window_solver.table",
     "_table"),
    ("orienteer.window_solver:ExactWindowSolver", "solve_lengths", "window_solver.lengths",
     "_lengths"),
    ("orienteer.window_solver:ExactWindowSolver", "solve_window", "window_solver.window", None),
    ("orienteer.mktsp", "orient_pairs", "directions.orient", None),
    ("orienteer.ktsp", "rotate_to_axis", "geometry.rotate", None),
    ("orienteer.cli", "verify_solution", "verify", None),
    ("orienteer.cli", "load_instance", "io", None),
    ("orienteer.cli", "dumps", "io", None),
)

#: Every layer that reports self time, root first.
LAYERS = (
    "cli",
    "io",
    "verify",
    "ktsp",
    "mktsp",
    "orienteering",
    "directions.orient",
    "geometry.rotate",
    "window_solver.table",
    "window_solver.lengths",
    "window_solver.window",
)

#: Spans kept for the span file; later spans still count in the totals.
MAX_SPANS = 100_000


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.misses: Counter = Counter()
        self.capped = 0
        self.orienteering_mktsp = 0
        self.max_table_points = 0
        self.spans: list[tuple] = []  # (span id, parent id, request, layer, start, end)
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._request = 0
        self._originals: list[tuple] = []
        self._table_memo = self._memo("window_solver.table")
        self._lengths = self._memo("window_solver.lengths")

    # -- spans -----------------------------------------------------------

    def wrap(self, layer: str, fn, on_result=None):
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (span_id, parent[0] if parent else -1, self._request, layer, start, end)
                    )
                else:
                    self.dropped_spans += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return functools.wraps(fn)(traced)

    def run(self, fn, *args):
        """Call `fn` as the root span of one request."""
        self._request += 1
        return self.wrap("cli", fn)(*args)

    # -- counters at the layer boundaries ----------------------------------

    def _memo(self, layer: str):
        seen = weakref.WeakKeyDictionary()  # solver -> ids of objects it returned

        def on_result(args, result):
            ids = seen.setdefault(args[0], set())
            if id(result) not in ids:
                ids.add(id(result))
                self.misses[layer] += 1

        return on_result

    def _table(self, args, result):
        self._table_memo(args, result)
        self.max_table_points = max(self.max_table_points, len(args[2]))

    def _mktsp(self, args, result):
        if result is None:
            self.capped += 1

    def _orienteering_mktsp(self, args, result):
        self.orienteering_mktsp += 1
        self._mktsp(args, result)

    # -- patching ----------------------------------------------------------

    def patch(self):
        for owner_path, attr, layer, hook in PATCH_POINTS:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, hook and getattr(self, hook)))

    def unpatch(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, s, miss = self.calls, self.self_s, self.misses
        lengths = c["window_solver.lengths"]
        mktsp = c["mktsp"]
        out = {
            "window_solver.table.calls": (c["window_solver.table"], "count"),
            "window_solver.table.builds": (miss["window_solver.table"], "count"),
            "window_solver.table.self_s": (s["window_solver.table"], "s"),
            "window_solver.table.max_points": (self.max_table_points, "points"),
            "window_solver.lengths.calls": (lengths, "count"),
            "window_solver.lengths.misses": (miss["window_solver.lengths"], "count"),
            "window_solver.lengths.hit_ratio": (
                1.0 - miss["window_solver.lengths"] / lengths if lengths else 0.0, "ratio"),
            "window_solver.lengths.self_s": (s["window_solver.lengths"], "s"),
            "window_solver.window.calls": (c["window_solver.window"], "count"),
            "window_solver.window.self_s": (s["window_solver.window"], "s"),
            "mktsp.calls": (mktsp, "count"),
            "mktsp.self_s": (s["mktsp"], "s"),
            "mktsp.capped_ratio": (self.capped / mktsp if mktsp else 0.0, "ratio"),
            "orienteering.self_s": (s["orienteering"], "s"),
            "orienteering.mktsp_per_solve": (
                self.orienteering_mktsp / c["orienteering"] if c["orienteering"] else 0.0,
                "calls/solve"),
        }
        for layer in ("ktsp", "directions.orient", "geometry.rotate", "verify", "io", "cli"):
            out[f"{layer}.self_s"] = (s[layer], "s")
        return out

    def shares(self) -> dict[str, float]:
        """Each layer's share of the total self time, largest first."""
        total = sum(self.self_s[layer] for layer in LAYERS) or 1.0
        shares = {layer: self.self_s[layer] / total for layer in LAYERS}
        return dict(sorted(shares.items(), key=lambda item: -item[1]))

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tlayer\tstart_s\tend_s\n")
            for span in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)
