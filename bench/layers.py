"""Outside-in layer tracing for the benchmark.

Hooks wrap the library's public functions from here, never from inside
the package: each name is patched in the module whose code looks it up
(`arrows.kappa_connected_mask`, not `connectivity.kappa_connected_mask`,
for the deciders), so the wrapper sees exactly the calls that module makes.
A span's self time is its duration minus the time of the spans it caused.
Only totals are kept: a search pass makes hundreds of thousands of kernel
calls, too many to store one record each.

A hook whose target a refactor moved or renamed is skipped and listed in
`Tracer.absent`; the metrics of that span then read zero.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span, tally): tally(args, result) is summed into the
# span's ".tally" counter (verdicts that hold, certificate bytes).
HOOKS = (
    ("arrows", "decide", "arrows.decide", lambda a, r: int(r.holds)),
    ("arrows", "enumerate_colorings_canonical", "arrows.enumerate", None),
    ("arrows", "palette_adjacency", "core.palette_adjacency", None),
    ("arrows", "kappa_connected_mask", "connectivity.kappa_mask", lambda a, r: int(r)),
    ("arrows", "wc_order", "wellconn.wc_order", None),
    ("arrows", "chain_of_length", "wellconn.chain", None),
    ("arrows", "wc_pair", "wellconn.wc_pair", None),
    ("wellconn", "palette_adjacency", "core.palette_adjacency", None),
    # check-conn reaches the kernel through connectivity.kappa_connected_fast.
    ("connectivity", "kappa_connected_mask", "connectivity.kappa_mask", lambda a, r: int(r)),
    ("cli", "main", "cli.main", None),
    ("cli", "decide", "arrows.decide", lambda a, r: int(r.holds)),
    ("cli", "ramsey_number", "arrows.ramsey_number", None),
    ("cli", "verify_certificate", "cli.verify", None),
    ("cli", "kappa_connected_bruteforce", "connectivity.bruteforce", None),
    ("cli", "kappa_connected_fast", "connectivity.check_conn", None),
    ("cli", "read_coloring", "core.io", None),
    ("cli", "certificate_from_json", "core.io", lambda a, r: len(a[0])),
    ("cli", "certificate_to_json", "core.io", lambda a, r: len(r)),
    ("cli", "delta_coloring", "generators.gen", None),
    ("cli", "constant_coloring", "generators.gen", None),
    ("cli", "hub_coloring", "generators.gen", None),
    ("cli", "random_coloring", "generators.gen", None),
    ("cli", "sample_universe", "ordinals.csystem", None),
    ("cli", "coloring_from_csystem", "ordinals.csystem", None),
)

GENERATORS = {"enumerate_colorings_canonical"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric -> (unit, value from one pass's totals).
METRICS = {
    "arrows.colorings_scanned": ("count", lambda s: s["arrows.enumerate.tally"]),
    "arrows.enumerate_self_s": ("s", lambda s: s["arrows.enumerate.self_s"]),
    "arrows.decisions": ("count", lambda s: s["arrows.decide.calls"]),
    "arrows.decide_self_s": ("s", lambda s: s["arrows.decide.self_s"]),
    "arrows.decide_holds_ratio": (
        "ratio", lambda s: _ratio(s["arrows.decide.tally"], s["arrows.decide.calls"])),
    "core.palette_adjacency_calls": ("count", lambda s: s["core.palette_adjacency.calls"]),
    "core.palette_adjacency_self_s": ("s", lambda s: s["core.palette_adjacency.self_s"]),
    "connectivity.kappa_mask_calls": ("count", lambda s: s["connectivity.kappa_mask.calls"]),
    "connectivity.kappa_mask_self_s": ("s", lambda s: s["connectivity.kappa_mask.self_s"]),
    "connectivity.kappa_mask_true_ratio": (
        "ratio",
        lambda s: _ratio(s["connectivity.kappa_mask.tally"], s["connectivity.kappa_mask.calls"]),
    ),
    "wellconn.wc_order_calls": ("count", lambda s: s["wellconn.wc_order.calls"]),
    "wellconn.wc_order_self_s": ("s", lambda s: s["wellconn.wc_order.self_s"]),
    "wellconn.chain_self_s": ("s", lambda s: s["wellconn.chain.self_s"]),
    "wellconn.wc_pair_calls": ("count", lambda s: s["wellconn.wc_pair.calls"]),
    "wellconn.wc_pair_self_s": ("s", lambda s: s["wellconn.wc_pair.self_s"]),
    "connectivity.bruteforce_calls": ("count", lambda s: s["connectivity.bruteforce.calls"]),
    "connectivity.bruteforce_self_s": ("s", lambda s: s["connectivity.bruteforce.self_s"]),
    "cli.verify_self_s": ("s", lambda s: s["cli.verify.self_s"]),
    "core.io_self_s": ("s", lambda s: s["core.io.self_s"]),
    "core.cert_bytes": ("bytes", lambda s: s["core.io.tally"]),
    "cli.main_self_s": ("s", lambda s: s["cli.main.self_s"]),
    "generators.gen_self_s": ("s", lambda s: s["generators.gen.self_s"]),
    "ordinals.csystem_self_s": ("s", lambda s: s["ordinals.csystem.self_s"]),
}

# Layers whose work happens while inputs are generated, so their metrics
# come from a traced set-up rather than from the traced passes.
SETUP_LAYERS = ("generators.", "ordinals.")

class Tracer:
    """Span totals for the hooked functions; install() patches, remove() restores."""

    def __init__(self):
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for mod_name, attr, span, tally in HOOKS:
            module = sys.modules.get(f"connramsey.{mod_name}")
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrap = self._wrap_generator if attr in GENERATORS else self._wrap
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn, span, tally))

    def remove(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> defaultdict[str, float]:
        """Return the totals gathered so far and start new ones."""
        stats, self.stats = self.stats, defaultdict(float)
        return stats

    def _close(self, span: str, t0: float) -> None:
        dt = perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        self.stats[span + ".calls"] += 1
        self.stats[span + ".self_s"] += dt - child

    def _wrap(self, fn, span, tally):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, t0)
            if tally is not None:
                self.stats[span + ".tally"] += tally(args, result)
            return result

        return traced

    def _wrap_generator(self, fn, span, tally):
        # Each next() is one span; the tally counts the items yielded.
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span, t0)
                self.stats[span + ".tally"] += 1
                yield item

        return traced


def layer_metrics(setup: dict, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: set-up layers from the traced set-up, the rest as
    the median over traced passes (counts are equal on every pass)."""
    out = {}
    for name, (unit, value) in METRICS.items():
        if name.startswith(SETUP_LAYERS):
            out[name] = (value(defaultdict(float, setup)), unit)
        else:
            out[name] = (statistics.median(value(defaultdict(float, p)) for p in passes), unit)
    return out
