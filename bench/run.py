"""Benchmark of the connramsey CLI: one workload per process, one caller.

Run from the repository root:

    python3 bench/run.py --workload search-hc --seed 1 --seconds 35 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json and README.md):

* search-hc  -- `ramsey` cells served by the classical and hc deciders.
* search-wc  -- `ramsey` cells served by the wc decider.
* certify    -- `gen` a corpus, then `decide`, `verify` and `check-conn`.

The benchmark is a closed loop with one caller: it calls the entry point
`connramsey.cli.main(argv)` in process, one call after the other, and
captures stdout.  The program only ever receives generated coloring and
graph files plus CLI parameters.  A pass runs every call of the workload
once; passes repeat until `--seconds` have gone by.  Every output is
checked against the pins in expected.json or against the independent
verifier, and a call that raises, exits with the wrong code or prints the
wrong bytes counts as failed.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and prints the per-layer metrics of
layers.py, plus the tracing overhead.  The last stdout line is the
result; the line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-ups before each pass; setup_s is the median of all set-ups of the run,
# so that they sample the host over the whole run, as the passes do.
SETUPS_PER_PASS = 3

# Host speed.  The host is shared, and its speed changes by up to a factor
# of two within seconds, so wall times are scaled to a reference speed: a
# fixed pure-Python loop (the probe) runs after every BLOCK_S of CLI calls,
# and each call's wall time is multiplied by PROBE_REF_S over the median
# time of the PROBE_WINDOW probes before it and the PROBE_WINDOW after it.
# A set-up is scaled by the probes just before and after it.  PROBE_REF_S
# is the probe's time on an uncontended 2-vCPU host with Python 3.11, so
# scaled times read as seconds at that speed.  Raw wall times are kept in
# the metadata.
PROBE_LOOPS = 4000
PROBE_REF_S = 0.001
BLOCK_S = 0.01
PROBE_WINDOW = 3

WORKLOADS = ("search-hc", "search-wc", "certify")


def _ramsey(mode, m, colors, kappa, max_n, j=None):
    argv = ["ramsey", "--mode", mode, "--m", str(m)]
    if j is not None:
        argv += ["--j", str(j)]
    return argv + ["--colors", str(colors), "--palette-size", str(kappa), "--max-n", str(max_n)]


SEARCH_CELLS = {
    "search-hc": [
        _ramsey("hc", 4, 2, 1, 7, j=2),
        _ramsey("classical", 3, 2, 1, 6),
        _ramsey("hc", 4, 2, 1, 7, j=3),
        _ramsey("hc", 3, 3, 2, 6, j=2),
    ],
    "search-wc": [
        _ramsey("wc", 4, 2, 1, 7),
        _ramsey("wc", 3, 3, 1, 6),
        _ramsey("wc", 4, 3, 2, 6),
    ],
}

# certify corpus: coloring file -> `gen` arguments ("{seed}" is replaced).
CORPUS = {
    "csystem.col": ["csystem", "--dim", "3", "--coeff-max", "2", "--size", "14", "--seed", "{seed}"],
    "hub.col": ["hub", "--n0", "8", "--n1", "8"],
    "constant.col": ["constant", "--n", "17", "--color", "0", "--colors", "1"],
    "random.col": ["random", "--n", "96", "--colors", "2", "--seed", "{seed}"],
    "delta5.col": ["delta", "--len", "5"],
    "delta6.col": ["delta", "--len", "6"],
}


def _decide(coloring, mode, m, kappa, j=None):
    argv = ["decide", coloring, "--mode", mode, "--m", str(m), "--palette-size", str(kappa)]
    return argv + (["--j", str(j)] if j is not None else [])


CERTIFY_DECIDES = [
    _decide("csystem.col", "hc", 5, 1, j=3),
    _decide("hub.col", "hc", 10, 1, j=6),
    _decide("hub.col", "hc", 16, 1, j=8),
    _decide("constant.col", "classical", 17, 1),
    _decide("random.col", "wc", 92, 1),
    _decide("delta5.col", "classical", 5, 2),
    _decide("delta6.col", "wc", 40, 3),
]

# check-conn graphs, file -> writer.  The circulants are 6-connected.  The
# two cliques have minimum degree 6 but a 5-vertex cut, so only the flow
# test can reject them.
GRAPHS = {
    "c40.g": lambda: circulant(40, (1, 2, 3)),
    "c60.g": lambda: circulant(60, (1, 2, 3)),
    "cliques.g": lambda: two_cliques(7, 5),
}
CHECK_CONN = [["check-conn", name, "--kappa", "6"] for name in GRAPHS]


def key(argv) -> str:
    return " ".join(argv)


def load_pins() -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- inputs


def extend_coloring(text: str, top: tuple[int, ...]) -> str:
    """The coloring with one new top vertex n whose pair with a gets top[a]."""
    lines = text.strip().split("\n")
    n, lam = map(int, lines[0].split())
    colors = {}
    for ln in lines[1:]:
        a, b, c = map(int, ln.split())
        colors[(a, b)] = c
    for a in range(n):
        colors[(a, n)] = top[a]
    body = "".join(f"{a} {b} {colors[(a, b)]}\n" for a, b in sorted(colors))
    return f"{n + 1} {lam}\n{body}"


def graph_text(n: int, edges) -> str:
    edges = sorted(edges)
    return f"{n} {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def circulant(n: int, offsets) -> str:
    return graph_text(n, {tuple(sorted((v, (v + o) % n))) for v in range(n) for o in offsets})


def two_cliques(k: int, bridges: int) -> str:
    """Cliques on 0..k-1 and k..2k-1, joined by the edges (i, k + i), i < bridges."""
    edges = {(a, b) for a, b in itertools.combinations(range(k), 2)}
    edges |= {(a + k, b + k) for a, b in edges}
    return graph_text(2 * k, edges | {(i, k + i) for i in range(bridges)})


def search_inputs(workload: str, pins: dict) -> list[tuple[list, list, list]]:
    """Per ramsey cell: (its argv, input files to write, decide checks).

    Each check decides the pinned extremal coloring (it must fail) and,
    when a threshold was found, every extension of it by one top vertex:
    the extensions have threshold many vertices, so they must all hold.
    """
    plan = []
    for cell in SEARCH_CELLS[workload]:
        out = json.loads(pins["ramsey"][key(cell)]["stdout"])
        opts = dict(zip(cell[1::2], cell[2::2]))
        mode, m, kappa = opts["--mode"], int(opts["--m"]), int(opts["--palette-size"])
        j = int(opts["--j"]) if "--j" in opts else None
        tag = f"{mode}-m{m}-j{j}-l{opts['--colors']}-k{kappa}-n{opts['--max-n']}"
        files = [(f"{tag}.col", out["extremal"])]
        checks = [_decide(f"{tag}.col", mode, m, kappa, j)]
        if out["threshold"] is not None:
            n = int(out["extremal"].split()[0])
            for top in itertools.product(range(int(opts["--colors"])), repeat=n):
                name = f"{tag}+{''.join(map(str, top))}.col"
                files.append((name, extend_coloring(out["extremal"], top)))
                checks.append(_decide(name, mode, m, kappa, j))
        plan.append((cell, files, checks))
    return plan


# ---------------------------------------------------------------- calls


def probe_loop(loops: int = PROBE_LOOPS) -> int:
    """Fixed work that touches no connramsey code and allocates no
    containers, so the collector never runs inside it."""
    acc = 0
    counts = {}
    for i in range(loops):
        x = (i * 2654435761) & 0xFFFFF
        k = x & 1023
        counts[k] = counts.get(k, 0) + 1
        acc ^= (x >> 3) | (acc & 7)
    return acc


class HostSpeed:
    """Times the probe; the factor turns wall time into reference time."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        probe_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    @staticmethod
    def factor(probes: list[float]) -> float:
        return PROBE_REF_S / statistics.median(probes)


class Runner:
    """Runs CLI calls in process, times them and checks their outputs.

    Calls run with `workdir` as the current directory, so that argv names
    the input files as a user would and matches the pins.  Once `speed` is
    set, a pass runs between start_pass() and end_pass(): the probe runs
    after every BLOCK_S of calls, and end_pass() adds each call's time to
    `times` and `decide_ms` at reference speed, and to `wall` as measured.
    """

    def __init__(self, cli, workdir: Path, pins: dict):
        self.cli = cli
        self.workdir = workdir
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []
        self.times: defaultdict[str, float] = defaultdict(float)
        self.wall: defaultdict[str, float] = defaultdict(float)
        self.decide_ms: list[float] = []
        self.speed: HostSpeed | None = None
        self._calls: list[tuple[str, float, int]] = []  # command, wall time, probes before it
        self._probes: list[float] = []
        self._unprobed = 0.0  # call time since the last probe

    def start_pass(self) -> None:
        self.times = defaultdict(float)
        self.wall = defaultdict(float)
        self.decide_ms = []
        self._calls = []
        self._probes = [self.speed.probe()]
        self._unprobed = 0.0

    def end_pass(self) -> None:
        """Book each call at the median speed of the PROBE_WINDOW probes
        before it and the PROBE_WINDOW probes after it."""
        self._probes.append(self.speed.probe())
        for command, dt, before in self._calls:
            window = self._probes[max(0, before - PROBE_WINDOW) : before + PROBE_WINDOW]
            scaled = dt * HostSpeed.factor(window)
            self.times[command] += scaled
            self.wall[command] += dt
            if command == "decide":
                self.decide_ms.append(scaled * 1000.0)
        self._calls = []

    def book(self, command: str, dt: float) -> None:
        if self.speed is None:
            self.times[command] += dt
            self.wall[command] += dt
            return
        self._calls.append((command, dt, len(self._probes)))
        self._unprobed += dt
        if self._unprobed >= BLOCK_S:
            self._probes.append(self.speed.probe())
            self._unprobed = 0.0

    def call(self, argv) -> tuple[int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc = None
            err.write(repr(exc))
        self.book(argv[0], time.perf_counter() - t0)
        if rc is None:
            self.fail(argv, f"raised {err.getvalue().strip()}")
        return rc, out.getvalue()

    def fail(self, argv, why: str) -> None:
        self.failures.append(f"{key(argv)}: {why}")

    def write(self, name: str, text: str) -> None:
        (self.workdir / name).write_text(text, encoding="utf-8")

    def expect_bytes(self, argv, table: str) -> None:
        pin = self.pins[table][key(argv)]
        rc, out = self.call(argv)
        if rc is not None and (rc, out) != (pin["exit"], pin["stdout"]):
            self.fail(argv, f"exit {rc} stdout {out.strip()!r}, pinned exit {pin['exit']}")

    def certify(self, argv, seeded: bool) -> None:
        """decide, check the verdict, then verify the certificate and a
        mutated copy of it."""
        opts = dict(zip(argv[2::2], argv[3::2]))
        m, kappa = int(opts["--m"]), int(opts["--palette-size"])
        pin = self.pins["decide"].get(key(argv), {"exit": 0} if seeded else None)
        rc, out = self.call(argv)
        if rc is None:
            return
        if pin is None:
            self.fail(argv, "no pinned result")
            return
        if rc != pin["exit"]:
            self.fail(argv, f"exit {rc}, pinned {pin['exit']}")
            return
        try:
            self._check_decided(argv, rc, out, pin, m, kappa)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            self.fail(argv, f"unreadable output {out.strip()[:200]!r}: {exc!r}")

    def _check_decided(self, argv, rc, out, pin, m, kappa) -> None:
        doc = json.loads(out)
        if rc == 1:
            if doc.get("verdict") != "fails" or doc.get("exhausted_palettes") != pin["exhausted_palettes"]:
                self.fail(argv, f"fail log {out.strip()!r} differs from the pin")
            return
        if len(doc["X"]) != m or len(doc["Lambda"]) > kappa:
            self.fail(argv, f"|X|={len(doc['X'])} |Lambda|={len(doc['Lambda'])} for m={m} kappa={kappa}")
        for field in ("X", "Lambda"):
            if field in pin and doc[field] != pin[field]:
                self.fail(argv, f"{field}={doc[field]}, pinned {pin[field]}")
        self.write("cert.json", out)
        self.write("mutated.json", json.dumps(mutate(doc)))
        verify = ["verify", "cert.json", argv[1]]
        rc, out = self.call(verify)
        if rc is not None and (rc, out) != (0, '{"valid":true}\n'):
            self.fail(verify, f"exit {rc} stdout {out.strip()!r} for a decided certificate")
        verify = ["verify", "mutated.json", argv[1]]
        rc, out = self.call(verify)
        if rc is not None and (rc != 1 or json.loads(out).get("valid") is not False):
            self.fail(verify, f"exit {rc} stdout {out.strip()!r} for a mutated certificate")


def mutate(doc: dict) -> dict:
    """A certificate the verifier must reject.

    hc: drop edges at a least-degree vertex v of X until its degree d is
    min(j - 1, |X| - 2); then v has a non-neighbour in X and its d < j
    neighbours cut it off.
    wc: reroute the first path whose source a is above 0 through a - 1.
    """
    doc = dict(doc)
    if doc["kind"] == "hc":
        edges = [tuple(e) for e in doc["E"]]
        deg = {v: 0 for v in doc["X"]}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        v = min(doc["X"], key=lambda x: (deg[x], x))
        at_v = [e for e in edges if v in e]
        keep = min(doc["j"] - 1, len(doc["X"]) - 2)
        drop = set(at_v[keep:])
        doc["E"] = [list(e) for e in edges if e not in drop]
    else:
        pairs = sorted(tuple(map(int, k.split(","))) for k in doc["paths"])
        a, b = next(p for p in pairs if p[0] > 0)
        path = doc["paths"][f"{a},{b}"]
        doc["paths"] = {**doc["paths"], f"{a},{b}": [a, a - 1] + path[1:]}
    return doc


# ---------------------------------------------------------------- workloads


def import_cli():
    """Import the package afresh, so set-up time includes the import."""
    for name in [n for n in sys.modules if is_package(n)]:
        del sys.modules[name]
    cli = importlib.import_module("connramsey.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"connramsey imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def is_package(name: str) -> bool:
    return name == "connramsey" or name.startswith("connramsey.")


def set_up(speed: HostSpeed, inputs: Path, pins: dict, workload: str, seed: int):
    """Import the package afresh and run the program's input generation, timed.

    Returns the new runner, the wall time and the time at reference speed.
    """
    gc.collect()  # the modules of the last import are cyclic garbage
    before = speed.probe()
    t0 = time.perf_counter()
    runner = Runner(import_cli(), inputs, pins)
    generate_inputs(runner, workload, seed)
    dt = time.perf_counter() - t0
    return runner, dt, dt * HostSpeed.factor([before, speed.probe()])


def write_inputs(inputs: Path, workload: str, plan) -> None:
    """Write the input files the benchmark makes itself, once per run."""
    if workload == "certify":
        files = [(name, text()) for name, text in GRAPHS.items()]
    else:
        files = [f for _, cell_files, _ in plan for f in cell_files]
    for name, text in files:
        (inputs / name).write_text(text, encoding="utf-8")


def generate_inputs(runner: Runner, workload: str, seed: int) -> None:
    """Have the program generate its inputs (the `gen` calls of certify)."""
    if workload != "certify":
        return
    for name, gen in CORPUS.items():
        argv = ["gen"] + [a.replace("{seed}", str(seed)) for a in gen] + ["--out", name]
        rc, _ = runner.call(argv)
        if rc not in (0, None):
            runner.fail(argv, f"exit {rc}")


def run_pass(runner: Runner, workload: str, plan) -> None:
    if workload == "certify":
        for argv in CERTIFY_DECIDES:
            runner.certify(argv, seeded=any("{seed}" in a for a in CORPUS[argv[1]]))
        for argv in CHECK_CONN:
            runner.expect_bytes(argv, "check-conn")
        return
    for cell, _, checks in plan:
        runner.expect_bytes(cell, "ramsey")
        for argv in checks:
            runner.certify(argv, seeded=False)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; returns the metrics plus run metadata."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    pins = load_pins()
    plan = search_inputs(workload, pins) if workload != "certify" else None

    # The files the benchmark makes are written once, outside the set-up:
    # writing hundreds of files costs more, and varies more, than anything
    # the program does in its set-up.
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    os.chdir(inputs)
    write_inputs(inputs, workload, plan)
    speed = HostSpeed()
    runner, wall, scaled = set_up(speed, inputs, pins, workload, seed)
    setups, setups_wall = [scaled], [wall]
    runner.speed = speed
    # Passes always run on the modules of the first set-up; later set-ups
    # import afresh and then put these back.
    package = {n: m for n, m in sys.modules.items() if is_package(n)}

    tracer = setup_stats = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
        generate_inputs(Runner(runner.cli, inputs, pins), workload, seed)
        tracer.remove()
        setup_stats = tracer.take()

    passes = {False: [], True: []}  # traced? -> per-pass results
    start = time.perf_counter()
    traced = False
    while True:
        for _ in range(SETUPS_PER_PASS if not runner.failures else 0):
            again, wall, scaled = set_up(speed, inputs, pins, workload, seed)
            setups.append(scaled)
            setups_wall.append(wall)
            runner.attempted += again.attempted
            runner.failures += again.failures
            for name in [n for n in sys.modules if is_package(n)]:
                del sys.modules[name]
            sys.modules.update(package)
        gc.collect()  # every pass starts from the same collector state
        runner.start_pass()
        if traced:
            tracer.install()
        try:
            run_pass(runner, workload, plan)
        finally:
            if traced:
                tracer.remove()
        runner.end_pass()
        passes[traced].append(
            {"times": dict(runner.times), "wall": dict(runner.wall),
             "decide_ms": runner.decide_ms, "stats": tracer.take() if traced else None}
        )
        if trace:
            traced = not traced
        done = time.perf_counter() - start >= seconds
        if done and (not trace or not traced):
            break

    plain = passes[False]
    pass_s = [sum(p["times"].values()) for p in plain]
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain),
        "setups": len(setups),
        "decide_samples": sum(len(p["decide_ms"]) for p in plain),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "error_rate": len(runner.failures) / runner.attempted,
        "failures": runner.failures[:10],
        "probes": len(speed.samples),
        "probe_median_s": statistics.median(speed.samples),
        "probe_min_s": min(speed.samples),
        "wall": {
            "setup_s": statistics.median(setups_wall),
            "pass_s": statistics.median(sum(p["wall"].values()) for p in plain),
            "decide_s": statistics.median(p["wall"].get("decide", 0.0) for p in plain),
            "verify_s": statistics.median(p["wall"].get("verify", 0.0) for p in plain),
        },
    }
    for command in ("ramsey", "check-conn"):
        if any(command in p["times"] for p in plain):
            meta[f"{command.replace('-', '_')}_s"] = statistics.median(
                p["times"].get(command, 0.0) for p in plain
            )
    if trace:
        traced_s = [sum(p["times"].values()) for p in passes[True]]
        overhead = statistics.median(traced_s) - statistics.median(pass_s)
        metrics = layers.layer_metrics(setup_stats, [p["stats"] for p in passes[True]])
        metrics["trace.overhead_s"] = (overhead, "s")
        meta["traced_passes"] = len(traced_s)
        meta["trace.overhead_s"] = overhead
        meta["absent_hooks"] = tracer.absent
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(pass_s), "s"),
            "decide_s": (statistics.median(p["times"].get("decide", 0.0) for p in plain), "s"),
            "verify_s": (statistics.median(p["times"].get("verify", 0.0) for p in plain), "s"),
            "decide_p90_ms": (p90(per_call_medians([p["decide_ms"] for p in plain])), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {"meta": meta, "metrics": metrics, "attempted": runner.attempted, "failed": len(runner.failures)}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_call_medians(passes: list[list[float]]) -> list[float]:
    """Each call's median time over the passes; a pass makes the same
    calls in the same order every time."""
    return [statistics.median(times) for times in zip(*passes)]


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for line in res["meta"]["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"meta": res["meta"]}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
