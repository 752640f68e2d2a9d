"""The closed-loop client, the metrics, and what a run writes to perfbench/out/."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES = 24            # fresh processes per run: 16 cold starts and 8 set-ups
MIN_REQUESTS = 100
SPEED_WINDOW = 5       # host-speed samples on each side of a timing
# A check that trips over a missing key or a wrong type has found malformed output.
CHECK_ERRORS = (oracle.Mismatch, KeyError, TypeError, ValueError, IndexError)

PER_LAYER = (
    "cli.self_s",
    "catalog.loads.busy_s", "catalog.loads.calls", "catalog.render.busy_s", "catalog.self_s",
    "classical.classify.busy_s", "classical.classify.calls",
    "classical.gen_projective_plane.busy_s", "classical.verify_hom.busy_s",
    "classical.search_designs.busy_s", "classical.self_s",
    "quantum.validate.busy_s", "quantum.classify_quantum.busy_s",
    "quantum.to_classical.busy_s", "quantum.mub_verify.busy_s", "quantum.self_s",
    "linalg.split_by_projector.calls", "linalg.split_by_projector.busy_s", "linalg.self_s",
    "cpmaps.is_cp.busy_s", "cpmaps.choi.calls", "cpmaps.choi.busy_s",
    "cpmaps.verify_cp_design.busy_s", "cpmaps.functor_q.busy_s",
    "cpmaps.functor_q_on_hom.busy_s", "cpmaps.self_s",
    "cli.src_lines", "catalog.src_lines", "classical.src_lines", "quantum.src_lines",
    "linalg.src_lines", "cpmaps.src_lines", "src.lines",
    "trace.overhead_share",
)


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("lines", "lines"), ("_share", "share")):
        if name.endswith(suffix):
            return unit
    return "count"


class Client:
    """Issues requests in-process; checks each distinct output fully once, repeats by digest."""

    def __init__(self, main, known: dict[str, str]) -> None:
        self.main = main
        self.known = known                   # key -> sha256 from an earlier run with this seed
        self.seen: dict[str, str] = {}       # key -> sha256 of the first correct output here
        self.latency: list[tuple[str, float, bool]] = []  # key, seconds, traced
        self.failures: list[tuple[str, str]] = []

    def call(self, req, tracer=None) -> float:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.main(list(req.argv))
                else:
                    rc = tracer.request(self.main, list(req.argv))
                crash = None
            except Exception as exc:  # the program's own failure: record it and go on
                rc, crash = None, traceback.format_exception_only(exc)[-1].strip()
            elapsed = time.perf_counter() - start
        self.latency.append((req.key, elapsed, tracer is not None))
        problem = f"uncaught {crash}" if crash else self._verify(req, rc, out.getvalue(), err.getvalue())
        if problem:
            self.failures.append((req.key, problem))
        return elapsed

    def _verify(self, req, rc, out: str, err: str) -> str | None:
        if rc != req.rc:
            return f"exit code {rc}, expected {req.rc}: {err.strip()[:200]}"
        sha = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if req.key in self.seen:
            return None if sha == self.seen[req.key] else "output differs from an earlier repeat"
        try:
            req.check(out, err)
        except CHECK_ERRORS as exc:
            return f"{type(exc).__name__}: {exc}"
        if self.known.get(req.key, sha) != sha:
            return "output differs from an earlier run with the same seed"
        self.seen[req.key] = sha
        return None


class HostSpeed:
    """How fast the host runs near each request, read from a fixed piece of work.

    On a shared VM the CPU speed moves by 15-50% within seconds and halves
    under load from other tenants (README.md, "Run-to-run spread"), and
    every designkit timing moves with it.  Before
    each untraced request the client times the same mix of the work designkit
    does: a pure-Python loop, dict and sort, JSON parsing, and a small LAPACK
    call, with the garbage collector off so that the heap designkit leaves
    behind cannot change it.  A timing is scaled by REFERENCE_S over the median
    of the samples within SPEED_WINDOW of it, so that it reads as the time on a
    host where this work takes REFERENCE_S (its median on the host named in
    README.md).  The work never calls designkit, so a change to designkit moves
    scaled timings exactly as much as raw ones.
    """

    REFERENCE_S = 4.3e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._doc = json.dumps(rng.random((30, 30)).tolist())
        m = rng.random((120, 120))
        self._sym = m + m.T
        self.samples: list[float] = []

    def _work(self) -> None:
        total = 0
        for i in range(15000):
            total += i * i % 7
        table = {str(i): i for i in range(3000)}
        sorted(table, key=lambda k: table[k] % 97)
        json.loads(self._doc)
        np.linalg.eigvalsh(self._sym)

    def sample(self) -> None:
        gc.disable()
        start = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - start)
        gc.enable()

    def scale(self, i: int) -> float:
        """Factor for a timing taken right after sample ``i``."""
        window = self.samples[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
        return self.REFERENCE_S / statistics.median(window)


def run_passes(client: Client, requests, seconds: float, order: random.Random, cli,
               tracer=None, speed=None, probes=None):
    """Whole passes in a seeded order, so that every run sees the mix in the
    same proportions, until less than half a pass of ``seconds`` is left and
    at least MIN_REQUESTS requests have run.

    Untraced, the host's speed is sampled before each request, and PROBES
    fresh processes run between requests, spread evenly over the first pass.
    With a tracer, each request runs untraced and traced back to back, in
    alternating order, so that the tracing overhead compares calls made
    moments apart.  Returns (untraced, traced) latencies in seconds.
    """
    step = max(1, len(requests) // PROBES)
    plain, traced = [], []
    start = time.perf_counter()
    passes, last = 0, 0.0
    while len(plain) < MIN_REQUESTS or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        batch = list(requests)
        order.shuffle(batch)
        for rid, req in enumerate(batch):
            if tracer is not None:
                for on in ((False, True) if rid % 2 == 0 else (True, False)):
                    if on:
                        with tracer.active(cli, rid):
                            traced.append(client.call(req, tracer))
                    else:
                        plain.append(client.call(req))
                continue
            speed.sample()
            plain.append(client.call(req))
            if passes == 0 and rid % step == step - 1 and rid // step < PROBES:
                probes.sample(len(plain) - 1)
        passes += 1
        last = time.perf_counter() - began
    if tracer is not None:
        tracer.passes = passes
    return plain, traced


def fresh_process(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a new Python process that imports designkit from SRC; returns its wall time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - start, proc


class Probes:
    """Fresh processes, one at a time, of two kinds in the repeating ORDER:

    - ``cold_start``: ``python -m designkit.cli --version``;
    - ``setup``: a new client's set-up (setup_probe.py), which imports
      designkit and runs the warm-up requests in-process.

    A cold start is the shorter and the noisier of the two, so it is sampled
    twice as often.  Each sample keeps the index of the host-speed sample
    just before it.
    """

    ORDER = ("cold_start", "cold_start", "setup")

    def __init__(self, version: str, warmup, workdir: Path) -> None:
        argv_file = workdir / "warmup.json"
        argv_file.write_text(json.dumps([list(req.argv) for req in warmup]))
        self.kinds = {
            "cold_start": (["-m", "designkit.cli", "--version"], f"designkit {version}\n"),
            "setup": ([str(HERE / "setup_probe.py"), str(argv_file)],
                      json.dumps([req.rc for req in warmup]) + "\n"),
        }
        self.samples: dict[str, list[tuple[float, int]]] = {kind: [] for kind in self.kinds}
        self.problems: list[tuple[str, str]] = []

    def sample(self, at: int) -> None:
        kind = self.ORDER[sum(map(len, self.samples.values())) % len(self.ORDER)]
        argv, want = self.kinds[kind]
        seconds, proc = fresh_process(argv)
        self.samples[kind].append((seconds, at))
        if proc.returncode != 0 or proc.stdout != want:
            self.problems.append((kind, f"exit {proc.returncode}, output {proc.stdout[:80]!r}, "
                                        f"expected {want!r}: {proc.stderr.strip()[-200:]}"))


def openblas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, src_digest: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_digest,
        "seed": seed,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "designkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


UNITS = {"req_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s", "cold_start_ms": "ms"}


def timings(ok: int, plain: list[float], probes: Probes, scale) -> dict[str, float]:
    """The timed end-to-end metrics, each timing multiplied by ``scale(speed sample index)``."""
    seconds = [sec * scale(i) for i, sec in enumerate(plain)]
    ms = [sec * 1000.0 for sec in seconds]
    setup = [sec * scale(i) for sec, i in probes.samples["setup"]]
    cold = [sec * scale(i) * 1000.0 for sec, i in probes.samples["cold_start"]]
    return {
        "req_per_s": ok / sum(seconds),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
        "cold_start_ms": statistics.median(cold),
    }


def run(args, cli, import_s: float) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = HERE / ".work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        mix = workloads.build(args.workload, args.seed, workdir)
        build_s = time.perf_counter() - start
        src_digest = source_digest()
        tag = f"{args.workload}-seed{args.seed}"
        # Earlier runs with this seed and source: their inputs and output digests.
        digest_file = OUT / f"digests-{tag}-{src_digest[:16]}.json"
        known = json.loads(digest_file.read_text()) if digest_file.is_file() else {}
        if known.get("inputs", mix.inputs) != mix.inputs:
            raise RuntimeError("inputs differ from an earlier build with the same seed")
        client = Client(cli.main, known.get("outputs", {}))
        start = time.perf_counter()
        for req in mix.warmup:
            client.call(req)
        warm_s = time.perf_counter() - start
        # Warm-up requests recur in the passes, where a failure is counted.
        client.latency.clear()
        client.failures.clear()

        tracer = tracing.Tracer() if args.trace else None
        speed = None if args.trace else HostSpeed()
        probes = None if args.trace else Probes(cli.__version__, mix.warmup, workdir)
        plain, traced = run_passes(client, mix.requests, args.seconds, random.Random(args.seed),
                                   cli, tracer, speed, probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(client.latency)
        failures = client.failures

        if args.trace:
            table = tracer.table(SRC)
            # Share of throughput lost to tracing: untraced against traced runs of the same requests.
            table["trace.overhead_share"] = 1.0 - (sum(plain) / len(plain)) / (sum(traced) / len(traced))
            metrics = {name: {"value": table.get(name, 0), "unit": unit_of(name)} for name in PER_LAYER}
            details = {"layers": table}
            (OUT / f"spans-{tag}.json").write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "request", "raised"],
                 "spans": tracer.spans}))
        else:
            ok = attempted - len(failures)
            failures += probes.problems
            attempted += sum(map(len, probes.samples.values()))
            metrics = {name: {"value": value, "unit": UNITS[name]}
                       for name, value in timings(ok, plain, probes, speed.scale).items()}
            metrics["ok_share"] = {"value": (attempted - len(failures)) / attempted, "unit": "share"}
            metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
            details = {
                "samples": len(plain),
                "unscaled": timings(ok, plain, probes, lambda i: 1.0),
                "host_speed_ms": [s * 1000.0 for s in speed.samples],
                "probes_s": probes.samples,
            }

        per_key: dict[str, list[float]] = {}
        for key, sec, on in client.latency:
            if not on:
                per_key.setdefault(key, []).append(sec * 1000.0)
        result = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(args.seed, src_digest),
            "metrics": metrics,
            "details": {**details, "import_s": import_s, "build_s": build_s, "warmup_s": warm_s},
            "requests": {k: {"n": len(v), "median_ms": statistics.median(v)}
                         for k, v in sorted(per_key.items())},
            "failures": failures[:50],
            "samples": [[key, on, sec * 1000.0] for key, sec, on in client.latency],
            "outputs_sha256": hashlib.sha256(
                json.dumps(client.seen, sort_keys=True).encode()).hexdigest(),
        }
        (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
        digest_file.write_text(json.dumps(
            {"inputs": mix.inputs, "outputs": {**known.get("outputs", {}), **client.seen}},
            sort_keys=True))
        for key, problem in failures[:20]:
            print(f"FAILED {key}: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0
