"""Benchmark of the cycloring package: sweep, point and cli workloads.

Run from the root of a source checkout (the package is not installed; the
benchmark puts ``src`` on the PYTHONPATH of the processes it starts):

    python3 bench/run.py --workload point --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --record      # rewrite bench/golden.json

Each workload is one closed-loop client: one request at a time, one process,
one thread. The sweep and point loops run in a child process and every cli
command in a child of its own, so the peak RSS of each is read from
``os.wait4`` of that child alone. Every output is checked outside the timed
region, independently (checks.py) and against its sha256 in golden.json; a
request that raises or fails either check is a failed op.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it print every figure with its unit, the environment, and
in a traced run the whole per-function table and the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads as wl
from hostspeed import EVERY_S, HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
SETUP_REPS = 9          # cold start-ups per run; setup_s is their median
TAIL_MIN_BEYOND = 10    # a tail percentile needs this many samples above it
FAILURES_SHOWN = 5


# ------------------------------------------------------------ child processes


def spawn(argv, stdout=None, stderr=None) -> tuple[float, int, float]:
    """Run ``python3 argv...`` to completion: (wall s, exit code, peak RSS MB).

    The child is reaped with wait4, whose rusage covers that child alone
    (RUSAGE_CHILDREN would keep the maximum over every child reaped so far).
    BLAS thread pools are held to one thread: each client is one thread, and
    numpy's import would otherwise start a pool on every core.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    actions = [(os.POSIX_SPAWN_OPEN, fd, str(path),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd, path in ((1, stdout), (2, stderr)) if path is not None]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return perf_counter() - t0, os.waitstatus_to_exitcode(status), \
        usage.ru_maxrss / 1024


def run_command(argv, traced_tag=None):
    """One CLI command in a cold child: (wall s, exit code, RSS MB, stdout).

    With ``traced_tag`` it runs through cli_runner.py, which traces the
    layers and writes its per-layer table to OUT/<tag>.json.
    """
    out, err = OUT / "cli.out", OUT / "cli.err"
    if traced_tag is None:
        cmd = ["-m", "cycloring", *argv]
    else:
        cmd = [str(BENCH / "cli_runner.py"), str(OUT / traced_tag), "--", *argv]
    wall, code, rss = spawn(cmd, out, err)
    return wall, code, rss, out.read_text()


def setup_seconds(workload: str, golden: dict, failures: list):
    """Median of SETUP_REPS cold starts of the workload's set-up:
    (wall seconds, seconds at nominal host speed)."""
    moduli = wl.SWEEP_MODULI if workload == "sweep" else \
        wl.POINT_MODULI + wl.GENERIC_MODULI
    code = f"import cycloring\nfor M in {moduli!r}: cycloring.make_modulus(M)"
    speed, times = HostSpeed(), []
    for _ in range(SETUP_REPS):
        index = speed.sample()
        if workload == "cli":
            wall, rc, _, stdout = run_command(wl.CLI_SETUP)
            why = evaluate_cli(wl.CLI_SETUP, rc, stdout, golden)
            if why:
                failures.append(f"setup: {why}")
        else:
            wall, rc, _ = spawn(["-c", code])
            if rc:
                raise SystemExit(f"set-up process exited with {rc}")
        times.append((wall, index))
    speed.sample()
    if workload == "cli":
        failures += filter(None, [selftest_cli(stdout, golden)])
    return (statistics.median(wall for wall, _ in times),
            statistics.median(wall * speed.scale(i) for wall, i in times))


# ------------------------------------------------------------ checking


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def evaluate(check, key, output, golden) -> str | None:
    """Why an output is wrong, or None: independent check, then its digest."""
    why = check(output)
    if why:
        return why
    want = golden.get(key)
    if want is None:
        return f"no recorded digest for {key}"
    if checks.digest(output) != want:
        return f"output of {key} differs from the recorded one"
    return None


def cli_output(stdout) -> dict:
    return {"stdout": checks.strip_seconds(stdout)}


def evaluate_cli(argv, code, stdout, golden) -> str | None:
    return evaluate(lambda out: checks.check_cli(list(argv), stdout, code),
                    wl.cli_key(argv), cli_output(stdout), golden)


def _corrupt(output):
    bad = json.loads(json.dumps(output))
    if "rows" in bad:
        bad["rows"][0][3] += 1          # one norm of the profile
    else:
        bad["coeffs"][0] += 1           # one coefficient
    return bad


def selftest_library(reqs, golden) -> str | None:
    """A corrupted output (one value flipped) must fail, the original pass."""
    for req in reqs:
        out = req.canon(req.call())
        if evaluate(req.check, req.key, out, golden):
            return f"self-test: the correct output of {req.key} was rejected"
        if not evaluate(req.check, req.key, _corrupt(out), golden):
            return f"self-test: a corrupted output of {req.key} was accepted"
    return None


def selftest_cli(stdout, golden) -> str | None:
    bad = stdout.replace("1", "2", 1)   # Phi_35 starts with coefficient 1
    if evaluate_cli(wl.CLI_SETUP, 0, stdout, golden):
        return "self-test: the correct `cyclo 35` output was rejected"
    if not evaluate_cli(wl.CLI_SETUP, 0, bad, golden):
        return "self-test: a corrupted `cyclo 35` output was accepted"
    return None


# ------------------------------------------------------------ clients


class Client:
    """One closed-loop client: it sends a request when the last one is done."""

    def __init__(self, workload, seed, golden):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.golden = golden
        self.records = []          # (kind, seconds, ok, host speed sample)
        self.problems = []
        self.speed = HostSpeed()
        self._sample = -1

    def note(self, kind, key, seconds, why):
        self.records.append((kind, seconds, why is None, self._sample))
        if why and len(self.problems) < FAILURES_SHOWN:
            self.problems.append(f"{key}: {why}")

    def timed(self, seconds):
        """Serve rounds until --seconds have passed; the first round in full.
        The host speed is sampled between requests."""
        start = perf_counter()
        rounds = 0
        while not rounds or perf_counter() - start < seconds:
            for req in self.next_round():
                if rounds and perf_counter() - start >= seconds:
                    break
                self._sample = self.speed.sample(EVERY_S)
                self.serve(req)
            rounds += 1
        self.speed.sample()

    def alternate(self, seconds) -> dict:
        """Serve each round untraced, then traced, for --seconds (once at least).

        The tracing overhead is the median traced round time minus the
        median untraced time of the same requests.
        """
        plain, traced = [], []
        start = perf_counter()
        while not traced or perf_counter() - start < seconds:
            reqs = self.next_round()
            plain.append(sum(self.serve(req) for req in reqs))
            traced.append(self.serve_traced(reqs))
        return {"rounds": len(traced), "plain_s": statistics.median(plain),
                "traced_s": statistics.median(traced)}


class LibraryClient(Client):
    """The sweep or point client, run in a child process of its own."""

    def __init__(self, workload, seed):
        import cycloring
        super().__init__(workload, seed, load_golden())
        self.cyc = cycloring
        self.tracer = tracing.Tracer()
        moduli = wl.SWEEP_MODULI if workload == "sweep" else \
            wl.POINT_MODULI + wl.GENERIC_MODULI
        for M in moduli:           # requests run against warm moduli
            cycloring.make_modulus(M)

    def next_round(self):
        return wl.library_round(self.cyc, self.workload, self.rng)

    def serve(self, req) -> float:
        self.tracer.request += 1
        t0 = perf_counter()
        try:
            raw = req.call()
            dt = perf_counter() - t0
            why = evaluate(req.check, req.key, req.canon(raw), self.golden)
        except Exception:  # a failed op, not a crashed run
            dt, why = perf_counter() - t0, traceback.format_exc(limit=4)
        self.note(req.kind, req.key, dt, why)
        return dt

    def serve_traced(self, reqs) -> float:
        self.tracer.install()
        try:
            return sum(self.serve(req) for req in reqs)
        finally:
            self.tracer.uninstall()

    def probe(self):
        cyc = self.cyc
        if self.workload == "sweep":
            return [wl.sweep_request(cyc, wl.SWEEP_MODULI[0])]
        return [wl.construct_request(cyc, wl.POINT_MODULI[0], 0),
                wl.mul_request(cyc, wl.POINT_MODULI[0], 0),
                wl.generic_request(cyc, wl.GENERIC_MODULI[0], 0)]


def worker_main(args):
    client = LibraryClient(args.workload, args.seed)
    result = {"selftest": selftest_library(client.probe(), client.golden)}
    if args.trace:
        for req in client.next_round():   # warm the inverse cores first
            client.serve(req)
        result["trace"] = client.alternate(args.seconds)
        client.tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        result["table"] = client.tracer.table()
    else:
        client.timed(args.seconds)
    result["records"] = client.records
    result["problems"] = client.problems
    result["speed"] = client.speed.samples
    with open(args.worker, "w") as fh:
        json.dump(result, fh)


def run_library(args):
    """Run the library client in a child; its result, with the child's RSS."""
    result_path = OUT / f"worker-{args.workload}-{args.seed}.json"
    argv = [str(BENCH / "run.py"), "--worker", str(result_path),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    _, code, rss = spawn(argv)
    if code:
        raise SystemExit(f"benchmark worker exited with {code}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["rss_mb"] = rss
    return result


class CliClient(Client):
    """Runs each command in a cold child process."""

    def __init__(self, seed, golden):
        super().__init__("cli", seed, golden)
        self.rss = 0.0
        self.tables = []           # per-layer table of each traced command

    def next_round(self):
        return wl.cli_round(self.rng)

    def serve(self, argv, traced=False) -> float:
        tag = None
        if traced:
            tag = f"trace-cli-{self.seed}-{len(self.tables)}"
        wall, code, rss, stdout = run_command(argv, tag)
        self.note(wl.cli_kind(argv), wl.cli_key(argv), wall,
                  evaluate_cli(argv, code, stdout, self.golden))
        if traced:
            with open(OUT / f"{tag}.json") as fh:
                self.tables.append(json.load(fh))
        else:
            self.rss = max(self.rss, rss)
        return wall

    def serve_traced(self, reqs) -> float:
        return sum(self.serve(argv, traced=True) for argv in reqs)


# ------------------------------------------------------------ metrics


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, n): the highest of p90, p95, p99, p99.9 with at
    least TAIL_MIN_BEYOND samples above it; p50 when none qualifies."""
    xs = sorted(samples)
    n = len(xs)
    best = 50.0
    for p in (90.0, 95.0, 99.0, 99.9):
        if n - math.ceil(n * p / 100) >= TAIL_MIN_BEYOND:
            best = p
    return best, xs[max(0, math.ceil(n * best / 100) - 1)], n


def geomean(xs) -> float:
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def figures(workload, by_kind):
    """Figures of one run from per-kind request times (seconds).

    Each kind's median stands for its cost; a round's cost is the sum over
    the round mix, so the figures do not depend on which inputs the seed
    drew or where the run stopped.
    """
    mix = wl.round_mix(workload)
    med = {kind: statistics.median(by_kind[kind]) for kind in mix}
    round_s = sum(count * med[k] for k, (count, _) in mix.items())
    pair_kinds = [k for k, (_, pairs) in mix.items() if pairs]
    out = {
        "requests_per_s": sum(c for c, _ in mix.values()) / round_s,
        "pairs_per_s": (sum(mix[k][0] * mix[k][1] for k in pair_kinds)
                        / sum(mix[k][0] * med[k] for k in pair_kinds)),
        "p50_ms": 1000 * geomean(med.values()),
    }
    for k in mix:
        out[f"p50_ms[{k}]"] = 1000 * med[k]
    if workload == "point":
        for op in ("construct", "mul", "generic"):
            out[f"{op}_p50_ms"] = 1000 * geomean(
                med[k] for k in mix if k.startswith(op + "@"))
        pct, value, n = tail(s for k in mix if k.startswith("construct@")
                             for s in by_kind[k])
        out[f"construct_tail_ms[p{pct:g},n={n}]"] = 1000 * value
    if workload == "cli":
        out["cli_total_s"] = round_s
        out["verify_s"] = sum(med[k] for k in mix if k.startswith("verify@"))
    return out


def end_to_end(workload, records, speed, setup, rss_mb):
    """The gated metrics, at nominal host speed, and the printed figures."""
    wall, nominal = defaultdict(list), defaultdict(list)
    for kind, sec, _, index in records:
        wall[kind].append(sec)
        nominal[kind].append(sec * speed.scale(index))
    at_nominal, at_wall = figures(workload, nominal), figures(workload, wall)
    metrics = {"setup_s": (setup[1], "s"),
               "requests_per_s": (at_nominal["requests_per_s"], "1/s"),
               "pairs_per_s": (at_nominal["pairs_per_s"], "1/s"),
               "p50_ms": (at_nominal["p50_ms"], "ms"),
               "peak_rss_mb": (rss_mb, "MB")}
    shown = {"host_speed": (speed.relative(), "x nominal (median of "
                            f"{len(speed.samples)} samples)")}
    for name, value in at_nominal.items():
        if name not in metrics:
            shown[name] = (value, unit_of(name) + " at nominal speed")
    shown["wall.setup_s"] = (setup[0], "s")
    for name, value in at_wall.items():
        shown[f"wall.{name}"] = (value, unit_of(name))
    return metrics, shown


def per_layer(workload, totals, trace):
    """The per_layer metrics of BENCHMARK.json and the rest of the table,
    each per round: ``totals`` sums the traced rounds."""
    table = {k: v / trace["rounds"] for k, v in totals.items()}
    pairs = sum(c * p for c, p in wl.round_mix(workload).values())
    table["construct_scaled_inverse.calls_per_pair"] = \
        table["construct_scaled_inverse.calls"] / pairs
    table["trace.overhead_s"] = trace["traced_s"] - trace["plain_s"]
    table["trace.overhead_share"] = table["trace.overhead_s"] / trace["plain_s"]
    table["trace.rounds"] = trace["rounds"]
    gated = [f"{fn}.{stat}" for fn in tracing.GATED_FUNCTIONS
             for stat in ("calls", "busy_s", "self_s")]
    gated += [f"{layer}.self_s" for layer in tracing.GATED_LAYERS]
    gated += ["make_modulus.hits", "construct_scaled_inverse.calls_per_pair",
              "trace.overhead_s"]
    metrics = {name: (table[name], unit_of(name)) for name in gated}
    shown = {name: (value, unit_of(name)) for name, value in table.items()
             if name not in metrics}
    return metrics, shown


def unit_of(name: str) -> str:
    base = name.split("[")[0]
    if base.endswith("per_s"):
        return "1/s"
    if base.endswith("_ms"):
        return "ms"
    if base.endswith(("_s", ".s")):
        return "s"
    if base.endswith("calls_per_pair"):
        return "calls/pair"
    return "ratio" if base.endswith("share") else "count"


def emit(metrics, shown, env, attempted, failed, problems):
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(f"{'error_rate':48s} {failed / max(attempted, 1):14.6f} "
          f"({failed} failed of {attempted} attempted)")
    for why in problems:
        print(f"FAILED {why}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def environment(args) -> dict:
    import numpy
    commit = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: ") and (git / commit[5:]).is_file():
            commit = (git / commit[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": args.seed, "commit": commit,
            "src_sha256": src.hexdigest(), "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


# ------------------------------------------------------------ entry points


def run(args):
    golden = load_golden()
    OUT.mkdir(exist_ok=True)
    failures = []                  # of set-up runs and of the self-test
    setup = trace = table = speed = None
    if args.workload == "cli":
        client = CliClient(args.seed, golden)
        if args.trace:
            stdout = run_command(wl.CLI_SETUP)[3]
            failures += filter(None, [selftest_cli(stdout, golden)])
            trace = client.alternate(args.seconds)
            table = tracing.merge_tables(client.tables)
        else:
            setup = setup_seconds("cli", golden, failures)
            client.timed(args.seconds)
        records, problems, rss = client.records, client.problems, client.rss
        speed = client.speed
    else:
        if not args.trace:
            setup = setup_seconds(args.workload, golden, failures)
        result = run_library(args)
        failures += filter(None, [result["selftest"]])
        records, problems, rss = result["records"], result["problems"], result["rss_mb"]
        trace, table = result.get("trace"), result.get("table")
        speed = HostSpeed(result["speed"])
    attempted = len(records) + len(failures)
    failed = sum(not ok for _, _, ok, _ in records) + len(failures)
    if args.trace:
        metrics, shown = per_layer(args.workload, table, trace)
    else:
        metrics, shown = end_to_end(args.workload, records, speed, setup, rss)
    env = environment(args)
    with open(OUT / f"result-{args.workload}-{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump({"env": env, "metrics": metrics, "shown": shown,
                   "records": records, "failures": failures + problems}, fh)
    emit(metrics, shown, env, attempted, failed, failures + problems)


def record():
    """Recompute the sha256 of every output any seed can request."""
    sys.path.insert(0, str(SRC))
    import cycloring
    golden = {}
    for workload in ("sweep", "point"):
        for req in wl.library_pool(cycloring, workload):
            out = req.canon(req.call())
            why = req.check(out)
            if why:
                raise SystemExit(f"{req.key}: {why}")
            golden[req.key] = checks.digest(out)
    OUT.mkdir(exist_ok=True)
    for argv in wl.cli_pool():
        _, code, _, stdout = run_command(argv)
        why = checks.check_cli(list(argv), stdout, code)
        if why:
            raise SystemExit(f"{' '.join(argv)[:60]}: {why}")
        golden[wl.cli_key(argv)] = checks.digest(cli_output(stdout))
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} digests in {GOLDEN.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite golden.json from the current sources")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "cycloring" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {SRC}; run from a checkout")
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.worker:
        return worker_main(args)
    run(args)


if __name__ == "__main__":
    main()
