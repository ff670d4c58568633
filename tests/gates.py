"""Run the package's gates beyond tier-1: pinned output digests, refusals
and the time and peak-RSS bounds of the costliest accepted commands.

    python tests/gates.py

Each row of GATES starts one child, `python <argv>` with PYTHONPATH=src,
and reaps it with os.wait4, whose rusage gives the child's own peak RSS.
The runner prints one line per gate (exit code, seconds, peak RSS against
the bound), runs every row even after one fails, ends with the failed ones
and exits 1 if any failed. Not collected by pytest; it takes no options.

A gate fails on a wrong exit code, on its timeout (the child is killed),
on peak RSS above its bound, and on a last stdout line other than its
pinned one. A refusal row (expected exit 2) also fails on any stdout, on a
Traceback on stderr, or on a last stderr line without "error:".

A child's peak RSS starts at the high-water RSS of the process that
spawned it, so the runner holds no child's output: stdout goes to
/dev/null, or, for a refusal or a pinned last line, to a temporary file
of which only the tail is read.
"""
from __future__ import annotations

import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

# bytes read from the end of a captured stream
_TAIL = 1 << 16


class Gate(NamedTuple):
    name: str
    argv: tuple[str, ...]       # after the interpreter
    timeout: float              # seconds
    max_mb: float | None = None  # peak RSS bound
    code: int = 0               # expected exit code; 2 marks a refusal
    last: str | None = None     # pinned last line of stdout


def _cli(args: str, timeout: float, max_mb: float | None = None,
         code: int = 0) -> Gate:
    return Gate(f"cycloring {args}", ("-m", "cycloring", *args.split()),
                timeout, max_mb, code)


GATES = (
    # the CLI's output on 225 invocations (about 2 s); a change that means
    # to alter it updates the digest here
    Gate("tests/cli_snapshot.py", (str(TESTS / "cli_snapshot.py"),), 120,
         last="all 66ea8b02df28248a21db65c53b41a29fb03db2a11c8ffa50a8924f0f74023f05"),
    # the sweep's output at every supported M < 300, then 1003, 1007, 2057
    # and 2187 (about 3 s)
    Gate("tests/sweep_digest.py", (str(TESTS / "sweep_digest.py"),), 120,
         last="all 7124fcadd36631956ca0336fbaa83093738b3bff7289e411817596c87c8c2b13"),
    # an oversized R_M, an oversized generic inverse and a negative --seed
    # exit 2 before any work; the first two build Phi_M at the largest
    # supported prime first (about 32 MB each; 46 MB when make_modulus
    # built it as an IntPoly and an int64 copy)
    _cli("matrix 1048573", 20, 40, code=2),
    _cli("expansion 1048573 --k 3", 20, 40, code=2),
    _cli("scaled-inv 65537 5 0 --method bezout", 20, code=2),
    _cli("verify 35 --seed -1", 20, code=2),
    # the squarefree M = 1147 (about 0.5 s; the randomized subset check
    # draws its masks in blocks)
    _cli("verify 1147 --suite lemmas", 20),
    # R_M at the cell ceiling (about 46 MB; 148 MB when the round trips
    # held each whole document, 57 MB with parts of 2^18 entries)
    _cli("verify 2039 --suite matrix", 60, 60),
    # R_M at the cell ceiling in csv and pretty, printed a row at a time
    # (about 41.5 MB each, as in json; 73 MB in csv and 65 MB in pretty
    # when each converted the whole matrix to Python ints at once)
    _cli("matrix 2039 --format csv", 60, 50),
    _cli("matrix 2039 --format pretty", 60, 50),
    # the bench's costliest CLI command (about 37 MB; 48 MB when every run
    # imported numpy.random and the round trips took parts of 2^18 entries)
    _cli("verify 1024 --suite matrix", 60, 40),
    # about 42 MB; 232 MB when it drew every trial at once
    _cli("verify 1024 --suite expansion --trials 50000", 60, 60),
    # about 31 MB; 60 MB when it built R_M and its prefix sum
    _cli("expansion 2187 --format json", 60, 40),
    # 3^10, whose R_M is above the cell ceiling (about 33 MB and 0.25 s;
    # it read the factors from R_M and exited 2)
    _cli("expansion 59049 --format json", 20, 60),
    # about 55 MB each (63 MB when make_modulus built Phi_M as an IntPoly
    # and an int64 copy); 127 MB in text and 182 MB in JSON when each long
    # list was rendered as one string
    _cli("expansion 1048576 --format text", 20, 100),
    _cli("expansion 1048576 --format json", 20, 100),
    # below cubic cost at 1024 and 2187, at the prime 1021 (closed form)
    # and at the costliest accepted rotation chain, 1007 = 19 53 (about
    # 0.35 s, half a cycle a gap; 0.7 s over the full cycle)
    Gate("norm_profile at M = 1024, 2187, 1021 and 1007",
         ("-c", "from cycloring import make_modulus, norm_profile\n"
                "for M in (1024, 2187, 1021, 1007):\n"
                "    norm_profile(make_modulus(M))"), 120),
    # streams 2.1M CSV lines
    _cli("sweep 2057", 120),
    # the costliest accepted sweep of a large M at a small radical (about
    # 163 MB and 3 s; 178 MB when each gap's norm row was allocated alone)
    Gate("norm_profile at M = 16384",
         ("-c", "from cycloring import make_modulus, norm_profile\n"
                "norm_profile(make_modulus(16384))"), 60, 180),
    # streams its 2.1M rows (about 35 MB; 1.42 GB when it dumped the whole
    # document)
    _cli("sweep 2057 --format json", 120, 100),
    # one construct in each of the 20 divisor classes (about 78 MB; 82 MB
    # when make_modulus built Phi_M as an IntPoly and an int64 copy, 83-85
    # MB before the case cores were cached, 101 = 85 plus the cache's
    # 16 MiB ceiling)
    Gate("one construct per divisor class at M = 2^20",
         ("-c", "from cycloring import construct_scaled_inverse, make_modulus\n"
                "m = make_modulus(2 ** 20)\n"
                "for e in range(20):\n"
                "    construct_scaled_inverse(2 ** e, 0, m)"), 60, 101),
    # one construct in each of the 77 divisor classes of 2^12 3^5 (about
    # 104 MB and 2 s; 111 MB and 3 s when each fold was an np.add.at and
    # the two-prime reduction multiplied by D and divided twice)
    Gate("one construct per divisor class at M = 995328",
         ("-c", "from cycloring import construct_scaled_inverse, make_modulus\n"
                "m = make_modulus(2 ** 12 * 3 ** 5)\n"
                "for a in range(13):\n"
                "    for b in range(6):\n"
                "        if (a, b) != (12, 5):\n"
                "            construct_scaled_inverse(2 ** a * 3 ** b, 0, m)"),
         60, 120),
    # the NTT kernel at 2057 (about 1.3 s for both gaps) and the batched
    # EEA at the prime 2039 (about 4.5 s)
    Gate("generic inverses at M = 2057 (two gaps) and 2039",
         ("-c", "from cycloring import generic_scaled_inverse, make_modulus, "
                "monomial_diff\n"
                "for M, i, j in ((2057, 1052, 972), (2057, 1951, 1691), "
                "(2039, 700, 3)):\n"
                "    generic_scaled_inverse(monomial_diff(i, j, "
                "make_modulus(M)))"), 30),
)


def _tail(f) -> tuple[int, str]:
    """The size of a captured stream and the text of its last _TAIL
    bytes."""
    size = f.seek(0, os.SEEK_END)
    f.seek(max(0, size - _TAIL))
    return size, f.read().decode(errors="replace")


def _last_line(text: str) -> str:
    lines = text.splitlines()
    return lines[-1] if lines else ""


def run(gate: Gate) -> list[str]:
    """Run one gate, print its line and return its failures."""
    refusal = gate.code == 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        if refusal or gate.last is not None:
            actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1)]
        else:
            actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        if refusal:
            actions.append((os.POSIX_SPAWN_DUP2, err.fileno(), 2))
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *gate.argv],
                             env, file_actions=actions)
        timed_out = False
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() - t0 > gate.timeout:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                timed_out = True
                break
            time.sleep(0.01)
        seconds = time.monotonic() - t0
        code = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        mb = usage.ru_maxrss / 1024
        out_size, out_tail = _tail(out)
        _, err_tail = _tail(err)

    failures = []
    if timed_out:
        failures.append(f"timed out after {gate.timeout:g} s, killed")
    elif code != gate.code:
        failures.append(f"exit {code}, expected {gate.code}")
    if gate.max_mb is not None and mb > gate.max_mb:
        failures.append(f"peak RSS {mb:.1f} MB above {gate.max_mb:g} MB")
    if refusal:
        if out_size:
            failures.append(f"{out_size} bytes of stdout on a refusal")
        if "Traceback" in err_tail:
            failures.append("a Traceback on stderr")
        if "error:" not in _last_line(err_tail):
            failures.append("last stderr line has no 'error:'")
    if gate.last is not None and _last_line(out_tail) != gate.last:
        failures.append(f"last line {_last_line(out_tail)!r}, pinned "
                        f"{gate.last!r}")

    bound = "" if gate.max_mb is None else f" (bound {gate.max_mb:g} MB)"
    print(f"{'FAIL' if failures else 'ok':4}  {gate.name:54}  exit {code:3}"
          f"  {seconds:6.2f} s  {mb:6.1f} MB{bound}")
    if refusal:
        print(f"      {_last_line(err_tail)}")
    if gate.last is not None:
        print(f"      {_last_line(out_tail)}")
    for failure in failures:
        print(f"      {failure}")
    sys.stdout.flush()
    return failures


def main(gates=GATES) -> int:
    failed = [gate.name for gate in gates if run(gate)]
    if failed:
        print(f"{len(failed)} of {len(gates)} gates failed: "
              + "; ".join(failed))
        return 1
    print(f"all {len(gates)} gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
