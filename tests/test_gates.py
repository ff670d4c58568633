"""The gate runner of tests/gates.py, on tiny children.

The peak-RSS tests run the runner in a fresh interpreter: a child's peak
RSS starts at the high-water RSS of the process that spawned it, and this
process's is the test session's.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gates
from gates import Gate

TESTS = Path(__file__).resolve().parent


def _run_fresh(*rows):
    """Exit code and stdout of gates.main(rows) in a fresh interpreter."""
    source = (f"import sys\nsys.path.insert(0, {str(TESTS)!r})\n"
              f"from gates import Gate, main\nsys.exit(main({rows!r}))")
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("bound, passes", [(64, False), (256, True)])
def test_peak_rss_against_bound(bound, passes):
    code, out = _run_fresh(
        Gate("touch 96 MB", ("-c", "b = b'x' * (96 << 20)"), 20, bound))
    assert code == (0 if passes else 1), out
    assert out.startswith("ok" if passes else "FAIL")
    assert (f"above {bound} MB" in out) is not passes


@pytest.mark.parametrize("last", [None, "end"])
def test_output_is_not_held(last):
    # a runner that held the first child's 50 MB of stdout would start the
    # second child at its own high-water RSS, above 40 MB
    loud = Gate("print 50 MB",
                ("-c", "import sys\nsys.stdout.write('x' * (50 << 20))\n"
                       "print()\nprint('end')"), 20, last=last)
    quiet = Gate("quiet", ("-c", "pass"), 20, 40)
    code, out = _run_fresh(loud, quiet)
    assert code == 0, out
    assert out.splitlines()[-1] == "all 2 gates passed"


def test_timeout_kills_and_reaps(tmp_path, capsys):
    pidfile = tmp_path / "pid"
    source = (f"import os, time\nopen({str(pidfile)!r}, 'w')"
              ".write(str(os.getpid()))\ntime.sleep(60)")
    t0 = time.monotonic()
    failures = gates.run(Gate("sleep", ("-c", source), 1))
    assert time.monotonic() - t0 < 10
    assert failures == ["timed out after 1 s, killed"]
    pid = int(pidfile.read_text())
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)     # reaped
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)                 # and gone
    assert capsys.readouterr().out.startswith("FAIL")


def _refuse(line):
    """A child that writes line to stderr and exits 2."""
    return ("import sys\nsys.stderr.write(" + repr(line + "\n")
            + ")\nsys.exit(2)")


@pytest.mark.parametrize("source, failure, shown", [
    (_refuse("error: refused"), None, "error: refused"),
    ("print('out')\n" + _refuse("error: refused"),
     "4 bytes of stdout on a refusal", "error: refused"),
    ("import traceback\ntry:\n    1 / 0\nexcept ZeroDivisionError:\n"
     "    traceback.print_exc()\n" + _refuse("error: refused"),
     "a Traceback on stderr", "error: refused"),
    (_refuse("refused"), "last stderr line has no 'error:'", "refused"),
])
def test_refusal_row(source, failure, shown, capsys):
    failures = gates.run(Gate("refusal", ("-c", source), 20, code=2))
    assert failures == ([] if failure is None else [failure])
    # the runner prints the refusal's last stderr line under its own
    assert capsys.readouterr().out.splitlines()[1].strip() == shown


@pytest.mark.parametrize("last, passes", [("b", True), ("a", False)])
def test_pinned_last_line(last, passes, capsys):
    failures = gates.run(Gate("digest", ("-c", "print('a')\nprint('b')"), 20,
                              last=last))
    assert failures == ([] if passes else [f"last line 'b', pinned {last!r}"])


def test_every_row_runs_after_a_failure(capsys):
    rows = (Gate("exits 1", ("-c", "raise SystemExit(1)"), 20),
            Gate("passes", ("-c", "pass"), 20))
    assert gates.main(rows) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL  exits 1")
    assert out[1] == "      exit 1, expected 0"
    assert out[2].startswith("ok    passes")
    assert out[-1] == "1 of 2 gates failed: exits 1"
