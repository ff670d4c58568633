"""Print a digest of the CLI's output on a fixed list of invocations.

    PYTHONPATH=src python tests/cli_snapshot.py > snapshot.txt

Each line holds one invocation, its exit code and the sha256 of its stdout
and its stderr; the last line digests them all. Run it on two checkouts and
diff the files to see whether a change kept the CLI's output; a gate of
tests/gates.py pins the last line, so a change that means to alter the
output updates the digest there. Every command runs in this process
through cli.main. Timings (verify's "completed in"
lines and "seconds" keys) are masked, and the options of argparse usage
lines are sorted, so only their set is compared, not their order.

The list: every command of the bench's cli workload, every subcommand and
format at M = 15, 21, 35 and 63 (with matrix --blocks, scaled-inv's three
methods and expansion --k), the refused moduli M = 30 and 2^61 - 1 on
every subcommand, sweep 1147 above the sweep ceiling, and usage errors.
"""
import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

from cycloring import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import cli_pool  # noqa: E402


def invocations():
    out = [list(argv) for argv in cli_pool()]
    for M in ("15", "21", "35", "63"):
        for fmt in ("coeffs", "pretty", "json"):
            out.append(["cyclo", M, "--format", fmt])
            out.append(["reduce", M, "--poly", "-3,0,7,1,-2," * 20 + "5",
                        "--format", fmt])
        for fmt in ("pretty", "csv", "json"):
            out.append(["matrix", M, "--format", fmt])
            out.append(["matrix", M, "--format", fmt, "--blocks"])
        for fmt in ("text", "json"):
            for method in ("construct", "bezout", "both"):
                for i, j in ((5, 1), (9, 2), (14, 0), (3, 3)):
                    out.append(["scaled-inv", M, str(i), str(j),
                                "--method", method, "--format", fmt])
            out.append(["expansion", M, "--format", fmt])
            out.append(["expansion", M, "--k", "-4", "--format", fmt])
            out.append(["verify", M, "--format", fmt])
            out.append(["verify", M, "--suite", "lemmas", "--seed", "3",
                        "--trials", "50", "--format", fmt])
        for fmt in ("csv", "json"):
            out.append(["sweep", M, "--format", fmt])
    for M in ("30", str(2 ** 61 - 1)):
        out += [["cyclo", M], ["reduce", M, "--poly", "1,2"], ["matrix", M],
                ["scaled-inv", M, "2", "1"], ["expansion", M], ["sweep", M],
                ["verify", M]]
    out += [["sweep", "1147"], ["verify", "1147"],
            ["verify", "15", "--trials", "0"], ["verify", "15", "--suite", "x"],
            ["reduce", "15", "--poly", "1,a"], ["reduce", "15"],
            ["scaled-inv", "15", "1"], ["matrix"], ["nonsense", "5"]]
    return out


def _normalized_stderr(text):
    text = re.sub(r"completed in \d+\.\d+s", "completed in <t>s", text)
    lines = []
    for line in text.splitlines():
        if lines and lines[-1].startswith("usage:") and line[:1].isspace():
            lines[-1] += line     # a wrapped usage line
        else:
            lines.append(line)
    return "\n".join(" ".join(sorted(line.split()))
                     if line.startswith("usage:") else line
                     for line in lines)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = re.sub(r'"seconds": [0-9.e-]+', '"seconds": <t>', out.getvalue())
    return code, stdout, _normalized_stderr(err.getvalue())


def main():
    total = hashlib.sha256()
    for argv in invocations():
        code, stdout, stderr = run(argv)
        line = " ".join([
            str(code), hashlib.sha256(stdout.encode()).hexdigest()[:16],
            hashlib.sha256(stderr.encode()).hexdigest()[:16],
            " ".join(argv)[:100]])
        total.update(line.encode())
        print(line)
    print("all", total.hexdigest())


if __name__ == "__main__":
    main()
