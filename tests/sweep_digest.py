"""Print a digest of the exhaustive sweep's output on a fixed list of moduli.

    PYTHONPATH=src python tests/sweep_digest.py > digest.txt

Each line holds one modulus and the sha256 of its norm_profile: every gap's
scale, case, norms dtype and norms bytes, in gap order, then case_max in
its own order. The last line digests them all. Run it on two checkouts and
diff the files to see whether a change kept the sweep's output bit for bit;
a gate of tests/gates.py pins the last line, so a change that means to
alter the output updates the digest there.

The list: every supported M < 300, then 1003 = 17 59, 1007 = 19 53 (the
costliest accepted rotation chain), 2057 = 11^2 17 and 2187 = 3^7.
"""
import hashlib

from cycloring import make_modulus, norm_profile
from cycloring.errors import UnsupportedModulus


def moduli():
    out = []
    for M in range(2, 300):
        try:
            make_modulus(M)
        except UnsupportedModulus:
            continue
        out.append(M)
    return out + [1003, 1007, 2057, 2187]


def digest(M):
    prof = norm_profile(make_modulus(M))
    h = hashlib.sha256()
    for scale, case, norms in prof.gaps:
        h.update(f"{scale} {case.value} {norms.dtype.str} ".encode())
        h.update(norms.tobytes())
    for case, key in prof.case_max.items():
        h.update(f"{case.value} {key}".encode())
    return h.hexdigest()


def main():
    total = hashlib.sha256()
    for M in moduli():
        line = f"{M} {digest(M)}"
        total.update(line.encode())
        print(line)
    print("all", total.hexdigest())


if __name__ == "__main__":
    main()
