"""Byte-identity of CLI stdout at sizes where summation order or
normalisation could differ between implementations.

Each case runs ``cli.main`` once and compares the sha256 of its stdout with
a digest recorded from an earlier implementation.  Inputs are seeded: a
300-entry sequence that mixes small p/q with 50-300-digit integers (written
as csv, json and bfile) and a 40-entry window sequence for interpolation.
A changed digest means changed bytes; the command line is in the case id.
Further cases cover non-homogeneous operator powers, zeroth powers, powers
of one-, two- and four-term bases and of the zero operator, a
determinant window at n0 = 250 over 300-digit entries, and 13 entries k/p
over distinct primes p, whose common denominator passes ``DEN_BITS``.

``write_specs`` writes the inputs to a directory and names them for
``CASES``; ``golden_outcome`` runs one case in-process and returns its exit
code and digest.  ``tests/test_cli_golden.py`` calls the same builders under
pytest.

Run it as a script: ``PYTHONPATH=src python tests/golden_digests.py``.
"""

import hashlib
import io
import random
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from seqcalc.cli import main

SHORT = "inline:1,4,9,16,25,36/7,-2/3,5"
POWER = "(3/4*I - 5/7*E)^60"
MIXED = "(1/2 - 2/3*I + 5*E)"
PRIMES = (1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069, 1087, 1091, 1093, 1097, 1103)


def _long_entries():
    rng = random.Random(20160602)
    entries = []
    for _ in range(300):
        if rng.random() < 0.2:
            digits = rng.randint(50, 300)
            value = Fraction(rng.randint(10 ** (digits - 1), 10**digits - 1))
            entries.append(value if rng.random() < 0.5 else -value)
        else:
            entries.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return entries


def _window_entries():
    rng = random.Random(32)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(40)]


def write_specs(root):
    """Write the long sequence in three formats under root; map each name in CASES to its spec."""
    long = _long_entries()
    text = [str(v) for v in long]
    (root / "long.csv").write_text("\n".join(text) + "\n")
    (root / "long.json").write_text("[" + ", ".join(f'"{t}"' for t in text) + "]")
    (root / "long.txt").write_text("".join(f"{i} {t}\n" for i, t in enumerate(text, start=1)))
    window = ",".join(str(v) for v in _window_entries())
    primes = ",".join(f"{k}/{p}" for k, p in enumerate(PRIMES, start=1))
    return {
        "SHORT": SHORT,
        "CSV": f"csv:{root / 'long.csv'}",
        "JSON": f"json:{root / 'long.json'}",
        "BFILE": f"bfile:{root / 'long.txt'}",
        "WINDOW": f"inline:{window}",
        "PRIMES": f"inline:{primes}",
    }


def _lagrange(m, *mode):
    return ("lagrange", "--seq", "WINDOW", "--n0", "3", "--m", str(m), *mode)


CASES = [
    (("diff", "--seq", "SHORT"), "0f275dc36e7f25ce609fa54a2bcb3e0c2a009c2a80ba663fdbd5148c81c08324"),
    (("diff", "--seq", "SHORT", "--order", "3"), "5a536e79be06f1ec3bebeb535a0ed403c8fda9a700a7ea1cf214770870454685"),
    (("diff", "--seq", "SHORT", "--order", "1000000000"), "e472626d5ca43ae0623acde04416a334b70a6c1a0f152102f130f64162390dec"),
    (("diff", "--seq", "BFILE", "--order", "4"), "a143f93c9f002876a7ec5450ee7ce7bc4bc974107758e38fc132d8dd9ad80138"),
    (("apply", "--op", "D^2", "--seq", "CSV"), "d3ebc889cb24dc38bc486b08732149bbfe8620c2f781a014d3d03b4683a98166"),
    (("apply", "--op", "M", "--seq", "CSV"), "9dc2fb13e1b0010a43c89e715beb3989a1ddc4bb85868846d1d498c7e28f6f84"),
    (("apply", "--op", "1/16*(I+E)^4", "--seq", "JSON"), "e9f0f6cc62a409aab406d4da5b194ed38fa5986b55f64dbf27e0456222381d3c"),
    (("apply", "--op", "I - 1", "--seq", "CSV"), "febce55b5e58a93abee3a8a371d6a7275311c8d3fbf04cfad9d8ed84440ff22a"),
    (("apply", "--op", "0", "--seq", "CSV"), "ac6411b44b5b0a27b456191c601b0f42e0b4ddfba3011357dc026d1b76267f80"),
    (("apply", "--op", POWER, "--seq", "BFILE"), "3cacac5d5926dabe1b920937970ddc35961724b62cd96ab89caa9ab2effdab62"),
    (("simplify", "--op", POWER), "a76726e06c495bdfaa5c6bc6a335d2cfd07b4a18d9ff425b64afaabd6114d9c7"),
    (("integrate", "--seq", "CSV", "--constant=-7/3"), "e3ed9c01b2d6a390ab0fbfb1c6af601d06041abfc24fd8f09ffc5ad99ff39c2b"),
    (("defint", "--seq", "BFILE", "--from", "17", "--to", "283"), "e30cc2f6d0f1035e3812c89eac9ac4fc75ca1dc9658254b1d86c74e266b01fb2"),
    (("classify", "--seq", "JSON"), "8654e9793b820d170274efbc7a80e5f5d2ef777d11480872d085dd10f895dd9a"),
    (_lagrange(6, "--coeffs"), "866991549669cd750814143ae8aa9dd365756403a1fe44b05ab4ee3d3ea9130a"),
    (_lagrange(6, "--eval", "101/7"), "8114dd6dbcba3f117732a13f408dfdf4696828c36da3c54be2e2c469d11e1f15"),
    (_lagrange(6, "--det"), "02d9151638bd65e3a89bba60698c93132ab725f87ee12257da7afbce6dccac6c"),
    (_lagrange(20, "--coeffs"), "1d86462a58faef41f3f6b67ccfc66876822c22d2a76c418c4bd7ca5edcc07de9"),
    (_lagrange(20, "--eval=-5/3"), "83a73c4708ce527d60d62bc6f13ce73ab9556cc22aa51cf7cc2c7803980337d7"),
    (_lagrange(20, "--det"), "5b5e30184baf8efba83df3adea97d8a5d5e5c59862309e802efcd8ec67ed9002"),
    (_lagrange(32, "--coeffs"), "d8b62e1adf4c95e7548f2a3b5457a4521f31896517c3ca110f45df05aa0fc73e"),
    (_lagrange(32, "--eval", "33/2"), "9df60b1a80698fc331e12827cddf4d4fff9cc1542f349892c267550feaad9205"),
    (_lagrange(32, "--det"), "07e876dbbcda408ad8cec9a2a3a9f248f8616616e8464ae1ceaa742021a8d2f0"),
    (("simplify", "--op", MIXED + "^20"), "06ed302d3f3aa6e08788cb405efbf037a8427aa626e4f035f4f38911661b5b30"),
    (("apply", "--op", MIXED + "^12", "--seq", "CSV"), "684abe3c8fc86a5273dfa3603bee1ea7dc805ad77550a05dd209ba6961d268bf"),
    (("simplify", "--op", "0^0"), "f9e9732789d054a84098f41979373eab3e1f0465e6c9e62ffaa78cc55f070750"),
    (("simplify", "--op", "(I+E)^0"), "f9e9732789d054a84098f41979373eab3e1f0465e6c9e62ffaa78cc55f070750"),
    (("lagrange", "--seq", "CSV", "--n0", "250", "--m", "30", "--det"), "89c9287eae6de8a85a62d8f6d63b6cea9d5f35e7e186ed949767788858d6c10e"),
    (("lagrange", "--seq", "PRIMES", "--n0", "1", "--m", "12", "--coeffs"), "9fb024752cadc1d1298e876efb7434a811e9c6171d741d513e58f6794ca0e0eb"),
    (("lagrange", "--seq", "PRIMES", "--n0", "1", "--m", "12", "--det"), "96a1b46a388bad3edd48bfbfa0e439c2241bdb11cbd0b680306faad5caa86126"),
    (("simplify", "--op", "(1 + I + E + I*E)^12"), "b3a4aabf8362fecf28d9dfd2a6183a7f55d5bd9c92b68dd3339c4835546a346f"),
    (("simplify", "--op", "(2/3*I^2*E)^17"), "5298d2067d7071ec6f77f1034976d32e3d5f6b8f0f1845409e30c5ae4aa5e4c7"),
    (("simplify", "--op", "(I*E - E*I)^3"), "d059840d83baf248d4a32ea71a6cfdc59e9c72ca625a2b9e1a1679022b11d6f8"),
    (("simplify", "--op", "(I+E)^500"), "a2803b7766922bcea94c19360bea12bcf5dc81d63f895caa949243423a004e8c"),
    (("apply", "--op", "(1/3 - I + 2/5*E^2)^9", "--seq", "CSV"), "a7351fe55fe8e9bc3509862a2bc2d503d8c41c8b81c50c6fbfd6ea86c5111f35"),
    (("verify", "--check", "all", "--trials", "20"), "3a1c5e97117ccfb1daf59c63a6535a16c016185147387fb843da9d5f3ee46011"),
    (("verify", "--check", "fd_bridge", "--trials", "60", "--seed", "9", "--max-len", "20"), "c5585d0dcfce6420aa4e7fdb96a0f750da519f46d1f5d8146d91bb367642f2e1"),
]


def golden_outcome(argv, specs):
    """(exit code, stdout sha256) of `seqcalc argv`, with each name in specs replaced by its spec."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([specs.get(arg, arg) for arg in argv])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        specs = write_specs(Path(tmp))
        for argv, expected in CASES:
            assert golden_outcome(argv, specs) == (0, expected), " ".join(argv)
    print(f"CLI stdout matches all {len(CASES)} golden digests")
