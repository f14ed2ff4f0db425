"""Golden output: the stdout of a fixed list of CLI requests, by hash.

Each request runs through cli.main in-process, and the sha256 of its
stdout must equal the value recorded for it. A change that is meant to
keep the output byte-identical keeps these hashes; one that changes an
output on purpose records the new hash and names the change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gradnotch.cli import main

_MODES = (("ap",), ("ps-sym", "--nu", "0.3"), ("ps-anti", "--nu", "0.3"))
_ANGLES = ("90", "90.0001", "135", "179.9999", "180")

REQUESTS = (
    [("eig", "--angle-deg", angle, "--mode", *mode)
     for mode in _MODES for angle in _ANGLES]
    + [("sweep", "--from", "90", "--to", "180", "--step", "1", "--mode",
        *mode) for mode in _MODES]
    + [("check", "--suite", "all", "--seed", "0")]
    + [("field", *argv) for argv in (
        ("--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3",
         "--eig-index", "1", "--amps", "1", "--r", "0.5,2",
         "--theta-steps", "9"),
        # index 3 at 135 deg is a touch root of nullity 2
        ("--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3",
         "--eig-index", "3", "--amps", "1,-0.5", "--r", "0.5,2",
         "--theta-steps", "9"),
        ("--mode", "ps-anti", "--angle-deg", "135", "--nu", "0.3",
         "--eig-index", "1", "--amps", "0.7,1.2", "--r", "1",
         "--theta-steps", "9", "--with-p1", "0.4"),
        ("--mode", "ps-sym", "--angle-deg", "180", "--nu", "-0.5",
         "--eig-index", "1", "--amps", "1,0.5", "--r", "0.25,1",
         "--theta-steps", "7", "--with-p1", "1,0.5"),
        ("--mode", "ap", "--angle-deg", "135", "--eig-index", "1",
         "--amps", "1", "--r", "0.5,1,2", "--theta-steps", "9"),
        ("--mode", "ap", "--angle-deg", "180", "--eig-index", "2",
         "--amps", "-1.5", "--r", "1", "--theta-steps", "9",
         "--with-p1", "0.3"),
        # 602 rows: several blocks of rows, the last one partial
        ("--mode", "ps-sym", "--angle-deg", "150", "--nu", "0.3",
         "--eig-index", "1", "--amps", "1", "--r", "0.5,2",
         "--theta-steps", "301"),
        # the p = 1 entry: exact zeros in every gradient column
        ("--mode", "ap", "--angle-deg", "180", "--eig-index", "0",
         "--amps", "1", "--r", "1,2", "--theta-steps", "9"),
        ("--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3",
         "--eig-index", "0", "--amps", "1,0.5", "--r", "1",
         "--theta-steps", "9"),
        # values with two- and three-digit exponents, both signs
        ("--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3",
         "--eig-index", "1", "--amps", "1e-30", "--r", "1e-40,0.5,2e40",
         "--theta-steps", "9"),
        ("--mode", "ps-sym", "--angle-deg", "135", "--nu", "0.3",
         "--eig-index", "1", "--amps", "1e25", "--r", "1e-60,1,1e40",
         "--theta-steps", "9"))]
    + [("equilibrium", "--mode", mode, "--angle-deg", "180", "--nu", nu,
        "--amps", amps, *r0) for mode, nu, amps, r0 in (
        ("I", "0.3", "1.1,0.7", ()), ("I", "-0.9", "1,0", ()),
        ("II", "0.3", "0.9,-0.6", ("--r0", "0.1")),
        ("II", "0.4999", "1,0", ()))]
    + [("equilibrium", "--mode", mode, "--angle-deg", angle, "--nu", nu,
        "--amps", "1" if (mode, angle) == ("notch-sym", "135") else "1,-0.7")
       for mode, angle, nu in (
        [(mode, angle, "0.3") for mode in ("notch-sym", "notch-anti")
         for angle in ("90", "135", "180")]
        + [("notch-sym", "135", "-0.5"), ("notch-anti", "135", "0.4999")])])

GOLDEN = {
    "eig --angle-deg 90 --mode ap":
        "b6f71fc7b90ee8da31dc859261440e1bf1cba5118b0d98eeb1fef84fc96bc0dc",
    "eig --angle-deg 90.0001 --mode ap":
        "bb779f551c7321264f352d38bec6ed33873a02f8b3fbed68676190a27ac9f5a7",
    "eig --angle-deg 135 --mode ap":
        "86e811bf7d9dc7dc0483e3850d41458e66b3780d943cd079d0f0d1c6b95b4939",
    "eig --angle-deg 179.9999 --mode ap":
        "61b254bbc2ad03c797f1fc9a7867226c921e46ddea096eb094f6f21622a0178f",
    "eig --angle-deg 180 --mode ap":
        "beac990c9ecb8b85c69bf0cdc37707e23465c97775f97e2d56fad64e54ec231a",
    "eig --angle-deg 90 --mode ps-sym --nu 0.3":
        "02185f95cb99573545ae4561f4058a708bd87cd5646ea0b55286e2efe07aceee",
    "eig --angle-deg 90.0001 --mode ps-sym --nu 0.3":
        "afb05685345e468d097130ba9def99a2f182da7e866642f95e50d4cfa6c167a7",
    "eig --angle-deg 135 --mode ps-sym --nu 0.3":
        "25e3c82b66d3dd89f197b6df494e5eedf0eeeb932f9bd7bfcf2baa92f86c0093",
    "eig --angle-deg 179.9999 --mode ps-sym --nu 0.3":
        "e4fe84c77b6ccb78eb5c83b97bb10c5a32654fda861fe6fdf767f1f09cce864c",
    "eig --angle-deg 180 --mode ps-sym --nu 0.3":
        "9711a0d50e302f020ab1103f9948fe479b88ea5af4da2939b739d64100a3c067",
    "eig --angle-deg 90 --mode ps-anti --nu 0.3":
        "c757293f060bf2586c93f5704318e69e3a4148fd03b197252974cc11de39579c",
    "eig --angle-deg 90.0001 --mode ps-anti --nu 0.3":
        "114ea3993b93e556d5d63526b624b4020552a4ff03c5443219cd74ac586b8c82",
    "eig --angle-deg 135 --mode ps-anti --nu 0.3":
        "9084d5c34321d8040ccd64a6f632207fbd03169824f12c6249a35466797ee3db",
    "eig --angle-deg 179.9999 --mode ps-anti --nu 0.3":
        "65fbedc0edc9a5805c47438971232136efcd8b001fcb6bbadacdd367b7306b10",
    "eig --angle-deg 180 --mode ps-anti --nu 0.3":
        "e359a904caa733bc633798c08048add84b37fa7b42cd872780f92ba721fd6b51",
    "sweep --from 90 --to 180 --step 1 --mode ap":
        "8d23a01496740046b753082f7a59c8761849465d5aa3aef1a5adb3b85e653570",
    "sweep --from 90 --to 180 --step 1 --mode ps-sym --nu 0.3":
        "5e8f34ed36460f1d667d2a5d6c1a336ed3a47f18253ecfed5d5bb457d6a861bd",
    "sweep --from 90 --to 180 --step 1 --mode ps-anti --nu 0.3":
        "c4105d59d40f3be75dd4ceb4f49a91f85821f163fea8eb565e1325aa60563630",
    "check --suite all --seed 0":
        "2797164080dbcbcc7deb02146786510cb3c185af112631c64bb161cda4376a7b",
    "field --mode ps-sym --angle-deg 135 --nu 0.3 --eig-index 1 --amps 1 "
    "--r 0.5,2 --theta-steps 9":
        "49f0618d6fbdb731c61faf2d9a0db2df1544384d32ed246dbf3da698d7af9671",
    "field --mode ps-sym --angle-deg 135 --nu 0.3 --eig-index 3 "
    "--amps 1,-0.5 --r 0.5,2 --theta-steps 9":
        "34d3347e5b246784dad2222b6bc3d496b24be02176ba634bf9d876532879a092",
    "field --mode ps-anti --angle-deg 135 --nu 0.3 --eig-index 1 "
    "--amps 0.7,1.2 --r 1 --theta-steps 9 --with-p1 0.4":
        "bff36f4e2fe1da523e9bae9a0cd1d8c13f8376f3da7099500b90efacd19da064",
    "field --mode ps-sym --angle-deg 180 --nu -0.5 --eig-index 1 "
    "--amps 1,0.5 --r 0.25,1 --theta-steps 7 --with-p1 1,0.5":
        "20b090fc9468e7160525b7b7ad23a8857acf919eee78c85cdbe86c9a258e08a5",
    "field --mode ap --angle-deg 135 --eig-index 1 --amps 1 --r 0.5,1,2 "
    "--theta-steps 9":
        "48a0e2dcda1b6b2aba8d385d58f8eebf20c37bc3770ab22ba9a57ef1ea0cf27a",
    "field --mode ap --angle-deg 180 --eig-index 2 --amps -1.5 --r 1 "
    "--theta-steps 9 --with-p1 0.3":
        "387d511c0e00f04c69fa2dcab395bc97fa2b286a8ab9a69306b090f29b266a89",
    "field --mode ps-sym --angle-deg 150 --nu 0.3 --eig-index 1 --amps 1 "
    "--r 0.5,2 --theta-steps 301":
        "eab88e47feadb244ca669a95957c9b569c9b5947cbce2c51a831fc69c154785f",
    "field --mode ap --angle-deg 180 --eig-index 0 --amps 1 --r 1,2 "
    "--theta-steps 9":
        "2b505b9a710d54c85234a39e14384b5b9a51805c8d3a92859c22cd9fb140270d",
    "field --mode ps-sym --angle-deg 135 --nu 0.3 --eig-index 0 "
    "--amps 1,0.5 --r 1 --theta-steps 9":
        "85b78ffd9384e238d42343a21aa3c9745087e1b66ebaf29205e80270d466f0d2",
    "field --mode ps-sym --angle-deg 135 --nu 0.3 --eig-index 1 "
    "--amps 1e-30 --r 1e-40,0.5,2e40 --theta-steps 9":
        "e4fb4000d17aea1d7e5c21dec8e46d2feb4052195348ffd6fe6269e3d3c6f8b0",
    "field --mode ps-sym --angle-deg 135 --nu 0.3 --eig-index 1 "
    "--amps 1e25 --r 1e-60,1,1e40 --theta-steps 9":
        "9eed123072252236a1bddf990e6ba496841cfc1e22a0a38fc1132d1364d66f67",
    "equilibrium --mode I --angle-deg 180 --nu 0.3 --amps 1.1,0.7":
        "3d701acf9b77daea868fd9514e5b4c6f836cc8715fb43eda7f7225e6925848f1",
    "equilibrium --mode I --angle-deg 180 --nu -0.9 --amps 1,0":
        "5b7c4f0b7bdfc38ae392bd1dae56f48fc5dd8c40911b566c971ad9b3c0d1bd62",
    "equilibrium --mode II --angle-deg 180 --nu 0.3 --amps 0.9,-0.6 "
    "--r0 0.1":
        "a96a29235d18db5d92a9e0901b8bf66e940b2ea7626549c6c3ca10972317622a",
    "equilibrium --mode II --angle-deg 180 --nu 0.4999 --amps 1,0":
        "9f90105380b4802c81deb8398f74d0ff9f5fab079d5f18acd16eb977a8c1d7b3",
    "equilibrium --mode notch-sym --angle-deg 90 --nu 0.3 --amps 1,-0.7":
        "b7aa26414b9d1667f2c95eed1a541d454259184c991faa69da1ba874602372de",
    "equilibrium --mode notch-sym --angle-deg 135 --nu 0.3 --amps 1":
        "54b4c971312fc9b53634b3fa71246e6c49c56edea2cdd9e055f624b5e48e720b",
    "equilibrium --mode notch-sym --angle-deg 180 --nu 0.3 --amps 1,-0.7":
        "fcc944083728c8ed0a71973a3deb9e386fb3d8f850e665b288cf3039083eb68c",
    "equilibrium --mode notch-anti --angle-deg 90 --nu 0.3 --amps 1,-0.7":
        "89604a831eeaf77be8b21efc1a8f395c42579407c1cc8d098c5653b2aa8bf655",
    "equilibrium --mode notch-anti --angle-deg 135 --nu 0.3 --amps 1,-0.7":
        "ff5af1923329c24ffca0467c7f325e0b1ae66aea94b1d43351fc017790d6edf7",
    "equilibrium --mode notch-anti --angle-deg 180 --nu 0.3 --amps 1,-0.7":
        "0cf3cd087d8dfec49e45d71d3728b3b2b2f5f6df5bbe50bea62d1428dbb68368",
    "equilibrium --mode notch-sym --angle-deg 135 --nu -0.5 --amps 1":
        "8045977c116d988d8ee6b1af44b6a07ca1316d5e1e0f5407864b956a685eddba",
    "equilibrium --mode notch-anti --angle-deg 135 --nu 0.4999 "
    "--amps 1,-0.7":
        "7f126bb9584c97f790b78dbeff253426ca918544a9c29bd09ba2a86494c3df2e",
}


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_stdout_matches_the_recorded_hash(argv):
    rc, out = _stdout(argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[" ".join(argv)]


# the benchmark's sweep shapes (at 135 degrees the smallest ps-anti root,
# 5/3, is a touch root), and the check suite, whose stdout is pinned above
CONSOLE_REQUESTS = (
    ("sweep", "--mode", "ps-sym", "--nu", "0.3", "--from", "90", "--to",
     "100", "--step", "0.1"),
    ("sweep", "--mode", "ps-anti", "--nu", "0.3", "--from", "170", "--to",
     "180", "--step", "0.1"),
    ("sweep", "--mode", "ps-anti", "--nu", "0.3", "--from", "130", "--to",
     "140", "--step", "0.1"),
    ("sweep", "--mode", "ap", "--from", "125", "--to", "135", "--step",
     "0.1"),
    ("check", "--suite", "all", "--seed", "0"),
)

# sha256 of the console script's stdout and stderr, and of every warning
# the request emits in-process, in order, one "<message>\n" each
CONSOLE_GOLDEN = {
    "sweep --mode ps-sym --nu 0.3 --from 90 --to 100 --step 0.1": (
        "9ffde74dc33f30c38e7b2f3697df4f563896c51e93af2fadd4edb73aaa85c447",
        "3db345bc7d08ca267bf2c2226df51c3d618cd9d8a6d9702dc030b08f1f953ee1",
        "32d47e0b1651a8ee0926d487c335e3ae79dec8647874959c2021ec5ad6a80a13"),
    "sweep --mode ps-anti --nu 0.3 --from 170 --to 180 --step 0.1": (
        "5c5e2968203d8d7be782c6d0fcd2a83a054c2710afa65d17b6444b728ab521f8",
        "5e6de1c842405f41389ba449ee9c471366d57876afd1db14040c9de8db37a0c1",
        "ec2aa686adef7958f431febb8b62d7d901b03feb49548d5ba45adfe1e72fb51f"),
    "sweep --mode ps-anti --nu 0.3 --from 130 --to 140 --step 0.1": (
        "4110dfb1905538d6028c268cac0dcdac1c548efdfbf3c5d228d9387be297af34",
        "130aa2b00a50eff8b17c890e1afa501c6e4345581123f073f875c46629137272",
        "c458b3b42ce883198956b5856830c56a6c4f09b28a49cb1e463d23571d14fd60"),
    "sweep --mode ap --from 125 --to 135 --step 0.1": (
        "d8f30115c9e40e518a9661f329d3d491780c5b6dc653776ca8f5c7be2854b92e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check --suite all --seed 0": (
        "2797164080dbcbcc7deb02146786510cb3c185af112631c64bb161cda4376a7b",
        "c857348ab4c815a10a9e1737e6dd0b2be6ee7800db0b509356e308ef12616ef7",
        "5d5a4665796c4c071894dbbe478404398fe49424acae5f485e716b10f8fae0d3"),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", CONSOLE_REQUESTS, ids=" ".join)
def test_console_output_and_warnings_match_the_recorded_hashes(argv):
    # the console script prints each warning once per calling line (the
    # default filter); in-process, every warning is recorded in order
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "gradnotch.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    with contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        main(list(argv))
    every = "".join(f"{w.message}\n" for w in caught)
    assert proc.returncode == 0
    assert (_sha256(proc.stdout), _sha256(proc.stderr), _sha256(every)) \
        == CONSOLE_GOLDEN[" ".join(argv)]
