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
import warnings

import pytest

from gradnotch.cli import main

_MODES = (("ap",), ("ps-sym", "--nu", "0.3"), ("ps-anti", "--nu", "0.3"))
_ANGLES = ("90", "90.0001", "135", "179.9999", "180")

REQUESTS = (
    [("eig", "--angle-deg", angle, "--mode", *mode)
     for mode in _MODES for angle in _ANGLES]
    + [("sweep", "--from", "90", "--to", "180", "--step", "1", "--mode",
        *mode) for mode in _MODES]
    + [("check", "--suite", "all", "--seed", "0")])

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
        "e68cf21591f6d9547aac10ffeca8a30ca72848e121b94e5ee325c78e90234a5c",
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
