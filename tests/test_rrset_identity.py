"""Identity pins: the RR collections of four presets, value for value.

Each array of each collection is hashed as int64 (sha256 of
``astype(np.int64).tobytes()``), so a change of storage dtype leaves the
hash alone and a change of any value moves it. The standard-kernel pins of
``tiny``, ``lastfm_lite`` and ``flixster_lite`` were taken with an
all-int64 layout, the others with the int32 layout and the kernel before
its counter arithmetic was folded per entry; a collection built today must
hash the same.

Cases are (preset, kernel): every kernel path is pinned, the standard
kernel on TIC (one probability row per advertiser) and on Weighted Cascade
(``dblp_lite``, one shared row), and SUBSIM, whose dense entries take the
standard draw, on both. Per case: one uniform-sampling collection (RMA's
request, also made on Spark), a merge of two (a doubling round), and a
one-hot block list (a TI request with KptEstimation-sized blocks).
"""
import functools
import hashlib

import numpy as np
import pytest

from repro.experiments.instances import PRESETS, _graph_and_probs
from repro.graphs.csr import build_csr
from repro.influence.rrset import generate_rr_collection, generate_rr_local

LAYOUT = ("rr_adv", "rr_ptr", "members", "key_ptr", "rr_ids")
N_UNIFORM = 20_000
SEED = 2024


@functools.cache
def _preset(name):
    cfg = PRESETS[name]
    src, dst, probs = _graph_and_probs(cfg)
    csr = build_csr(cfg["n"], src, dst, probs)
    if cfg["model"] == "wc":
        cpe = np.full(cfg["h"], float(cfg["uniform_cpe"]))
    else:
        cpe = np.asarray(cfg["cpes"], dtype=np.float64)
    return csr, cpe


def _local_collections(csr, cpe, kernel):
    onehot = np.zeros(len(cpe))
    onehot[1] = cpe[1]
    return {
        "uniform": generate_rr_local(csr, cpe, N_UNIFORM, seed=SEED, kernel=kernel),
        "merged": generate_rr_local(csr, cpe, 3000, seed=1, kernel=kernel).merge(
            generate_rr_local(csr, cpe, 5000, seed=2, kernel=kernel)
        ),
        "onehot": generate_rr_local(
            csr, onehot, [(37, 5), (500, 6), (2000, 7)], kernel=kernel
        ),
    }


def _digest(rr) -> tuple:
    """Short sha256 of each layout array as int64, in ``LAYOUT`` order."""
    return tuple(
        hashlib.sha256(getattr(rr, name).astype(np.int64).tobytes()).hexdigest()[:16]
        for name in LAYOUT
    )


PINS = {
    ("tiny", "standard"): {
        "uniform": (
            "10840e27c2a0d499", "d5b6b52dceabf96a", "74db7b0d71119914",
            "d8ef38a289278ffe", "cc75c008ab8096fa",
        ),
        "merged": (
            "2c4b5a463a8abc93", "c488b0cdd05ab40f", "231feab02935c96b",
            "4e6c19f38e55012b", "0a3a8c9ba02cc83e",
        ),
        "onehot": (
            "cee0fd6036ab5bce", "a963ff91f5ea90e0", "10bd3a68aad6ccf3",
            "3a7f95753cd2341d", "6b067f00bd5f4772",
        ),
    },
    ("lastfm_lite", "standard"): {
        "uniform": (
            "99ba49841242330f", "1c5814c2bae94a4a", "e2efb00b38559f3f",
            "b86c23954b264bd4", "82e3c4145bc6132e",
        ),
        "merged": (
            "9a462e59930ed632", "c64e90e3c659b5ad", "1171cacabd5cd439",
            "f94469fee1dd2b0f", "6e6064456e08efcf",
        ),
        "onehot": (
            "cee0fd6036ab5bce", "39d8e40d69e7ff68", "4d25e5d1c92b26ef",
            "6f13c2be5f84f67f", "d24355448d2f16e4",
        ),
    },
    ("flixster_lite", "standard"): {
        "uniform": (
            "99ba49841242330f", "8c2e157fc846a023", "18cebd00be6d1b06",
            "67b7e5bcc68c1906", "1816ccca047d686b",
        ),
        "merged": (
            "9a462e59930ed632", "374582a0ffa00d35", "9523e642f412b35c",
            "1cecf4660b314039", "622065216bd701c8",
        ),
        "onehot": (
            "cee0fd6036ab5bce", "e0fa72f565ac0bbb", "ff6a53bd9b1fdda0",
            "688a734c9fec1139", "01aef2d3c1e84573",
        ),
    },
    ("dblp_lite", "standard"): {
        "uniform": (
            "120eed7e83eecb29", "bd16018d739e5c00", "0bf64a3fef3b7dd5",
            "135388a129ed5cb1", "341fa2de85627194",
        ),
        "merged": (
            "75d5a50ce4ec6ed3", "7cbaa84e093f1bb4", "3f034804bbced5ed",
            "de853ef7906e6d75", "38be59cae5f4406a",
        ),
        "onehot": (
            "cee0fd6036ab5bce", "d03d76d0e9c8da03", "60f75a979af77e0b",
            "a12a98e77236d2b7", "6e9b42c064f37ec7",
        ),
    },
    ("dblp_lite", "subsim"): {
        "uniform": (
            "120eed7e83eecb29", "6bb874bd1ea77455", "c74118889c4f838b",
            "98cbc08c2e19237d", "0ed3d2988a151450",
        ),
        "merged": (
            "75d5a50ce4ec6ed3", "40b340edd150a0ad", "d517c69a370fabea",
            "914b2bc1dfcbd71e", "eea563d46e903b17",
        ),
        "onehot": (
            "cee0fd6036ab5bce", "1d83cd6ef72353a9", "37421566f80f6707",
            "300bda2339540d81", "dc4081b826d3fb66",
        ),
    },
    ("flixster_lite", "subsim"): {
        "uniform": (
            "99ba49841242330f", "82404d9639fb82e6", "2a479067535f4e42",
            "98e863d3bb5b44d9", "dad4814ce4fbdd54",
        ),
        "merged": (
            "9a462e59930ed632", "cf55f80dd50d74fa", "ded11425a06a9760",
            "a1adb61c20282611", "5c3dc2a46998cadd",
        ),
        "onehot": (
            "cee0fd6036ab5bce", "ce383fca7949ee95", "3319e45f455aa360",
            "7cc7c574b8c2a155", "8abf707f5f84f1da",
        ),
    },
}


def _case_id(case):
    """``preset`` for the standard kernel, ``preset-kernel`` otherwise."""
    name, kernel = case
    return name if kernel == "standard" else f"{name}-{kernel}"


@pytest.fixture(scope="module", params=sorted(PINS), ids=_case_id)
def case(request):
    return request.param, *_preset(request.param[0])


def test_local_collections_equal_the_int64_layout(case):
    (name, kernel), csr, cpe = case
    got = {
        kind: _digest(rr) for kind, rr in _local_collections(csr, cpe, kernel).items()
    }
    assert got == {kind: PINS[name, kernel][kind] for kind in got}


def test_spark_collection_equals_the_int64_layout(spark, case):
    (name, kernel), csr, cpe = case
    rr = generate_rr_collection(spark, csr, cpe, N_UNIFORM, seed=SEED, kernel=kernel)
    assert _digest(rr) == PINS[name, kernel]["uniform"]
