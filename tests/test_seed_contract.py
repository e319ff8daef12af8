"""Frozen seed contracts: the hyperbolic completions of the catalog codes,
the rows of the isotropic sampler and decoder traces, resampled and with
the one seeded outer code, each pinned by the SHA-256 of its int64 bytes.

The digests were recorded before the subspace algebra was moved onto one
echelon form for every prime d; that move changed no row and no RNG draw.
The fixed-outer digests were recorded before the fixed draw was grown on
the decoder's own echelon form instead of through sample_self_orthogonal;
that changed no row either.
A change to any digest here is a change of seed contract: version it and
write it down in CHANGES.md rather than refreshing the digest.
"""

import hashlib

import numpy as np
import pytest

from qcap import SimConfig, catalog, depolarizing, sample_self_orthogonal, simulate

COMPLETIONS = [(f"rep{n}", d) for n in range(2, 8) for d in (2, 3, 5)]
COMPLETIONS += [("trivial3", d) for d in (2, 3, 5)] + [("five_qubit", 2)]
SAMPLES = [(d, dim, seed) for d in (2, 3, 5) for dim in (1, 4, 6) for seed in (0, 11)]
# (d, inner, N, K, p): 200 resampled trials each
TRACES = [(2, "rep3", 6, 1, 0.08), (3, "trivial1", 6, 1, 0.1), (5, "trivial1", 4, 1, 0.1)]
# the same with one outer code drawn from the seed for all 200 trials
FIXED_TRACES = TRACES[:2]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def completion_digest(name, d):
    basis = catalog(name, d).completion
    return digest(basis.g, basis.h)


def sample_digest(d, dim, seed):
    return digest(sample_self_orthogonal(d, 12, dim, seed).basis)


def trace_digest(d, inner, N, K, p, resample_outer=True):
    cfg = SimConfig(inner=catalog(inner, d), outer=None, N=N, K=K, channel=depolarizing(d, p),
                    trials=200, seed=2024, resample_outer=resample_outer, record_trace=True)
    rows = [t["z"] + t["v"] + t["v_hat"] + [t["failure"]] for t in simulate(cfg).trace]
    return digest(np.array(rows))


FROZEN = {
    ("completion", "rep2", 2):
        "b9e8b2a204fd49c078debbd3abaf4c198f5902f3ac830811c02600074db24c9f",
    ("completion", "rep2", 3):
        "77be8d926a1f937d3dec7fc24f0097035562c5246e54cb58d019e52e0842c904",
    ("completion", "rep2", 5):
        "82c2cc01d36bba8c8341f8018ff5e29b8ba263917aa4f567679afb231e9658cc",
    ("completion", "rep3", 2):
        "75be86849d9a4d9734f0aeee62026031553ce9502946ec286a69649095d790a3",
    ("completion", "rep3", 3):
        "7e3b2d530e91a17b94a6860724060c2c7e95e9166d37c31d04e1a1fcbce5bc6d",
    ("completion", "rep3", 5):
        "eadd35b4e201b518699e6e8624ab84c3fb9560cd92700095c813e52ebf9615be",
    ("completion", "rep4", 2):
        "4bb6ea4074372d9821317e0984a12390b4e8c4fdcdc7aa0dc7d59a8cc71e31ca",
    ("completion", "rep4", 3):
        "3b1d1568101c0611a0b238257661c0601e5b2f662b1951a9f2ae7e7a4601ad48",
    ("completion", "rep4", 5):
        "f24608fa51539e72f79ab86f1caa0103eed1fa57bbb36ead152675f6247f4747",
    ("completion", "rep5", 2):
        "24fb65a87967e4f79169f37ae14f64bcacffa62c1a4c59cf321315f9f6aad216",
    ("completion", "rep5", 3):
        "9dc40a269322da4bd5df7d41672ed2beeee2c7f16cef83dd00ad35c7a33ff5da",
    ("completion", "rep5", 5):
        "961033b793fe9eea5c3e84d19d5671130ff25ba4bd9872d7bc0c36872c15152a",
    ("completion", "rep6", 2):
        "e1ec9f07355e0aa155d4def90b8ee5c3b97d9c26a61acf13888f8fb0f71e0185",
    ("completion", "rep6", 3):
        "a1276a139a9a3d7f78c28dd715897d909299828ef8c552e744d557b3cbdc532a",
    ("completion", "rep6", 5):
        "39ba685082a609ecba7212fb4d6ccbc5a6147dd5db96ad68f552e19383bae51e",
    ("completion", "rep7", 2):
        "92835e9a2d09f6e0c515881536fd958d2ec7b00a7b84f3745069ecff86ce1709",
    ("completion", "rep7", 3):
        "c87be4d4fb4ad922d9e2d23b3cd0298dfd160b0d4f4343f704c6061031ab435c",
    ("completion", "rep7", 5):
        "eff1d4aa09c67b7ef985c32c3b517f1f3a92d16c03952a1e722b07a37bfc986f",
    ("completion", "trivial3", 2):
        "4873f140d3f5dfee249fbdcb9e185342361b615142c976cb383b30604edc622d",
    ("completion", "trivial3", 3):
        "41eeae731729b075ec94d9e569338ce753f6eff328d79ae214d160c1fc2477bd",
    ("completion", "trivial3", 5):
        "d66238c22822b0cd6ce9f295b2f04f7204df86fe43a65986f52bb6752941864b",
    ("completion", "five_qubit", 2):
        "1a7682f96b7d73a3d40792373d9141c59185408a23ed399ea64ff7ff094b4845",
    ("sample", 2, 1, 0):
        "f8694b65678c8d7b4b6a4ead307493721691baea39cd3fdbb093fadaa1838409",
    ("sample", 2, 1, 11):
        "f1471a748efc177d5ff2fe6f5fa6a07f92ad47d40edf419781e38dca4e9351fe",
    ("sample", 2, 4, 0):
        "bd2ab72f048f59dd8fafd06d8e8c52d96b653abf8d3783b74bec173de07a0a3d",
    ("sample", 2, 4, 11):
        "ddfd51cb735088d965a1bd386398fbb43d82a1a34ff1e2e7295e4a843afeda79",
    ("sample", 2, 6, 0):
        "20948dd5895942653835166447312fa06660040c4cc0cfefaca1fedfda822c35",
    ("sample", 2, 6, 11):
        "6d1e42d1c3aecd40f27a25c987cade0cec4d78f97844810b93dfe4dc75854299",
    ("sample", 3, 1, 0):
        "92d190970612cbe69562b5d3da3b6c4589a1018e1708ffcec00eb4b6d17d2831",
    ("sample", 3, 1, 11):
        "ad27635a095070c50c31bc410ea5f51de87107e4102ebde4da9c0f25324f0598",
    ("sample", 3, 4, 0):
        "cce8f17b989d6d6b39239aa20590f5c015bf9307901b2808c278de9b1ba2ae7f",
    ("sample", 3, 4, 11):
        "5904e704108caac2600b5f4a2e56d42f6b7598ddc3dbd5adfa3b46b333884394",
    ("sample", 3, 6, 0):
        "643c1b1c05f359e5675b46c90e914c8955b4df2dae4ed550bb5070082a8041c5",
    ("sample", 3, 6, 11):
        "88daeae1a0cd0f682f487abc53684382f783a41288131409789af2fb640b2c25",
    ("sample", 5, 1, 0):
        "04891b0f44d308267582d8f16fb8978363a7c88463e5221a046e4d146b144317",
    ("sample", 5, 1, 11):
        "6f40f9ad8137a289507c2e4437dc0ef39a7fdc257dc9eb8ffa3902b02197c974",
    ("sample", 5, 4, 0):
        "821013db4c2a62ee2b30f45687e17619741f125bc209881d8d50a353014b27dd",
    ("sample", 5, 4, 11):
        "77cde00d872d87dbf7ea104ce667cc4345deb733ee257e3d72f54848d324a014",
    ("sample", 5, 6, 0):
        "55a7bcf38e13599e4c8f678a35ba5b805c51157e4009938e6885ea467c79a885",
    ("sample", 5, 6, 11):
        "d342a82d4228f2c750f5faf6731b92aa82d2a0f05a05673bb71969030908142a",
    ("trace", 2, "rep3", 6, 1, 0.08):
        "b24352d3fc5d772d7b7665296feff581d78d4b4f5bd0fdf7849a8d7fc9bbadf8",
    ("trace", 3, "trivial1", 6, 1, 0.1):
        "42d26936f41161d40b0326bf886e2f9d06e686b9f17adadb2f5cb643716a1c8d",
    ("trace", 5, "trivial1", 4, 1, 0.1):
        "67b58771f3b62c7cb6231fd11d02d641d81f2201c9b010bfdbdead7fbcfcb4b8",
    ("fixed", 2, "rep3", 6, 1, 0.08):
        "51a34e500e07eac7b43d7a248a4c52c353ab6ec7827197a806581add8f875f3e",
    ("fixed", 3, "trivial1", 6, 1, 0.1):
        "a36709958f286df055023228cd5fee8fcf0be0c7fb1099953656ab70c0573262",
}


@pytest.mark.parametrize("name, d", COMPLETIONS)
def test_catalog_completions_are_frozen(name, d):
    assert completion_digest(name, d) == FROZEN[("completion", name, d)]


@pytest.mark.parametrize("d, dim, seed", SAMPLES)
def test_sampler_rows_are_frozen(d, dim, seed):
    assert sample_digest(d, dim, seed) == FROZEN[("sample", d, dim, seed)]


@pytest.mark.parametrize("case", TRACES)
def test_resampled_decoder_traces_are_frozen(case):
    assert trace_digest(*case) == FROZEN[("trace",) + case]


@pytest.mark.parametrize("case", FIXED_TRACES)
def test_fixed_outer_decoder_traces_are_frozen(case):
    assert trace_digest(*case, resample_outer=False) == FROZEN[("fixed",) + case]
