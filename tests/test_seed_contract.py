"""Frozen seed contracts: the hyperbolic completions of the catalog codes,
the rows of the isotropic sampler and decoder traces, resampled and with
the one seeded outer code, each pinned by the SHA-256 of its int64 bytes.

The sampler digests were recorded before the subspace algebra was moved
onto one echelon form for every prime d; that move changed no row and no
RNG draw.  They are the same under every version of simulate's seed
contract, since a one-trial sampler draws the same digits under all of
them.

The trace and completion digests are versioned with simulate's seed
contract:
- v1 gave every trial its own generators: error uniforms from (seed, t), a
  resampled outer code from (seed, t, 1).
- v2 gives batch b of simconcat._BATCH trials one generator, (seed, b):
  first the batch's error uniforms, then its outer codes' digits, one
  (T, S) block and S-digit refills for the trials that read past its end.
- v3 keeps v2's generators and error uniforms; the outer codes' sampler
  draws one block of digits per round of attempts, a row for each trial
  still drawing, in trial order.  Only resampled traces changed.  Under v1
  to v3 every catalog completion was drawn from default_rng(0).
- v4 (current) keeps v3's random streams; every code takes the canonical
  completion, which draws nothing.  The catalog completions changed (that
  of trivial3 is now the standard pairs (X_i, Z_i), the same digits at
  every d), and with rep3's labels both rep3 traces.  The trivial1 traces
  did not: a depolarizing channel's array for a code with no stabilizer is
  the same under every completion.
The digests of v1 to v3 are kept below as the record, and no test reads
them.  Under all four, the outer code drawn once for all trials comes from
(seed, 0, 2).
A change to any digest here is a change of seed contract: version it and
write it down in CHANGES.md rather than refreshing the digest.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from qcap import SimConfig, catalog, depolarizing, sample_self_orthogonal, simconcat, simulate

from oracles import trial_rows

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


def run_trace(d, inner, N, K, p, resample_outer=True):
    """simulate's failure count on 200 trials, with the per-trial rows of
    its batch records."""
    cfg = SimConfig(inner=catalog(inner, d), outer=None, N=N, K=K, channel=depolarizing(d, p),
                    trials=200, seed=2024, resample_outer=resample_outer)
    return SimpleNamespace(failures=simulate(cfg).failures, rows=trial_rows(cfg))


def trace_digest(report):
    rows = [t["z"] + t["v"] + t["v_hat"] + [t["failure"]] for t in report.rows]
    return digest(np.array(rows))


FROZEN = {
    ("completion", "rep2", 2):
        "694bfe6177e453a634fa12d8a8c97d3801dca18fee0dfe90fe5f2d56a4b78008",
    ("completion", "rep2", 3):
        "f61cd626da493ce3b41b538fc48983a04855d861b459d47c16ec830a4e41a024",
    ("completion", "rep2", 5):
        "b180afcc36ecd10b3b8c89131de8b00f549cad9a95436678071b7b5a0d7b5cab",
    ("completion", "rep3", 2):
        "610e74ff8006c9765de13c359b5a7a934b8ddd799c3b0ebd0627e823798af7eb",
    ("completion", "rep3", 3):
        "39d9e4d2d2338d898f45a76492d346a1c017c66c145b4da2e696d69d09a3d2fb",
    ("completion", "rep3", 5):
        "5b176ee0480a31c4880a8a89e64164e4f0082ad84217145f381f591b94475485",
    ("completion", "rep4", 2):
        "edc95c76a2ed225195d8a7c9a23d7434eb8d91e5c1791931af54365d7659d89e",
    ("completion", "rep4", 3):
        "3447f15cf981f1712f8074a946a761814adfce8e811844be7473bbe02f1fb4bd",
    ("completion", "rep4", 5):
        "6ac26500d0defcb34f3486f3f2eee1f0da7856a1aeed417bdd18ed687ef82d00",
    ("completion", "rep5", 2):
        "6f981c8bb938bb3a2375938dd983f857e4bb57c30a0f0c08d959c83ad0bf705f",
    ("completion", "rep5", 3):
        "bc535a3fe0693aa26313d86db2cd4a99384029f0ee5e8ab94559731e01ff4d67",
    ("completion", "rep5", 5):
        "c631d9a08deb7fd51508aada74b4d0c1418c3a64e4f8386ac8438f7b9806adb4",
    ("completion", "rep6", 2):
        "326c5e63a06d88a17bc5f7725cf8da663c9cdee72590ee8e954019eda5139e1a",
    ("completion", "rep6", 3):
        "df1451ac67246c0a9629db48fa6ae23e289280964287fcb9660be198d8d4ecd8",
    ("completion", "rep6", 5):
        "3b5faec0c267c83189cd49d6f428104a8b96066ae43508f1df43841a8125591c",
    ("completion", "rep7", 2):
        "930327a7652d8ae3263906400c4203696738d4abc1f0f613a2bc3e14e76a05bf",
    ("completion", "rep7", 3):
        "5b7c9d46276d7c9e63c0d385ac972b0bddd8ae1d2e61dfc49adb4123a6567da6",
    ("completion", "rep7", 5):
        "b2858408d7df46fa3eb40b15b2810b95ebcfcd10eccac9f96d21ae02ad507971",
    ("completion", "trivial3", 2):
        "3851faf44265a2d0bd6ca6e99f9596431755309fe34af1d5ce6060063cd53ceb",
    ("completion", "trivial3", 3):
        "3851faf44265a2d0bd6ca6e99f9596431755309fe34af1d5ce6060063cd53ceb",
    ("completion", "trivial3", 5):
        "3851faf44265a2d0bd6ca6e99f9596431755309fe34af1d5ce6060063cd53ceb",
    ("completion", "five_qubit", 2):
        "a995e7602ef7bf1bbc049a0d19366eab1a4fd0e696b9a57c1f7cdbeae7327a14",
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
        "fa197aba12a4f9a69617f820282da5cde9f2695997b7900f6fdea1f9268e966b",
    ("trace", 3, "trivial1", 6, 1, 0.1):
        "4ba897c77ad084b6287505bbf3d795f4d5341c306731d83d4a65335fb62cdeec",
    ("trace", 5, "trivial1", 4, 1, 0.1):
        "e8a561f6dcc0dc9d3e14da7151a33560eb59fa58a9df318d9bcc2772e60cf402",
    ("fixed", 2, "rep3", 6, 1, 0.08):
        "3dc73e0a0c01a517ead5c8decec4e8ac5b67b89d20d1a6ae810452667fbf8fac",
    ("fixed", 3, "trivial1", 6, 1, 0.1):
        "952c47556ac722239e5899b73d0083d08df2284d1423f511afba1b186efa88b2",
}

# the failures among the 200 resampled trials of each trace under v4; the
# first and the last are also checked by the console-script step of CI
FAILURES = {(2, "rep3", 6, 1, 0.08): 42, (3, "trivial1", 6, 1, 0.1): 34,
            (5, "trivial1", 4, 1, 0.1): 42}

# the record of seed contract v3's catalog completions, drawn from
# default_rng(0), and of its rep3 traces (200 trials each; failures 42
# resampled and 50 fixed); its sampler rows and trivial1 traces are those of v4
FROZEN_V3 = {
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
    ("trace", 2, "rep3", 6, 1, 0.08):
        "cfd78862612244a059fafdc3f13df6b1fcf04cf1567ba9376b13f1cd080e42ed",
    ("fixed", 2, "rep3", 6, 1, 0.08):
        "d72f6c3c4646000bec88e7249cc4d58ee4f399bc82e89e2167bd86a232a6d7f0",
}

# the record of seed contract v2's resampled traces (200 trials each;
# failures 51, 33 and 39); its fixed-outer traces are those of v3
FROZEN_V2 = {
    ("trace", 2, "rep3", 6, 1, 0.08):
        "b794b8132fc3e4cca3de9ad0ea9573bccdd5f1791fc778c07d3cc7b31f9cc9b9",
    ("trace", 3, "trivial1", 6, 1, 0.1):
        "5c62d60a6bf37ffe6da5f4dcd4af7181f487176a715dd4587dd7ed4b5274a91c",
    ("trace", 5, "trivial1", 4, 1, 0.1):
        "d6f34cbfbbfd6df8f5075a91a1d64d1129ecf2363ec300c6fed430334f512855",
}

# the record of seed contract v1 (200 trials each; failures 59, 36 and 44)
FROZEN_V1 = {
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
    report = run_trace(*case)
    assert trace_digest(report) == FROZEN[("trace",) + case]
    assert report.failures == FAILURES[case]


@pytest.mark.parametrize("case", FIXED_TRACES)
def test_fixed_outer_decoder_traces_are_frozen(case):
    assert trace_digest(run_trace(*case, resample_outer=False)) == FROZEN[("fixed",) + case]


def test_seed_contract_version():
    # a new contract gets new trace digests and a new number together
    assert simconcat.SEED_CONTRACT == 4
    assert simconcat._BATCH == 64
