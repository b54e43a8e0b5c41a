"""Golden digests of every model's simulated streams.

Each entry is the first 16 hex digits of the sha256 of a little-endian
float64 array (or of one float), so any change to a model's seeding,
innovation order, recursion or coupling shows up as a digest mismatch.
Regenerate only when a stream change is intended and argued for: running
this file as a script prints the current table to paste over GOLDEN.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakdev.coefficients import GeometricWeights, PolynomialWeights
from weakdev.estimation import estimate_coupling_delta
from weakdev.processes import (
    BernoulliShiftGeometric,
    DoublingMap,
    IidUniform,
    InfiniteMemoryChain,
    LipschitzKernelChain,
    ObservableF,
    _differences,
    coupled_distance_sums,
    observable_for,
    observable_sums,
    simulate,
    simulate_coupled_block,
    stationary_init_batch,
)
from weakdev.rng import derive_seed, replication_seeds

MODELS = {
    "iid-uniform": IidUniform(),
    "doubling-map": DoublingMap(),
    "kernel-chain": LipschitzKernelChain(kappa=0.7),
    "bernoulli-shift": BernoulliShiftGeometric(theta=0.5),
    "bernoulli-shift-truncated": BernoulliShiftGeometric(theta=0.4, truncation=9),
    "infinite-memory-geometric": InfiniteMemoryChain(weights=GeometricWeights(0.5, 0.5)),
    "infinite-memory-polynomial": InfiniteMemoryChain(
        weights=PolynomialWeights(0.25, 3.0), truncation=12
    ),
}
BLOCKS = (1, 4, 7)
N = 70
SEEDS = replication_seeds(20261018, 0, 5)


def _digest(values) -> str:
    arr = np.ascontiguousarray(np.asarray(values, dtype="<f8"))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def _streams(model) -> dict[str, str]:
    identity = ObservableF(kind="centered-identity", mu=0.375)
    cosine = ObservableF(kind="centered-cosine", mu=0.01, omega=2)
    out = {
        "sums.identity": _digest(observable_sums(model, identity, N, SEEDS)),
        "sums.cosine": _digest(observable_sums(model, cosine, N, SEEDS)),
        "sums.stationary": _digest(
            observable_sums(model, observable_for(model, "centered-identity"), N, SEEDS)
        ),
        "mu.identity": _digest(observable_for(model, "centered-identity").mu),
        "mu.cosine": _digest(observable_for(model, "centered-cosine", 3).mu),
        "init": _digest(stationary_init_batch(model, SEEDS)),
        "simulate": _digest(simulate(model, N, 77)),
    }
    for r in BLOCKS:
        out[f"distance.{r}"] = _digest(coupled_distance_sums(model, [r], SEEDS)[:, 0])
        block = simulate_coupled_block(model, r, 99)
        out[f"block.{r}"] = _digest(np.concatenate([block.original, block.starred]))
    return out


GOLDEN = {
    "iid-uniform": {
        "sums.identity": "ae122f6f4429793a",
        "sums.cosine": "2c86d2a9d1e37ed4",
        "sums.stationary": "5909ef9811c3be57",
        "mu.identity": "4cfa5b42ca669328",
        "mu.cosine": "af5570f5a1810b7a",
        "init": "723149b0c6d54e73",
        "simulate": "685b89b81f1faccd",
        "distance.1": "2c34ce1df23b838c",
        "block.1": "9f86672f278d4f08",
        "distance.4": "2c34ce1df23b838c",
        "block.4": "d4b476b87ae3eaed",
        "distance.7": "2c34ce1df23b838c",
        "block.7": "86770985daf552a3",
    },
    "doubling-map": {
        "sums.identity": "f4ab02e70679f41f",
        "sums.cosine": "724c4f549d010581",
        "sums.stationary": "a6ce81a4bd3c913e",
        "mu.identity": "4cfa5b42ca669328",
        "mu.cosine": "af5570f5a1810b7a",
        "init": "870b28f2d65fee18",
        "simulate": "c2595eaa87dd54c1",
        "distance.1": "b95763a3f32a184c",
        "block.1": "dda690f3cbcbcf19",
        "distance.4": "6d8760221bcb40dc",
        "block.4": "79ba79e5969ae1b3",
        "distance.7": "2b106dfecfcf7e99",
        "block.7": "ab46db29690d7639",
    },
    "kernel-chain": {
        "sums.identity": "4090dd509c336c9a",
        "sums.cosine": "379037ac519de1ef",
        "sums.stationary": "3723231c3fa5ac6e",
        "mu.identity": "4cfa5b42ca669328",
        "mu.cosine": "fd003641510a3ae1",
        "init": "aa960fdc24ad9d00",
        "simulate": "4e0b901208a1726a",
        "distance.1": "505a321da19e6b96",
        "block.1": "918563a3df6c50cc",
        "distance.4": "d18932a796914130",
        "block.4": "f2786a55bcdd2209",
        "distance.7": "5028b2b2ab19f88d",
        "block.7": "bf387f12a7ec25a5",
    },
    "bernoulli-shift": {
        "sums.identity": "2874956f2fdcafa5",
        "sums.cosine": "66327e08a5097e4a",
        "sums.stationary": "5205b73d436090f5",
        "mu.identity": "cd2a0afdea9d1f17",
        "mu.cosine": "48eaf9183c7af9b5",
        "init": "ce950ca2a919857f",
        "simulate": "f36c00eb30132179",
        "distance.1": "7f902fa46da46235",
        "block.1": "0767c5a011e5d3e4",
        "distance.4": "5050c97e2b78f86a",
        "block.4": "079479604e3fb6b3",
        "distance.7": "7aa1cb9843e917a5",
        "block.7": "337df65a752c9960",
    },
    "bernoulli-shift-truncated": {
        "sums.identity": "38cd5007b5c87859",
        "sums.cosine": "818b35e043c58032",
        "sums.stationary": "51bd74f3073c2e18",
        "mu.identity": "8d3e5187b5e722fa",
        "mu.cosine": "c225801ae2bb1245",
        "init": "9df667ee73da3268",
        "simulate": "4fb374644da02837",
        "distance.1": "5a36855e9eaf0d75",
        "block.1": "85c574fb5b8ee15b",
        "distance.4": "a6b7aa11a67fdb19",
        "block.4": "1bfcd308fc0a9db4",
        "distance.7": "4d9205c7e47ac7a4",
        "block.7": "bbd5832bd773f868",
    },
    "infinite-memory-geometric": {
        "sums.identity": "3f05a7c3c07b68bc",
        "sums.cosine": "b3c4793cebf2d2b1",
        "sums.stationary": "d9fa5e83b7e5fd85",
        "mu.identity": "77597a9b7a9c5340",
        "mu.cosine": "3e5071e87234bc6f",
        "init": "e2c59c6cfb1e34de",
        "simulate": "f24a6782a6f15925",
        "distance.1": "5ece769cc026c709",
        "block.1": "ea9a15c28b2f9cbb",
        "distance.4": "10a28e86d5953779",
        "block.4": "789b443a30d61426",
        "distance.7": "0e35f7a75a3cadf0",
        "block.7": "94e2f3d43be16d84",
    },
    "infinite-memory-polynomial": {
        "sums.identity": "5746d0a364862935",
        "sums.cosine": "c1e1ca4a12604101",
        "sums.stationary": "fcc8656063dd5fe5",
        "mu.identity": "2f663e6a7f3c11c6",
        "mu.cosine": "970ca23a35afd5af",
        "init": "13e1ea87bc493ea3",
        "simulate": "448eb2c1af3cc7b7",
        "distance.1": "29231cb5a047ad1d",
        "block.1": "a48c5129fd37a95c",
        "distance.4": "c2656df2bf7f61e4",
        "block.4": "a4802fa6a8056961",
        "distance.7": "5e01d1c1488fc4de",
        "block.7": "4d00a3f10c2d0bde",
    },
}


@pytest.mark.parametrize("name", list(MODELS))
def test_streams_match_golden_digests(name):
    assert _streams(MODELS[name]) == GOLDEN[name]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(list(MODELS)),
    st.lists(st.integers(1, 12), min_size=1, max_size=4).map(lambda rs: rs + rs[:1]),
    st.lists(st.integers(1, 30), min_size=1, max_size=2),
    st.integers(1, 6),
    st.integers(0, 2**63 - 1),
)
def test_coupling_estimates_read_one_run_per_split(name, rs, js, reps, seed):
    # every r of one split j reads its block sum from the run on lane
    # derive_seed(seed, j); each column equals the run for that r alone and
    # a time-ordered sum over the block's pairs
    model = MODELS[name]
    ests = estimate_coupling_delta(model, rs, js, reps, seed)
    assert [(e.r, e.j) for e in ests] == [(r, j) for r in rs for j in js]
    for j in js:
        seeds = replication_seeds(derive_seed(seed, j), 0, reps)
        shared = coupled_distance_sums(model, rs, seeds)
        assert shared.shape == (reps, len(rs))
        dist = [np.abs(d) for d in _differences(model, max(rs), seeds)]
        for col, r in zip(shared.T, rs):
            assert np.array_equal(col, coupled_distance_sums(model, [r], seeds)[:, 0])
            ref = np.zeros(reps)
            for d in dist[r - 1:2 * r - 1]:  # i = r .. 2r-1
                ref += d
            assert np.array_equal(col, ref)
    for e in ests:
        seeds = replication_seeds(derive_seed(seed, e.j), 0, reps)
        alone = coupled_distance_sums(model, [e.r], seeds)
        assert e.max_sum == float(np.max(alone)) and e.witness == e.max_sum / e.r


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, model in MODELS.items():
        print(f'    "{name}": {{')
        for key, value in _streams(model).items():
            print(f'        "{key}": "{value}",')
        print("    },")
    print("}")
