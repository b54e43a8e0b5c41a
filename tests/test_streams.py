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
    _coupled_pairs,
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
BLOCKS = ((1, 1), (3, 4), (50, 7))
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
    for j, r in BLOCKS:
        out[f"distance.{j}.{r}"] = _digest(coupled_distance_sums(model, j, [r], SEEDS)[:, 0])
        block = simulate_coupled_block(model, j, r, 99)
        out[f"block.{j}.{r}"] = _digest(np.concatenate([block.original, block.starred]))
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
        "distance.1.1": "2c34ce1df23b838c",
        "block.1.1": "ef465813a4cec29d",
        "distance.3.4": "2c34ce1df23b838c",
        "block.3.4": "467cc233886789d4",
        "distance.50.7": "2c34ce1df23b838c",
        "block.50.7": "702452f6777a4ac2",
    },
    "doubling-map": {
        "sums.identity": "f4ab02e70679f41f",
        "sums.cosine": "724c4f549d010581",
        "sums.stationary": "a6ce81a4bd3c913e",
        "mu.identity": "4cfa5b42ca669328",
        "mu.cosine": "af5570f5a1810b7a",
        "init": "870b28f2d65fee18",
        "simulate": "c2595eaa87dd54c1",
        "distance.1.1": "4591c6ea87f92122",
        "block.1.1": "4909f88757737c66",
        "distance.3.4": "b6c3732d3014817d",
        "block.3.4": "9c00cf41435b77bd",
        "distance.50.7": "c5ba6ec8717bd876",
        "block.50.7": "34b487a743b5649c",
    },
    "kernel-chain": {
        "sums.identity": "4090dd509c336c9a",
        "sums.cosine": "379037ac519de1ef",
        "sums.stationary": "3723231c3fa5ac6e",
        "mu.identity": "4cfa5b42ca669328",
        "mu.cosine": "fd003641510a3ae1",
        "init": "aa960fdc24ad9d00",
        "simulate": "4e0b901208a1726a",
        "distance.1.1": "dff74ec3dc8ca42e",
        "block.1.1": "7b96fa83a98ac8ce",
        "distance.3.4": "5bba7b25c7bf9825",
        "block.3.4": "bf3ed294bf5536ce",
        "distance.50.7": "c82c64a24a830e79",
        "block.50.7": "3291fd2e9623ebaf",
    },
    "bernoulli-shift": {
        "sums.identity": "2874956f2fdcafa5",
        "sums.cosine": "66327e08a5097e4a",
        "sums.stationary": "5205b73d436090f5",
        "mu.identity": "cd2a0afdea9d1f17",
        "mu.cosine": "48eaf9183c7af9b5",
        "init": "ce950ca2a919857f",
        "simulate": "f36c00eb30132179",
        "distance.1.1": "8aae78f773e19fbe",
        "block.1.1": "4b72663598e9a754",
        "distance.3.4": "bde7436be2e491dd",
        "block.3.4": "6f971b4f11ce5e6a",
        "distance.50.7": "0c92ec641c435dcb",
        "block.50.7": "58b8764ed51b02ac",
    },
    "bernoulli-shift-truncated": {
        "sums.identity": "38cd5007b5c87859",
        "sums.cosine": "818b35e043c58032",
        "sums.stationary": "51bd74f3073c2e18",
        "mu.identity": "8d3e5187b5e722fa",
        "mu.cosine": "c225801ae2bb1245",
        "init": "9df667ee73da3268",
        "simulate": "4fb374644da02837",
        "distance.1.1": "259f912050cb2f6a",
        "block.1.1": "be99bca75f6b83e1",
        "distance.3.4": "28b5b13eca1a538a",
        "block.3.4": "aa9e757cb1288de6",
        "distance.50.7": "0da43c98b545b93c",
        "block.50.7": "395b7745bd4a1be0",
    },
    "infinite-memory-geometric": {
        "sums.identity": "3f05a7c3c07b68bc",
        "sums.cosine": "b3c4793cebf2d2b1",
        "sums.stationary": "d9fa5e83b7e5fd85",
        "mu.identity": "77597a9b7a9c5340",
        "mu.cosine": "3e5071e87234bc6f",
        "init": "e2c59c6cfb1e34de",
        "simulate": "f24a6782a6f15925",
        "distance.1.1": "167577148f240b5e",
        "block.1.1": "a1753ba5340b1855",
        "distance.3.4": "b731bdfdf61a1dda",
        "block.3.4": "d213567bc7387d11",
        "distance.50.7": "a57c19d449eac44b",
        "block.50.7": "21707dea6da19da3",
    },
    "infinite-memory-polynomial": {
        "sums.identity": "5746d0a364862935",
        "sums.cosine": "c1e1ca4a12604101",
        "sums.stationary": "fcc8656063dd5fe5",
        "mu.identity": "2f663e6a7f3c11c6",
        "mu.cosine": "970ca23a35afd5af",
        "init": "13e1ea87bc493ea3",
        "simulate": "448eb2c1af3cc7b7",
        "distance.1.1": "56cf5c69866d399a",
        "block.1.1": "fba8e18c9390e4e4",
        "distance.3.4": "55a1afbc485ae5f7",
        "block.3.4": "9472c114c0ab2f01",
        "distance.50.7": "4164a987d3b361d9",
        "block.50.7": "6976cb2128d62630",
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
        shared = coupled_distance_sums(model, j, rs, seeds)
        assert shared.shape == (reps, len(rs))
        dist = [np.abs(xo - xs) for xo, xs in _coupled_pairs(model, j, max(rs), seeds)]
        for col, r in zip(shared.T, rs):
            assert np.array_equal(col, coupled_distance_sums(model, j, [r], seeds)[:, 0])
            ref = np.zeros(reps)
            for d in dist[r - 1:2 * r - 1]:  # i = r+j .. 2r+j-1
                ref += d
            assert np.array_equal(col, ref)
    for e in ests:
        seeds = replication_seeds(derive_seed(seed, e.j), 0, reps)
        alone = coupled_distance_sums(model, e.j, [e.r], seeds)
        assert e.max_sum == float(np.max(alone)) and e.witness == e.max_sum / e.r


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, model in MODELS.items():
        print(f'    "{name}": {{')
        for key, value in _streams(model).items():
            print(f'        "{key}": "{value}",')
        print("    },")
    print("}")
