"""Bit-for-bit pins of the falsifiers' random draws, layer by layer.

The acceptance maxima of the one-bit falsifiers are far from their bounds,
and ``capacity_search`` returns the antipodal 1.0 whatever its tables hold,
so only these digests see a change to the random stream, to the draw order
or to the rounding of a table.  Each is a sha256 over raw ``tobytes()``:

- every table a search hands to Blahut-Arimoto, in the order the search
  optimises them, at seeds 0-3;
- every field of each of those tables' ``CapacityResult``, as hex, and the
  search's maximum;
- the stacks ``random_measurement`` and ``random_measurements`` return, and
  one uniform drawn after them, which pins where they leave the stream;
- the stacks ``random_product_measurement`` yields for a block of three, in
  index order, and one uniform drawn after them.

The digests were recorded with numpy 2.4; numpy does not promise the same
Generator streams across releases.
"""

import hashlib

import numpy as np
import pytest

from gptlab import capacity_search, product_decoding_baseline, separable_baseline
from gptlab.hst import random_measurement, random_measurements
from gptlab.protocols import random_product_measurement

SEEDS = range(4)

# name: (search, dimension or bit count, trials)
SEARCHES = {
    "capacity_search_dim2": (capacity_search, 2, 100),
    "capacity_search_dim3": (capacity_search, 3, 100),
    "capacity_search_dim7": (capacity_search, 7, 100),
    "capacity_search_dim15": (capacity_search, 15, 100),
    "separable_baseline_dim3": (separable_baseline, 3, 40),
    "product_decoding_baseline_n2": (product_decoding_baseline, 2, 40),
}

TABLE_DIGESTS = {
    "capacity_search_dim2": "e4c7ecbdc980e8485553d8249e986956dbd7051ef239b6071b5c8d83a2e9e977",
    "capacity_search_dim3": "0873fb175df76fa5e3a25eeacbf058d0a3d6b8867af173b734e2cd2a72ed9d4c",
    "capacity_search_dim7": "98f9709b2384a92c70c896e716f5dfd2f2da973ddb25ce6a6a14bbfd80b86f75",
    "capacity_search_dim15": "eac82ae738b4b3289613d8398aa78d3658da501456d9ef5be20b04494936e81d",
    "separable_baseline_dim3": "1d4526a872dd354e11365b228cff1c10893586c2b4160184677b62bb732f3df4",
    "product_decoding_baseline_n2": "7aa7c3de3cf655fb3dab7404d3f2f0ad1503c912760bd375d45b7b92c3a5492e",
}

RESULT_DIGESTS = {
    "capacity_search_dim2": "ce98aadc025424bb23e784bb8da77bcdc1eacf9e80917fe230dbe5994cb3f1a2",
    "capacity_search_dim3": "3c58610c8cb1809b3d5c7ed3caae6d0738ac39903e35581acbf9813033b799cb",
    "capacity_search_dim7": "8931420176af77ebe4df5830e0e5109c9976a19c277bd07ad2f046b4942eca52",
    "capacity_search_dim15": "e852394a595e9c43c6f6ce50cf0b4d2a68b147c2f7abcfdefda950917e37854e",
    "separable_baseline_dim3": "4a345dd52631aee770ccc30795f31ed69467eb9aca070fc330142cd9a8c28367",
    "product_decoding_baseline_n2": "bbcb272d68ea4e0e3fdec86f3b495ad5c7567ad681b5b98ec484f51b2affcb5e",
}

MEASUREMENT_DIGESTS = {
    1: "3505fa7348ff9826185c1bc7f0c12305b7bea6240ed11914ce6c14be77f7b183",
    3: "3ae32ab499be3bed2dbc51c283063e1417e32e83f2478dd7572751bc6dd564e4",
    15: "05b5c5f8a1f275d52e7230c7a74ce714fafb579403cdef7ed1f708ee3f5abecb",
}

STACK_DIGESTS = {
    1: "8ee7e7b838c5b8874ca9f8494e7ec479bf3fea5a081ddfa02c02bad25491d818",
    3: "ecc1fabd7820d0431ee73e4383cd7660de69d7879732d9473087876c79c8b5a9",
    15: "c89ca4b660f5e0596e8e78e4438f7bb5f07f02503ac69c552690e742c8a1712b",
}

PRODUCT_DIGESTS = {
    1: "fe98f55bb41b19baae60020bdbb96f4b6ff5cbba13a685f0bffaedc3d2df3aef",
    3: "6eb1eaef446ce935a89f518df753f99e478e3621e1110d4e6e2d80bbc5cf6122",
    7: "99b83574fffdc6bed29e3467ce15ea38db1016274975106327b0e7fa6feeb1d7",
}


def add_array(digest, array: np.ndarray) -> None:
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def add_result(digest, result) -> None:
    fields = (
        result.capacity_bits.hex(),
        result.optimal_prior.tobytes().hex(),
        str(result.iterations),
        str(result.converged),
        result.upper_bits.hex(),
    )
    digest.update(" ".join(fields).encode())


def search_digests(search_tables, search, arg, trials) -> tuple:
    """Digests of the tables and of the results of one search, seeds 0-3."""
    tables, results = hashlib.sha256(), hashlib.sha256()
    for seed in SEEDS:
        best, found = search_tables(search, arg, trials, seed)
        assert len(found) == len(search_tables.tables) == trials
        for table in search_tables.tables:
            add_array(tables, table)
        results.update(best.hex().encode())
        for result in found:
            add_result(results, result)
    return tables.hexdigest(), results.hexdigest()


def measurement_digest(dim: int) -> str:
    """Five ``random_measurement`` draws per seed, then one uniform."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(5):
            add_array(digest, random_measurement(dim, rng))
        digest.update(rng.random().hex().encode())
    return digest.hexdigest()


def stack_digest(dim: int) -> str:
    """``random_measurements`` stacks of 0, 1 and 7 rows per seed, each
    followed by one uniform."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for count in (0, 1, 7):
            add_array(digest, random_measurements(count, dim, 2 + seed, rng))
            digest.update(rng.random().hex().encode())
    return digest.hexdigest()


def product_digest(dim: int) -> str:
    """The three stacks of ``random_product_measurement(3, dim, dim)`` per
    seed, in index order, then one uniform."""
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        stacks = dict(random_product_measurement(3, dim, dim, rng))
        for j in range(3):
            add_array(digest, stacks[j])
        digest.update(rng.random().hex().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", SEARCHES)
def test_search_tables_and_results_are_pinned(search_tables, name):
    search, arg, trials = SEARCHES[name]
    tables, results = search_digests(search_tables, search, arg, trials)
    assert tables == TABLE_DIGESTS[name]
    assert results == RESULT_DIGESTS[name]


@pytest.mark.parametrize("dim", [1, 3, 15])
def test_random_measurement_draws_are_pinned(dim):
    assert measurement_digest(dim) == MEASUREMENT_DIGESTS[dim]


@pytest.mark.parametrize("dim", [1, 3, 15])
def test_random_measurements_stacks_are_pinned(dim):
    assert stack_digest(dim) == STACK_DIGESTS[dim]


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_random_product_measurement_stacks_are_pinned(dim):
    assert product_digest(dim) == PRODUCT_DIGESTS[dim]
