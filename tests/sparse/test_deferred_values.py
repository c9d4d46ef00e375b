"""Structure-first matrices: deferred values replay the eager draw exactly."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import get_domain
from repro.sparse import generators as gen
from repro.sparse.coo import SparseFormatError
from repro.sparse.csr import DeferredValues, uniform_values


def _generator(seed: int, buffered: bool) -> np.random.Generator:
    rng = np.random.default_rng(seed)
    if buffered:
        # A single uint32 draw leaves the other half of a 64-bit output
        # buffered in the bit generator.
        rng.integers(0, 2**32, dtype=np.uint32)
    return rng


def _continuation(rng: np.random.Generator) -> tuple:
    """Draws that expose any difference in the generator's state."""
    return (
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist(),
        rng.random(3).tolist(),
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    size=st.integers(min_value=0, max_value=5000),
    buffered=st.booleans(),
)
def test_deferred_values_replay_the_eager_draw_and_stream(seed, size, buffered):
    eager = _generator(seed, buffered)
    deferred = _generator(seed, buffered)
    expected = eager.uniform(0.5, 1.5, size=size)

    recipe = uniform_values(deferred, size)
    values = recipe.draw() if isinstance(recipe, DeferredValues) else recipe

    assert values.dtype == np.float64
    np.testing.assert_array_equal(values, expected)
    assert _continuation(deferred) == _continuation(eager)


@pytest.mark.parametrize("buffered", [False, True])
def test_non_pcg64_generators_draw_eagerly(buffered):
    def make():
        rng = np.random.Generator(np.random.MT19937(11))
        if buffered:
            rng.integers(0, 2**32, dtype=np.uint32)
        return rng

    eager, fallback = make(), make()
    expected = eager.uniform(0.5, 1.5, size=257)
    values = uniform_values(fallback, 257)
    assert isinstance(values, np.ndarray)
    np.testing.assert_array_equal(values, expected)
    assert _continuation(fallback) == _continuation(eager)


def test_values_state_words_round_trip():
    recipe = uniform_values(_generator(5, buffered=True), 10)
    restored = DeferredValues.from_words(recipe.to_words(), 10)
    assert restored == recipe
    np.testing.assert_array_equal(restored.draw(), recipe.draw())


@pytest.mark.parametrize(
    "index, value",
    [(1, None), (4, 2), (5, 2**32), (3, 2)],
    ids=["wrong-length", "has_uint32", "uinteger", "even-increment"],
)
def test_malformed_values_state_words_rejected(index, value):
    words = uniform_values(_generator(5, buffered=False), 10).to_words()
    if value is None:
        words = words[:index]
    else:
        words[index] = value
    with pytest.raises(SparseFormatError):
        DeferredValues.from_words(words, 10)
    with pytest.raises(SparseFormatError):
        DeferredValues.from_words(words.astype(np.int64), 10)


def test_nnz_and_validate_leave_the_recipe_undrawn(monkeypatch):
    def refuse(self):
        raise AssertionError("values were drawn")

    monkeypatch.setattr(DeferredValues, "draw", refuse)
    matrix = gen.power_law_matrix(300, 300, 6.0, rng=4)
    assert matrix.nnz == matrix.col_indices.shape[0] > 0
    matrix.validate()
    assert matrix.deferred_values is not None


def test_values_access_draws_once():
    matrix = gen.banded_matrix(64, 5, rng=2)
    assert matrix.deferred_values is not None
    first = matrix.values
    assert matrix.deferred_values is None
    assert matrix.values is first


#: sha256 of ``values.tobytes()`` and ``col_indices.tobytes()`` for every
#: ``tiny`` spec.  The values were computed with the eager generators the
#: deferred ones replaced; the columns with every row sorted, a wrapped
#: column run emitted as its two ascending segments.
TINY_DIGESTS = {
    "regular_256_0": (
        "30fe04b42f67e74057236cec844081de5b5c5c4750374b25c2ffd371354408da",
        "495115e8068628390193e9bea07596dc9e2d3fd93b45b1ff4d8425255b308165",
    ),
    "banded_256_0": (
        "2349a5947e3442cb80d77825e4b01e2e385860a45155c38328aa83834f188931",
        "f3a090c0588d37f0bf2cdadd3bbab92085ffcef7bcb32fe0eed435bdab2ecba3",
    ),
    "power_law_256_0": (
        "050364c129c06039cda55b0f0e63ffe16c61a7a17c89d1dffb89f742e038ca11",
        "41ccf92229ac66ea7e0bab172a2a796c5e1ea55e676d4553ccd65dc23fe816c9",
    ),
    "heavy_tail_256_0": (
        "ac1148117209810e0ca166c1b040f7411ce0429e1731617b8da05eb97a5bba27",
        "a9c9ab01d2ac68dc2f63adb03f76e6cf5c4a308560f16f3dc686fd19a1941201",
    ),
    "skewed_256_0": (
        "c1a78755dc58f91905a95357e8116321373abb931dbe63d731adebd28701bdf3",
        "95a3e772d0a1af0c561c902c56ab78bf1a2ba061ca6e6336dbd17894a390c44b",
    ),
    "uniform_256_0": (
        "5900b0112af51791aff3ecc3be4d22d01f3455457df3f692ae83a8af7bb38dd1",
        "eb1c92283c13c92d1f1efa721763147cee93a9c0f2e5d2cf91eeb4e8b56349e5",
    ),
    "block_256_0": (
        "9c2cbdbdc2b2cc9f5d2df3467c497635dacf2a8239917636c34cf90934ffbc65",
        "45f9f9a28f90e5985e3a60e696069bd5369adafbf67946bd0424578674824561",
    ),
    "variable_block_256_0": (
        "6cd37c20591e310a9941a3fe69007eccdef1280f452c5a0b8849c8f886c91946",
        "0ada1217203bd3b1fcb4ae9a4588ca33b17bf076fdfee0a459139f6a8f6e2ae7",
    ),
    "empty_heavy_256_0": (
        "b4e175c6d619669deda44df62a11bd2ef0e11698d70df0754748d223632a899b",
        "9c956dc5fd72250b9d3c29b530699aa06840b71784202b1a5d91ecfcc15af014",
    ),
    "diagonal_256_0": (
        "49659ea37d574ee00b970ca758fd9d83b1f51aa30ed6387786552b8540a59e76",
        "bbd330b12e8159e117376ef24fa106413bc9fc18032a0d43e95c5dae5e47953f",
    ),
    "road_network_256_0": (
        "7af22edfc46f09c2f7f1958d329b0cf9b98409fc5bd8608b83439b0944f382e7",
        "44d87b4779fdafaeb7259274114a104db9406f89403f517b102aafc5a625d5d3",
    ),
    "regular_1024_0": (
        "e7845d65a5be231922bf01079128005ff7a1ee62f480e29983833c83339d8462",
        "0928ba8473119a6ad64f4bf3ccd3d61811c204e6dc2744bb845b76a70c5243be",
    ),
    "banded_1024_0": (
        "ff290606e865f0da11590ad989519a710a25db401be086383950a026dbd6c1de",
        "68fc5e9e8e9a40cf1c8fa42f3c0a61ce894451fb3bddbdb6fc5c9856dd92769c",
    ),
    "power_law_1024_0": (
        "03063b9ac735c30d5917a90aa1134c1aeb0681e9d51cfdcca6ea921d949fa522",
        "119977bf9e6a271d1d3919443de5770a1ee777149ea48d9bc465a68aafb77f06",
    ),
    "heavy_tail_1024_0": (
        "d351f2fc87dfbe6b7cc2fb9ee63b0a16fd116abb44840fff5bf05eea2fd72c86",
        "582ee9f95d2486a0ea9ad8ef241169575915b0f6ea4a27d6d2d323bb194a98ba",
    ),
    "skewed_1024_0": (
        "0c985431fa6054b574d6fa0dde549b59f3614a85317de84facd5397258cbf3ca",
        "1ed4adc33d23c7b33657cdcf5b7311fc409587ad63262264a87de51007c405a7",
    ),
    "uniform_1024_0": (
        "626704a87eeb569d988146ba82b269249b70fbebb64107d9ffeccc50b303000d",
        "9c6bebb82e2c61e7e13d4fe0c0e2e790c04395a74aaab7e267aebccf666cc2dc",
    ),
    "block_1024_0": (
        "d91cc42aec97663821a4379f0db2f0eb00a257205882402ddd61705028ca459b",
        "183610821ec555f0bf09c35d1c3e7474f909ae2b1bdd435a9a3389097084975f",
    ),
    "variable_block_1024_0": (
        "b50e52345b4679e9c60593cd2d5289e79f2559df89c1d6fd08a6250bb690cb6e",
        "af99f9e5660360bcf6317a558f5328f1631791de67e527a3ac883cf1182dc5b3",
    ),
    "empty_heavy_1024_0": (
        "97d25897287176fdf0a7fdaa41c8d9e0e10965329ad1991e5351dacfd6929640",
        "94440116df7372811dc9e0092a2a7fa6d07e4b8609faa1de8695f23d9a5b6b4d",
    ),
    "diagonal_1024_0": (
        "af0b4baf90af7a0b9ab8e795ab4e0402b8adae1786d70eee074b5a38897d37ec",
        "2f88e9ce00d238e7e011a7b140b413dcad818f1da41a721f914f1af604d0e217",
    ),
    "road_network_1024_0": (
        "f067b42a381282ef7daa5b55630800f53511e273ecad6343b38086080339f2e8",
        "ff3191abf7f01f62174a1db2e99b83ba071ec7ed886dcad63e1bf227fef54356",
    ),
}


def test_tiny_collection_bytes_are_pinned():
    specs = get_domain("spmv").collection_specs("tiny")
    assert [spec.name for spec in specs] == list(TINY_DIGESTS)
    for spec in specs:
        matrix = spec.build()
        digests = (
            hashlib.sha256(matrix.values.tobytes()).hexdigest(),
            hashlib.sha256(matrix.col_indices.tobytes()).hexdigest(),
        )
        assert digests == TINY_DIGESTS[spec.name], spec.name
