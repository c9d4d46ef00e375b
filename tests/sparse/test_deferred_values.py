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
#: ``tiny`` spec, computed with the eager generators the deferred ones
#: replaced.
TINY_DIGESTS = {
    "regular_256_0": (
        "30fe04b42f67e74057236cec844081de5b5c5c4750374b25c2ffd371354408da",
        "87590f1ceb10dd95c186e55ff89be00fbd70f57e75857d5954dbd9b80e410daf",
    ),
    "banded_256_0": (
        "2349a5947e3442cb80d77825e4b01e2e385860a45155c38328aa83834f188931",
        "f3a090c0588d37f0bf2cdadd3bbab92085ffcef7bcb32fe0eed435bdab2ecba3",
    ),
    "power_law_256_0": (
        "050364c129c06039cda55b0f0e63ffe16c61a7a17c89d1dffb89f742e038ca11",
        "7eab6c28b1008b45a79b7e654b0300c546bf0ca96649fe82ef78f400e47d89a1",
    ),
    "heavy_tail_256_0": (
        "ac1148117209810e0ca166c1b040f7411ce0429e1731617b8da05eb97a5bba27",
        "de7c47ca3b1557bf3db29f0d83b86bd57a7268abe25a5752b3439c96d0eddb02",
    ),
    "skewed_256_0": (
        "c1a78755dc58f91905a95357e8116321373abb931dbe63d731adebd28701bdf3",
        "d1e5975320bbfea5aedde716ea394d90f9187a0d2ce457269a22c1de18b7b237",
    ),
    "uniform_256_0": (
        "5900b0112af51791aff3ecc3be4d22d01f3455457df3f692ae83a8af7bb38dd1",
        "8ea44433694e54f3b35a51e94ac579210538ba5029bd60aaa73b7c8aabeea63d",
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
        "82f8e883f14c0f0604c7360cb63898dcd58862c7bc3012bc646cbe85656ebc15",
    ),
    "diagonal_256_0": (
        "49659ea37d574ee00b970ca758fd9d83b1f51aa30ed6387786552b8540a59e76",
        "bbd330b12e8159e117376ef24fa106413bc9fc18032a0d43e95c5dae5e47953f",
    ),
    "road_network_256_0": (
        "7af22edfc46f09c2f7f1958d329b0cf9b98409fc5bd8608b83439b0944f382e7",
        "3971f44f48fcf7833dcb04b51a8f3083dfa83e022b044dfbe51f910a2c95aa00",
    ),
    "regular_1024_0": (
        "e7845d65a5be231922bf01079128005ff7a1ee62f480e29983833c83339d8462",
        "4aa090f0e7e9d1b3b28ca9318cc208ae53932b4b3f984e4266e4dc149f1bad90",
    ),
    "banded_1024_0": (
        "ff290606e865f0da11590ad989519a710a25db401be086383950a026dbd6c1de",
        "68fc5e9e8e9a40cf1c8fa42f3c0a61ce894451fb3bddbdb6fc5c9856dd92769c",
    ),
    "power_law_1024_0": (
        "03063b9ac735c30d5917a90aa1134c1aeb0681e9d51cfdcca6ea921d949fa522",
        "5cb122f20d35f7f4b17369bceb4c0ebc31e72050b9614c1bd3741ed94dbc8989",
    ),
    "heavy_tail_1024_0": (
        "d351f2fc87dfbe6b7cc2fb9ee63b0a16fd116abb44840fff5bf05eea2fd72c86",
        "582b4353f6f0546767a75f2c043ab7636d9029fba64a425c092d5e0860459e3e",
    ),
    "skewed_1024_0": (
        "0c985431fa6054b574d6fa0dde549b59f3614a85317de84facd5397258cbf3ca",
        "156c0964acbdb3266ae09e5ac5a2de7505a37a9ed826d23a0dff0f94ce7cff4c",
    ),
    "uniform_1024_0": (
        "626704a87eeb569d988146ba82b269249b70fbebb64107d9ffeccc50b303000d",
        "ad496d7b0c4efc7794e3fecd6f504e429689d179fa0076f25607f12718ad59e1",
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
        "95a8eecd03e9a62457c0a158b436ded51f7400ce14dc4a9b70dadc19de7a520d",
    ),
    "diagonal_1024_0": (
        "af0b4baf90af7a0b9ab8e795ab4e0402b8adae1786d70eee074b5a38897d37ec",
        "2f88e9ce00d238e7e011a7b140b413dcad818f1da41a721f914f1af604d0e217",
    ),
    "road_network_1024_0": (
        "f067b42a381282ef7daa5b55630800f53511e273ecad6343b38086080339f2e8",
        "f7bcc99823e1c0ac61b2f95f0a4aa661ee497064138ad3e7e4628a8502421b73",
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
