"""Generator families: determinism, distinctness, and solvability contracts."""

import hashlib
import json
import re
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import subsum.generators
from subsum import (GeneratorSpec, brute_force_solve, dumps_instance,
                    gen_planted, gen_powers_of_two, gen_random_wide, generate,
                    mitm_solve, verify)
from subsum.generators import dumps_meta, has_distinct_subset_sums
from subsum.model import all_subset_sums


def test_powers2_small():
    inst = gen_powers_of_two(3)
    assert inst.elements == (1, 2, 4)
    assert inst.target == 8
    sums = all_subset_sums(inst.elements)
    assert sorted(sums) == list(range(8))


def test_powers2_empty():
    inst = gen_powers_of_two(0)
    assert inst.elements == ()
    assert inst.target == 1
    assert brute_force_solve(inst).solution is None


@pytest.mark.parametrize("n", range(0, 13))
def test_powers2_unsolvable(n):
    inst = gen_powers_of_two(n)
    assert has_distinct_subset_sums(inst.elements)
    assert brute_force_solve(inst).solution is None
    assert mitm_solve(inst).solution is None


@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70)),
                max_size=10))
@example([])
@example([0])
@example([-5])
@example([3, -3])
@example([3, 3])
@example([1, 2, 3])
@example([1, -2, 4, -8, 16])
@example([1, 2, 4, 8, 15])
@example([1, 2, 4, 8, 16, 0])
@example([1 << 100, 1 << 101, 3 << 100])
@example([1 << 100, -(1 << 101), 1 << 102])
def test_distinct_check_matches_all_subset_sums(elements):
    # Small magnitudes give zeros and equal sums; wide ones mostly distinct.
    expected = len(set(all_subset_sums(elements))) == 2 ** len(elements)
    assert has_distinct_subset_sums(elements) is expected


def test_distinct_check_memory_bounded_at_cap():
    # All 2^20 sums in a set peaked near 96 MB; 2 * 3^10 signed half sums
    # peak near 8 MB.
    elements = gen_random_wide(20, 1).elements
    tracemalloc.start()
    try:
        assert has_distinct_subset_sums(elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000, f"distinctness check peaked at {peak} B"


@pytest.mark.parametrize("family, digest", [
    ("random", "d70ef987389b796ca411e0f7078c88114b850b378f535d4f3af4ae73bfc86283"),
    ("planted", "b079a4cfbd8b57d582c325e3eb8360c0d5e50ce0b9fe7d171a8906e74d8ad374"),
], ids=["random", "planted"])
def test_generate_bytes_digest(family, digest):
    # Instance and sidecar bytes for n = 0..20 and seeds 0..19, pinned when
    # the distinctness check enumerated all 2^n sums. The draws at n = 3, 4
    # and 6 include redraws after a failed check.
    h = hashlib.sha256()
    for n in range(21):
        for seed in range(20):
            instance, meta = generate(GeneratorSpec(family, n, seed))
            h.update((dumps_instance(instance) + dumps_meta(meta)).encode())
    assert h.hexdigest() == digest


def test_random_wide_deterministic_bytes():
    a = gen_random_wide(14, 99)
    b = gen_random_wide(14, 99)
    assert dumps_instance(a) == dumps_instance(b)
    assert gen_random_wide(14, 100) != a


def test_random_wide_distinctness_verified():
    inst = gen_random_wide(12, 7)
    sums = all_subset_sums(inst.elements)
    assert len(set(sums)) == 4096


def test_random_wide_bounds():
    inst = gen_random_wide(10, 3)
    assert all(1 <= a <= 4 ** 10 for a in inst.elements)
    assert 1 <= inst.target <= 10 * 4 ** 10


def test_random_wide_empty():
    inst = gen_random_wide(0, 5)
    assert inst.elements == ()
    assert inst.target >= 1
    assert brute_force_solve(inst).solution is None


def test_planted_zero_size_targets_zero():
    inst, mask = gen_planted(8, 11, 0)
    assert mask == 0
    assert inst.target == 0
    assert verify(inst, mask)


def test_planted_mask_always_verifies():
    for seed in range(30):
        n = 4 + seed % 10
        size = seed % (n + 1)
        inst, mask = gen_planted(n, seed, size)
        assert bin(mask).count("1") == size
        assert mask < (1 << n)
        assert verify(inst, mask)


def test_planted_self_check_refuses_a_mask_that_misses(monkeypatch):
    _, mask = gen_planted(8, 1)
    monkeypatch.setattr(subsum.generators, "subset_sum",
                        lambda instance, mask: instance.target + 1)
    with pytest.raises(RuntimeError,
                       match=rf"^planted mask {mask:#x} does not sum to the target$"):
        gen_planted(8, 1)


def test_planted_solvers_find_a_solution():
    inst, mask = gen_planted(16, 3, 5)
    assert verify(inst, mask)
    res = mitm_solve(inst)
    assert res.found and verify(inst, res.solution)
    res = brute_force_solve(inst)
    assert res.found and verify(inst, res.solution)


def test_planted_deterministic():
    assert gen_planted(12, 5, 4) == gen_planted(12, 5, 4)


def test_planted_shares_the_random_draw_rule_not_its_elements():
    # A random attempt also draws its target, so the streams part at the
    # first distinctness redraw: seed 27 redraws at n = 2, seed 0 does not.
    assert gen_planted(2, 0)[0].elements == gen_random_wide(2, 0).elements == (16, 5)
    assert gen_planted(2, 27)[0].elements == (4, 3)
    assert gen_random_wide(2, 27).elements == (3, 15)


@pytest.mark.parametrize("n", [0, 1, 7, 12])
def test_planted_size_defaults_to_half_n(n):
    assert gen_planted(n, 9) == gen_planted(n, 9, n // 2)


def test_planted_full_size():
    inst, mask = gen_planted(6, 2, 6)
    assert mask == 0b111111
    assert inst.target == sum(inst.elements)


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec("nope", 4)
    with pytest.raises(ValueError):
        GeneratorSpec("random", -1)
    with pytest.raises(ValueError):
        GeneratorSpec("random", 4, seed=1 << 64)
    with pytest.raises(ValueError):
        GeneratorSpec("random", 4, planted_size=2)
    with pytest.raises(ValueError):
        GeneratorSpec("planted", 4, planted_size=5)


@pytest.mark.parametrize("gen", [lambda: gen_powers_of_two(-1),
                                 lambda: gen_random_wide(-1, 0)],
                         ids=["powers2", "random"])
def test_negative_n_refused(gen):
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        gen()


def test_planted_size_refusal_names_an_n_past_the_int_str_limit():
    # 10**5000 has more digits than CPython will convert to str by default.
    message = r"^planted_size must be in \[0, <int of 16610 bits>\]$"
    with pytest.raises(ValueError, match=message):
        GeneratorSpec("planted", 10 ** 5000, planted_size=10 ** 5001)
    with pytest.raises(ValueError, match=message):
        gen_planted(10 ** 5000, 0, -1)


def test_generate_powers2_meta():
    instance, meta = generate(GeneratorSpec("powers2", 6))
    assert instance == gen_powers_of_two(6)
    assert meta.seed is None
    assert meta.distinct_verified
    assert meta.planted_mask is None


def test_generate_planted_meta_defaults_to_half_size():
    instance, meta = generate(GeneratorSpec("planted", 9, seed=4))
    assert bin(meta.planted_mask).count("1") == 4
    assert verify(instance, meta.planted_mask)
    assert meta.distinct_verified


def test_generate_flags_unverified_distinctness():
    # n just above the verification cap: accepted probabilistically
    _, meta = generate(GeneratorSpec("random", 21, seed=8))
    assert not meta.distinct_verified
    _, meta = generate(GeneratorSpec("random", 12, seed=8))
    assert meta.distinct_verified


def test_meta_document_has_readme_fields():
    # README's sidecar: {"family":...,"seed":<int|null>,"distinct_verified":
    # <bool>,"planted_mask":"<hex>"|null}. subsum writes it and never reads it.
    for spec in (GeneratorSpec("powers2", 8), GeneratorSpec("random", 8, seed=2),
                 GeneratorSpec("planted", 8, seed=1)):
        instance, meta = generate(spec)
        doc = json.loads(dumps_meta(meta))
        assert list(doc) == ["family", "seed", "distinct_verified", "planted_mask"]
        assert doc["family"] == spec.family
        assert doc["seed"] == (None if spec.family == "powers2" else spec.seed)
        assert doc["distinct_verified"] is True
        if spec.family == "planted":
            assert re.fullmatch("[0-9a-f]+", doc["planted_mask"])
            assert verify(instance, int(doc["planted_mask"], 16))
        else:
            assert doc["planted_mask"] is None


def test_meta_canonical_text():
    _, meta = generate(GeneratorSpec("powers2", 4))
    assert dumps_meta(meta) == ('{"family":"powers2","seed":null,'
                                '"distinct_verified":true,"planted_mask":null}\n')
