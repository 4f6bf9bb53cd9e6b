"""Unit and property tests for instances, masks, and the file format."""

import random
from itertools import compress

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import oracle_matching_masks
import subsum.model
from subsum import (Instance, InstanceFormatError, SplitMix64, dumps_instance,
                    loads_instance, read_instance, subset_sum, verify,
                    write_instance)
from subsum.model import all_subset_sums, check_mask, sorted_subset_sums


def test_subset_sum_empty_mask_is_zero():
    for elements in [(), (5,), (3, -4, 12), (7, 7, 7)]:
        assert subset_sum(Instance(elements, 0), 0) == 0


def test_subset_sum_singleton():
    assert subset_sum(Instance((5,), 0), 0b1) == 5


def test_subset_sum_mixed_signs():
    assert subset_sum(Instance((3, -4, 12), 0), 0b011) == -1


# Small values give zeros and repeated sums; wide ones pass 64 bits.
_SUM_ELEMENTS = st.lists(st.one_of(st.integers(-3, 3),
                                   st.integers(-(1 << 80), 1 << 80)), max_size=10)


@given(_SUM_ELEMENTS, st.integers(-(1 << 80), 1 << 80))
@example([], 7)
@example([0, 0, 0], 0)
@example([2, 2, -2, 2], -1)
@example([1 << 64, -(1 << 70), (1 << 64) + 1, 3], 1 << 65)
def test_sorted_subset_sums_equal_sorted_reference(elements, target):
    sums = all_subset_sums(elements)
    assert sorted_subset_sums(elements) == sorted(sums)
    # mitm's back list: the values target - back sum, ascending.
    assert (sorted_subset_sums([-a for a in elements], target)
            == sorted(target - s for s in sums))


def test_subset_sum_huge_values_exact():
    big = 10 ** 40
    inst = Instance((big, -big, 1), 0)
    assert subset_sum(inst, 0b111) == 1
    assert subset_sum(inst, 0b011) == 0


def test_mask_out_of_range_rejected():
    inst = Instance((1, 2), 0)
    with pytest.raises(ValueError):
        subset_sum(inst, 0b100)
    with pytest.raises(ValueError):
        subset_sum(inst, -1)


def test_verify_known_solution_against_oracle():
    elements = (3, 34, 4, 12, 5, 2)
    inst = Instance(elements, 9)
    mask_45 = (1 << 2) | (1 << 4)  # elements 4 and 5
    matches = oracle_matching_masks(elements, 9)
    assert mask_45 in matches
    assert verify(inst, mask_45)
    for mask in matches:
        assert verify(inst, mask)


def test_verify_empty_instance():
    assert verify(Instance((), 0), 0)
    assert not verify(Instance((), 3), 0)


def test_verify_false_case():
    assert not verify(Instance((2,), 3), 0b1)


def test_n_property():
    assert Instance((), 0).n == 0
    assert Instance((1, 1, 1), 0).n == 3


def test_non_int_elements_rejected():
    with pytest.raises(TypeError):
        Instance((1, 2.5), 0)
    with pytest.raises(TypeError):
        Instance((1, True), 0)
    with pytest.raises(TypeError):
        Instance((1,), "3")


_Z, _M = "'" + "z" * 59, "'" + "m" * 59
_TEN = "1" + "0" * 59


@pytest.mark.parametrize("call, error, message", [
    (lambda: Instance(("z" * 100000,), 0), TypeError,
     f"element {_Z}... (100002 characters) is not an int"),
    (lambda: Instance((), "z" * 100000), TypeError,
     f"target {_Z}... (100002 characters) is not an int"),
    (lambda: check_mask(Instance((1,), 0), "m" * 100000), TypeError,
     f"mask {_M}... (100002 characters) is not an int"),
    (lambda: SplitMix64(10 ** 4000), ValueError,
     f"seed must be a 64-bit unsigned integer, got {_TEN}... (4001 characters)"),
    (lambda: SplitMix64(10 ** 5000), ValueError,
     "seed must be a 64-bit unsigned integer, got <int of 16610 bits>"),
    (lambda: SplitMix64(0).next_in_range(10 ** 4000, 0), ValueError,
     f"empty range [{_TEN}... (4001 characters), 0]"),
    (lambda: SplitMix64(0).next_below(-10 ** 4000), ValueError,
     f"bound must be positive, got -{_TEN[:59]}... (4002 characters)"),
], ids=["element", "target", "mask", "seed", "seed_past_digit_limit",
        "empty_range", "bound"])
def test_library_errors_quote_a_long_value_bounded(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@st.composite
def instance_and_disjoint_masks(draw):
    elements = tuple(draw(st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=12)))
    n = len(elements)
    full = draw(st.integers(0, (1 << n) - 1))
    split = draw(st.integers(0, (1 << n) - 1))
    return Instance(elements, 0), full & split, full & ~split


@given(instance_and_disjoint_masks())
def test_disjoint_union_additivity(case):
    inst, m1, m2 = case
    assert m1 & m2 == 0
    assert subset_sum(inst, m1 | m2) == subset_sum(inst, m1) + subset_sum(inst, m2)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12), st.randoms())
def test_sum_independent_of_bit_order(elements, rnd):
    inst = Instance(tuple(elements), 0)
    mask = rnd.randrange(1 << inst.n) if inst.n else 0
    indices = [i for i in range(inst.n) if mask >> i & 1]
    rnd.shuffle(indices)
    total = 0
    for i in indices:
        total += elements[i]
    assert subset_sum(inst, mask) == total


def test_verify_agrees_with_independent_summation():
    rnd = random.Random(987654321)
    for _ in range(10 ** 4):
        n = rnd.randrange(0, 13)
        elements = [rnd.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        target = rnd.randint(-10 ** 6, 10 ** 6)
        mask = rnd.randrange(1 << n)
        inst = Instance(tuple(elements), target)
        bits = [(mask >> i) & 1 for i in range(n)]
        independent = sum(compress(elements, bits))
        assert verify(inst, mask) == (independent == target)


def test_dumps_canonical_form():
    inst = Instance((1, -2, 4), 8)
    assert dumps_instance(inst) == '{"n":3,"a":["1","-2","4"],"b":"8"}\n'


_UNDER_LIMIT = [2 ** i for i in range(100)]


@pytest.mark.parametrize("elements, target", [
    (_UNDER_LIMIT + [10 ** 5000], 0),
    (_UNDER_LIMIT + [-10 ** 5000], 0),
    (_UNDER_LIMIT, 10 ** 5000),
], ids=["element", "negative_element", "target"])
def test_dumps_refuses_past_digit_limit_before_converting_any_value(
        monkeypatch, elements, target):
    # The value past the limit comes after many under it; none of those
    # is converted before the refusal.
    converted = []

    def counting_str(value):
        text = str(value)
        converted.append(value)
        return text

    monkeypatch.setattr(subsum.model, "str", counting_str, raising=False)
    with pytest.raises(ValueError, match="limit"):
        dumps_instance(Instance(elements, target))
    assert converted == []


def test_file_round_trip(tmp_path):
    inst = Instance((10 ** 30, -5, 0), -12345678901234567890)
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    assert read_instance(path) == inst
    # identical content on rewrite
    first = path.read_bytes()
    write_instance(inst, path)
    assert path.read_bytes() == first


def test_loads_rejects_digits_past_int_limit():
    doc = '{"n":1,"a":["%s"],"b":"0"}' % ("7" * 5000)
    with pytest.raises(InstanceFormatError, match="5000 digits.*limit"):
        loads_instance(doc)


def test_loads_rejects_length_mismatch():
    with pytest.raises(InstanceFormatError):
        loads_instance('{"n":2,"a":["1"],"b":"0"}')


@pytest.mark.parametrize("doc", [
    '{"n":1,"a":["1.5"],"b":"0"}',
    '{"n":1,"a":["1_0"],"b":"0"}',
    '{"n":1,"a":[" 1"],"b":"0"}',
    '{"n":1,"a":["+1"],"b":"0"}',
    '{"n":1,"a":[1],"b":"0"}',
    '{"n":1,"a":["1"],"b":3}',
    '{"n":1,"a":["1"]}',
    '{"n":-1,"a":[],"b":"0"}',
    '{"n":true,"a":[],"b":"0"}',
    '{"n":0,"a":{},"b":"0"}',
    '["not","an","object"]',
    'not json at all',
])
def test_loads_rejects_malformed(doc):
    with pytest.raises(InstanceFormatError):
        loads_instance(doc)


@pytest.mark.parametrize("doc", [
    '{"n":1,"a":["5"],"b":"5","b":"7"}',
    '{"n":1,"n":1,"a":["5"],"b":"5"}',
    '{"n":1,"a":["5"],"a":["7"],"b":"7"}',
])
def test_loads_refuses_duplicate_keys(doc):
    # json.loads keeps the last value, so the first document would be solved
    # for target 7 though it also says 5.
    with pytest.raises(InstanceFormatError, match="duplicate key"):
        loads_instance(doc)


def test_loads_accepts_negative_and_duplicate_elements():
    inst = loads_instance('{"n":3,"a":["-4","-4","0"],"b":"-8"}')
    assert inst.elements == (-4, -4, 0)
    assert verify(inst, 0b011)
